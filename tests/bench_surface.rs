//! The benchmark surface, pinned where tier-1 can see it.
//!
//! `exp_perf/` is a package of its own: the root `cargo test` does not
//! compile it, so a signature it calls can move and stay invisible until
//! the benchmark driver builds it. This file names, with their full
//! signatures, the items of that surface PR 21 worked next to; it only has
//! to compile. It is the seed of ROADMAP item 1(iv), which extends it to the
//! whole list in `exp_perf/README.md` ("Public entry points the benchmark
//! calls"). Changing a line here is changing the benchmark contract: that is
//! a `benchmark` PR of its own.

// Spelling each signature out in full is the point of this file.
#![allow(clippy::type_complexity)]

use std::sync::Arc;

use dbcopilot::core::{
    load_sharded_router_bytes, sharded_router_to_vec, DbcRouter, PersistError, RouterConfig,
    SerializationMode, ShardedRouter, TrainExample, TrainStats,
};
use dbcopilot::http::{wire, Dispatcher, Response, ServiceApp};
use dbcopilot::retrieval::{RoutingResult, SchemaRouter};
use dbcopilot::serve::{
    AskOutcome, AskService, QueryPipeline, RouterService, ServiceConfig, ServiceStats,
};
use dbcopilot::sqlengine::Collection;
use dbcopilot::synth::{CorpusMeta, Questioner};

fn wire_and_response() {
    let _: fn(&str) -> String = wire::question_body;
    let _: fn(&[u8]) -> Result<String, String> = wire::parse_question;
    let _: fn(&AskOutcome) -> (u16, String) = wire::ask_response;
    let _: fn(&str, &RoutingResult) -> (u16, String) = wire::route_response;
    let _: fn(u16, String) -> Response = Response::json;
    let _: fn(&Response, bool) -> Vec<u8> = Response::to_bytes;
}

fn dispatcher<D: Dispatcher>() {
    let _: fn(&D, &str) -> Arc<AskOutcome> = D::ask;
    let _: fn(&D, &str) -> Option<Arc<RoutingResult>> = D::route;
    let _: fn(&D) -> Vec<(&'static str, ServiceStats)> = D::stats;
    let _: fn(&D) -> u64 = D::generation;
    let _: fn(&D, &serde::Value) -> Result<u64, String> = D::publish;
}

fn services<P, R>(app: ServiceApp<P, R>) -> ServiceApp<P, R>
where
    P: QueryPipeline + 'static,
    R: SchemaRouter + Send + Sync + 'static,
{
    let _: fn(AskService<P>, RouterService<R>) -> ServiceApp<P, R> = ServiceApp::new;
    let _: fn(Arc<R>, ServiceConfig) -> RouterService<R> = RouterService::new;
    let _: fn(&RouterService<R>, &str) -> Arc<RoutingResult> = RouterService::route;
    let _: fn(&RouterService<R>) -> ServiceStats = RouterService::stats;
    dispatcher::<ServiceApp<P, R>>();
    app.with_publisher(|_spec: &serde::Value| -> Result<Arc<R>, String> { Err(String::new()) })
}

fn routers_and_bundles() {
    let _: fn(&ShardedRouter) -> Result<Vec<u8>, PersistError> = sharded_router_to_vec;
    let _: fn(Vec<u8>) -> Result<ShardedRouter, PersistError> = load_sharded_router_bytes;
    let _: fn(
        &Collection,
        &[TrainExample],
        RouterConfig,
        SerializationMode,
        usize,
    ) -> (ShardedRouter, Vec<TrainStats>) = ShardedRouter::fit;
    let _: fn(
        &ShardedRouter,
        &Collection,
        &CorpusMeta,
        &Questioner,
        usize,
        usize,
    ) -> Result<(ShardedRouter, Vec<(usize, TrainStats)>), PersistError> = ShardedRouter::extend;
    let _: fn(&ShardedRouter, &str, usize) -> RoutingResult = ShardedRouter::route;
    let _: fn(&ShardedRouter, usize) -> Option<Arc<DbcRouter>> = ShardedRouter::shard_router;
    let _: fn(&ShardedRouter, &str) -> usize = ShardedRouter::shard_of_db;
    let _: fn(&ShardedRouter) -> Vec<String> = ShardedRouter::database_names;
    let _: fn(&ShardedRouter) -> usize = ShardedRouter::num_shards;
    let _: fn(&DbcRouter, &str, usize) -> RoutingResult = DbcRouter::route;
    let _: fn(&DbcRouter, &str, &str) -> Option<f32> = DbcRouter::name_logp_unconstrained;
    let _: fn(String) -> PersistError = PersistError::Corrupt;
    let _: fn(PersistError) -> Box<dyn std::error::Error> = |e| Box::new(e);
}

#[test]
fn the_benchmark_surface_compiles() {
    wire_and_response();
    routers_and_bundles();
    // Generic over the deployment's pipeline and router: naming the
    // function is enough to have it type-checked.
    let _ = services::<dbcopilot::DbCopilot, ShardedRouter>;
}
