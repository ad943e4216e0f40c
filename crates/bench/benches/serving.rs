//! Serving-layer micro-benchmarks: persistent-pool dispatch vs the serial
//! loop, warm-cache hits vs cold routes, and micro-batched routing through
//! the `RouterService`.
//!
//! The dispatch group isolates executor overhead on repeated *small*
//! batches — the regime micro-batched serving lives in. The cache group
//! compares a served warm hit against the cold model route it replaces.

use std::sync::Arc;

use criterion::{black_box, criterion_group, criterion_main, Criterion};

use dbcopilot_core::{DbcRouter, SerializationMode};
use dbcopilot_eval::{prepare, CorpusKind, Scale};
use dbcopilot_retrieval::SchemaRouter;
use dbcopilot_runtime::{with_thread_count, WorkerPool};
use dbcopilot_serve::{RouterService, ServiceConfig};

/// Same tiny fixture rationale as `benches/routing.rs`: latency benches do
/// not need a converged model.
fn bench_scale() -> Scale {
    let mut s = Scale::quick();
    s.spider = dbcopilot_synth::CorpusSizes { num_databases: 8, train_n: 120, test_n: 10 };
    s.synth_pairs = 200;
    s.router.epochs = 2;
    s.encoder.epochs = 2;
    s
}

/// A few microseconds of integer work — small enough that dispatch
/// overhead dominates, which is exactly the regime micro-batched serving
/// lives in.
fn small_work(x: u64) -> u64 {
    let mut h = x;
    for _ in 0..400 {
        h = h.wrapping_mul(0x9E37_79B9_7F4A_7C15).rotate_left(17) ^ x;
    }
    h
}

fn bench_dispatch(c: &mut Criterion) {
    let items: Vec<u64> = (0..16).collect();
    let pool = WorkerPool::new(4);

    let mut group = c.benchmark_group("dispatch_small_batch");
    group.bench_function("worker_pool", |b| {
        b.iter(|| {
            with_thread_count(4, || {
                pool.map_chunks(black_box(&items), 4, |_, c| {
                    c.iter().map(|&x| small_work(x)).sum::<u64>()
                })
            })
        })
    });
    group.bench_function("serial_baseline", |b| {
        b.iter(|| {
            black_box(&items)
                .chunks(4)
                .map(|c| c.iter().map(|&x| small_work(x)).sum::<u64>())
                .collect::<Vec<_>>()
        })
    });
    group.finish();
}

fn bench_serving(c: &mut Criterion) {
    let scale = bench_scale();
    let prepared = prepare(CorpusKind::Spider, &scale);
    let questions: Vec<String> = prepared.corpus.test.iter().map(|i| i.question.clone()).collect();
    let (router, _) = DbcRouter::fit(
        prepared.graph.clone(),
        &prepared.synth_examples,
        scale.router.clone(),
        SerializationMode::Dfs,
    );
    let router = router.into_shared();

    let mut group = c.benchmark_group("route_cache");
    // Cold path: the model route a cache miss pays.
    let question = questions[0].clone();
    {
        let router = Arc::clone(&router);
        group.bench_function("cold_route", |b| b.iter(|| router.route(black_box(&question), 100)));
    }
    // Warm path: the same question served from the LRU cache.
    let service = RouterService::new(Arc::clone(&router), ServiceConfig::default());
    service.warm(&questions);
    group.bench_function("warm_cache_hit", |b| b.iter(|| service.route(black_box(&question))));
    group.finish();

    // Micro-batched serving throughput: all test questions in one
    // route_many sweep, cache disabled so every question routes.
    let mut group = c.benchmark_group("route_batch");
    let uncached = RouterService::new(Arc::clone(&router), ServiceConfig::new().cache_capacity(0));
    group.sample_size(10);
    group.bench_function("service_route_many", |b| {
        b.iter(|| uncached.route_many(black_box(&questions)))
    });
    group.bench_function("direct_loop", |b| {
        b.iter(|| black_box(&questions).iter().map(|q| router.route(q, 100)).collect::<Vec<_>>())
    });
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(30);
    targets = bench_dispatch, bench_serving
}
criterion_main!(benches);
