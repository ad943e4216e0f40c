//! Bit-identity probe for training and routing changes, for the deployment
//! `exp_perf` builds (16 databases, 1000 pairs, 5 epochs): the epoch losses,
//! a 64-bit FNV-1a over every trained weight, one over the saved 4-shard
//! bundle, and one over what the first 256 test questions route to — the
//! 4-shard tier's `route(q, 100)` (names and score bits) and the i8
//! monolith's `route_schemata`. Two commits that train, save and route the
//! same print the same four lines at any `DBC_THREADS`; it times nothing.
//! The lines this tree prints are committed in `fit_fingerprint.expected`
//! beside this file.
//!
//! ```sh
//! cargo run --release --example fit_fingerprint
//! ```

use dbcopilot::core::{
    self, DbcRouter, PrecisionSwitch, RoutePrecision, RouterConfig, SerializationMode,
    ShardedRouter,
};
use dbcopilot::graph::{augment_graph_with_joinable, joinable::DEFAULT_JACCARD_THRESHOLD};
use dbcopilot::retrieval::SchemaRouter;
use dbcopilot::synth::{build_spider_like, questioner_pairs, CorpusSizes, Questioner};

fn fnv(bytes: impl IntoIterator<Item = u8>) -> u64 {
    bytes
        .into_iter()
        .fold(0xcbf2_9ce4_8422_2325, |h, b| (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3))
}

/// A name's bytes and a terminating zero, so adjacent names cannot run
/// together.
fn name(out: &mut Vec<u8>, s: &str) {
    out.extend_from_slice(s.as_bytes());
    out.push(0);
}

fn main() {
    let corpus =
        build_spider_like(&CorpusSizes { num_databases: 16, train_n: 600, test_n: 8192 }, 6);
    let mut graph = dbcopilot::graph::SchemaGraph::build(&corpus.collection);
    augment_graph_with_joinable(&mut graph, &corpus.store, DEFAULT_JACCARD_THRESHOLD);
    let questioner = Questioner::train(&questioner_pairs(&corpus), &Default::default());
    let data = core::synthesize_training_data(&graph, &corpus.meta, &questioner, 1000, 37);
    let cfg = RouterConfig { epochs: 5, ..RouterConfig::default() };
    let (mut router, stats) = DbcRouter::fit(graph, &data, cfg.clone(), SerializationMode::Dfs);
    let weights = router.model.store.iter_values().flat_map(|(_, t)| t.as_slice().to_vec());
    println!("epoch_losses {:?}", stats.epoch_losses);
    println!("weights_fnv  {:016x}", fnv(weights.flat_map(|w| w.to_bits().to_le_bytes())));
    let (tier, _) = ShardedRouter::fit(&corpus.collection, &data, cfg, SerializationMode::Dfs, 4);
    let bundle = core::sharded_router_to_vec(&tier).expect("a fitted tier serializes");
    println!("bundle_a_fnv {:016x} ({} bytes)", fnv(bundle.iter().copied()), bundle.len());

    router.set_precision(RoutePrecision::I8);
    let mut routed = Vec::new();
    for q in corpus.test.iter().take(256).map(|inst| inst.question.as_str()) {
        let r = tier.route(q, 100);
        for (db, table, score) in &r.tables {
            name(&mut routed, db);
            name(&mut routed, table);
            routed.extend(score.to_bits().to_le_bytes());
        }
        for (db, score) in &r.databases {
            name(&mut routed, db);
            routed.extend(score.to_bits().to_le_bytes());
        }
        for d in router.route_schemata(q) {
            name(&mut routed, &d.schema.database);
            d.schema.tables.iter().for_each(|t| name(&mut routed, t));
            routed.extend(d.logp.to_bits().to_le_bytes());
        }
    }
    println!("routes_fnv   {:016x}", fnv(routed));
}
