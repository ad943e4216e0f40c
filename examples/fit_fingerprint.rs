//! Bit-identity probe for training changes: the epoch losses, a 64-bit FNV-1a
//! over every trained weight, and one over the saved 4-shard bundle, for the
//! deployment `exp_perf` builds (16 databases, 1000 pairs, 5 epochs). Two
//! commits that train the same model print the same three lines at any
//! `DBC_THREADS`; it times nothing.
//!
//! ```sh
//! cargo run --release --example fit_fingerprint
//! ```

use dbcopilot::core::{self, DbcRouter, RouterConfig, SerializationMode, ShardedRouter};
use dbcopilot::graph::{augment_graph_with_joinable, joinable::DEFAULT_JACCARD_THRESHOLD};
use dbcopilot::synth::{build_spider_like, questioner_pairs, CorpusSizes, Questioner};

fn fnv(bytes: impl IntoIterator<Item = u8>) -> u64 {
    bytes
        .into_iter()
        .fold(0xcbf2_9ce4_8422_2325, |h, b| (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3))
}

fn main() {
    let corpus =
        build_spider_like(&CorpusSizes { num_databases: 16, train_n: 600, test_n: 8192 }, 6);
    let mut graph = dbcopilot::graph::SchemaGraph::build(&corpus.collection);
    augment_graph_with_joinable(&mut graph, &corpus.store, DEFAULT_JACCARD_THRESHOLD);
    let questioner = Questioner::train(&questioner_pairs(&corpus), &Default::default());
    let data = core::synthesize_training_data(&graph, &corpus.meta, &questioner, 1000, 37);
    let cfg = RouterConfig { epochs: 5, ..RouterConfig::default() };
    let (router, stats) = DbcRouter::fit(graph, &data, cfg.clone(), SerializationMode::Dfs);
    let weights = router.model.store.iter_values().flat_map(|(_, t)| t.as_slice().to_vec());
    println!("epoch_losses {:?}", stats.epoch_losses);
    println!("weights_fnv  {:016x}", fnv(weights.flat_map(|w| w.to_bits().to_le_bytes())));
    let (tier, _) = ShardedRouter::fit(&corpus.collection, &data, cfg, SerializationMode::Dfs, 4);
    let bundle = core::sharded_router_to_vec(&tier).expect("a fitted tier serializes");
    println!("bundle_a_fnv {:016x} ({} bytes)", fnv(bundle.iter().copied()), bundle.len());
}
