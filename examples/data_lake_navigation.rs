//! Data-lake navigation: schema routing over a single massive mart
//! (the Fiben-style scenario of the paper's introduction — hundreds of
//! tables across subject areas, queried by analysts who do not know the
//! schema layout), then over a *lake* of many marts served by the
//! sharded routing tier.
//!
//! Compares the trained router against BM25 on the same questions, shows
//! the diverse candidate schemata the router proposes, and finishes by
//! partitioning a multi-database lake into shards — independently
//! trained, scatter-gather merged, loaded lazily from one bundle.
//!
//! ```sh
//! cargo run --release --example data_lake_navigation
//! ```

use dbcopilot_core::{
    load_sharded_router_bytes, sharded_router_to_vec, DbcRouter, RouterConfig, SerializationMode,
    ShardedRouter,
};
use dbcopilot_eval::{eval_routing, prepare, CorpusKind, Scale};
use dbcopilot_retrieval::{Bm25Index, Bm25Params, SchemaRouter, TargetSet};

fn main() {
    let mut scale = Scale::quick();
    scale.fiben_areas = 14;
    scale.fiben_test = 60;
    println!("Building a financial-mart corpus (one database, many subject areas) …");
    let prepared = prepare(CorpusKind::Fiben, &scale);
    println!(
        "  1 database, {} tables across subject areas",
        prepared.corpus.collection.num_tables()
    );

    println!("Training the schema router on synthesized question–schema pairs …");
    let cfg = RouterConfig { epochs: 8, ..RouterConfig::default() };
    let (router, stats) = DbcRouter::fit(
        prepared.graph.clone(),
        &prepared.synth_examples,
        cfg,
        SerializationMode::Dfs,
    );
    println!("  final training loss {:.3}", stats.epoch_losses.last().unwrap());

    let bm25 = Bm25Index::build(
        TargetSet::from_collection(&prepared.corpus.collection),
        Bm25Params::default(),
    );

    let m_router = eval_routing(&router, &prepared.corpus.test, 100);
    let m_bm25 = eval_routing(&bm25, &prepared.corpus.test, 100);
    println!("\nTable recall on {} mart questions:", prepared.corpus.test.len());
    println!(
        "  {:<10} Tab R@5 {:>6.1}  Tab R@15 {:>6.1}",
        "DBCopilot", m_router.table_r5, m_router.table_r15
    );
    println!(
        "  {:<10} Tab R@5 {:>6.1}  Tab R@15 {:>6.1}",
        "BM25", m_bm25.table_r5, m_bm25.table_r15
    );

    println!("\nCandidate navigation for one question:");
    if let Some(inst) = prepared.corpus.test.first() {
        println!("Q: {}", inst.question);
        println!("gold: {}", inst.schema);
        for (i, cand) in router.route_schemata(&inst.question).iter().take(5).enumerate() {
            println!("  #{:<2} {}  (logp {:.2})", i + 1, cand.schema, cand.logp);
        }
    }

    // -----------------------------------------------------------------
    // Scaling out: a lake of many marts behind the sharded routing tier.
    // -----------------------------------------------------------------
    println!("\nGrowing the scenario: a lake of independent marts, sharded …");
    let lake = prepare(CorpusKind::Spider, &Scale::quick());
    let (tier, _) = ShardedRouter::fit_on(
        &lake.graph,
        &lake.synth_examples,
        Scale::quick().router,
        SerializationMode::Dfs,
        4,
    );
    let m = eval_routing(&tier, &lake.corpus.test, 100);
    println!(
        "  {} databases over {} shards — DB R@1 {:.1}, DB R@5 {:.1} (calibrated scatter-gather)",
        tier.num_databases(),
        tier.num_shards(),
        m.db_r1,
        m.db_r5
    );

    // One bundle, lazy shards: an analyst's first question wakes exactly
    // the shard that owns the mart it lands on.
    let bytes = sharded_router_to_vec(&tier).expect("encode lake bundle");
    let kib = bytes.len() / 1024;
    let cold = load_sharded_router_bytes(bytes).expect("load lake bundle");
    let question = &lake.corpus.test[0].question;
    let shard = cold.shard_of_db(&tier.route(question, 5).databases[0].0);
    let _ = cold.route_shard(shard, question, 5);
    println!(
        "  one {kib} KiB bundle on disk; {} of {} shards decoded after a targeted route",
        cold.loaded_shards(),
        cold.num_shards()
    );
}
