//! Sharded-routing scaling report: quality and throughput vs shard count,
//! plus live demonstrations of the tier's three operational claims —
//! zero-downtime hot swap, lazy multi-shard bundle loading, and
//! shard-local ingestion.
//!
//! ```sh
//! DBC_SCALE=quick cargo run --release --bin exp_sharding
//! ```
//!
//! The full preset targets the paper's "massive collection" regime by
//! scaling the Spider-like corpus and the synthetic training pairs 10×
//! before partitioning; `quick` keeps the CI-sized corpus. At every scale
//! the run *fails* (exit 1) if any acceptance check is violated:
//!
//! 1. DB R@1/R@5 at 4 shards must stay within 2 points of the 1-shard
//!    monolith (the calibrated scatter-gather merge is lossless enough);
//! 2. a hot-swap `publish` under concurrent load must answer every request
//!    (zero drops) and advance the service generation;
//! 3. loading a multi-shard bundle must decode only the queried shard;
//! 4. `extend` with one new database must retrain exactly the owning shard.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use dbcopilot_core::{
    load_sharded_router_bytes, sharded_router_to_vec, SerializationMode, ShardedRouter,
};
use dbcopilot_eval::{eval_routing, measure_qps, prepare, CorpusKind, Scale};
use dbcopilot_retrieval::SchemaRouter;
use dbcopilot_serve::{RouterService, ServiceConfig};
use dbcopilot_sqlengine::{DataType, DatabaseSchema, TableSchema};

const SHARD_COUNTS: [usize; 4] = [1, 2, 4, 8];
/// Quality tolerance (percentage points) between the 4-shard tier and the
/// monolith.
const RECALL_TOLERANCE: f64 = 2.0;

fn main() {
    let mut scale = Scale::from_env();
    let quick = matches!(std::env::var("DBC_SCALE").as_deref(), Ok("quick"));
    if !quick {
        // The sharding experiment is about the regime where one monolithic
        // router stops being attractive: 10× the databases and synthetic
        // pairs of the standard preset.
        scale.spider.num_databases *= 10;
        scale.synth_pairs *= 10;
    }
    let prepared = prepare(CorpusKind::Spider, &scale);
    let questions: Vec<String> = prepared.corpus.test.iter().map(|i| i.question.clone()).collect();
    let qps_batch = if quick { 40 } else { 200 };
    println!(
        "== Sharded routing — {} databases, {} synth pairs, {} test questions ==",
        prepared.corpus.collection.num_databases(),
        prepared.synth_examples.len(),
        prepared.corpus.test.len()
    );
    println!(
        "{:>6} | {:>9} | {:>8} | {:>7} | {:>7}",
        "shards", "fit (s)", "QPS", "DB R@1", "DB R@5"
    );

    let mut failures = Vec::new();
    let mut monolith: Option<(f64, f64)> = None;
    let mut four_shard: Option<ShardedRouter> = None;
    for n in SHARD_COUNTS {
        let t0 = Instant::now();
        let (router, _) = ShardedRouter::fit(
            &prepared.corpus.collection,
            &prepared.synth_examples,
            scale.router.clone(),
            SerializationMode::Dfs,
            n,
        );
        let fit_secs = t0.elapsed().as_secs_f64();
        let m = eval_routing(&router, &prepared.corpus.test, 100);
        let qps = measure_qps(&router, &questions, qps_batch);
        println!("{n:>6} | {fit_secs:>9.2} | {qps:>8.1} | {:>7.1} | {:>7.1}", m.db_r1, m.db_r5);
        if n == 1 {
            monolith = Some((m.db_r1, m.db_r5));
        }
        if n == 4 {
            let (r1, r5) = monolith.expect("1-shard row runs first");
            if m.db_r1 < r1 - RECALL_TOLERANCE || m.db_r5 < r5 - RECALL_TOLERANCE {
                failures.push(format!(
                    "4-shard recall degraded beyond {RECALL_TOLERANCE} points: \
                     R@1 {:.1} vs {r1:.1}, R@5 {:.1} vs {r5:.1}",
                    m.db_r1, m.db_r5
                ));
            }
            four_shard = Some(router);
        }
    }
    let four_shard = four_shard.expect("shard sweep includes 4");

    demo_lazy_loading(&four_shard, &questions, &mut failures);
    let extended = demo_shard_local_extend(&prepared, &four_shard, &mut failures);
    demo_hot_swap(four_shard, extended, &questions, &mut failures);

    if !failures.is_empty() {
        for f in &failures {
            eprintln!("ACCEPTANCE FAILURE: {f}");
        }
        std::process::exit(1);
    }
    println!("all sharding acceptance checks passed");
}

/// Save → load a multi-shard bundle and show that serving one shard
/// decodes one shard (the per-shard `loaded` counters are the evidence).
fn demo_lazy_loading(router: &ShardedRouter, questions: &[String], failures: &mut Vec<String>) {
    let path = std::env::temp_dir().join("dbc_exp_sharding.dbc1");
    let bundle = sharded_router_to_vec(router).expect("encode sharded bundle");
    std::fs::write(&path, bundle).expect("save sharded bundle");
    let bundle = std::fs::read(&path).expect("read sharded bundle");
    let loaded = load_sharded_router_bytes(bundle).expect("load sharded bundle");
    let cold = loaded.loaded_shards();
    let gold = &loaded.database_names()[0];
    let _ = loaded.route_shard(loaded.shard_of_db(gold), &questions[0], 10);
    let warm = loaded.loaded_shards();
    let states: Vec<&str> =
        loaded.shard_counters().iter().map(|c| if c.loaded { "hot" } else { "cold" }).collect();
    println!(
        "\n== Lazy loading — {} shards on disk, {cold} decoded after load, \
         {warm} after one single-shard route [{}] ==",
        loaded.num_shards(),
        states.join(" ")
    );
    if cold != 0 || warm != 1 {
        failures.push(format!(
            "lazy load decoded {cold} shards at load and {warm} after one route \
             (want 0 then 1)"
        ));
    }
    let _ = std::fs::remove_file(&path);
}

/// Add one database to the collection and show that `extend` retrains only
/// the shard that owns it.
fn demo_shard_local_extend(
    prepared: &dbcopilot_eval::Prepared,
    router: &ShardedRouter,
    failures: &mut Vec<String>,
) -> ShardedRouter {
    let mut grown = prepared.corpus.collection.clone();
    let mut db = DatabaseSchema::new("telemetry_hub");
    db.add_table(TableSchema::new("sensor").column("id", DataType::Int).primary(0));
    db.add_table(TableSchema::new("reading").column("id", DataType::Int).primary(0));
    grown.add_database(db);
    let owner = router.shard_of_db("telemetry_hub");

    let t0 = Instant::now();
    let (extended, retrained) = router
        .extend(&grown, &prepared.corpus.meta, &prepared.questioner, 48, 2)
        .expect("shard-local extend");
    let secs = t0.elapsed().as_secs_f64();
    let shards: Vec<usize> = retrained.iter().map(|(s, _)| *s).collect();
    println!(
        "== Shard-local ingestion — telemetry_hub lands on shard {owner}; \
         retrained {shards:?} of {} shards in {secs:.2}s ==",
        extended.num_shards()
    );
    if shards != [owner] {
        failures.push(format!("extend retrained shards {shards:?}, want only the owner {owner}"));
    }
    if !extended.database_names().iter().any(|n| n == "telemetry_hub") {
        failures.push("extended tier does not serve the new database".to_string());
    }
    extended
}

/// Publish the extended tier while clients are routing: every request must
/// be answered and the service generation must advance.
fn demo_hot_swap(
    before: ShardedRouter,
    after: ShardedRouter,
    questions: &[String],
    failures: &mut Vec<String>,
) {
    // No cache: every request exercises whichever router is current.
    let service =
        RouterService::new(Arc::new(before), ServiceConfig::new().cache_capacity(0).top_tables(10));
    let clients: u64 = 4;
    let rounds: u64 = 24;
    let answered = AtomicU64::new(0);
    let after = Arc::new(after);
    std::thread::scope(|s| {
        for client in 0..clients {
            let (service, answered) = (&service, &answered);
            // dbc-lint: allow(no-raw-spawn): hot-swap demo clients must be
            // independent OS threads hammering the service concurrently —
            // pooling them would serialize the swap being demonstrated.
            s.spawn(move || {
                for round in 0..rounds {
                    let q = &questions[((client + round * clients) as usize) % questions.len()];
                    let r = service.route(q);
                    assert!(!r.databases.is_empty(), "request answered by a live generation");
                    answered.fetch_add(1, Ordering::Relaxed);
                }
            });
        }
        service.publish(Arc::clone(&after));
    });
    let answered = answered.load(Ordering::Relaxed);
    let generation = service.generation();
    println!(
        "== Hot swap — {answered}/{} requests answered across the publish, \
         generation {generation}, new tier serves {} databases ==",
        clients * rounds,
        service.router().num_databases()
    );
    if answered != clients * rounds {
        failures.push(format!("hot swap dropped {} requests", clients * rounds - answered));
    }
    if generation != 2 {
        failures.push(format!("publish must advance the generation to 2, got {generation}"));
    }
}
