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
//!    (zero drops) and advance the service generation, and a publish of a
//!    loaded bundle must adopt exactly the shards the old tier shares with
//!    it and answer as a fresh load does;
//! 3. loading a multi-shard bundle must decode only the queried shard;
//! 4. `extend` with one new database must retrain exactly the owning shard.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use dbcopilot_core::{
    load_sharded_router_bytes, sharded_router_to_vec, SerializationMode, ShardedRouter,
};
use dbcopilot_eval::{eval_routing, measure_qps, prepare, CorpusKind, Scale};
use dbcopilot_retrieval::{RoutingResult, SchemaRouter};
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
/// be answered and the service generation must advance. Both tiers go
/// through a `DBC1` round trip first, as a deployment would load them, so
/// each publish can adopt the shards the tiers share: exactly the shards
/// `extend` left alone must come over decoded, and every answer must equal
/// a fresh load's.
fn demo_hot_swap(
    before: ShardedRouter,
    after: ShardedRouter,
    questions: &[String],
    failures: &mut Vec<String>,
) {
    const TOP_TABLES: usize = 10;
    let changed = after.shard_of_db("telemetry_hub");
    let bundles = [
        sharded_router_to_vec(&before).expect("encode the tier before"),
        sharded_router_to_vec(&after).expect("encode the tier after"),
    ];
    let load = |tier: usize| load_sharded_router_bytes(bundles[tier].clone()).expect("load tier");
    // No serving cache: every request reaches whichever router is current
    // (after a publish, its adopted shards answer the questions asked
    // before it from their memos).
    let service = RouterService::new(
        Arc::new(load(0)),
        ServiceConfig::new().cache_capacity(0).top_tables(TOP_TABLES),
    );
    // One scatter-gather decodes every shard, so the publish below has
    // something to adopt.
    service.route(&questions[0]);
    let clients: u64 = 4;
    let rounds: u64 = 24;
    let answered = AtomicU64::new(0);
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
        service.publish(Arc::new(load(1)));
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

    // Swap back and forth with no traffic in between, so what is decoded
    // right after a publish is exactly what it adopted.
    let sample: Vec<&String> = questions.iter().take(32).collect();
    for tier in [0, 1] {
        service.route(&questions[0]); // decode the current tier's every shard
        service.publish(Arc::new(load(tier)));
        let adopted: Vec<usize> = service
            .router()
            .shard_counters()
            .iter()
            .enumerate()
            .filter(|(_, c)| c.loaded)
            .map(|(s, _)| s)
            .collect();
        let unchanged: Vec<usize> = (0..after.num_shards())
            .filter(|&s| s != changed && after.shard_counters()[s].databases > 0)
            .collect();
        let fresh = load(tier);
        let differing = sample
            .iter()
            .filter(|q| bits(&service.route(q)) != bits(&fresh.route(q, TOP_TABLES)))
            .count();
        println!(
            "== Adoption — publishing tier {} adopted shards {adopted:?} (unchanged: \
             {unchanged:?}); {differing}/{} answers differ from a fresh load ==",
            ["before", "after"][tier],
            sample.len()
        );
        if adopted != unchanged {
            failures.push(format!(
                "publish adopted shards {adopted:?}, want exactly the unchanged {unchanged:?}"
            ));
        }
        if differing > 0 {
            failures.push(format!("{differing} answers after an adopting publish differ"));
        }
    }
}

/// Names and score bits of a routing's tables and databases, in order.
type Bits<'a> = (Vec<(&'a str, &'a str, u32)>, Vec<(&'a str, u32)>);

fn bits(r: &RoutingResult) -> Bits<'_> {
    (
        r.tables.iter().map(|(d, t, s)| (d.as_str(), t.as_str(), s.to_bits())).collect(),
        r.databases.iter().map(|(d, s)| (d.as_str(), s.to_bits())).collect(),
    )
}
