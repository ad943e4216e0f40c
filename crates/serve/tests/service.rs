//! Serving-layer integration: concurrent clients, micro-batch
//! deduplication, cache behavior under load, graceful shutdown, and
//! service-vs-direct result equivalence.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Barrier};

use dbcopilot_retrieval::{Bm25Index, Bm25Params, RoutingResult, SchemaRouter, Target, TargetSet};
use dbcopilot_serve::{RouterService, ServiceConfig, ServiceStats};

fn index() -> Bm25Index {
    let targets = TargetSet {
        targets: vec![
            Target {
                database: "concert_singer".into(),
                table: "singer".into(),
                text: "singer name song age".into(),
            },
            Target {
                database: "concert_singer".into(),
                table: "concert".into(),
                text: "concert stadium year".into(),
            },
            Target {
                database: "world".into(),
                table: "city".into(),
                text: "city population".into(),
            },
            Target {
                database: "world".into(),
                table: "country".into(),
                text: "country code".into(),
            },
        ],
    };
    Bm25Index::build(targets, Bm25Params::default())
}

fn questions() -> Vec<String> {
    vec![
        "how many singers are there".into(),
        "population of each city".into(),
        "which concert happened last year".into(),
        "country with the largest population".into(),
    ]
}

/// Routes with [`index`], but holds its first route between two meetings
/// with the test thread.
struct Gate {
    index: Bm25Index,
    entered: AtomicBool,
    barrier: Barrier,
}

impl SchemaRouter for Gate {
    fn name(&self) -> &str {
        "gate"
    }
    fn route(&self, question: &str, top_tables: usize) -> RoutingResult {
        if !self.entered.swap(true, Ordering::AcqRel) {
            self.barrier.wait(); // the test sees the route start...
            self.barrier.wait(); // ...and lets it finish
        }
        self.index.route(question, top_tables)
    }
}

fn gate() -> Arc<Gate> {
    Arc::new(Gate { index: index(), entered: AtomicBool::new(false), barrier: Barrier::new(2) })
}

/// Serve `first` through a [`Gate`], queue `rest` behind it while it is
/// held, then let everything finish. Returns the service's counters.
fn hold_first_then_queue(cfg: ServiceConfig, first: &str, rest: &[&str]) -> ServiceStats {
    let gate = gate();
    let service = RouterService::new(Arc::clone(&gate), cfg);
    std::thread::scope(|s| {
        let service = &service;
        s.spawn(move || service.route(first));
        gate.barrier.wait();
        for q in rest {
            s.spawn(move || service.route(q));
        }
        // The held request stays counted until its batch is computed, so
        // the gauge reaches 1 + rest.len() once all of `rest` is queued.
        while service.stats().queue_depth != 1 + rest.len() as u64 {
            std::thread::yield_now();
        }
        gate.barrier.wait();
    });
    service.stats()
}

#[test]
fn served_results_match_direct_routing() {
    let router = Arc::new(index());
    let service = RouterService::new(Arc::clone(&router), ServiceConfig::default());
    for q in &questions() {
        let served = service.route(q);
        let direct = router.route(q, 100);
        assert_eq!(served.database_names(), direct.database_names(), "question {q:?}");
        assert_eq!(served.tables.len(), direct.tables.len());
    }
}

#[test]
fn concurrent_clients_get_correct_answers_and_share_the_cache() {
    let service = RouterService::from_router(index(), ServiceConfig::default());
    let qs = questions();
    let expected: Vec<Vec<String>> = qs
        .iter()
        .map(|q| {
            service.router().route(q, 100).database_names().iter().map(|s| s.to_string()).collect()
        })
        .collect();

    std::thread::scope(|s| {
        for client in 0..8 {
            let (service, qs, expected) = (&service, &qs, &expected);
            s.spawn(move || {
                for round in 0..16 {
                    let i = (client + round) % qs.len();
                    let got = service.route(&qs[i]);
                    assert_eq!(got.database_names(), expected[i], "client {client} round {round}");
                }
            });
        }
    });

    let stats = service.stats();
    // 8 clients * 16 rounds = 128 lookups over 4 distinct questions: almost
    // everything is a cache hit, and at most a handful of routes happen
    // (duplicates can slip past the cache only while a question is in
    // flight for the first time).
    assert_eq!(stats.cache_hits + stats.cache_misses, 128);
    assert!(stats.cache_hits >= 100, "expected mostly hits, got {stats:?}");
    assert!(stats.computed >= 4, "all distinct questions must route: {stats:?}");
    assert_eq!(stats.cached, 4);
}

#[test]
fn in_flight_duplicates_are_deduplicated_within_a_batch() {
    // No cache: dedup must come from batching alone. Five identical
    // questions queue behind a held route and form one batch.
    let cfg = ServiceConfig::new().cache_capacity(0);
    let stats =
        hold_first_then_queue(cfg, "population of each city", &["how many singers are there?"; 5]);
    assert_eq!((stats.computed, stats.batches), (2, 2), "{stats:?}");
}

#[test]
fn misses_queued_behind_a_running_batch_form_the_next_batch() {
    let rest: Vec<String> = (1..6).map(|i| format!("question {i}")).collect();
    let rest: Vec<&str> = rest.iter().map(String::as_str).collect();
    let stats = hold_first_then_queue(ServiceConfig::default(), "question 0", &rest);
    // The queued five re-armed the wait and fill the next batch together.
    assert_eq!(stats.batches, 2, "{stats:?}");
    assert_eq!(stats.max_batch_observed, 5, "{stats:?}");
}

#[test]
fn route_many_is_deterministic_and_orders_results() {
    let service = RouterService::from_router(index(), ServiceConfig::default());
    let mut qs = questions();
    qs.extend(questions()); // duplicates exercise cache + dedup
    let a = service.route_many(&qs);
    let b = service.route_many(&qs);
    assert_eq!(a.len(), qs.len());
    for i in 0..qs.len() {
        assert_eq!(a[i].database_names(), b[i].database_names());
        let direct = service.router().route(&qs[i], 100);
        assert_eq!(a[i].database_names(), direct.database_names(), "question {i}");
    }
}

#[test]
fn normalized_variants_share_one_cache_entry() {
    let service = RouterService::from_router(index(), ServiceConfig::default());
    let _ = service.route("How many singers are there?");
    let _ = service.route("  how   many singers are THERE ");
    let _ = service.route("how many singers are there!");
    let stats = service.stats();
    assert_eq!(stats.cache_hits, 2, "{stats:?}");
    assert_eq!(stats.cached, 1);
    assert_eq!(stats.computed, 1);
}

#[test]
fn capacity_zero_service_still_serves() {
    let cfg = ServiceConfig::new().cache_capacity(0);
    let service = RouterService::from_router(index(), cfg);
    for _ in 0..3 {
        let r = service.route("population of each city");
        assert_eq!(r.database_names()[0], "world");
    }
    let stats = service.stats();
    assert_eq!(stats.cache_hits, 0);
    assert_eq!(stats.computed, 3);
}

#[test]
fn warm_preseeds_the_cache() {
    let service = RouterService::from_router(index(), ServiceConfig::default());
    service.warm(&questions());
    let before = service.stats();
    assert_eq!(before.cached, 4);
    let _ = service.route("how many singers are there");
    service.warm(&questions()); // all hits: no batches, no routes
    let after = service.stats();
    assert_eq!(after.computed, before.computed, "warm traffic must not re-route");
    assert_eq!(after.batches, before.batches, "hit-only windows must not count as batches");
    assert_eq!(after.cache_hits, before.cache_hits + 1 + 4);
}

#[test]
fn router_panic_hits_only_the_affected_caller_and_service_survives() {
    struct Flaky(Bm25Index);
    impl SchemaRouter for Flaky {
        fn name(&self) -> &str {
            "flaky"
        }
        fn route(&self, question: &str, top_tables: usize) -> RoutingResult {
            assert!(!question.contains("poison"), "poison question");
            self.0.route(question, top_tables)
        }
    }

    let service = RouterService::from_router(Flaky(index()), ServiceConfig::default());
    let poisoned = std::thread::scope(|s| s.spawn(|| service.route("a poison question")).join());
    assert!(poisoned.is_err(), "the poisoned caller must see the panic");
    // ...but the dispatcher survived: unrelated requests still serve.
    let r = service.route("population of each city");
    assert_eq!(r.database_names()[0], "world");
}

#[test]
fn eviction_under_tiny_capacity_keeps_serving_correctly() {
    let cfg = ServiceConfig::new().cache_capacity(2);
    let service = RouterService::from_router(index(), cfg);
    let qs = questions();
    for round in 0..3 {
        for (i, q) in qs.iter().enumerate() {
            let r = service.route(q);
            let direct = service.router().route(q, 100);
            assert_eq!(r.database_names(), direct.database_names(), "round {round} q {i}");
        }
    }
    assert_eq!(service.stats().cached, 2);
}

#[test]
fn drop_answers_queued_requests_then_shuts_down() {
    // Requests enqueued immediately before drop must still be answered:
    // the dispatcher drains its channel before exiting.
    let service = RouterService::from_router(index(), ServiceConfig::default());
    std::thread::scope(|s| {
        let mut handles = Vec::new();
        for _ in 0..4 {
            let service = &service;
            handles.push(s.spawn(move || service.route("country with the largest population")));
        }
        for h in handles {
            assert_eq!(h.join().unwrap().database_names()[0], "world");
        }
    });
    drop(service); // graceful: joins the dispatcher
}

#[test]
fn serves_a_dbc_router_end_to_end() {
    use dbcopilot_core::{DbcRouter, RouterConfig};
    use dbcopilot_graph::SchemaGraph;
    use dbcopilot_sqlengine::{Collection, DataType, DatabaseSchema, TableSchema};

    let mut c = Collection::new();
    for (db, tables) in
        [("concert_singer", vec!["singer", "concert"]), ("world", vec!["country", "city"])]
    {
        let mut d = DatabaseSchema::new(db);
        for t in tables {
            d.add_table(TableSchema::new(t).column("id", DataType::Int).primary(0));
        }
        c.add_database(d);
    }
    // An untrained router still produces valid, deterministic output, which
    // is all the serving path needs to be exercised.
    let router = DbcRouter::untrained(SchemaGraph::build(&c), RouterConfig::tiny());
    let service = RouterService::from_router(router, ServiceConfig::default());
    let first = service.route("how many vocalists");
    assert!(!first.databases.is_empty());
    let again = service.route("how many vocalists");
    assert_eq!(first.database_names(), again.database_names());
    assert_eq!(service.stats().cache_hits, 1);
}

#[test]
fn a_router_switched_to_i8_before_sharing_is_served_at_i8_and_warm_uses_it() {
    use dbcopilot_core::{DbcRouter, RouterConfig};
    use dbcopilot_graph::SchemaGraph;
    use dbcopilot_retrieval::{PrecisionSwitch, RoutePrecision};
    use dbcopilot_sqlengine::{Collection, DataType, DatabaseSchema, TableSchema};

    let mut c = Collection::new();
    let mut d = DatabaseSchema::new("concert_singer");
    for t in ["singer", "concert"] {
        d.add_table(TableSchema::new(t).column("id", DataType::Int).primary(0));
    }
    c.add_database(d);

    let mut router = DbcRouter::untrained(SchemaGraph::build(&c), RouterConfig::tiny());
    router.set_precision(RoutePrecision::I8);
    let service = RouterService::from_router(router, ServiceConfig::default());
    assert_eq!(service.router().precision(), RoutePrecision::I8);
    assert!(
        service.router().model.quant.is_some(),
        "quantized weights must be frozen before the router is shared"
    );

    // The warm path seeds the cache with i8-scored entries; a later route
    // of the same question is a cache hit, i.e. served at that precision.
    service.warm(&["how many vocalists".to_string()]);
    let served = service.route("how many vocalists");
    assert!(!served.databases.is_empty());
    assert_eq!(service.stats().cache_hits, 1);

    // Served results match direct i8 routing on an identical router.
    let mut direct =
        DbcRouter::untrained(service.router().graph.clone(), service.router().model.cfg.clone());
    direct.set_precision(RoutePrecision::I8);
    let expect = direct.route("how many vocalists", cfg_top_tables());
    assert_eq!(served.database_names(), expect.database_names());
    assert_eq!(served.tables, expect.tables);
}

fn cfg_top_tables() -> usize {
    ServiceConfig::default().top_tables
}

/// A router that answers every question with one fixed database — lets hot
/// swap tests tell apart which router generation served a request.
struct Tagged(&'static str);

impl SchemaRouter for Tagged {
    fn name(&self) -> &str {
        self.0
    }
    fn route(&self, _question: &str, _top_tables: usize) -> RoutingResult {
        RoutingResult {
            tables: vec![(self.0.to_string(), "t".to_string(), 1.0)],
            databases: vec![(self.0.to_string(), 1.0)],
        }
    }
}

#[test]
fn publish_swaps_the_router_under_concurrent_load_without_dropping_requests() {
    // No cache: every request must reach whichever router is current.
    let cfg = ServiceConfig::new().cache_capacity(0);
    let service = RouterService::from_router(Tagged("v1"), cfg);
    assert_eq!(service.generation(), 1);

    let answered = std::sync::atomic::AtomicU64::new(0);
    std::thread::scope(|s| {
        for client in 0..4 {
            let (service, answered) = (&service, &answered);
            s.spawn(move || {
                for round in 0..24 {
                    let r = service.route(&format!("client {client} round {round}"));
                    // Every request is answered by a complete generation —
                    // v1 before the swap, v2 after, never an error or an
                    // empty result.
                    let db = r.database_names()[0].to_string();
                    assert!(db == "v1" || db == "v2", "unexpected answer {db:?}");
                    answered.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                }
            });
        }
        // Swap mid-flight.
        let generation = service.publish(Arc::new(Tagged("v2")));
        assert_eq!(generation, 2);
    });

    assert_eq!(answered.load(std::sync::atomic::Ordering::Relaxed), 4 * 24, "zero drops");
    // publish returned only after the old generation drained, so every
    // request from here on is served by v2.
    assert_eq!(service.route("after the swap").database_names(), ["v2"]);
    assert_eq!(service.stats().generation, 2);
}

#[test]
fn publish_invalidates_cached_results() {
    let service = RouterService::from_router(Tagged("v1"), ServiceConfig::default());
    assert_eq!(service.route("the question").database_names(), ["v1"]);
    assert_eq!(service.stats().cached, 1);

    service.publish(Arc::new(Tagged("v2")));
    // The v1 answer was cached, but a cache entry only serves while the
    // generation that computed it is current: the same question now
    // recomputes on v2 instead of serving the stale hit.
    assert_eq!(service.route("the question").database_names(), ["v2"]);
    let stats = service.stats();
    assert_eq!(stats.generation, 2);
    assert_eq!(stats.computed, 2, "the post-swap lookup must recompute: {stats:?}");
}

#[test]
fn queue_depth_rises_under_a_blocked_backend_and_drains_to_zero() {
    let gate = gate();
    let service = RouterService::new(Arc::clone(&gate), ServiceConfig::new().cache_capacity(0));
    assert_eq!(service.stats().queue_depth, 0);
    std::thread::scope(|s| {
        let service = &service;
        let mut callers = vec![s.spawn(move || service.route("question 0"))];
        gate.barrier.wait();
        // The backend holds an accepted request, and the stats snapshot
        // sees it (the admission-control signal).
        assert_eq!(service.stats().queue_depth, 1);
        callers.extend((1..3).map(|i| s.spawn(move || service.route(&format!("question {i}")))));
        gate.barrier.wait();
        for caller in callers {
            caller.join().unwrap();
        }
        // A request leaves the gauge before its caller is answered.
        assert_eq!(service.stats().queue_depth, 0, "answered requests must leave the queue");
    });
}

#[test]
fn stats_surface_generation_and_shard_counters_for_a_sharded_router() {
    use dbcopilot_core::{DbcRouter, RouterConfig, ShardedRouter};
    use dbcopilot_graph::SchemaGraph;
    use dbcopilot_sqlengine::{Collection, DataType, DatabaseSchema, TableSchema};

    let mut c = Collection::new();
    for (db, tables) in
        [("concert_singer", vec!["singer", "concert"]), ("world", vec!["country", "city"])]
    {
        let mut d = DatabaseSchema::new(db);
        for t in tables {
            d.add_table(TableSchema::new(t).column("id", DataType::Int).primary(0));
        }
        c.add_database(d);
    }
    let mono = DbcRouter::untrained(SchemaGraph::build(&c), RouterConfig::tiny());
    let service =
        RouterService::from_router(ShardedRouter::from_monolith(mono), ServiceConfig::default());

    let before = service.stats();
    assert_eq!(before.generation, 1);
    assert_eq!(before.shards.len(), 1);
    assert_eq!(before.shards[0].databases, 2);
    assert!(before.shards[0].loaded);

    let _ = service.route("how many vocalists");
    let after = service.stats();
    assert_eq!(after.shards[0].routes, 1, "served traffic must show up per shard: {after:?}");

    // A monolithic router surfaces no shards through the same stats path.
    let plain = RouterService::from_router(index(), ServiceConfig::default());
    assert!(plain.stats().shards.is_empty());
    assert_eq!(plain.stats().generation, 1);
}

/// Names and score bits of a routing, in order.
type Bits = (Vec<(String, String, u32)>, Vec<(String, u32)>);

fn bits(r: &RoutingResult) -> Bits {
    let tables = r.tables.iter().map(|(d, t, s)| (d.clone(), t.clone(), s.to_bits())).collect();
    let dbs = r.databases.iter().map(|(d, s)| (d.clone(), s.to_bits())).collect();
    (tables, dbs)
}

#[test]
fn publishing_a_tier_over_its_extension_and_back_adopts_every_unchanged_shard() {
    use dbcopilot_core::{
        load_sharded_router_bytes, sharded_router_to_vec, RouterConfig, SerializationMode,
        ShardedRouter, TrainExample,
    };
    use dbcopilot_graph::QuerySchema;
    use dbcopilot_sqlengine::{Collection, DataType, DatabaseSchema, TableSchema};
    use dbcopilot_synth::{CorpusMeta, Questioner, QuestionerConfig, TrainPair};

    fn database(name: &str, tables: &[&str]) -> DatabaseSchema {
        let mut d = DatabaseSchema::new(name);
        for &t in tables {
            d.add_table(TableSchema::new(t).column("id", DataType::Int).primary(0));
        }
        d
    }

    // Tier A: eight databases over four shards, every shard owning some.
    let dbs = [
        ("concert_singer", "singer", "how many vocalists"),
        ("world", "city", "population of towns"),
        ("library", "book", "list the volumes"),
        ("cinema", "movie", "the longest film"),
        ("farm", "crop", "which crop grows best"),
        ("school", "pupil", "oldest pupil"),
        ("airline", "flight", "delayed flights"),
        ("museum", "painting", "most visited painting"),
    ];
    let mut collection = Collection::new();
    for (db, table, _) in dbs {
        collection.add_database(database(db, &[table]));
    }
    let examples: Vec<TrainExample> = (0..4)
        .flat_map(|_| dbs.iter())
        .map(|&(db, table, q)| TrainExample {
            question: q.into(),
            schema: QuerySchema::new(db, vec![table.into()]),
        })
        .collect();
    let mut cfg = RouterConfig::tiny();
    cfg.epochs = 2;
    let (fitted, _) = ShardedRouter::fit(&collection, &examples, cfg, SerializationMode::Dfs, 4);
    assert!(fitted.shard_counters().iter().all(|c| c.databases > 0), "every shard owns a database");

    // Tier B: A plus one database, retrained in its owning shard only.
    let mut grown = collection.clone();
    grown.add_database(database("telemetry_hub", &["sensor", "reading"]));
    let questioner = Questioner::train(
        &[TrainPair {
            entities: vec!["sensor".into()],
            attrs: vec![],
            question: "how many sensors report".into(),
        }],
        &QuestionerConfig::default(),
    );
    let (extended, _) = fitted.extend(&grown, &CorpusMeta::default(), &questioner, 16, 1).unwrap();
    let changed = fitted.shard_of_db("telemetry_hub");
    let bundles =
        [sharded_router_to_vec(&fitted).unwrap(), sharded_router_to_vec(&extended).unwrap()];
    let load = |tier: usize| load_sharded_router_bytes(bundles[tier].clone()).unwrap();

    let questions: Vec<String> = dbs
        .iter()
        .map(|&(_, _, q)| q.to_string())
        .chain(["how many sensors report".to_string(), "vocalists in towns".to_string()])
        .collect();
    let top_tables = cfg_top_tables();
    let service = RouterService::new(Arc::new(load(0)), ServiceConfig::default());
    service.warm(&questions);
    for (step, tier) in [1, 0, 1].into_iter().enumerate() {
        service.publish(Arc::new(load(tier)));
        let loaded: Vec<bool> = service.stats().shards.iter().map(|c| c.loaded).collect();
        let want: Vec<bool> = (0..4).map(|s| s != changed).collect();
        assert_eq!(loaded, want, "publish {step}: exactly the unchanged shards are adopted");
        let fresh = load(tier);
        for q in &questions {
            assert_eq!(
                bits(&service.route(q)),
                bits(&fresh.route(q, top_tables)),
                "publish {step}: {q:?} differs from a fresh load of the published tier"
            );
        }
    }

    // Behind a `Box<dyn SchemaRouter>` or an `Arc`, the hook still reaches
    // the tier.
    let want: Vec<bool> = (0..4).map(|s| s != changed).collect();
    let boxed: RouterService<Box<dyn SchemaRouter + Send + Sync>> =
        RouterService::from_router(Box::new(load(0)), ServiceConfig::default());
    boxed.warm(&questions);
    boxed.publish(Arc::new(Box::new(load(1))));
    let loaded: Vec<bool> = boxed.stats().shards.iter().map(|c| c.loaded).collect();
    assert_eq!(loaded, want, "a boxed tier adopts");
    let shared = RouterService::from_router(Arc::new(load(0)), ServiceConfig::default());
    shared.warm(&questions);
    shared.publish(Arc::new(Arc::new(load(1))));
    let loaded: Vec<bool> = shared.stats().shards.iter().map(|c| c.loaded).collect();
    assert_eq!(loaded, want, "a shared tier adopts");
}
