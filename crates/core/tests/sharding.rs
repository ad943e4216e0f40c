//! The sharded routing tier end to end: 1-shard/monolith equivalence,
//! multi-shard `DBC1` bundles with lazy per-shard loading, back compat in
//! both directions, and raw-byte splicing on re-save.

use std::collections::BTreeMap;
use std::sync::Arc;

use dbcopilot_core::{
    extend_router, load_router_slice, load_sharded_router_bytes, router_to_vec,
    sharded_router_to_vec, DbcRouter, PersistError, RouterConfig, SerializationMode, ShardedRouter,
    TrainExample,
};
use dbcopilot_graph::{QuerySchema, SchemaGraph};
use dbcopilot_retrieval::{RoutingResult, SchemaRouter};
use dbcopilot_sqlengine::{
    Collection, DataType, Database, DatabaseSchema, Store, TableSchema, Value,
};

fn collection() -> Collection {
    let mut c = Collection::new();
    for (db, tables) in [
        ("concert_singer", vec!["singer", "concert"]),
        ("world", vec!["country", "city"]),
        ("library", vec!["book", "author"]),
        ("cinema", vec!["movie", "director"]),
    ] {
        let mut d = DatabaseSchema::new(db);
        for t in tables {
            d.add_table(TableSchema::new(t).column("id", DataType::Int).primary(0));
        }
        c.add_database(d);
    }
    c
}

fn examples() -> Vec<TrainExample> {
    let mut out = Vec::new();
    for _ in 0..10 {
        out.push(TrainExample {
            question: "how many vocalists are there".into(),
            schema: QuerySchema::new("concert_singer", vec!["singer".into()]),
        });
        out.push(TrainExample {
            question: "list the names of all towns".into(),
            schema: QuerySchema::new("world", vec!["city".into()]),
        });
        out.push(TrainExample {
            question: "which writer published the most volumes".into(),
            schema: QuerySchema::new("library", vec!["book".into()]),
        });
        out.push(TrainExample {
            question: "who directed the longest film".into(),
            schema: QuerySchema::new("cinema", vec!["movie".into()]),
        });
    }
    out
}

/// `collection()` grown by `aquarium`, a database of two tables.
fn grown_collection() -> Collection {
    let mut grown = collection();
    let mut extra = DatabaseSchema::new("aquarium");
    for t in ["tank", "fish"] {
        extra.add_table(TableSchema::new(t).column("id", DataType::Int).primary(0));
    }
    grown.add_database(extra);
    grown
}

/// A questioner that knows one question about `aquarium`.
fn fish_questioner() -> dbcopilot_synth::Questioner {
    dbcopilot_synth::Questioner::train(
        &[dbcopilot_synth::TrainPair {
            entities: vec!["fish".into()],
            attrs: vec![],
            question: "how many fish live in the tank".into(),
        }],
        &dbcopilot_synth::QuestionerConfig::default(),
    )
}

/// Content for `c` in which every table holds the ids 0..5, so the two
/// tables of each database overlap completely and are joinable.
fn overlapping_store(c: &Collection) -> Store {
    let mut store = Store::new();
    for schema in c.databases.values() {
        let mut db = Database::from_schema(schema);
        for t in &schema.tables {
            for id in 0..5 {
                db.insert(&t.name, vec![Value::Int(id)]).unwrap();
            }
        }
        store.add(db);
    }
    store
}

/// Every table relation of `graph` as sorted `(database, table, related
/// table)` triples. These collections declare no foreign keys, so every
/// relation is a joinable one.
fn relations(graph: &SchemaGraph) -> Vec<(String, String, String)> {
    let mut out = Vec::new();
    for db in graph.database_nodes() {
        for t in graph.tables_of(db) {
            for r in graph.related_tables(t) {
                let name = |id| graph.name(id).to_string();
                out.push((name(db), name(t), name(r)));
            }
        }
    }
    out.sort();
    out
}

/// A routing result's tables and databases, names and score bits.
type RankedBits = (Vec<(String, String, u32)>, Vec<(String, u32)>);

/// A routing result's names and score bits in the tier's total order.
fn ranked_bits(mut r: RoutingResult) -> RankedBits {
    r.tables.sort_by(|x, y| {
        y.2.total_cmp(&x.2).then_with(|| x.0.cmp(&y.0)).then_with(|| x.1.cmp(&y.1))
    });
    r.databases.sort_by(|x, y| y.1.total_cmp(&x.1).then_with(|| x.0.cmp(&y.0)));
    let tables = r.tables.into_iter().map(|(d, t, s)| (d, t, s.to_bits())).collect();
    (tables, r.databases.into_iter().map(|(d, s)| (d, s.to_bits())).collect())
}

fn cfg() -> RouterConfig {
    let mut cfg = RouterConfig::tiny();
    cfg.epochs = 5;
    cfg
}

fn fit_sharded(num_shards: usize) -> ShardedRouter {
    ShardedRouter::fit(&collection(), &examples(), cfg(), SerializationMode::Dfs, num_shards).0
}

#[test]
fn one_shard_fit_is_bit_identical_to_monolith() {
    // The sharded tier at N=1 *is* the monolith: same graph, same examples,
    // same seed, so the weights must match bit for bit and routing must be
    // the same ranking (the tier re-sorts with the total-order tie-break).
    // Once through `fit` over the bare collection, once through `fit_on`
    // over the paper's graph, whose joinable relations (§3.2, §4.1.5) the
    // shard must keep: that tier is the monolith Table 3 reports.
    let c = collection();
    let joined = SchemaGraph::with_joins(&c, &overlapping_store(&c));
    assert!(relations(&SchemaGraph::build(&c)).is_empty());
    assert_eq!(relations(&joined).len(), 8, "one joinable pair per database, both directions");
    let on_joined = ShardedRouter::fit_on(&joined, &examples(), cfg(), SerializationMode::Dfs, 1);
    for (graph, sharded) in [(SchemaGraph::build(&c), fit_sharded(1)), (joined, on_joined.0)] {
        let (mono, _) = DbcRouter::fit(graph.clone(), &examples(), cfg(), SerializationMode::Dfs);
        let shard = sharded.shard_router(0).expect("single shard");
        assert_eq!(relations(&shard.graph), relations(&graph));
        for ((an, av), (bn, bv)) in
            mono.model.store.iter_values().zip(shard.model.store.iter_values())
        {
            assert_eq!(an, bn);
            let ab: Vec<u32> = av.as_slice().iter().map(|v| v.to_bits()).collect();
            let bb: Vec<u32> = bv.as_slice().iter().map(|v| v.to_bits()).collect();
            assert_eq!(ab, bb, "{an} drifted between monolith and 1-shard fit");
        }
        for q in ["how many vocalists are there", "who directed the longest film", "towns"] {
            assert_eq!(ranked_bits(mono.route(q, 10)), ranked_bits(sharded.route(q, 10)), "{q:?}");
        }
    }
}

#[test]
fn one_shard_tier_stays_bit_identical_to_the_monolith_across_an_extend() {
    // Each router owns decoding tables derived from its graph. An extend
    // builds a new graph, so the retrained router must come with new tables
    // (stale ones could not even spell the new database) and the 1-shard
    // tier must keep routing exactly like the monolith it mirrors.
    let sharded = fit_sharded(1);
    let (mono, _) = DbcRouter::fit(
        SchemaGraph::build(&collection()),
        &examples(),
        cfg(),
        SerializationMode::Dfs,
    );
    let grown = grown_collection();
    let meta = dbcopilot_synth::CorpusMeta::default();
    let questioner = fish_questioner();
    let (sharded, retrained) = sharded.extend(&grown, &meta, &questioner, 24, 2).unwrap();
    assert_eq!(retrained.len(), 1);
    let (mono, _) =
        extend_router(&mono, SchemaGraph::build(&grown), &meta, &questioner, 24, 2).unwrap();

    let mut saw_new_database = false;
    for q in ["how many vocalists are there", "how many fish live in the tank", "fish tank"] {
        let (a, b) = (mono.route(q, 10), sharded.route(q, 10));
        assert_eq!(ranked_bits(a), ranked_bits(b.clone()), "question {q:?}");
        saw_new_database |= b.database_names().contains(&"aquarium");
        for cand in sharded.shard_router(0).unwrap().sequences(q) {
            assert!(mono.graph.is_valid_schema(&cand.schema), "{} after extend", cand.schema);
        }
    }
    assert!(saw_new_database, "the extended routers never decoded the new database");
}

#[test]
fn extending_on_the_joined_graph_keeps_old_joins_and_adds_the_new_ones() {
    let c = collection();
    let graph = SchemaGraph::with_joins(&c, &overlapping_store(&c));
    let grown_c = grown_collection();
    let grown = SchemaGraph::with_joins(&grown_c, &overlapping_store(&grown_c));
    let mut want = relations(&graph);
    for (t, r) in [("fish", "tank"), ("tank", "fish")] {
        want.push(("aquarium".into(), t.into(), r.into()));
    }
    want.sort();
    assert_eq!(relations(&grown), want);

    let meta = dbcopilot_synth::CorpusMeta::default();
    let questioner = fish_questioner();
    let (mono, _) = DbcRouter::fit(graph.clone(), &examples(), cfg(), SerializationMode::Dfs);
    let (mono, _) = extend_router(&mono, grown.clone(), &meta, &questioner, 24, 2).unwrap();
    assert_eq!(relations(&mono.graph), want, "the extended monolith's relations");

    // Two shards: the one owning `aquarium` retrains on its restriction of
    // `grown`, the other keeps the graph its fit restricted.
    let (tier, _) = ShardedRouter::fit_on(&graph, &examples(), cfg(), SerializationMode::Dfs, 2);
    let (tier, retrained) = tier.extend_on(&grown, &meta, &questioner, 24, 2).unwrap();
    assert_eq!(
        retrained.iter().map(|(s, _)| *s).collect::<Vec<_>>(),
        [tier.shard_of_db("aquarium")]
    );
    let mut have: Vec<_> =
        (0..2).filter_map(|s| tier.shard_router(s)).flat_map(|r| relations(&r.graph)).collect();
    have.sort();
    assert_eq!(have, want, "the extended tier's relations");
}

#[test]
fn scatter_gather_routes_to_the_trained_database() {
    let sharded = fit_sharded(4);
    assert_eq!(sharded.num_shards(), 4);
    assert_eq!(sharded.num_databases(), 4);
    let r = sharded.route("how many vocalists are there", 10);
    assert_eq!(r.database_names()[0], "concert_singer");
    // Scatter-gather surfaces candidates from more than one shard.
    let shards_hit: std::collections::BTreeSet<usize> =
        r.databases.iter().map(|(db, _)| sharded.shard_of_db(db)).collect();
    assert!(shards_hit.len() > 1, "expected candidates from multiple shards: {r:?}");
}

#[test]
fn sharded_bundle_roundtrips_and_loads_lazily() {
    let sharded = fit_sharded(4);
    let before: Vec<_> = ["how many vocalists are there", "list the names of all towns"]
        .iter()
        .map(|q| sharded.route(q, 10))
        .collect();

    let bytes = sharded_router_to_vec(&sharded).unwrap();
    let loaded = load_sharded_router_bytes(bytes).unwrap();
    assert_eq!(loaded.num_shards(), 4);
    assert_eq!(loaded.database_names(), sharded.database_names());
    // Nothing is decoded until a request arrives.
    assert_eq!(loaded.loaded_shards(), 0, "load must be lazy");

    // Routing one shard decodes only that shard.
    let owner = loaded.shard_of_db("concert_singer");
    let one = loaded.route_shard(owner, "how many vocalists are there", 10);
    assert_eq!(one.database_names()[0], "concert_singer");
    assert_eq!(loaded.loaded_shards(), 1, "route_shard must touch exactly one shard");

    // A full scatter-gather decodes the rest and matches pre-save routing
    // bit for bit.
    for (q, want) in
        ["how many vocalists are there", "list the names of all towns"].iter().zip(&before)
    {
        let got = loaded.route(q, 10);
        assert_eq!(got.database_names(), want.database_names());
        assert_eq!(got.tables, want.tables, "question {q:?} drifted through the bundle");
    }
}

#[test]
fn legacy_monolithic_bundle_loads_as_one_shard_tier() {
    let (mono, _) = DbcRouter::fit(
        SchemaGraph::build(&collection()),
        &examples(),
        cfg(),
        SerializationMode::Dfs,
    );
    let want = mono.route("how many vocalists are there", 10);
    let legacy = router_to_vec(&mono).unwrap();

    let tier = load_sharded_router_bytes(legacy).unwrap();
    assert_eq!(tier.num_shards(), 1);
    assert_eq!(tier.num_databases(), 4);
    let got = tier.route("how many vocalists are there", 10);
    assert_eq!(got.database_names(), want.database_names());
}

#[test]
fn sharded_bundle_is_a_typed_error_in_the_monolithic_loader() {
    let bytes = sharded_router_to_vec(&fit_sharded(2)).unwrap();
    match load_router_slice(&bytes) {
        Err(PersistError::Corrupt(msg)) => {
            assert!(msg.contains("sharded"), "error should name the artifact kind: {msg}");
            assert!(msg.contains("load_sharded_router"), "error should point at the loader: {msg}");
        }
        Ok(_) => panic!("monolithic loader must refuse a SHRD bundle"),
        Err(other) => panic!("expected Corrupt, got {other:?}"),
    }
}

#[test]
fn resave_of_untouched_lazy_shards_splices_bytes_verbatim() {
    let bytes = sharded_router_to_vec(&fit_sharded(4)).unwrap();
    let loaded = load_sharded_router_bytes(bytes.clone()).unwrap();
    // Touch one shard only; the other three stay undecoded.
    let touched = loaded.shard_of_db("world");
    let _ = loaded.route_shard(touched, "list the names of all towns", 10);
    assert_eq!(loaded.loaded_shards(), 1);

    // Re-saving splices every lazily-loaded shard straight from the
    // original buffer (decoded routers are immutable, so the bytes stay
    // authoritative): the file round-trips byte for byte, and the untouched
    // shards stay undecoded throughout.
    let resaved = sharded_router_to_vec(&loaded).unwrap();
    assert_eq!(resaved, bytes, "re-save must be byte-identical");
    assert_eq!(loaded.loaded_shards(), 1, "re-save must not decode untouched shards");
}

#[test]
fn truncated_and_corrupted_sharded_bundles_fail_loudly() {
    let bytes = sharded_router_to_vec(&fit_sharded(2)).unwrap();
    for cut in [0, 3, 7, 64, bytes.len() / 2, bytes.len() - 1] {
        assert!(
            load_sharded_router_bytes(bytes[..cut].to_vec()).is_err(),
            "prefix {cut} must fail"
        );
    }
    let mut bad = bytes.clone();
    bad[..4].copy_from_slice(b"ELF\x7f");
    assert!(matches!(load_sharded_router_bytes(bad), Err(PersistError::BadMagic { .. })));
}

#[test]
fn empty_shards_are_served_and_persisted() {
    // 8 shards over 4 databases: several shards are empty. They must fit,
    // route (contributing nothing), persist, and reload.
    let sharded = fit_sharded(8);
    assert_eq!(sharded.num_databases(), 4);
    assert!(sharded.shard_counters().iter().any(|c| c.databases == 0), "want an empty shard");
    let r = sharded.route("how many vocalists are there", 10);
    assert_eq!(r.database_names()[0], "concert_singer");

    let loaded = load_sharded_router_bytes(sharded_router_to_vec(&sharded).unwrap()).unwrap();
    assert_eq!(loaded.num_shards(), 8);
    let r2 = loaded.route("how many vocalists are there", 10);
    assert_eq!(r2.database_names(), r.database_names());
}

/// Names and score bits of a routing, in order.
type Bits = (Vec<(String, String, u32)>, Vec<(String, u32)>);

fn bits(r: &RoutingResult) -> Bits {
    let tables = r.tables.iter().map(|(d, t, s)| (d.clone(), t.clone(), s.to_bits())).collect();
    let dbs = r.databases.iter().map(|(d, s)| (d.clone(), s.to_bits())).collect();
    (tables, dbs)
}

/// The tier's ranking contract: score descending, then database, then table.
fn sort_like_the_tier(r: &mut RoutingResult, top_tables: usize) {
    r.tables.sort_by(|x, y| {
        y.2.total_cmp(&x.2).then_with(|| x.0.cmp(&y.0)).then_with(|| x.1.cmp(&y.1))
    });
    r.tables.truncate(top_tables);
    r.databases.sort_by(|x, y| y.1.total_cmp(&x.1).then_with(|| x.0.cmp(&y.0)));
}

/// A shard's calibration background per database: the mean walked
/// `name_logp_unconstrained` over the tier's probe questions.
fn backgrounds(router: &DbcRouter, probes: &[String]) -> BTreeMap<String, f32> {
    let names = router.graph.database_nodes().into_iter().map(|d| router.graph.name(d));
    names
        .map(|db| {
            let sum: f32 =
                probes.iter().map(|p| router.name_logp_unconstrained(p, db).unwrap_or(0.0)).sum();
            (db.to_string(), sum / probes.len() as f32)
        })
        .collect()
}

/// One shard's calibrated routing as the tier computed it before it read
/// the question's name log-probabilities off its beam search: the shard's
/// own ranking, each database rescored by walking
/// `name_logp_unconstrained` for the question, less its background, its
/// tables shifted along with it.
fn walked_shard_route(
    router: &DbcRouter,
    background: &BTreeMap<String, f32>,
    q: &str,
    top: usize,
) -> RoutingResult {
    let mut r = router.route(q, top);
    let RoutingResult { tables, databases } = &mut r;
    for (db, score) in databases.iter_mut() {
        let centred = router.name_logp_unconstrained(q, db).unwrap() - background[db.as_str()];
        let shift = centred - *score;
        *score = centred;
        for t in tables.iter_mut().filter(|t| t.0 == *db) {
            t.2 += shift;
        }
    }
    r
}

#[test]
fn calibration_off_the_beam_routes_exactly_like_the_walk() {
    // Twelve databases whose names share leading pieces, so each shard
    // holds several and the beams branch inside database names.
    let mut coll = Collection::new();
    let names = [
        "concert_singer",
        "concert_hall",
        "world",
        "world_cup",
        "library",
        "library_loan",
        "cinema",
        "cinema_ticket",
        "school_bus",
        "school_finance",
        "pet_store",
        "pet_clinic",
    ];
    for db in names {
        let mut d = DatabaseSchema::new(db);
        for t in ["item", "owner", "event"] {
            d.add_table(TableSchema::new(format!("{db}_{t}")).column("id", DataType::Int));
        }
        coll.add_database(d);
    }
    let words = ["how many", "list", "count", "show", "which", "average", "oldest", "all"];
    let examples: Vec<TrainExample> = (0..120)
        .map(|i| {
            let db = names[i % names.len()];
            let table = format!("{db}_{}", ["item", "owner", "event"][i % 3]);
            TrainExample {
                question: format!("{} {} {}", words[i % words.len()], db.replace('_', " "), i % 7),
                schema: QuerySchema::new(db, vec![table]),
            }
        })
        .collect();
    let (tier, _) = ShardedRouter::fit(&coll, &examples, cfg(), SerializationMode::Dfs, 4);
    // The fit's calibration probes: the first 96 training questions.
    let probes: Vec<String> = examples.iter().take(96).map(|e| e.question.clone()).collect();
    let routers: Vec<_> =
        (0..4).map(|s| tier.shard_router(s).map(|r| (backgrounds(&r, &probes), r))).collect();

    let top = 10;
    let mut compared = 0;
    for i in 0..512 {
        let q = match i % 4 {
            0 => examples[i % examples.len()].question.clone(),
            1 => format!("{} {}", words[i % words.len()], names[(i / 4) % names.len()]),
            2 => format!("{} the {} of every {}", words[(i / 3) % 8], names[i % 12], i),
            _ => format!("{i} unrelated words {}", words[(i * 5) % 8]),
        };
        let mut walked = RoutingResult::default();
        for (s, shard) in routers.iter().enumerate() {
            let Some((background, router)) = shard else { continue };
            let mut one = walked_shard_route(router, background, &q, top);
            walked.tables.extend(one.tables.iter().cloned());
            walked.databases.extend(one.databases.iter().cloned());
            sort_like_the_tier(&mut one, top);
            assert_eq!(bits(&tier.route_shard(s, &q, top)), bits(&one), "route_shard {s}, {q:?}");
        }
        sort_like_the_tier(&mut walked, top);
        assert_eq!(bits(&tier.route(&q, top)), bits(&walked), "route, {q:?}");
        compared += walked.databases.len();
    }
    assert!(compared > 512, "the comparison must see routed databases: {compared}");
}

#[test]
fn shard_counters_track_databases_loading_and_traffic() {
    let sharded = fit_sharded(2);
    let fresh = sharded.shard_counters();
    assert_eq!(fresh.len(), 2);
    assert_eq!(fresh.iter().map(|c| c.databases).sum::<usize>(), 4);
    assert!(fresh.iter().all(|c| c.loaded), "eagerly-fit shards are resident");
    assert!(fresh.iter().all(|c| c.routes == 0));

    let _ = sharded.route("how many vocalists are there", 10);
    let after = sharded.shard_counters();
    let served: u64 = after.iter().map(|c| c.routes).sum();
    let non_empty = after.iter().filter(|c| c.databases > 0).count() as u64;
    assert_eq!(served, non_empty, "scatter-gather scores once per non-empty shard");

    // A monolithic router reports no shards through the same trait.
    let (mono, _) = DbcRouter::fit(
        SchemaGraph::build(&collection()),
        &examples(),
        cfg(),
        SerializationMode::Dfs,
    );
    assert!(mono.shard_counters().is_empty());
    assert_eq!(Arc::new(mono).shard_counters().len(), 0, "Arc forwarding");
}

#[test]
fn a_tier_loaded_from_the_same_bytes_adopts_every_decoded_shard_and_routes_like_a_fresh_load() {
    let bytes = sharded_router_to_vec(&fit_sharded(4)).unwrap();
    let asked = ["how many vocalists are there", "list the names of all towns"];
    let old = load_sharded_router_bytes(bytes.clone()).unwrap();
    for q in asked {
        old.route(q, 10);
    }
    let decoded = old.loaded_shards();
    let non_empty = old.shard_counters().iter().filter(|c| c.databases > 0).count();
    assert_eq!(decoded, non_empty, "a scatter-gather decodes every non-empty shard");

    let new = load_sharded_router_bytes(bytes.clone()).unwrap();
    new.inherit(&old);
    assert_eq!(new.loaded_shards(), decoded, "every decoded shard is adopted before any route");

    // Remembered questions, new questions, and other `top_tables`: all
    // bit-identical to a tier that never adopted anything.
    let fresh = load_sharded_router_bytes(bytes).unwrap();
    let questions = asked.iter().chain(&["who directed the longest film", "vocalists in towns"]);
    for q in questions {
        for top_tables in [10, 1] {
            assert_eq!(
                bits(&new.route(q, top_tables)),
                bits(&fresh.route(q, top_tables)),
                "{q:?} at top_tables {top_tables}"
            );
        }
    }
    for s in 0..new.num_shards() {
        assert_eq!(
            bits(&new.route_shard(s, asked[0], 10)),
            bits(&fresh.route_shard(s, asked[0], 10)),
            "route_shard({s})"
        );
    }
}

#[test]
fn shards_owning_databases_but_no_examples_fit_untrained_and_stay_routable() {
    // Eight one-table databases and every example on `alpha`: the other
    // shards own databases but no examples. Their fit used to panic ("no
    // training data") inside a pool worker.
    let names = ["alpha", "beta", "gamma", "delta", "epsilon", "zeta", "eta", "theta"];
    let mut coll = Collection::new();
    for db in names {
        let mut d = DatabaseSchema::new(db);
        d.add_table(TableSchema::new(format!("{db}_item")).column("id", DataType::Int).primary(0));
        coll.add_database(d);
    }
    let examples: Vec<TrainExample> = (0..8)
        .map(|i| TrainExample {
            question: format!("how many alpha items are there {i}"),
            schema: QuerySchema::new("alpha", vec!["alpha_item".into()]),
        })
        .collect();
    let cfg = RouterConfig::tiny();
    let (tier, stats) =
        ShardedRouter::fit(&coll, &examples, cfg.clone(), SerializationMode::Dfs, 4);
    let owner = tier.shard_of_db("alpha");
    let counters = tier.shard_counters();
    assert!(
        (0..4).any(|s| s != owner && counters[s].databases > 0),
        "want a shard with databases but no examples"
    );
    for (s, st) in stats.iter().enumerate() {
        if s != owner {
            assert!(st.epoch_losses.is_empty() && st.examples == 0, "shard {s}: {st:?}");
        }
    }
    // Every shard answers from its own databases; an untrained one lists
    // each of them.
    for db in names {
        let s = tier.shard_of_db(db);
        let r = tier.route_shard(s, &format!("how many {db} items"), 10);
        assert!(!r.databases.is_empty(), "shard {s} answers nothing");
        assert!(r.databases.iter().all(|(d, _)| tier.shard_of_db(d) == s), "{r:?}");
        assert!(s == owner || r.database_names().contains(&db), "{db} is not routable: {r:?}");
    }
    // The trained shard is a direct fit on its sub-collection, bit for bit.
    let mut sub = Collection::new();
    for (name, db) in &coll.databases {
        if tier.shard_of_db(name) == owner {
            sub.add_database(db.clone());
        }
    }
    let (direct, _) =
        DbcRouter::fit(SchemaGraph::build(&sub), &examples, cfg, SerializationMode::Dfs);
    let shard = tier.shard_router(owner).expect("alpha's shard is fitted");
    for ((an, av), (bn, bv)) in
        direct.model.store.iter_values().zip(shard.model.store.iter_values())
    {
        let bits = |t: &dbcopilot_nn::Tensor| t.as_slice().iter().map(|v| v.to_bits()).collect();
        let (ab, bb): (Vec<u32>, Vec<u32>) = (bits(av), bits(bv));
        assert_eq!((an, ab), (bn, bb), "{an} differs from a direct fit");
    }
}
