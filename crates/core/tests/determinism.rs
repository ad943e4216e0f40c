//! The determinism contract of data-parallel training: epoch losses, final
//! weights, and synthesized corpora are bit-identical at any `DBC_THREADS`
//! value. These tests pin the thread count with
//! [`dbcopilot_runtime::with_thread_count`] instead of the environment
//! variable so both sides run inside one process.

use dbcopilot_core::{
    synthesize_training_data, train_router, PieceVocab, RouterConfig, RouterModel,
    SerializationMode, TrainExample, TrainStats,
};
use dbcopilot_graph::{QuerySchema, SchemaGraph};
use dbcopilot_runtime::with_thread_count;
use dbcopilot_sqlengine::{Collection, DataType, DatabaseSchema, TableSchema};

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
            schema: QuerySchema::new("library", vec!["book".into(), "author".into()]),
        });
        out.push(TrainExample {
            question: "who directed the longest film".into(),
            schema: QuerySchema::new("cinema", vec!["movie".into(), "director".into()]),
        });
    }
    out
}

/// Train one router at a pinned thread count; return the stats and every
/// parameter tensor as exact bit patterns.
fn train_at(threads: usize) -> (TrainStats, Vec<(String, Vec<u32>)>) {
    with_thread_count(threads, || {
        let g = SchemaGraph::build(&collection());
        let v = PieceVocab::build(&g);
        let mut model = RouterModel::new(RouterConfig::tiny(), v.len());
        let stats = train_router(&mut model, &g, &v, &examples(), SerializationMode::Dfs);
        let weights = model
            .store
            .describe()
            .into_iter()
            .map(|(name, _)| {
                let id = model.store.id_of(&name).unwrap();
                let bits: Vec<u32> =
                    model.store.value(id).as_slice().iter().map(|v| v.to_bits()).collect();
                (name, bits)
            })
            .collect();
        (stats, weights)
    })
}

#[test]
fn training_is_bit_identical_across_thread_counts() {
    let (stats1, weights1) = train_at(1);
    for threads in [2, 4] {
        let (stats_n, weights_n) = train_at(threads);
        let l1: Vec<u32> = stats1.epoch_losses.iter().map(|v| v.to_bits()).collect();
        let ln: Vec<u32> = stats_n.epoch_losses.iter().map(|v| v.to_bits()).collect();
        assert_eq!(l1, ln, "epoch losses differ between 1 and {threads} threads");
        assert_eq!(weights1.len(), weights_n.len());
        for ((name1, bits1), (name_n, bits_n)) in weights1.iter().zip(&weights_n) {
            assert_eq!(name1, name_n);
            assert_eq!(bits1, bits_n, "parameter {name1} differs between 1 and {threads} threads");
        }
    }
}

#[test]
fn training_loss_still_decreases_in_parallel() {
    let (stats, _) = train_at(4);
    let first = stats.epoch_losses[0];
    let last = *stats.epoch_losses.last().unwrap();
    assert!(last < first * 0.6, "loss should fall under 4 threads: {first} → {last}");
}

#[test]
fn synthesis_is_identical_across_thread_counts() {
    use dbcopilot_synth::{
        build_spider_like, questioner_pairs, CorpusSizes, Questioner, QuestionerConfig,
    };
    let corpus = build_spider_like(&CorpusSizes { num_databases: 4, train_n: 60, test_n: 5 }, 11);
    let graph = SchemaGraph::build(&corpus.collection);
    let questioner = Questioner::train(&questioner_pairs(&corpus), &QuestionerConfig::default());
    let synth = |threads: usize| {
        with_thread_count(threads, || {
            synthesize_training_data(&graph, &corpus.meta, &questioner, 120, 3)
        })
    };
    let a = synth(1);
    let b = synth(4);
    assert_eq!(a.len(), b.len());
    for (x, y) in a.iter().zip(&b) {
        assert_eq!(x.question, y.question);
        assert!(x.schema.same_as(&y.schema), "{} vs {}", x.schema, y.schema);
    }
}

#[test]
fn pooled_route_batch_is_bit_identical_across_thread_counts() {
    // The serving path: routing through the persistent worker pool
    // (`DbcRouter::route_batch` → `pooled_map`) must produce bit-identical
    // rankings and scores at any thread count.
    use dbcopilot_core::DbcRouter;

    let g = SchemaGraph::build(&collection());
    let mut cfg = RouterConfig::tiny();
    cfg.epochs = 4;
    let (router, _) = DbcRouter::fit(g, &examples(), cfg, SerializationMode::Dfs);
    let questions: Vec<String> = examples().iter().map(|e| e.question.clone()).take(12).collect();

    let route_at =
        |threads: usize| with_thread_count(threads, || router.route_batch(&questions, 10));
    let base = route_at(1);
    for threads in [2, 4] {
        let got = route_at(threads);
        assert_eq!(base.len(), got.len());
        for (i, (a, b)) in base.iter().zip(&got).enumerate() {
            assert_eq!(a.database_names(), b.database_names(), "question {i}, {threads} threads");
            let sa: Vec<u32> = a.tables.iter().map(|(_, _, s)| s.to_bits()).collect();
            let sb: Vec<u32> = b.tables.iter().map(|(_, _, s)| s.to_bits()).collect();
            assert_eq!(sa, sb, "table scores drifted at {threads} threads (question {i})");
        }
    }
}

#[test]
fn i8_routing_is_bit_identical_across_thread_counts() {
    // The quantized hot path — blocked i8 kernel, vector quantizer, step
    // memo, cached decoding tables — carries no cross-question state, so
    // candidates and score bits must not depend on how many workers route.
    use dbcopilot_core::{DbcRouter, PrecisionSwitch, RoutePrecision};

    let g = SchemaGraph::build(&collection());
    let mut cfg = RouterConfig::tiny();
    cfg.epochs = 4;
    let (mut router, _) = DbcRouter::fit(g, &examples(), cfg, SerializationMode::Dfs);
    router.set_precision(RoutePrecision::I8);
    let questions: Vec<String> = examples().iter().map(|e| e.question.clone()).take(12).collect();

    let fingerprint = |threads: usize| {
        with_thread_count(threads, || {
            let routed: Vec<Vec<(String, String, u32)>> = router
                .route_batch(&questions, 10)
                .into_iter()
                .map(|r| r.tables.into_iter().map(|(d, t, s)| (d, t, s.to_bits())).collect())
                .collect();
            let candidates: Vec<Vec<(String, u32)>> = questions
                .iter()
                .map(|q| router.route_schemata(q))
                .map(|c| c.iter().map(|d| (d.schema.to_string(), d.logp.to_bits())).collect())
                .collect();
            (routed, candidates)
        })
    };
    let base = fingerprint(1);
    assert!(base.1.iter().all(|c| !c.is_empty()), "every question decodes a candidate");
    assert_eq!(base, fingerprint(2), "i8 candidates or score bits drifted at 2 threads");
}

#[test]
fn sharded_scatter_gather_is_bit_identical_across_thread_counts() {
    // A fixed shard count must produce bit-identical merged rankings at any
    // DBC_THREADS value: shards are scattered on the pool but merged in
    // shard-index order with a total-order tie-break, so neither scores nor
    // merge order may depend on scheduling.
    use dbcopilot_core::ShardedRouter;
    use dbcopilot_retrieval::SchemaRouter;

    let mut cfg = RouterConfig::tiny();
    cfg.epochs = 4;
    let (router, _) =
        ShardedRouter::fit(&collection(), &examples(), cfg, SerializationMode::Dfs, 4);
    let questions: Vec<String> = examples().iter().map(|e| e.question.clone()).take(12).collect();

    let route_at =
        |threads: usize| with_thread_count(threads, || router.route_batch(&questions, 10));
    let base = route_at(1);
    for threads in [2, 4] {
        let got = route_at(threads);
        assert_eq!(base.len(), got.len());
        for (i, (a, b)) in base.iter().zip(&got).enumerate() {
            assert_eq!(a.database_names(), b.database_names(), "question {i}, {threads} threads");
            let ta: Vec<(&str, &str, u32)> =
                a.tables.iter().map(|(d, t, s)| (d.as_str(), t.as_str(), s.to_bits())).collect();
            let tb: Vec<(&str, &str, u32)> =
                b.tables.iter().map(|(d, t, s)| (d.as_str(), t.as_str(), s.to_bits())).collect();
            assert_eq!(ta, tb, "merge order drifted at {threads} threads (question {i})");
        }
    }
    // Single-question scatter-gather agrees with the batch path bit for bit.
    let single = with_thread_count(2, || router.route(&questions[0], 10));
    assert_eq!(single.tables, base[0].tables);
}

#[test]
fn sharded_fit_is_bit_identical_across_thread_counts() {
    use dbcopilot_core::ShardedRouter;

    let mut cfg = RouterConfig::tiny();
    cfg.epochs = 3;
    let fit_at = |threads: usize| {
        with_thread_count(threads, || {
            ShardedRouter::fit(&collection(), &examples(), cfg.clone(), SerializationMode::Dfs, 4)
        })
    };
    let (base_router, base_stats) = fit_at(1);
    for threads in [2, 4] {
        let (router, stats) = fit_at(threads);
        for (s, (a, b)) in base_stats.iter().zip(&stats).enumerate() {
            assert_eq!(
                a.epoch_losses.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                b.epoch_losses.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                "shard {s} losses differ between 1 and {threads} threads"
            );
        }
        for s in 0..router.num_shards() {
            match (base_router.shard_router(s), router.shard_router(s)) {
                (None, None) => {}
                (Some(a), Some(b)) => assert_weights_identical(&a, &b, s),
                _ => panic!("shard {s} emptiness differs across thread counts"),
            }
        }
    }
}

/// Every parameter of two routers compared as exact bit patterns.
fn assert_weights_identical(
    a: &dbcopilot_core::DbcRouter,
    b: &dbcopilot_core::DbcRouter,
    shard: usize,
) {
    for ((an, av), (bn, bv)) in a.model.store.iter_values().zip(b.model.store.iter_values()) {
        assert_eq!(an, bn, "shard {shard} parameter order differs");
        let ab: Vec<u32> = av.as_slice().iter().map(|v| v.to_bits()).collect();
        let bb: Vec<u32> = bv.as_slice().iter().map(|v| v.to_bits()).collect();
        assert_eq!(ab, bb, "shard {shard} parameter {an} drifted");
    }
}

#[test]
fn shard_local_extend_leaves_non_owning_shards_bit_identical() {
    // Adding one database must retrain only the owning shard: every other
    // shard's router is shared into the new tier (same Arc), and its
    // weights are bit-identical — not "approximately unchanged".
    use dbcopilot_core::{shard_of, ShardedRouter};

    let mut cfg = RouterConfig::tiny();
    cfg.epochs = 3;
    let (router, _) =
        ShardedRouter::fit(&collection(), &examples(), cfg, SerializationMode::Dfs, 4);

    let mut grown = collection();
    let mut extra = DatabaseSchema::new("aquarium");
    for t in ["tank", "fish"] {
        extra.add_table(TableSchema::new(t).column("id", DataType::Int).primary(0));
    }
    grown.add_database(extra);
    let owner = shard_of("aquarium", 4);

    let meta = dbcopilot_synth::CorpusMeta::default();
    let questioner = dbcopilot_synth::Questioner::train(
        &[dbcopilot_synth::TrainPair {
            entities: vec!["fish".into()],
            attrs: vec![],
            question: "how many fish live in the tank".into(),
        }],
        &dbcopilot_synth::QuestionerConfig::default(),
    );
    let (extended, retrained) = router.extend(&grown, &meta, &questioner, 24, 2).unwrap();

    assert_eq!(retrained.iter().map(|(s, _)| *s).collect::<Vec<_>>(), vec![owner]);
    for s in 0..4 {
        if s == owner {
            continue;
        }
        match (router.shard_router(s), extended.shard_router(s)) {
            (None, None) => {}
            (Some(a), Some(b)) => {
                assert!(
                    std::sync::Arc::ptr_eq(&a, &b),
                    "non-owning shard {s} was rebuilt instead of shared"
                );
                assert_weights_identical(&a, &b, s);
            }
            _ => panic!("non-owning shard {s} changed emptiness"),
        }
    }
    // The owning shard took the new database into its graph (reachability
    // through routing is covered by the extend tests in `persist`).
    let owning = extended.shard_router(owner).expect("owner shard has a router");
    assert!(owning.graph.database_node("aquarium").is_some(), "aquarium missing from owner graph");
    assert!(extended.database_names().contains(&"aquarium".to_string()));
}

#[test]
fn repeated_runs_are_bit_identical() {
    // Guards against per-instance iteration-order nondeterminism sneaking
    // back into the candidate path (the constrainer trie once used HashMap
    // children, which made two same-process runs drift in late epochs).
    let (s1, _) = train_at(1);
    let (s2, _) = train_at(1);
    assert_eq!(
        s1.epoch_losses.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
        s2.epoch_losses.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
        "two identical runs diverged: {:?} vs {:?}",
        s1.epoch_losses,
        s2.epoch_losses
    );
}

#[test]
fn sparse_retrieval_is_bit_identical_across_instances() {
    // BM25 and CRUSH accumulate f32 scores in intermediate maps. Each
    // std HashMap instance gets its own random hasher state, so any path
    // where map iteration order reaches the scores (the bug class
    // dbc-lint's `hashmap-iter-order` rule guards) shows up as two
    // freshly built indexes disagreeing bit-for-bit. The sweep moved
    // those maps to BTreeMap; this pins the behavior.
    use dbcopilot_retrieval::{Bm25Index, Bm25Params, Crush, SchemaRouter, Target, TargetSet};

    let targets = TargetSet {
        targets: vec![
            Target {
                database: "world".into(),
                table: "country".into(),
                text: "country code name continent region population".into(),
            },
            Target {
                database: "world".into(),
                table: "city".into(),
                text: "city name countrycode district population".into(),
            },
            Target {
                database: "world".into(),
                table: "countrylanguage".into(),
                text: "countrylanguage countrycode language official percentage".into(),
            },
            Target {
                database: "concert_singer".into(),
                table: "singer".into(),
                text: "singer singer id name age country".into(),
            },
        ],
    };
    let questions =
        ["population of each country", "official language percentage", "age of singers by country"];

    type Fingerprint = Vec<(String, Vec<(String, String, u32)>)>;
    let fingerprint = |label: &str| -> Fingerprint {
        let bm25 = Bm25Index::build(targets.clone(), Bm25Params::default());
        let graph = SchemaGraph::build(&collection());
        let crush =
            Crush::new(Bm25Index::build(targets.clone(), Bm25Params::default()), graph, label);
        questions
            .iter()
            .flat_map(|q| {
                [
                    (bm25.route(q, 10), format!("bm25:{q}")),
                    (crush.route(q, 10), format!("crush:{q}")),
                ]
                .into_iter()
                .map(|(r, tag)| {
                    let rows = r
                        .tables
                        .iter()
                        .map(|(db, t, s)| (db.clone(), t.clone(), s.to_bits()))
                        .collect();
                    (tag, rows)
                })
            })
            .collect()
    };

    let a = fingerprint("A");
    let b = fingerprint("B");
    assert_eq!(a, b, "fresh retrieval instances diverged (hasher-state leak)");
}
