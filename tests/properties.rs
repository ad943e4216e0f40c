//! Cross-crate property-based tests (proptest): invariants that must hold
//! for arbitrary seeds and inputs.

use proptest::prelude::*;

use dbcopilot_graph::{
    deserialize_schema, dfs_serialize, sample_schema, IterOrder, SchemaGraph, WalkConfig,
};
use dbcopilot_sqlengine::{Collection, PreparedDb, Store};
use dbcopilot_synth::{generate_collection, generate_instances, GenConfig, Lexicon, SurfaceStyle};

fn small_gen(seed: u64) -> GenConfig {
    GenConfig {
        num_databases: 6,
        entities_per_db: (3, 5),
        junction_prob: 0.6,
        rows_per_table: (5, 12),
        seed,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Every generated gold query parses and executes on its own database.
    #[test]
    fn gold_sql_always_executes(seed in 0u64..500) {
        let gc = generate_collection(&small_gen(seed));
        let lex = Lexicon::new();
        let insts = generate_instances(&gc, &lex, 25, SurfaceStyle::Mixed(0.35), seed ^ 0xabc);
        for inst in &insts {
            let pdb = PreparedDb::prepare(gc.store.database(&inst.schema.database).unwrap());
            dbcopilot_sqlengine::execute(&pdb, &inst.sql)
                .unwrap_or_else(|e| panic!("seed {seed}: {e} — {}", inst.sql));
        }
    }

    /// Every generated instance schema is valid on the schema graph, and
    /// DFS serialization round-trips it.
    #[test]
    fn schemata_serialize_roundtrip(seed in 0u64..500) {
        let gc = generate_collection(&small_gen(seed));
        let graph = SchemaGraph::with_joins(&gc.collection, &gc.store);
        let lex = Lexicon::new();
        let insts = generate_instances(&gc, &lex, 20, SurfaceStyle::Canonical, seed ^ 0x99);
        for inst in &insts {
            prop_assert!(graph.is_valid_schema(&inst.schema), "{}", inst.schema);
            let ids = dfs_serialize(&graph, &inst.schema, IterOrder::Fixed).unwrap();
            let back = deserialize_schema(&graph, &ids).unwrap();
            prop_assert!(back.same_as(&inst.schema));
        }
    }

    /// Random-walk schema sampling only produces valid schemata.
    #[test]
    fn walks_always_valid(seed in 0u64..500) {
        use rand::SeedableRng;
        let gc = generate_collection(&small_gen(seed));
        let graph = SchemaGraph::with_joins(&gc.collection, &gc.store);
        let mut rng = rand::rngs::SmallRng::seed_from_u64(seed);
        for _ in 0..30 {
            let s = sample_schema(&graph, &WalkConfig::default(), &mut rng);
            prop_assert!(graph.is_valid_schema(&s), "{s}");
        }
    }

    /// Restricting the schema graph to some databases is building it from
    /// those databases alone: equal `GRPH` bytes (a router bundle's graph
    /// section), with the joinable relations and without. `seed` picks the
    /// collection and, in its low six bits, which of its six databases stay.
    #[test]
    fn restricting_the_graph_is_building_it_from_the_kept_databases(seed in 0u64..32_000) {
        let (gc, mask) = (generate_collection(&small_gen(seed / 64)), seed % 64);
        let names: Vec<&String> = gc.collection.databases.keys().collect();
        let keep = |name: &str| names.iter().position(|n| *n == name).is_some_and(|i| mask >> i & 1 == 1);
        let mut sub_c = Collection::new();
        let mut sub_s = Store::new();
        gc.collection.databases.values().filter(|db| keep(&db.name)).for_each(|db| sub_c.add_database(db.clone()));
        gc.store.databases.values().filter(|db| keep(&db.name)).for_each(|db| sub_s.add(db.clone()));
        let grph = |g: SchemaGraph| serde_json::to_vec(&g).unwrap();
        let joined = SchemaGraph::with_joins(&gc.collection, &gc.store);
        prop_assert!(grph(joined.restrict(keep)) == grph(SchemaGraph::with_joins(&sub_c, &sub_s)));
        let bare = SchemaGraph::build(&gc.collection);
        prop_assert!(grph(bare.restrict(keep)) == grph(SchemaGraph::build(&sub_c)));
    }

    /// Execution-accuracy comparison is reflexive for every gold query:
    /// a query always matches itself.
    #[test]
    fn ex_comparison_reflexive(seed in 0u64..300) {
        let gc = generate_collection(&small_gen(seed));
        let lex = Lexicon::new();
        let insts = generate_instances(&gc, &lex, 10, SurfaceStyle::Mixed(0.2), seed ^ 0x7);
        for inst in &insts {
            let pdb = PreparedDb::prepare(gc.store.database(&inst.schema.database).unwrap());
            prop_assert!(
                dbcopilot_sqlengine::execution_match(&pdb, &inst.sql, &inst.sql).is_match()
            );
        }
    }

    /// The question intent parser inverts the canonical question grammar:
    /// parsing a canonical-style question recovers the template kind.
    #[test]
    fn intent_parser_inverts_templates(seed in 0u64..300) {
        let gc = generate_collection(&small_gen(seed));
        let lex = Lexicon::new();
        let insts = generate_instances(&gc, &lex, 15, SurfaceStyle::Canonical, seed ^ 0x31);
        for inst in &insts {
            let intent = dbcopilot_nl2sql::parse_intent(&inst.question)
                .unwrap_or_else(|| panic!("unparseable: {:?}", inst.question));
            prop_assert_eq!(intent.kind, inst.spec.kind, "{}", inst.question);
        }
    }
}
