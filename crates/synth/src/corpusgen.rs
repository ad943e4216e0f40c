//! Synthetic database-collection generation.
//!
//! Stands in for the paper's adapted Spider / Bird / Fiben collections
//! (Table 2). The generator reproduces the *shapes* that matter for schema
//! routing: many heterogeneous databases, FK topologies with junction
//! tables, lexically overlapping table names across databases, and populated
//! rows (needed for joinability detection and execution accuracy).

use std::collections::BTreeMap;

use rand::rngs::SmallRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

use dbcopilot_sqlengine::{
    Collection, DataType, Database, DatabaseSchema, Store, TableSchema, Value,
};

use crate::lexicon::{
    AttrSpec, ValueSpec, CATEGORY_POOLS, DOMAINS, ENTITIES, NAME_FIRST, NAME_SECOND,
};

/// Per-table generation metadata consumed by the instance generator.
#[derive(Debug, Clone)]
pub struct TableMeta {
    pub table: String,
    /// Canonical entity key into the lexicon (junction tables: the pair).
    pub entity: String,
    /// Canonical attribute keys (order matches the non-key columns).
    pub attrs: Vec<String>,
    /// `(parent_table, fk_column)` pairs.
    pub parents: Vec<(String, String)>,
    pub is_junction: bool,
    /// For junctions: the two endpoint tables.
    pub endpoints: Option<(String, String)>,
    /// Primary key column name, if any.
    pub pk: Option<String>,
    /// Does the table have a `name` column?
    pub has_name: bool,
}

impl TableMeta {
    /// The schema-aligned verbalization of this table: the table name with
    /// any mart prefix stripped ("banking_account" → "account",
    /// "vocalist" → "vocalist").
    pub fn aligned_name(&self, lex: &crate::lexicon::Lexicon) -> String {
        let mut forms = vec![self.entity.clone()];
        if let Some(e) = lex.entity(&self.entity) {
            forms.extend(e.synonyms.iter().map(|s| s.to_lowercase().replace(' ', "_")));
        }
        for f in &forms {
            if self.table == *f {
                return f.clone();
            }
        }
        for f in &forms {
            if self.table.ends_with(&format!("_{f}")) {
                return f.clone();
            }
        }
        self.table.clone()
    }
}

/// Metadata for one database.
#[derive(Debug, Clone, Default)]
pub struct DbMeta {
    pub tables: BTreeMap<String, TableMeta>,
    pub domain: String,
}

/// Metadata for a whole collection.
#[derive(Debug, Clone, Default)]
pub struct CorpusMeta {
    pub per_db: BTreeMap<String, DbMeta>,
}

/// Collection-level generation parameters.
#[derive(Debug, Clone)]
pub struct GenConfig {
    pub num_databases: usize,
    /// Range of entity tables per database (inclusive).
    pub entities_per_db: (usize, usize),
    /// Probability of adding a junction table per database (applied twice).
    pub junction_prob: f64,
    /// Row count range per table (inclusive).
    pub rows_per_table: (usize, usize),
    pub seed: u64,
}

impl GenConfig {
    /// Spider-like: 166 databases, ~5.3 tables each.
    pub fn spider_like(seed: u64) -> Self {
        GenConfig {
            num_databases: 166,
            entities_per_db: (3, 6),
            junction_prob: 0.55,
            rows_per_table: (16, 48),
            seed,
        }
    }

    /// Bird-like: 80 databases, ~7.5 tables each, more content.
    pub fn bird_like(seed: u64) -> Self {
        GenConfig {
            num_databases: 80,
            entities_per_db: (5, 8),
            junction_prob: 0.75,
            rows_per_table: (24, 72),
            seed,
        }
    }
}

/// Output of collection generation.
pub struct GeneratedCollection {
    pub collection: Collection,
    pub store: Store,
    pub meta: CorpusMeta,
}

/// Generate a multi-database collection.
pub fn generate_collection(cfg: &GenConfig) -> GeneratedCollection {
    let mut rng = SmallRng::seed_from_u64(cfg.seed);
    let mut collection = Collection::new();
    let mut store = Store::new();
    let mut meta = CorpusMeta::default();
    let mut stem_uses: BTreeMap<&'static str, usize> = BTreeMap::new();

    for i in 0..cfg.num_databases {
        let domain = &DOMAINS[i % DOMAINS.len()];
        let stem = domain.db_stems[(i / DOMAINS.len()) % domain.db_stems.len()];
        let n = {
            let c = stem_uses.entry(stem).or_insert(0);
            *c += 1;
            *c
        };
        let db_name = if n == 1 { stem.to_string() } else { format!("{stem}_{n}") };

        let k = rng.gen_range(cfg.entities_per_db.0..=cfg.entities_per_db.1);
        // Compositional pseudo-domain: 1–2 core entities from the named
        // domain plus entities drawn from the global pool. Spider's 200
        // databases span 138 domains — most databases are distinguishable
        // by their entity *combination*, with some genuine overlap (the
        // paper's flight/flight2 confusion case) retained.
        let mut core: Vec<&str> = domain.entities.to_vec();
        core.shuffle(&mut rng);
        core.truncate(2.min(k));
        let mut entities: Vec<&str> = core;
        while entities.len() < k {
            let cand = ENTITIES[rng.gen_range(0..ENTITIES.len())].name;
            if !entities.contains(&cand) {
                entities.push(cand);
            }
        }

        let (schema, db, db_meta) = generate_database(
            &db_name,
            domain.name,
            &entities,
            None,
            cfg.junction_prob,
            cfg.rows_per_table,
            &mut rng,
        );
        collection.add_database(schema);
        store.add(db);
        meta.per_db.insert(db_name, db_meta);
    }

    GeneratedCollection { collection, store, meta }
}

/// Generate a Fiben-like single-database mart: one database with many
/// subject areas, each a prefixed star of tables (~`areas × tables_per_area`
/// tables total).
pub fn generate_mart(
    db_name: &str,
    areas: usize,
    tables_per_area: (usize, usize),
    rows_per_table: (usize, usize),
    seed: u64,
) -> GeneratedCollection {
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut schema = DatabaseSchema::new(db_name);
    let mut db_meta = DbMeta { tables: BTreeMap::new(), domain: "finance_mart".into() };
    let mut rows: Vec<(TableSchema, Vec<Vec<Value>>)> = Vec::new();

    for a in 0..areas {
        let domain = &DOMAINS[a % DOMAINS.len()];
        // Unique prefix per area even when domains repeat across areas.
        let round = a / DOMAINS.len();
        let prefix = if round == 0 {
            domain.db_stems[0].to_string()
        } else {
            format!("{}{}", domain.db_stems[0], round + 1)
        };
        let k = rng.gen_range(tables_per_area.0..=tables_per_area.1);
        let mut entities: Vec<&str> = domain.entities.to_vec();
        entities.shuffle(&mut rng);
        entities.truncate(k.min(entities.len()));
        let prefixed: Vec<String> = entities.iter().map(|e| format!("{prefix}_{e}")).collect();
        let area_tables =
            build_tables(&prefixed, &entities, 0.8, rows_per_table, &mut rng, &mut db_meta);
        rows.extend(area_tables);
    }

    let mut db_tables = BTreeMap::new();
    for (ts, trows) in rows {
        schema.tables.push(ts.clone());
        let mut t = dbcopilot_sqlengine::Table::new(ts);
        for r in trows {
            t.insert(r).expect("generated row must fit schema");
        }
        db_tables.insert(t.schema.name.clone(), t);
    }
    let db = Database { name: db_name.to_string(), tables: db_tables };

    let mut collection = Collection::new();
    collection.add_database(schema);
    let mut store = Store::new();
    store.add(db);
    let mut meta = CorpusMeta::default();
    meta.per_db.insert(db_name.to_string(), db_meta);
    GeneratedCollection { collection, store, meta }
}

/// Generate one database: schema, content, metadata.
#[allow(clippy::too_many_arguments)]
fn generate_database(
    db_name: &str,
    domain: &str,
    entities: &[&str],
    table_prefix: Option<&str>,
    junction_prob: f64,
    rows_per_table: (usize, usize),
    rng: &mut SmallRng,
) -> (DatabaseSchema, Database, DbMeta) {
    let mut schema = DatabaseSchema::new(db_name);
    let mut db_meta = DbMeta { tables: BTreeMap::new(), domain: domain.to_string() };

    // Real organizations name the same concept differently: with some
    // probability a table is named after a synonym of its entity
    // ("vocalist" instead of "singer"). This diversifies table vocabulary
    // across databases (reducing accidental cross-database collisions) and
    // deepens the question↔schema semantic gap (paper challenge C3).
    let table_names: Vec<String> = entities
        .iter()
        .map(|e| {
            let base = if rng.gen_bool(0.35) { synonym_table_name(e, rng) } else { e.to_string() };
            match table_prefix {
                Some(p) => format!("{p}_{base}"),
                None => base,
            }
        })
        .collect();
    let mut tables = build_tables(&table_names, entities, 0.65, rows_per_table, rng, &mut db_meta);

    // Junction tables between FK-unrelated entity pairs.
    for _ in 0..2 {
        if entities.len() >= 2 && rng.gen_bool(junction_prob) {
            let mut idx: Vec<usize> = (0..entities.len()).collect();
            idx.shuffle(rng);
            let (ai, bi) = (idx[0], idx[1]);
            let a_table = table_names[ai].clone();
            let b_table = table_names[bi].clone();
            let j_name = format!("{}_in_{}", entities[ai], entities[bi]);
            if db_meta.tables.contains_key(&j_name) {
                continue;
            }
            let a_pk = format!("{}_id", entities[ai]);
            let b_pk = format!("{}_id", entities[bi]);
            let ts = TableSchema::new(j_name.clone())
                .column(a_pk.clone(), DataType::Int)
                .column(b_pk.clone(), DataType::Int)
                .column("year", DataType::Int)
                .foreign(a_pk.clone(), a_table.clone(), a_pk.clone())
                .foreign(b_pk.clone(), b_table.clone(), b_pk.clone());
            // rows: random pairs
            let a_rows =
                tables.iter().find(|(t, _)| t.name == a_table).map(|(_, r)| r.len()).unwrap_or(1);
            let b_rows =
                tables.iter().find(|(t, _)| t.name == b_table).map(|(_, r)| r.len()).unwrap_or(1);
            let n = rng.gen_range(rows_per_table.0..=rows_per_table.1);
            let mut trows = Vec::with_capacity(n);
            for _ in 0..n {
                trows.push(vec![
                    Value::Int(rng.gen_range(1..=a_rows as i64)),
                    Value::Int(rng.gen_range(1..=b_rows as i64)),
                    Value::Int(rng.gen_range(1990..=2024)),
                ]);
            }
            db_meta.tables.insert(
                j_name.clone(),
                TableMeta {
                    table: j_name.clone(),
                    entity: format!("{}_in_{}", entities[ai], entities[bi]),
                    attrs: vec!["year".into()],
                    parents: vec![(a_table.clone(), a_pk), (b_table.clone(), b_pk)],
                    is_junction: true,
                    endpoints: Some((a_table, b_table)),
                    pk: None,
                    has_name: false,
                },
            );
            tables.push((ts, trows));
        }
    }

    let mut db_tables = BTreeMap::new();
    for (ts, trows) in tables {
        schema.tables.push(ts.clone());
        let mut t = dbcopilot_sqlengine::Table::new(ts);
        for r in trows {
            t.insert(r).expect("generated row must fit schema");
        }
        db_tables.insert(t.schema.name.clone(), t);
    }
    let db = Database { name: db_name.to_string(), tables: db_tables };
    (schema, db, db_meta)
}

/// Build entity tables with a random FK topology and populated rows.
fn build_tables(
    table_names: &[String],
    entities: &[&str],
    fk_prob: f64,
    rows_per_table: (usize, usize),
    rng: &mut SmallRng,
    db_meta: &mut DbMeta,
) -> Vec<(TableSchema, Vec<Vec<Value>>)> {
    let mut out: Vec<(TableSchema, Vec<Vec<Value>>)> = Vec::new();
    let mut row_counts: Vec<usize> = Vec::new();

    for (ti, (tname, ekey)) in table_names.iter().zip(entities).enumerate() {
        let espec = ENTITIES
            .iter()
            .find(|e| e.name == *ekey)
            .unwrap_or_else(|| panic!("unknown entity {ekey}"));
        let pk_name = format!("{ekey}_id");
        let mut ts = TableSchema::new(tname.clone())
            .column(pk_name.clone(), DataType::Int)
            .column("name", DataType::Text)
            .primary(0);
        // Attribute subset: organizations model the same concept with
        // different attributes, so the (entity, attributes) combination —
        // not the entity alone — identifies a database. Keep at least one
        // numeric and one categorical attribute when the entity offers
        // them (the workload templates need both), drop others with
        // probability, and sometimes adopt 1–2 extra generic attributes.
        let mut attr_keys: Vec<&str> = Vec::new();
        let mut shuffled: Vec<&str> = espec.attrs.to_vec();
        shuffled.shuffle(rng);
        for akey in &shuffled {
            let spec = crate::lexicon::ATTRIBUTES.iter().find(|a| a.name == *akey).unwrap();
            let keep_floor = match spec.values {
                ValueSpec::Category(_) => !attr_keys.iter().any(|k| {
                    matches!(
                        crate::lexicon::ATTRIBUTES.iter().find(|a| a.name == *k).unwrap().values,
                        ValueSpec::Category(_)
                    )
                }),
                _ => !attr_keys.iter().any(|k| {
                    !matches!(
                        crate::lexicon::ATTRIBUTES.iter().find(|a| a.name == *k).unwrap().values,
                        ValueSpec::Category(_)
                    )
                }),
            };
            if keep_floor || rng.gen_bool(0.6) {
                attr_keys.push(akey);
            }
        }
        const EXTRA_POOL: &[&str] =
            &["year", "rating", "status", "region", "founded", "capacity", "points", "budget"];
        for _ in 0..2 {
            if rng.gen_bool(0.35) {
                let extra = EXTRA_POOL[rng.gen_range(0..EXTRA_POOL.len())];
                if !attr_keys.contains(&extra) {
                    attr_keys.push(extra);
                }
            }
        }
        let mut attr_specs: Vec<&AttrSpec> = Vec::new();
        for akey in &attr_keys {
            let aspec = crate::lexicon::ATTRIBUTES
                .iter()
                .find(|a| a.name == *akey)
                .unwrap_or_else(|| panic!("unknown attr {akey}"));
            ts = ts.column(aspec.name, aspec.ty);
            attr_specs.push(aspec);
        }
        // FK to a random earlier table.
        let mut parents = Vec::new();
        if ti > 0 && rng.gen_bool(fk_prob) {
            let pi = rng.gen_range(0..ti);
            let parent_table = table_names[pi].clone();
            let parent_pk = format!("{}_id", entities[pi]);
            let fk_col = parent_pk.clone();
            if ts.column_index(&fk_col).is_none() {
                ts = ts.column(fk_col.clone(), DataType::Int).foreign(
                    fk_col.clone(),
                    parent_table.clone(),
                    parent_pk,
                );
                parents.push((parent_table, fk_col));
            }
        }

        // Rows.
        let n = rng.gen_range(rows_per_table.0..=rows_per_table.1);
        let mut trows = Vec::with_capacity(n);
        for ri in 0..n {
            let mut row = vec![Value::Int(ri as i64 + 1)];
            row.push(Value::Text(gen_name(rng)));
            for a in &attr_specs {
                row.push(gen_value(a, rng));
            }
            for (pt, _) in &parents {
                let parent_rows =
                    table_names.iter().position(|t| t == pt).map(|i| row_counts[i]).unwrap_or(1);
                row.push(Value::Int(rng.gen_range(1..=parent_rows.max(1) as i64)));
            }
            trows.push(row);
        }
        row_counts.push(n);

        db_meta.tables.insert(
            tname.clone(),
            TableMeta {
                table: tname.clone(),
                entity: ekey.to_string(),
                attrs: attr_keys.iter().map(|a| a.to_string()).collect(),
                parents,
                is_junction: false,
                endpoints: None,
                pk: Some(pk_name),
                has_name: true,
            },
        );
        out.push((ts, trows));
    }
    out
}

/// Generate a value per spec.
fn gen_value(a: &AttrSpec, rng: &mut SmallRng) -> Value {
    match a.values {
        ValueSpec::Id => Value::Int(0),
        ValueSpec::IntRange(lo, hi) => Value::Int(rng.gen_range(lo..=hi)),
        ValueSpec::FloatRange(lo, hi) => {
            // Quantize to 2 decimals: stable text round-trips.
            let v = rng.gen_range(lo..hi);
            Value::Float((v * 100.0).round() / 100.0)
        }
        ValueSpec::ProperName => Value::Text(gen_name(rng)),
        ValueSpec::Category(i) => {
            let pool = CATEGORY_POOLS[i];
            Value::Text(pool[rng.gen_range(0..pool.len())].to_string())
        }
    }
}

/// SQL keywords that must not become bare table names.
const RESERVED_NAMES: &[&str] = &[
    "case", "select", "from", "where", "group", "order", "join", "union", "end", "left", "right",
    "on", "as", "by", "in", "is", "and", "or", "not", "between", "like",
];

/// Snake-cased synonym name for an entity table, seeded.
fn synonym_table_name(entity: &str, rng: &mut SmallRng) -> String {
    let spec = ENTITIES.iter().find(|e| e.name == entity);
    match spec {
        Some(e) if !e.synonyms.is_empty() => {
            let syn = e.synonyms[rng.gen_range(0..e.synonyms.len())];
            let name = syn.to_lowercase().replace(' ', "_");
            if RESERVED_NAMES.contains(&name.as_str()) {
                entity.to_string()
            } else {
                name
            }
        }
        _ => entity.to_string(),
    }
}

/// Two-part proper name.
pub fn gen_name(rng: &mut SmallRng) -> String {
    format!(
        "{} {}",
        NAME_FIRST[rng.gen_range(0..NAME_FIRST.len())],
        NAME_SECOND[rng.gen_range(0..NAME_SECOND.len())]
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spider_like_shape() {
        let g = generate_collection(&GenConfig {
            num_databases: 30,
            entities_per_db: (3, 6),
            junction_prob: 0.5,
            rows_per_table: (8, 16),
            seed: 1,
        });
        assert_eq!(g.collection.num_databases(), 30);
        let avg = g.collection.num_tables() as f64 / 30.0;
        assert!((3.0..8.0).contains(&avg), "avg tables {avg}");
        // every schema table is populated and present in the store
        for (dbs, ts) in g.collection.tables() {
            let db = g.store.database(&dbs.name).expect("db in store");
            assert!(db.table(&ts.name).is_some(), "{}.{} missing", dbs.name, ts.name);
        }
    }

    #[test]
    fn deterministic_generation() {
        let cfg = GenConfig {
            num_databases: 5,
            entities_per_db: (3, 4),
            junction_prob: 0.5,
            rows_per_table: (5, 9),
            seed: 7,
        };
        let a = generate_collection(&cfg);
        let b = generate_collection(&cfg);
        assert_eq!(a.collection.num_tables(), b.collection.num_tables());
        let names_a: Vec<String> = a.collection.databases.keys().cloned().collect();
        let names_b: Vec<String> = b.collection.databases.keys().cloned().collect();
        assert_eq!(names_a, names_b);
    }

    #[test]
    fn foreign_keys_reference_existing_tables() {
        let g = generate_collection(&GenConfig {
            num_databases: 20,
            entities_per_db: (3, 6),
            junction_prob: 0.8,
            rows_per_table: (5, 10),
            seed: 3,
        });
        for (db, t) in g.collection.tables() {
            for fk in &t.foreign_keys {
                let parent = db.table(&fk.ref_table);
                assert!(parent.is_some(), "{}.{} fk to missing {}", db.name, t.name, fk.ref_table);
                assert!(
                    parent.unwrap().column_index(&fk.ref_column).is_some(),
                    "fk target column missing"
                );
            }
        }
    }

    #[test]
    fn fk_values_within_parent_range() {
        let g = generate_collection(&GenConfig {
            num_databases: 10,
            entities_per_db: (3, 5),
            junction_prob: 0.6,
            rows_per_table: (5, 10),
            seed: 11,
        });
        for (dbschema, t) in g.collection.tables() {
            let db = g.store.database(&dbschema.name).unwrap();
            let table = db.table(&t.name).unwrap();
            for fk in &t.foreign_keys {
                let parent = db.table(&fk.ref_table).unwrap();
                let ci = t.column_index(&fk.column).unwrap();
                for row in &table.rows {
                    if let Value::Int(v) = row[ci] {
                        assert!(
                            v >= 1 && v <= parent.rows.len() as i64,
                            "dangling fk value {v} in {}.{}",
                            t.name,
                            fk.column
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn junction_meta_consistent() {
        let g = generate_collection(&GenConfig {
            num_databases: 25,
            entities_per_db: (3, 6),
            junction_prob: 1.0,
            rows_per_table: (5, 10),
            seed: 5,
        });
        let mut saw_junction = false;
        for (dbname, dbm) in &g.meta.per_db {
            for (tname, tm) in &dbm.tables {
                if tm.is_junction {
                    saw_junction = true;
                    let (a, b) = tm.endpoints.clone().unwrap();
                    let db = g.collection.database(dbname).unwrap();
                    assert!(db.table(&a).is_some() && db.table(&b).is_some());
                    assert_eq!(tm.parents.len(), 2, "{tname}");
                }
            }
        }
        assert!(saw_junction);
    }

    #[test]
    fn mart_generation_counts() {
        let g = generate_mart("fiben_mart", 10, (4, 6), (5, 10), 13);
        assert_eq!(g.collection.num_databases(), 1);
        let n = g.collection.num_tables();
        assert!((30..=60).contains(&n), "mart tables {n}");
        // prefixed table names unique
        let db = g.collection.database("fiben_mart").unwrap();
        let mut names = db.table_names();
        let before = names.len();
        names.sort();
        names.dedup();
        assert_eq!(before, names.len());
    }

    #[test]
    fn generated_sql_roundtrip_executes() {
        // smoke: SELECT COUNT(*) works on every generated table
        let g = generate_collection(&GenConfig {
            num_databases: 4,
            entities_per_db: (3, 4),
            junction_prob: 0.5,
            rows_per_table: (5, 8),
            seed: 23,
        });
        for (dbschema, t) in g.collection.tables() {
            let db = g.store.database(&dbschema.name).unwrap();
            let pdb = dbcopilot_sqlengine::PreparedDb::prepare(db);
            let sql = format!("SELECT COUNT(*) FROM {}", t.name);
            let rs = dbcopilot_sqlengine::execute(&pdb, &sql).unwrap();
            assert_eq!(rs.rows.len(), 1);
        }
    }
}
