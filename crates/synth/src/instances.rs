//! Workload instance generation: `(question N, schema S, SQL Q)` triples.
//!
//! Instances are sampled per database from the templates in
//! [`crate::templates`], with slot values drawn from actual table content so
//! filters are satisfiable. Robustness variants re-render the *same* specs
//! under different surface styles, exactly like Spider-syn / Spider-real
//! share Spider's databases and gold SQL.

use rand::rngs::SmallRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

use dbcopilot_graph::QuerySchema;
use dbcopilot_sqlengine::Value;

use crate::corpusgen::{DbMeta, GeneratedCollection, TableMeta};
use crate::lexicon::Lexicon;
use crate::templates::{
    render_question, render_sql, AggKind, CmpOp, QuestionSpec, SurfaceStyle, TemplateKind,
};

/// One evaluated instance.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Instance {
    pub id: usize,
    pub question: String,
    pub schema: QuerySchema,
    pub sql: String,
    /// The hidden intent (never shown to models; used by tests and variant
    /// re-rendering).
    pub spec: QuestionSpec,
}

/// Template mixture weights (roughly matching Spider's SQL-shape mix).
const KIND_WEIGHTS: &[(TemplateKind, f64)] = &[
    (TemplateKind::ListAttr, 1.2),
    (TemplateKind::FilterCmp, 1.4),
    (TemplateKind::FilterEq, 1.2),
    (TemplateKind::CountAll, 0.8),
    (TemplateKind::CountFilter, 1.0),
    (TemplateKind::AggAttr, 1.0),
    (TemplateKind::GroupCount, 0.9),
    (TemplateKind::GroupHaving, 0.7),
    (TemplateKind::TopK, 1.0),
    (TemplateKind::MaxSubquery, 0.7),
    (TemplateKind::JoinList, 1.2),
    (TemplateKind::JoinFilter, 1.2),
    (TemplateKind::CountJoin, 0.9),
    (TemplateKind::InSubquery, 0.8),
    (TemplateKind::JunctionList, 1.0),
];

/// Generate `n` instances across the whole collection.
pub fn generate_instances(
    gc: &GeneratedCollection,
    lex: &Lexicon,
    n: usize,
    style: SurfaceStyle,
    seed: u64,
) -> Vec<Instance> {
    let dbs: Vec<String> = gc.meta.per_db.keys().cloned().collect();
    generate_instances_for(gc, lex, n, style, seed, &dbs)
}

/// Generate `n` instances restricted to the given databases.
///
/// Mirrors Spider's protocol where train and test questions target
/// *disjoint* database sets — the property behind the paper's finding that
/// generative retrieval trained on original data cannot generalize to
/// unseen schemata (Table 7, "OD").
pub fn generate_instances_for(
    gc: &GeneratedCollection,
    lex: &Lexicon,
    n: usize,
    style: SurfaceStyle,
    seed: u64,
    dbs: &[String],
) -> Vec<Instance> {
    let mut rng = SmallRng::seed_from_u64(seed);
    let db_names: Vec<&String> = dbs.iter().filter(|d| gc.meta.per_db.contains_key(*d)).collect();
    assert!(!db_names.is_empty(), "empty database subset");
    let mut out = Vec::with_capacity(n);
    let mut id = 0;
    while out.len() < n {
        let db = db_names[rng.gen_range(0..db_names.len())];
        let dbm = &gc.meta.per_db[db.as_str()];
        if let Some(spec) = sample_spec(gc, lex, db, dbm, &mut rng) {
            let question = render_question(&spec, lex, style, &mut rng);
            let sql = render_sql(&spec);
            out.push(Instance { id, question, schema: spec.schema(), sql, spec });
            id += 1;
        }
    }
    out
}

/// Re-render existing instances under a different surface style (robustness
/// variants). Gold schema and SQL are unchanged.
pub fn rerender_instances(
    instances: &[Instance],
    lex: &Lexicon,
    style: SurfaceStyle,
    seed: u64,
) -> Vec<Instance> {
    let mut rng = SmallRng::seed_from_u64(seed);
    instances
        .iter()
        .map(|inst| Instance {
            id: inst.id,
            question: render_question(&inst.spec, lex, style, &mut rng),
            schema: inst.schema.clone(),
            sql: inst.sql.clone(),
            spec: inst.spec.clone(),
        })
        .collect()
}

/// Try to bind one question spec for a database.
fn sample_spec(
    gc: &GeneratedCollection,
    lex: &Lexicon,
    db: &str,
    dbm: &DbMeta,
    rng: &mut SmallRng,
) -> Option<QuestionSpec> {
    let total: f64 = KIND_WEIGHTS.iter().map(|(_, w)| w).sum();
    for _attempt in 0..8 {
        let mut pick = rng.gen_range(0.0..total);
        let mut kind = TemplateKind::CountAll;
        for (k, w) in KIND_WEIGHTS {
            if pick < *w {
                kind = *k;
                break;
            }
            pick -= w;
        }
        if let Some(spec) = bind_spec(gc, lex, db, dbm, kind, rng) {
            return Some(spec);
        }
    }
    // Fallback: CountAll over any entity table.
    bind_spec(gc, lex, db, dbm, TemplateKind::CountAll, rng)
}

fn entity_tables(dbm: &DbMeta) -> Vec<&TableMeta> {
    dbm.tables.values().filter(|t| !t.is_junction && t.has_name).collect()
}

fn numeric_attr(lex: &Lexicon, tm: &TableMeta, rng: &mut SmallRng) -> Option<String> {
    let c: Vec<&String> = tm.attrs.iter().filter(|a| lex.is_numeric(a)).collect();
    c.choose(rng).map(|a| a.to_string())
}

fn categorical_attr(lex: &Lexicon, tm: &TableMeta, rng: &mut SmallRng) -> Option<String> {
    let c: Vec<&String> = tm.attrs.iter().filter(|a| lex.is_categorical(a)).collect();
    c.choose(rng).map(|a| a.to_string())
}

/// A random non-null value of `column` from the populated table.
fn sample_column_value(
    gc: &GeneratedCollection,
    db: &str,
    table: &str,
    column: &str,
    rng: &mut SmallRng,
) -> Option<Value> {
    let t = gc.store.database(db)?.table(table)?;
    let ci = t.schema.column_index(column)?;
    let vals: Vec<&Value> = t.column_values(ci).collect();
    vals.choose(rng).map(|v| (*v).clone())
}

fn base_spec(db: &str, kind: TemplateKind) -> QuestionSpec {
    QuestionSpec {
        kind,
        database: db.to_string(),
        tables: Vec::new(),
        entities: Vec::new(),
        aligned: Vec::new(),
        attr: None,
        cmp: None,
        agg: None,
        value: None,
        k: None,
        join_on: None,
        junction_on: None,
        highest: false,
    }
}

fn bind_spec(
    gc: &GeneratedCollection,
    lex: &Lexicon,
    db: &str,
    dbm: &DbMeta,
    kind: TemplateKind,
    rng: &mut SmallRng,
) -> Option<QuestionSpec> {
    let mut spec = base_spec(db, kind);
    let tables = entity_tables(dbm);
    if tables.is_empty() {
        return None;
    }
    match kind {
        TemplateKind::ListAttr => {
            let tm = tables.choose(rng)?;
            let attr = tm.attrs.choose(rng)?.clone();
            spec.tables = vec![tm.table.clone()];
            spec.entities = vec![tm.entity.clone()];
            spec.aligned = vec![tm.aligned_name(lex)];
            spec.attr = Some(attr);
        }
        TemplateKind::CountAll => {
            let tm = tables.choose(rng)?;
            spec.tables = vec![tm.table.clone()];
            spec.entities = vec![tm.entity.clone()];
            spec.aligned = vec![tm.aligned_name(lex)];
        }
        TemplateKind::FilterCmp | TemplateKind::CountFilter => {
            let tm = tables.choose(rng)?;
            let attr = numeric_attr(lex, tm, rng)?;
            let value = sample_column_value(gc, db, &tm.table, &attr, rng)?;
            spec.tables = vec![tm.table.clone()];
            spec.entities = vec![tm.entity.clone()];
            spec.aligned = vec![tm.aligned_name(lex)];
            spec.attr = Some(attr);
            spec.cmp = Some(if rng.gen_bool(0.5) { CmpOp::Gt } else { CmpOp::Lt });
            spec.value = Some(value);
        }
        TemplateKind::FilterEq => {
            let tm = tables.choose(rng)?;
            let attr = categorical_attr(lex, tm, rng)?;
            let value = sample_column_value(gc, db, &tm.table, &attr, rng)?;
            spec.tables = vec![tm.table.clone()];
            spec.entities = vec![tm.entity.clone()];
            spec.aligned = vec![tm.aligned_name(lex)];
            spec.attr = Some(attr);
            spec.value = Some(value);
        }
        TemplateKind::AggAttr => {
            let tm = tables.choose(rng)?;
            let attr = numeric_attr(lex, tm, rng)?;
            spec.tables = vec![tm.table.clone()];
            spec.entities = vec![tm.entity.clone()];
            spec.aligned = vec![tm.aligned_name(lex)];
            spec.attr = Some(attr);
            spec.agg = Some(
                *[AggKind::Avg, AggKind::Sum, AggKind::Min, AggKind::Max].choose(rng).unwrap(),
            );
        }
        TemplateKind::GroupCount | TemplateKind::GroupHaving => {
            let tm = tables.choose(rng)?;
            let attr = categorical_attr(lex, tm, rng)?;
            spec.tables = vec![tm.table.clone()];
            spec.entities = vec![tm.entity.clone()];
            spec.aligned = vec![tm.aligned_name(lex)];
            spec.attr = Some(attr);
            if kind == TemplateKind::GroupHaving {
                spec.k = Some(rng.gen_range(1..=4));
            }
        }
        TemplateKind::TopK | TemplateKind::MaxSubquery => {
            let tm = tables.choose(rng)?;
            let attr = numeric_attr(lex, tm, rng)?;
            spec.tables = vec![tm.table.clone()];
            spec.entities = vec![tm.entity.clone()];
            spec.aligned = vec![tm.aligned_name(lex)];
            spec.attr = Some(attr);
            spec.highest = rng.gen_bool(0.7);
        }
        TemplateKind::JoinList | TemplateKind::JoinFilter | TemplateKind::CountJoin => {
            // child with a parent
            let children: Vec<&&TableMeta> =
                tables.iter().filter(|t| !t.parents.is_empty()).collect();
            let child = children.choose(rng)?;
            let (parent_table, fk_col) = child.parents.choose(rng)?.clone();
            let ptm = dbm.tables.get(&parent_table)?;
            if !ptm.has_name {
                return None;
            }
            let ppk = ptm.pk.clone()?;
            spec.tables = vec![child.table.clone(), parent_table.clone()];
            spec.entities = vec![child.entity.clone(), ptm.entity.clone()];
            spec.aligned = vec![child.aligned_name(lex), ptm.aligned_name(lex)];
            spec.join_on = Some((fk_col, ppk));
            match kind {
                TemplateKind::JoinFilter => {
                    let attr =
                        categorical_attr(lex, ptm, rng).or_else(|| numeric_attr(lex, ptm, rng))?;
                    let value = sample_column_value(gc, db, &parent_table, &attr, rng)?;
                    spec.attr = Some(attr);
                    spec.value = Some(value);
                }
                TemplateKind::CountJoin => {
                    let value = sample_column_value(gc, db, &parent_table, "name", rng)?;
                    spec.value = Some(value);
                }
                _ => {}
            }
        }
        TemplateKind::InSubquery => {
            let children: Vec<&&TableMeta> =
                tables.iter().filter(|t| !t.parents.is_empty()).collect();
            let child = children.choose(rng)?;
            let (parent_table, fk_col) = child.parents.choose(rng)?.clone();
            let ptm = dbm.tables.get(&parent_table)?;
            if !ptm.has_name {
                return None;
            }
            let ppk = ptm.pk.clone()?;
            // roles: [parent, child]
            spec.tables = vec![parent_table.clone(), child.table.clone()];
            spec.entities = vec![ptm.entity.clone(), child.entity.clone()];
            spec.aligned = vec![ptm.aligned_name(lex), child.aligned_name(lex)];
            spec.join_on = Some((fk_col, ppk));
        }
        TemplateKind::JunctionList => {
            let junctions: Vec<&TableMeta> =
                dbm.tables.values().filter(|t| t.is_junction).collect();
            let j = junctions.choose(rng)?;
            let (a_table, b_table) = j.endpoints.clone()?;
            let atm = dbm.tables.get(&a_table)?;
            let btm = dbm.tables.get(&b_table)?;
            let (apk, bpk) = (atm.pk.clone()?, btm.pk.clone()?);
            let (afk, bfk) = (j.parents.first()?.1.clone(), j.parents.get(1)?.1.clone());
            let value = sample_column_value(gc, db, &b_table, "name", rng)?;
            spec.tables = vec![j.table.clone(), a_table.clone(), b_table.clone()];
            spec.entities = vec![j.entity.clone(), atm.entity.clone(), btm.entity.clone()];
            spec.aligned = vec![j.table.clone(), atm.aligned_name(lex), btm.aligned_name(lex)];
            spec.junction_on = Some(((afk, apk), (bfk, bpk)));
            spec.value = Some(value);
        }
    }
    Some(spec)
}

/// Render the detailed schema text of a query schema (Figure 3 input format
/// of the schema questioner).
pub fn schema_detail_text(
    collection: &dbcopilot_sqlengine::Collection,
    schema: &QuerySchema,
) -> String {
    let mut lines = vec![format!("database: {}", schema.database)];
    if let Some(db) = collection.database(&schema.database) {
        for t in &schema.tables {
            if let Some(ts) = db.table(t) {
                lines.push(format!("- {}", ts.flat_text()));
            }
        }
    }
    lines.join("\n")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::corpusgen::{generate_collection, GenConfig};

    fn small_corpus() -> GeneratedCollection {
        generate_collection(&GenConfig {
            num_databases: 12,
            entities_per_db: (3, 6),
            junction_prob: 0.8,
            rows_per_table: (8, 16),
            seed: 99,
        })
    }

    #[test]
    fn instances_have_valid_gold_sql() {
        let gc = small_corpus();
        let lex = Lexicon::new();
        let insts = generate_instances(&gc, &lex, 150, SurfaceStyle::Mixed(0.35), 7);
        assert_eq!(insts.len(), 150);
        for inst in &insts {
            let db = gc.store.database(&inst.schema.database).expect("db exists");
            let pdb = dbcopilot_sqlengine::PreparedDb::prepare(db);
            let rs = dbcopilot_sqlengine::execute(&pdb, &inst.sql)
                .unwrap_or_else(|e| panic!("gold SQL failed: {e} — {}", inst.sql));
            let _ = rs;
        }
    }

    #[test]
    fn schemas_are_valid_on_graph() {
        let gc = small_corpus();
        let lex = Lexicon::new();
        let mut graph = dbcopilot_graph::SchemaGraph::build(&gc.collection);
        dbcopilot_graph::augment_graph_with_joinable(&mut graph, &gc.store, 0.85);
        let insts = generate_instances(&gc, &lex, 120, SurfaceStyle::Mixed(0.35), 11);
        for inst in &insts {
            assert!(
                graph.is_valid_schema(&inst.schema),
                "instance schema invalid: {} (kind {:?})",
                inst.schema,
                inst.spec.kind
            );
        }
    }

    #[test]
    fn template_mix_is_diverse() {
        let gc = small_corpus();
        let lex = Lexicon::new();
        let insts = generate_instances(&gc, &lex, 300, SurfaceStyle::Mixed(0.35), 13);
        let kinds: std::collections::HashSet<_> = insts.iter().map(|i| i.spec.kind).collect();
        assert!(kinds.len() >= 10, "only {} template kinds", kinds.len());
    }

    #[test]
    fn multi_table_instances_present() {
        let gc = small_corpus();
        let lex = Lexicon::new();
        let insts = generate_instances(&gc, &lex, 200, SurfaceStyle::Mixed(0.35), 17);
        let multi = insts.iter().filter(|i| i.schema.tables.len() > 1).count();
        assert!(multi > 20, "only {multi} multi-table instances");
    }

    #[test]
    fn rerender_preserves_sql_and_schema() {
        let gc = small_corpus();
        let lex = Lexicon::new();
        let insts = generate_instances(&gc, &lex, 50, SurfaceStyle::Mixed(0.35), 19);
        let syn = rerender_instances(&insts, &lex, SurfaceStyle::SynonymOnly, 23);
        assert_eq!(insts.len(), syn.len());
        for (a, b) in insts.iter().zip(&syn) {
            assert_eq!(a.sql, b.sql);
            assert!(a.schema.same_as(&b.schema));
        }
        // questions should differ for most instances
        let changed = insts.iter().zip(&syn).filter(|(a, b)| a.question != b.question).count();
        assert!(changed > 25, "synonym re-render changed only {changed}/50");
    }

    #[test]
    fn deterministic_instance_generation() {
        let gc = small_corpus();
        let lex = Lexicon::new();
        let a = generate_instances(&gc, &lex, 30, SurfaceStyle::Mixed(0.35), 29);
        let b = generate_instances(&gc, &lex, 30, SurfaceStyle::Mixed(0.35), 29);
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.question, y.question);
            assert_eq!(x.sql, y.sql);
        }
    }

    #[test]
    fn schema_detail_text_lists_columns() {
        let gc = small_corpus();
        let lex = Lexicon::new();
        let insts = generate_instances(&gc, &lex, 5, SurfaceStyle::Canonical, 31);
        let d = schema_detail_text(&gc.collection, &insts[0].schema);
        assert!(d.starts_with("database: "));
        assert!(d.contains('('), "detail should list columns: {d}");
    }
}
