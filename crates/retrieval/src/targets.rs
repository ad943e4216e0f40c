//! Retrieval targets and routing-result assembly.
//!
//! Per the paper's baseline setup (§4.1.5): tables are the retrieval
//! targets, represented by the flat normalized names of the table and its
//! columns; databases are ranked by the average score of their retrieved
//! tables; a candidate schema for NL2SQL is the top database plus its
//! retrieved tables.

use dbcopilot_graph::QuerySchema;
use dbcopilot_sqlengine::Collection;

/// A retrieval target: one table.
#[derive(Debug, Clone)]
pub struct Target {
    pub database: String,
    pub table: String,
    /// Flat text: "singer in concert singer id concert id …".
    pub text: String,
}

/// Index of a target in a [`TargetSet`].
pub type TargetId = usize;

/// All retrieval targets of a collection.
#[derive(Debug, Clone, Default)]
pub struct TargetSet {
    pub targets: Vec<Target>,
}

impl TargetSet {
    /// Build from a schema collection.
    pub fn from_collection(collection: &Collection) -> Self {
        let mut targets = Vec::with_capacity(collection.num_tables());
        for (db, t) in collection.tables() {
            let mut words = crate::text::tokenize(&t.name);
            for c in &t.columns {
                words.extend(crate::text::tokenize(&c.name));
            }
            targets.push(Target {
                database: db.name.clone(),
                table: t.name.clone(),
                text: words.join(" "),
            });
        }
        TargetSet { targets }
    }

    pub fn len(&self) -> usize {
        self.targets.len()
    }

    pub fn is_empty(&self) -> bool {
        self.targets.is_empty()
    }

    pub fn get(&self, id: TargetId) -> &Target {
        &self.targets[id]
    }
}

/// A ranked routing result: tables and databases, best first.
#[derive(Debug, Clone, Default)]
pub struct RoutingResult {
    /// `(database, table, score)`, descending score.
    pub tables: Vec<(String, String, f32)>,
    /// `(database, score)`, descending score.
    pub databases: Vec<(String, f32)>,
}

impl RoutingResult {
    /// Assemble from ranked target ids: databases ranked by the mean score
    /// of their retrieved tables.
    pub fn from_ranked(targets: &TargetSet, ranked: &[(TargetId, f32)]) -> Self {
        let tables: Vec<(String, String, f32)> = ranked
            .iter()
            .map(|&(id, s)| {
                let t = targets.get(id);
                (t.database.clone(), t.table.clone(), s)
            })
            .collect();
        // BTreeMap: the collect below feeds a sort whose f32 ties break
        // on name, but the accumulation order itself must not float with
        // hasher state either.
        let mut by_db: std::collections::BTreeMap<&str, (f32, usize)> =
            std::collections::BTreeMap::new();
        for (db, _, s) in &tables {
            let e = by_db.entry(db.as_str()).or_insert((0.0, 0));
            e.0 += s;
            e.1 += 1;
        }
        let mut databases: Vec<(String, f32)> =
            by_db.into_iter().map(|(db, (sum, n))| (db.to_string(), sum / n as f32)).collect();
        databases.sort_by(|a, b| {
            b.1.partial_cmp(&a.1).unwrap_or(std::cmp::Ordering::Equal).then(a.0.cmp(&b.0))
        });
        RoutingResult { tables, databases }
    }

    /// Ranked database names.
    pub fn database_names(&self) -> Vec<&str> {
        self.databases.iter().map(|(d, _)| d.as_str()).collect()
    }

    /// Top-k table identities as `(database, table)`.
    pub fn top_tables(&self, k: usize) -> Vec<(&str, &str)> {
        self.tables.iter().take(k).map(|(d, t, _)| (d.as_str(), t.as_str())).collect()
    }

    /// Candidate schemata for SQL generation: for each of the top databases,
    /// the retrieved tables belonging to it (up to `tables_per_schema`),
    /// in retrieval order.
    pub fn candidate_schemata(&self, num: usize, tables_per_schema: usize) -> Vec<QuerySchema> {
        let mut out = Vec::with_capacity(num);
        for (db, _) in self.databases.iter().take(num) {
            let tables: Vec<String> = self
                .tables
                .iter()
                .filter(|(d, _, _)| d == db)
                .take(tables_per_schema)
                .map(|(_, t, _)| t.clone())
                .collect();
            if !tables.is_empty() {
                out.push(QuerySchema::new(db.clone(), tables));
            }
        }
        out
    }
}

/// Numeric precision of the routing hot path.
///
/// `F32` is the reference path: exact heap-tensor arithmetic, bit-identical
/// to training-time inference. `I8` scores against per-row symmetric i8
/// quantized weights (`dbcopilot-nn`'s `quant` module) — faster and smaller,
/// at the cost of bounded rounding error in scores.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum RoutePrecision {
    /// Exact f32 scoring (default).
    #[default]
    F32,
    /// Per-row symmetric i8 scoring with i32 accumulation.
    I8,
}

/// Routers whose scoring precision can be switched after construction.
///
/// Implemented by the DBCopilot router, the one method with a quantized hot
/// path; switching to [`RoutePrecision::I8`] freezes quantized weights on
/// demand if none are attached yet.
pub trait PrecisionSwitch {
    /// Select the scoring precision for subsequent `route` calls.
    fn set_precision(&mut self, precision: RoutePrecision);

    /// The currently selected precision.
    fn precision(&self) -> RoutePrecision;
}

/// Per-shard serving counters reported by partitioned routers (the sharded
/// tier in `dbcopilot-core`): how many databases a shard owns, whether its
/// model is resident (lazy bundles decode shards on first touch), and how
/// many questions it has scored.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ShardCounters {
    /// Databases owned by this shard.
    pub databases: usize,
    /// Whether the shard's model is decoded and resident in memory.
    pub loaded: bool,
    /// Questions this shard has scored so far.
    pub routes: u64,
}

/// Interface shared by all schema-routing methods (baselines and the
/// DBCopilot router adapter in `dbcopilot-eval`).
pub trait SchemaRouter {
    /// Method name as it appears in the paper's tables.
    fn name(&self) -> &str;

    /// Route one question: ranked tables/databases.
    fn route(&self, question: &str, top_tables: usize) -> RoutingResult;

    /// Per-shard counters, one entry per shard. Monolithic routers (the
    /// default) report none.
    fn shard_counters(&self) -> Vec<ShardCounters> {
        Vec::new()
    }

    /// Take over whatever `self` provably shares with `previous`, the
    /// router it is about to replace (a hot swap calls this before the
    /// swap). A sharded tier adopts each byte-identical shard's decoded
    /// model and the answers it computed; every other router (the default)
    /// keeps nothing. Routing results must not change either way.
    fn inherit(&self, previous: &dyn SchemaRouter) {
        let _ = previous;
    }

    /// The router itself, for an [`inherit`](Self::inherit) that must
    /// recognise its own kind behind `&dyn SchemaRouter`. Routers that
    /// inherit nothing (the default) need not say.
    fn as_any(&self) -> Option<&dyn std::any::Any> {
        None
    }
}

// Smart-pointer wrappers route through their pointee, so a boxed trait
// object (the harness) or a shared router (the serving layer) can be used
// anywhere a concrete method is expected.
impl<T: SchemaRouter + ?Sized> SchemaRouter for Box<T> {
    fn name(&self) -> &str {
        (**self).name()
    }

    fn route(&self, question: &str, top_tables: usize) -> RoutingResult {
        (**self).route(question, top_tables)
    }

    fn shard_counters(&self) -> Vec<ShardCounters> {
        (**self).shard_counters()
    }

    fn inherit(&self, previous: &dyn SchemaRouter) {
        (**self).inherit(previous)
    }

    fn as_any(&self) -> Option<&dyn std::any::Any> {
        (**self).as_any()
    }
}

impl<T: SchemaRouter + ?Sized> SchemaRouter for std::sync::Arc<T> {
    fn name(&self) -> &str {
        (**self).name()
    }

    fn route(&self, question: &str, top_tables: usize) -> RoutingResult {
        (**self).route(question, top_tables)
    }

    fn shard_counters(&self) -> Vec<ShardCounters> {
        (**self).shard_counters()
    }

    fn inherit(&self, previous: &dyn SchemaRouter) {
        (**self).inherit(previous)
    }

    fn as_any(&self) -> Option<&dyn std::any::Any> {
        (**self).as_any()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn target_set() -> TargetSet {
        TargetSet {
            targets: vec![
                Target {
                    database: "world".into(),
                    table: "country".into(),
                    text: "country code name".into(),
                },
                Target { database: "world".into(), table: "city".into(), text: "city name".into() },
                Target {
                    database: "car".into(),
                    table: "countries".into(),
                    text: "countries id".into(),
                },
            ],
        }
    }

    #[test]
    fn db_rank_by_mean_table_score() {
        let ts = target_set();
        let ranked = vec![(0, 2.0), (2, 1.5), (1, 1.0)];
        let r = RoutingResult::from_ranked(&ts, &ranked);
        // world mean = 1.5, car mean = 1.5; stable by sort → compare sets
        assert_eq!(r.databases.len(), 2);
        let ranked2 = vec![(0, 3.0), (1, 2.0), (2, 1.0)];
        let r2 = RoutingResult::from_ranked(&ts, &ranked2);
        assert_eq!(r2.database_names()[0], "world");
    }

    #[test]
    fn candidate_schemata_grouped_by_db() {
        let ts = target_set();
        let ranked = vec![(0, 3.0), (1, 2.0), (2, 1.0)];
        let r = RoutingResult::from_ranked(&ts, &ranked);
        let cands = r.candidate_schemata(2, 5);
        assert_eq!(cands.len(), 2);
        assert_eq!(cands[0].database, "world");
        assert_eq!(cands[0].tables, vec!["country".to_string(), "city".to_string()]);
        assert_eq!(cands[1].database, "car");
    }

    #[test]
    fn from_collection_flattens_names() {
        let mut c = Collection::new();
        let mut db = dbcopilot_sqlengine::DatabaseSchema::new("d");
        db.add_table(
            dbcopilot_sqlengine::TableSchema::new("singer_in_concert")
                .column("singer_id", dbcopilot_sqlengine::DataType::Int),
        );
        c.add_database(db);
        let ts = TargetSet::from_collection(&c);
        assert_eq!(ts.len(), 1);
        assert_eq!(ts.get(0).text, "singer in concert singer id");
    }
}
