//! The public schema-router API: the paper's "copilot model".

use std::sync::Arc;

use dbcopilot_graph::{QuerySchema, SchemaGraph};
use dbcopilot_retrieval::{PrecisionSwitch, RoutePrecision, RoutingResult, SchemaRouter};

use crate::decode::{
    beam_search, beam_search_name_logps, beam_search_with, best_first, merge_candidates,
    Constrainer, ConstraintTables, DecodeOptions, DecodedSchema,
};
use crate::model::{RouterConfig, RouterModel};
use crate::qmodel::QuantScorer;
use crate::train::{train_with_tables, SerializationMode, TrainExample, TrainStats};
use crate::vocab::{PieceVocab, Sym, BOS};

/// A trained DBCopilot schema router.
///
/// `Debug` prints a summary (label, vocabulary and graph sizes), not the
/// weights.
///
/// `vocab` is [`PieceVocab::build`] of `graph`, and the pair is fixed for
/// the router's life: its decoding tables are derived from the pair at
/// construction, so a changed catalogue means a new router
/// ([`crate::persist::extend_router`]), never an edit in place.
pub struct DbcRouter {
    pub model: RouterModel,
    pub vocab: PieceVocab,
    pub graph: SchemaGraph,
    pub decode_opts: DecodeOptions,
    pub(crate) label: String,
    /// Scoring precision of `sequences`/`route`; switched via
    /// [`PrecisionSwitch::set_precision`], which freezes quantized weights
    /// on first use.
    pub(crate) precision: RoutePrecision,
    /// The constrained-decoding tables of `graph` × `vocab`, built once here
    /// rather than per question: their cost grows with the catalogue.
    tables: ConstraintTables,
}

impl DbcRouter {
    /// The one constructor: a model with everything derived from it and its
    /// catalogue — decode options from the config, the default label, f32
    /// precision — around the decoding `tables` of `graph` × `vocab`.
    pub(crate) fn assemble(
        model: RouterModel,
        vocab: PieceVocab,
        graph: SchemaGraph,
        tables: ConstraintTables,
    ) -> Self {
        DbcRouter {
            decode_opts: DecodeOptions::from_config(&model.cfg),
            tables,
            model,
            vocab,
            graph,
            label: "DBCopilot".to_string(),
            precision: RoutePrecision::F32,
        }
    }

    /// Train a router over a schema graph from (question, schema) examples.
    pub fn fit(
        graph: SchemaGraph,
        data: &[TrainExample],
        cfg: RouterConfig,
        mode: SerializationMode,
    ) -> (Self, TrainStats) {
        let mut router = Self::untrained(graph, cfg);
        let DbcRouter { model, graph, vocab, tables, .. } = &mut router;
        let stats = train_with_tables(model, graph, vocab, tables, data, mode);
        (router, stats)
    }

    /// Build an untrained router (tests, decoding benchmarks).
    pub fn untrained(graph: SchemaGraph, cfg: RouterConfig) -> Self {
        let vocab = PieceVocab::build(&graph);
        let model = RouterModel::new(cfg, vocab.len());
        let tables = ConstraintTables::build(&graph, &vocab);
        Self::assemble(model, vocab, graph, tables)
    }

    pub fn set_label(&mut self, label: &str) {
        self.label = label.to_string();
    }

    /// Raw candidate sequences (best first), scored at the selected
    /// precision.
    pub fn sequences(&self, question: &str) -> Vec<DecodedSchema> {
        let constrainer = Constrainer::new(&self.graph, &self.tables, self.model.cfg.max_tables);
        match self.precision {
            RoutePrecision::F32 => beam_search(
                &self.model,
                &constrainer,
                self.vocab.len(),
                question,
                &self.decode_opts,
            ),
            RoutePrecision::I8 => {
                let qm = self.model.quant.as_ref().expect(
                    "RoutePrecision::I8 requires frozen quantized weights; \
                     set_precision freezes them — do not clear model.quant while I8 is selected",
                );
                let mut scorer = QuantScorer::new(&self.model, qm);
                beam_search_with(
                    &mut scorer,
                    &constrainer,
                    self.vocab.len(),
                    question,
                    &self.decode_opts,
                )
            }
        }
    }

    /// Candidate schemata with per-database table union (paper §3.5).
    pub fn route_schemata(&self, question: &str) -> Vec<DecodedSchema> {
        merge_candidates(&self.sequences(question))
    }

    /// The single best schema, if any sequence finished.
    pub fn best_schema(&self, question: &str) -> Option<QuerySchema> {
        self.sequences(question).into_iter().next().map(|d| d.schema)
    }

    /// Share this router read-only across threads (the serving entry
    /// point): all routing methods take `&self`, and the inference path is
    /// tape-free, so one trained router can serve any number of concurrent
    /// callers through the returned [`Arc`].
    pub fn into_shared(self) -> Arc<DbcRouter> {
        Arc::new(self)
    }

    /// Route a batch of questions, data-parallel over the persistent
    /// worker pool in `dbcopilot-runtime`. Results are in question order
    /// and bit-for-bit identical at any `DBC_THREADS` value (each question
    /// routes independently; no state is shared across items).
    ///
    /// Accepts any string-like slice (`&[&str]`, `&[String]`, …) so call
    /// sites don't have to allocate owned questions just to batch them.
    pub fn route_batch<S: AsRef<str> + Sync>(
        &self,
        questions: &[S],
        top_tables: usize,
    ) -> Vec<RoutingResult> {
        dbcopilot_runtime::pooled_map(questions, |_, q| self.route(q.as_ref(), top_tables))
    }

    /// Log-probability of `database`'s name pieces under the
    /// *full-vocabulary* softmax, conditioned on `question` (pass `""` for
    /// the null-question encoding). `None` if the name is not encodable in
    /// this router's vocabulary.
    ///
    /// Beam-search scores normalize over the graph-allowed candidate subset
    /// at every step, which is the right objective *within* one router but
    /// saturates as the subset shrinks — a router over a single database
    /// scores it at `logp ≈ 0` for any question. This walk keeps the whole
    /// vocabulary in the softmax, so the score reflects how strongly the
    /// question pulls probability mass onto the name against every
    /// alternative the model knows. The sharded tier centres it on its mean
    /// over shared probe questions as its cross-shard merge score; it walks
    /// this function for those backgrounds, and reads the question's own
    /// value off its beam search (`route_with_name_logps`). Always
    /// scored at f32, independent of the routing precision — calibration
    /// deltas must not mix precisions across shards.
    pub fn name_logp_unconstrained(&self, question: &str, database: &str) -> Option<f32> {
        let pieces = self.vocab.encode_name(database)?;
        let all: Vec<Sym> = (0..self.vocab.len() as Sym).collect();
        let q = self.model.encode_infer(question);
        // Mirrors beam-search initialization: hidden starts at the question
        // encoding, previous symbol at BOS.
        let mut h = q.clone();
        let mut prev = BOS;
        let mut logp = 0.0;
        for &sym in &pieces {
            h = self.model.step_infer(prev, &q, &h);
            logp += self.model.logprobs_infer(&h, &all)[sym as usize];
            prev = sym;
        }
        Some(logp)
    }

    /// [`SchemaRouter::route`], and for each finished sequence its
    /// database's [`Self::name_logp_unconstrained`] value — bit for bit,
    /// but read off the beam search's own f32 hidden states instead of
    /// walked again (see `decode::beam_search_name_logps`). What a shard of
    /// a multi-shard tier calibrates with.
    pub(crate) fn route_with_name_logps(
        &self,
        question: &str,
        top_tables: usize,
    ) -> (RoutingResult, Vec<(&str, f32)>) {
        // A shard is fit or loaded at f32, and no API sets its precision.
        debug_assert_eq!(self.precision, RoutePrecision::F32, "a shard routes at f32");
        let constrainer = Constrainer::new(&self.graph, &self.tables, self.model.cfg.max_tables);
        let (seqs, names) = beam_search_name_logps(
            &self.model,
            &constrainer,
            self.vocab.len(),
            question,
            &self.decode_opts,
        );
        let names = names.into_iter().map(|(db, lp)| (self.graph.name(db), lp)).collect();
        (routing_of(&seqs, top_tables), names)
    }

    /// On-disk size in bytes of the binary-serialized router bundle —
    /// weights, graph and config (Table 5 "Disk").
    ///
    /// # Panics
    /// Panics if the metadata fails to serialize, which cannot happen for a
    /// router constructed through this crate; use
    /// [`crate::persist::router_to_vec`] to handle the error instead.
    pub fn size_bytes(&self) -> usize {
        crate::persist::router_to_vec(self).expect("in-memory router must serialize").len()
    }
}

impl std::fmt::Debug for DbcRouter {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DbcRouter")
            .field("label", &self.label)
            .field("vocab_len", &self.vocab.len())
            .field("databases", &self.graph.database_nodes().len())
            .finish_non_exhaustive()
    }
}

impl PrecisionSwitch for DbcRouter {
    /// Select the scoring precision. Switching to I8 freezes the current
    /// f32 weights on first use (a no-op when they are already frozen).
    fn set_precision(&mut self, precision: RoutePrecision) {
        if precision == RoutePrecision::I8 && self.model.quant.is_none() {
            self.model.freeze_quant();
        }
        self.precision = precision;
    }

    fn precision(&self) -> RoutePrecision {
        self.precision
    }
}

impl SchemaRouter for DbcRouter {
    fn name(&self) -> &str {
        &self.label
    }

    fn route(&self, question: &str, top_tables: usize) -> RoutingResult {
        routing_of(&self.sequences(question), top_tables)
    }
}

/// Tables scored by the best sequence containing them, databases by their
/// best sequence, each best first; tables truncated to `top_tables`.
fn routing_of(seqs: &[DecodedSchema], top_tables: usize) -> RoutingResult {
    let mut tables: Vec<(String, String, f32)> = Vec::new();
    let mut databases: Vec<(String, f32)> = Vec::new();
    for d in seqs {
        let db = &d.schema.database;
        match databases.iter_mut().find(|(name, _)| name == db) {
            Some((_, s)) => *s = s.max(d.logp),
            None => databases.push((db.clone(), d.logp)),
        }
        for t in &d.schema.tables {
            match tables.iter_mut().find(|(tdb, tt, _)| tdb == db && tt == t) {
                Some((_, _, s)) => *s = s.max(d.logp),
                None => tables.push((db.clone(), t.clone(), d.logp)),
            }
        }
    }
    tables.sort_by(|a, b| best_first(a.2, b.2));
    tables.truncate(top_tables);
    databases.sort_by(|a, b| best_first(a.1, b.1));
    RoutingResult { tables, databases }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dbcopilot_sqlengine::{Collection, DataType, DatabaseSchema, TableSchema};

    fn graph() -> SchemaGraph {
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
        SchemaGraph::build(&c)
    }

    fn examples() -> Vec<TrainExample> {
        let mut out = Vec::new();
        for _ in 0..10 {
            out.push(TrainExample {
                question: "how many vocalists".into(),
                schema: QuerySchema::new("concert_singer", vec!["singer".into()]),
            });
            out.push(TrainExample {
                question: "population of towns".into(),
                schema: QuerySchema::new("world", vec!["city".into()]),
            });
        }
        out
    }

    #[test]
    fn fit_and_route_end_to_end() {
        let mut cfg = RouterConfig::tiny();
        cfg.epochs = 20;
        let (router, stats) =
            super::DbcRouter::fit(graph(), &examples(), cfg, SerializationMode::Dfs);
        assert!(stats.epoch_losses.last().unwrap() < &stats.epoch_losses[0]);
        let result = router.route("how many vocalists", 10);
        assert!(!result.databases.is_empty());
        assert_eq!(result.database_names()[0], "concert_singer");
        let best = router.best_schema("population of towns").unwrap();
        assert_eq!(best.database, "world");
    }

    #[test]
    fn routing_result_tables_are_ranked() {
        let (router, _) =
            DbcRouter::fit(graph(), &examples(), RouterConfig::tiny(), SerializationMode::Dfs);
        let r = router.route("how many vocalists", 5);
        for w in r.tables.windows(2) {
            assert!(w[0].2 >= w[1].2, "tables must be sorted by score");
        }
    }

    #[test]
    fn untrained_router_still_produces_valid_output() {
        let router = DbcRouter::untrained(graph(), RouterConfig::tiny());
        let out = router.route_schemata("anything at all");
        assert!(!out.is_empty());
    }

    #[test]
    fn i8_precision_routes_like_f32_and_switches_back_exactly() {
        let mut cfg = RouterConfig::tiny();
        cfg.epochs = 20;
        let (mut router, _) = DbcRouter::fit(graph(), &examples(), cfg, SerializationMode::Dfs);
        let exact = router.route("how many vocalists", 10);

        router.set_precision(RoutePrecision::I8);
        assert_eq!(router.precision(), RoutePrecision::I8);
        assert!(router.model.quant.is_some(), "switching to I8 must freeze weights");
        let quant = router.route("how many vocalists", 10);
        assert_eq!(
            exact.database_names()[0],
            quant.database_names()[0],
            "trained top-1 database must survive quantization"
        );

        // Switching back is exact: the f32 weights were never touched.
        router.set_precision(RoutePrecision::F32);
        let back = router.route("how many vocalists", 10);
        assert_eq!(back.database_names(), exact.database_names());
        assert_eq!(back.tables, exact.tables);
    }

    #[test]
    fn a_nan_weight_routes_without_panicking_and_deterministically() {
        // A DBC1 bundle may carry NaN weights bit-exactly. One NaN in an
        // output-embedding row makes every candidate set holding that symbol
        // score NaN, so the routing sorts see NaN beside numbers.
        let singer = PieceVocab::build(&graph()).id_of("singer").unwrap();
        for row in [crate::vocab::EOS, crate::vocab::SEP, singer] {
            let (mut router, _) =
                DbcRouter::fit(graph(), &examples(), RouterConfig::tiny(), SerializationMode::Dfs);
            let out_emb = router.model.out_emb.weight;
            router.model.store.value_mut(out_emb).set(row as usize, 0, f32::NAN);
            for q in ["how many vocalists", "population of towns", ""] {
                let once = format!("{:?} {:?}", router.route(q, 10), router.route_schemata(q));
                let twice = format!("{:?} {:?}", router.route(q, 10), router.route_schemata(q));
                assert_eq!(once, twice, "NaN in row {row}, question {q:?}");
            }
        }
    }

    #[test]
    fn router_is_shareable_across_threads() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<DbcRouter>();

        let shared = DbcRouter::untrained(graph(), RouterConfig::tiny()).into_shared();
        std::thread::scope(|s| {
            for _ in 0..4 {
                let shared = Arc::clone(&shared);
                s.spawn(move || {
                    let r = shared.route("how many vocalists", 10);
                    assert!(!r.databases.is_empty());
                });
            }
        });
    }

    #[test]
    fn route_batch_matches_per_question_routing() {
        let router = DbcRouter::untrained(graph(), RouterConfig::tiny());
        let questions: Vec<String> =
            ["how many vocalists", "population of towns", "how many vocalists"]
                .map(String::from)
                .to_vec();
        let batch = router.route_batch(&questions, 10);
        assert_eq!(batch.len(), 3);
        for (q, b) in questions.iter().zip(&batch) {
            let single = router.route(q, 10);
            assert_eq!(single.database_names(), b.database_names());
            assert_eq!(single.tables, b.tables);
        }
    }
}
