//! Graph-based constrained decoding and diverse beam search (paper §3.5,
//! Figure 4).
//!
//! At each autoregressive step the decoder may only emit symbols that
//! continue the name of an *accessible* schema element:
//!
//! * first, a database name (from the prefix trie over all databases);
//! * then tables of that database — the first table freely, later tables
//!   only among relation-neighbors of already-decoded tables;
//! * `SEP` / `EOS` are allowed exactly when the current prefix completes an
//!   accessible element name (`EOS` additionally requires ≥ 1 table).
//!
//! Diverse beam search (Vijayakumar et al., 2016) splits beams into groups;
//! each group pays a penalty for re-using symbols chosen by earlier groups
//! in the same step, yielding varied candidate schemata.

use std::cmp::Ordering;

use dbcopilot_graph::{NodeId, QuerySchema, SchemaGraph, Trie};
use dbcopilot_nn::{GruScratch, Tensor};

use crate::model::RouterModel;
use crate::vocab::{PieceVocab, Sym, BOS, EOS, SEP};

/// Best score first, as a total order: two numbers compare by `partial_cmp`
/// (so `0.0` and `-0.0` tie), and NaN comes after every number. Every
/// routing sort uses it: `sort_by` may panic on a comparator that is not a
/// total order, and a loaded bundle's weights may hold NaN.
pub(crate) fn best_first(a: f32, b: f32) -> Ordering {
    match (a.is_nan(), b.is_nan()) {
        (false, false) => b.partial_cmp(&a).unwrap_or(Ordering::Equal),
        (a_nan, b_nan) => a_nan.cmp(&b_nan),
    }
}

/// One table's decoding entry: its name as vocabulary pieces, and its node.
struct TableName {
    seq: Vec<Sym>,
    node: NodeId,
}

/// The decoding tables of one (graph, vocabulary) pair: every database and
/// table name encoded to pieces, and each table's relation neighbours.
///
/// Pure derived data — nothing here is persisted — and the costly part of
/// setting up a decode (it grows with the catalogue), so a router builds it
/// once and every question borrows it through a [`Constrainer`].
pub struct ConstraintTables {
    /// Prefix trie over database names.
    db_trie: Trie<NodeId>,
    /// Table names of each database, in graph order; indexed by node id
    /// (empty for nodes that are not databases).
    tables_of: Vec<Vec<TableName>>,
    /// Relation neighbours of each table; indexed by node id.
    related: Vec<Vec<NodeId>>,
}

impl ConstraintTables {
    /// # Panics
    /// Panics if a database or table name of `graph` has a piece outside
    /// `vocab`, which [`PieceVocab::build`] of the same graph never leaves
    /// out.
    pub fn build(graph: &SchemaGraph, vocab: &PieceVocab) -> Self {
        let encode = |node| {
            let name = graph.name(node);
            vocab
                .encode_name(name)
                .unwrap_or_else(|| panic!("name pieces of {name:?} must be in vocab"))
        };
        let mut db_trie = Trie::new();
        let mut tables_of: Vec<Vec<TableName>> = Vec::new();
        tables_of.resize_with(graph.num_nodes(), Vec::new);
        let mut related = vec![Vec::new(); graph.num_nodes()];
        for db in graph.database_nodes() {
            db_trie.insert(&encode(db), db);
            for t in graph.tables_of(db) {
                tables_of[db.0 as usize].push(TableName { seq: encode(t), node: t });
                related[t.0 as usize] = graph.related_tables(t);
            }
        }
        ConstraintTables { db_trie, tables_of, related }
    }
}

/// The decoding constraint for one search: a router's tables, its graph
/// (for names) and the table budget.
pub struct Constrainer<'g> {
    graph: &'g SchemaGraph,
    tables: &'g ConstraintTables,
    max_tables: usize,
}

impl<'g> Constrainer<'g> {
    /// `tables` must have been built from `graph`.
    pub fn new(graph: &'g SchemaGraph, tables: &'g ConstraintTables, max_tables: usize) -> Self {
        Constrainer { graph, tables, max_tables }
    }

    /// Initial decode state.
    pub fn initial(&self) -> DecodeState {
        DecodeState { db: None, tables: Vec::new(), prefix: Vec::new(), done: false }
    }

    /// Accessible table names of database `db` once `decoded` (plus `extra`,
    /// a table about to be committed) are in the schema: every table when
    /// none is decoded yet, else the undecoded relation neighbours of the
    /// decoded ones, in graph order.
    fn accessible<'a>(
        &'a self,
        db: NodeId,
        decoded: &'a [NodeId],
        extra: Option<NodeId>,
    ) -> impl Iterator<Item = &'a TableName> + 'a {
        let count = decoded.len() + usize::from(extra.is_some());
        let all: &[TableName] = if count > 0 && count >= self.max_tables {
            &[]
        } else {
            &self.tables.tables_of[db.0 as usize]
        };
        let decoded = move || decoded.iter().copied().chain(extra);
        all.iter().filter(move |name| {
            count == 0
                || (decoded().all(|t| t != name.node)
                    && decoded().any(|t| self.tables.related[t.0 as usize].contains(&name.node)))
        })
    }

    /// Allowed next symbols for a state.
    pub fn allowed(&self, state: &DecodeState) -> Vec<Sym> {
        if state.done {
            return Vec::new();
        }
        let mut out = Vec::new();
        match state.db {
            None => {
                // decoding the database name through the trie
                let trie = &self.tables.db_trie;
                if let Some(cur) = trie.walk(&state.prefix) {
                    out.extend(trie.continuations(cur));
                    if trie.terminal(cur).is_some() && !state.prefix.is_empty() {
                        out.push(SEP); // commit database, start first table
                    }
                }
            }
            Some(db) => {
                let mut complete = None;
                for name in self.accessible(db, &state.tables, None) {
                    if name.seq.len() > state.prefix.len() && name.seq.starts_with(&state.prefix) {
                        let next = name.seq[state.prefix.len()];
                        if !out.contains(&next) {
                            out.push(next);
                        }
                    }
                    if complete.is_none() && name.seq == state.prefix {
                        complete = Some(name.node);
                    }
                }
                if complete.is_some() {
                    out.push(EOS);
                    // another table may follow if any remains accessible
                    // after committing this one
                    if self.accessible(db, &state.tables, complete).next().is_some() {
                        out.push(SEP);
                    }
                }
            }
        }
        out
    }

    /// Commit the current prefix as a completed element; `None` if the
    /// prefix is not a complete accessible name.
    fn commit(&self, state: &DecodeState) -> Option<DecodeState> {
        let (db, table) = match state.db {
            None => {
                let cur = self.tables.db_trie.walk(&state.prefix)?;
                (*self.tables.db_trie.terminal(cur)?, None)
            }
            Some(db) => {
                let name =
                    self.accessible(db, &state.tables, None).find(|n| n.seq == state.prefix)?;
                (db, Some(name.node))
            }
        };
        let tables = state.tables.iter().copied().chain(table).collect();
        Some(DecodeState { db: Some(db), tables, prefix: Vec::new(), done: state.done })
    }

    /// Advance a state by one symbol; `None` if the symbol is invalid
    /// (used by the unconstrained-decoding ablation, where beams may die).
    pub fn advance(&self, state: &DecodeState, sym: Sym) -> Option<DecodeState> {
        if state.done {
            return None;
        }
        match sym {
            SEP => self.commit(state),
            EOS => {
                let committed = self.commit(state)?;
                if committed.tables.is_empty() {
                    return None; // a schema needs at least one table
                }
                let mut done = committed;
                done.done = true;
                Some(done)
            }
            BOS => None,
            piece => {
                let mut next = state.clone();
                next.prefix.push(piece);
                Some(next)
            }
        }
    }

    /// The decoded query schema of a finished state.
    fn schema_of(&self, state: &DecodeState) -> Option<QuerySchema> {
        let db = state.db?;
        if state.tables.is_empty() {
            return None;
        }
        Some(QuerySchema::new(
            self.graph.name(db).to_string(),
            state.tables.iter().map(|t| self.graph.name(*t).to_string()).collect(),
        ))
    }
}

/// Decoder state: the dynamic part of Figure 4's prefix tree walk.
#[derive(Debug, Clone)]
pub struct DecodeState {
    pub db: Option<NodeId>,
    pub tables: Vec<NodeId>,
    /// Pieces of the element currently being decoded.
    pub prefix: Vec<Sym>,
    pub done: bool,
}

/// Decoding options.
#[derive(Debug, Clone)]
pub struct DecodeOptions {
    pub beams: usize,
    pub groups: usize,
    pub diversity_penalty: f32,
    /// Disable graph constraints (Table 7 ablation "w/o CD"): the model may
    /// emit any symbol; beams that commit invalid names die.
    pub constrained: bool,
    /// Plain beam search instead of diverse groups (ablation "w/o DB").
    pub diverse: bool,
    pub max_steps: usize,
}

impl DecodeOptions {
    pub fn from_config(cfg: &crate::model::RouterConfig) -> Self {
        DecodeOptions {
            beams: cfg.beams,
            groups: cfg.beam_groups,
            diversity_penalty: cfg.diversity_penalty,
            constrained: true,
            diverse: true,
            max_steps: 48,
        }
    }
}

/// One decoded candidate sequence.
#[derive(Debug, Clone)]
pub struct DecodedSchema {
    pub schema: QuerySchema,
    /// Sequence log-probability.
    pub logp: f32,
}

#[derive(Clone)]
struct Beam<N> {
    state: DecodeState,
    /// A [`Tensor`] clone shares its buffer, so sibling beams and the step
    /// memo hold one row between them.
    h: Tensor,
    prev: Sym,
    logp: f32,
    name_lp: N,
}

/// What a search carries per beam besides its sequence score, fixed at
/// compile time: nothing (`()`, every search but the sharded tier's), or
/// the full-vocabulary log-probability of the database-name pieces the beam
/// has emitted (`f32`, see [`beam_search_name_logps`]).
pub(crate) trait NameLogp: Copy {
    /// A fresh beam's value.
    const START: Self;

    /// The value after one more name piece of log-probability `lp()`.
    fn add(self, lp: impl FnOnce() -> f32) -> Self;

    /// Record a finished sequence's value under its database.
    fn finish(self, db: Option<NodeId>, into: &mut Vec<(NodeId, f32)>);
}

impl NameLogp for () {
    const START: Self = ();

    fn add(self, _: impl FnOnce() -> f32) -> Self {}

    fn finish(self, _: Option<NodeId>, _: &mut Vec<(NodeId, f32)>) {}
}

impl NameLogp for f32 {
    const START: Self = 0.0;

    fn add(self, lp: impl FnOnce() -> f32) -> Self {
        self + lp()
    }

    fn finish(self, db: Option<NodeId>, into: &mut Vec<(NodeId, f32)>) {
        into.extend(db.map(|db| (db, self)));
    }
}

/// The per-step model interface beam search drives. One implementation per
/// scoring precision: the exact f32 path below, and the i8 path in
/// [`crate::qmodel`]. `beam_search_with` is monomorphized per scorer, so the
/// f32 path compiles to exactly the pre-trait code.
pub(crate) trait StepScorer {
    /// Encode the question into the initial hidden state `[1, hidden]`.
    /// Called once per search; the scorer retains whatever per-question
    /// state its `step` needs (the f32 path keeps the question tensor).
    fn encode(&mut self, question: &str) -> Tensor;

    /// One decoder step: previous symbol + hidden → next hidden.
    fn step(&mut self, prev: Sym, h: &Tensor) -> Tensor;

    /// Log-probabilities over `candidates` given `h` (softmax over the
    /// candidate subset).
    fn logprobs(&mut self, h: &Tensor, candidates: &[Sym]) -> Vec<f32>;
}

/// The reference scorer: exact f32 inference, bit for bit
/// [`RouterModel::step_infer`] and [`RouterModel::logprobs_infer`]. Like
/// the i8 scorer it holds the step's buffers, so a step allocates only its
/// output row.
struct F32Scorer<'m> {
    model: &'m RouterModel,
    q: Tensor,
    /// Step input `concat(dec_emb[prev], q)`.
    x: Vec<f32>,
    gru: GruScratch,
}

impl<'m> F32Scorer<'m> {
    fn new(model: &'m RouterModel) -> Self {
        F32Scorer { model, q: Tensor::zeros(1, 1), x: Vec::new(), gru: GruScratch::default() }
    }
}

impl StepScorer for F32Scorer<'_> {
    fn encode(&mut self, question: &str) -> Tensor {
        self.q = self.model.encode_infer(question);
        self.q.clone()
    }

    fn step(&mut self, prev: Sym, h: &Tensor) -> Tensor {
        let mut next = Vec::with_capacity(self.model.cfg.hidden);
        let Self { model, q, x, gru } = self;
        model.step_into(prev, q.as_slice(), h.as_slice(), x, gru, &mut next);
        Tensor::from_row(next)
    }

    fn logprobs(&mut self, h: &Tensor, candidates: &[Sym]) -> Vec<f32> {
        self.model.logprobs_infer(h, candidates)
    }
}

/// Run (diverse) beam search for one question at f32 precision.
pub fn beam_search(
    model: &RouterModel,
    constrainer: &Constrainer<'_>,
    vocab_len: usize,
    question: &str,
    opts: &DecodeOptions,
) -> Vec<DecodedSchema> {
    beam_search_with(&mut F32Scorer::new(model), constrainer, vocab_len, question, opts)
}

/// [`beam_search`], plus each finished sequence's database with the
/// full-vocabulary log-probability of its name pieces: from `0.0`, in piece
/// order, `+= logprobs_infer(h, all)[piece]` at the hidden state that emitted
/// the piece. Beam search starts where that walk starts (`BOS`, the question
/// encoding) and steps through the same states, so each value is bit for
/// bit [`crate::DbcRouter::name_logp_unconstrained`] without walking again.
/// A full-vocabulary row is computed once per step-memo entry, and only
/// when a beam still in its database name emits a piece from it.
pub(crate) fn beam_search_name_logps(
    model: &RouterModel,
    constrainer: &Constrainer<'_>,
    vocab_len: usize,
    question: &str,
    opts: &DecodeOptions,
) -> (Vec<DecodedSchema>, Vec<(NodeId, f32)>) {
    let mut names = Vec::new();
    let mut scorer = F32Scorer::new(model);
    let out = search::<_, f32>(&mut scorer, constrainer, vocab_len, question, opts, &mut names);
    (out, names)
}

/// One scorer evaluation within a decode step: the input it was computed
/// for and what came out. Beams whose `(prev, h)` match an entry reuse its
/// `h_next` (all groups start from one beam, so the first step is one GRU
/// step, not one per group), and its log-probabilities too when their
/// candidate set is the same.
struct Scored {
    prev: Sym,
    h: Tensor,
    h_next: Tensor,
    allowed: Vec<Sym>,
    lps: Vec<f32>,
}

/// Whether two hidden rows hold the same bits. Bitwise, not `==`: `-0.0`
/// and `0.0` compare equal but need not step to the same state.
fn same_bits(a: &Tensor, b: &Tensor) -> bool {
    a.shape() == b.shape()
        && a.as_slice().iter().zip(b.as_slice()).all(|(x, y)| x.to_bits() == y.to_bits())
}

/// The index in `memo` of `beam`'s scores over `allowed`, running the scorer
/// only for what no earlier beam of this decode step already computed.
fn score_beam<S: StepScorer, N>(
    scorer: &mut S,
    memo: &mut Vec<Scored>,
    beam: &Beam<N>,
    allowed: Vec<Sym>,
) -> usize {
    let mut stepped = None;
    for (i, s) in memo.iter().enumerate() {
        if s.prev == beam.prev && same_bits(&s.h, &beam.h) {
            if s.allowed == allowed {
                return i;
            }
            stepped = Some(s.h_next.clone());
        }
    }
    let h_next = stepped.unwrap_or_else(|| scorer.step(beam.prev, &beam.h));
    let lps = scorer.logprobs(&h_next, &allowed);
    memo.push(Scored { prev: beam.prev, h: beam.h.clone(), h_next, allowed, lps });
    memo.len() - 1
}

/// Run (diverse) beam search with an explicit scorer (precision dispatch).
pub(crate) fn beam_search_with<S: StepScorer>(
    scorer: &mut S,
    constrainer: &Constrainer<'_>,
    vocab_len: usize,
    question: &str,
    opts: &DecodeOptions,
) -> Vec<DecodedSchema> {
    search::<_, ()>(scorer, constrainer, vocab_len, question, opts, &mut Vec::new())
}

/// The search behind [`beam_search_with`] and [`beam_search_name_logps`]:
/// with `N = ()` it tracks no name log-probability and compiles to the
/// search alone; with `N = f32` it pushes `(database, name log-probability)`
/// into `names` for every finished sequence.
fn search<S: StepScorer, N: NameLogp>(
    scorer: &mut S,
    constrainer: &Constrainer<'_>,
    vocab_len: usize,
    question: &str,
    opts: &DecodeOptions,
    names: &mut Vec<(NodeId, f32)>,
) -> Vec<DecodedSchema> {
    let q = scorer.encode(question);
    let groups = if opts.diverse { opts.groups.max(1) } else { 1 };
    let beams_per_group = (opts.beams / groups).max(1);
    let init = Beam { state: constrainer.initial(), h: q, prev: BOS, logp: 0.0, name_lp: N::START };
    let mut group_beams: Vec<Vec<Beam<N>>> = vec![vec![init]; groups];
    let mut finished: Vec<(DecodeState, f32)> = Vec::new();
    let all_syms: Vec<Sym> = (0..vocab_len as Sym).collect();
    let mut memo: Vec<Scored> = Vec::new();
    // Full-vocabulary log-probabilities of `memo[i].h_next`, filled on first
    // use (only an `N = f32` search uses them).
    let mut full_rows: Vec<Option<Vec<f32>>> = Vec::new();
    // Symbols chosen so far in this step, with how many beams chose each.
    let mut chosen: Vec<(Sym, f32)> = Vec::new();

    for _step in 0..opts.max_steps {
        let mut any_alive = false;
        memo.clear();
        full_rows.clear();
        chosen.clear();
        for beams in group_beams.iter_mut() {
            // Expansions as (beam, memo entry, candidate, score): ranked
            // first, so only the survivors pay for a state and a hidden row.
            let mut ranked: Vec<(usize, usize, usize, f32)> = Vec::new();
            for (b, beam) in beams.iter().enumerate() {
                if beam.state.done {
                    continue;
                }
                let allowed: Vec<Sym> = if opts.constrained {
                    constrainer.allowed(&beam.state)
                } else {
                    all_syms.clone()
                };
                if allowed.is_empty() {
                    continue;
                }
                let m = score_beam(scorer, &mut memo, beam, allowed);
                for (i, (sym, lp)) in memo[m].allowed.iter().zip(&memo[m].lps).enumerate() {
                    let count = chosen.iter().find(|(s, _)| s == sym).map_or(0.0, |&(_, n)| n);
                    let score = beam.logp + lp - opts.diversity_penalty * count;
                    ranked.push((b, m, i, score));
                }
            }
            ranked.sort_by(|a, b| best_first(a.3, b.3));
            let mut next_beams: Vec<Beam<N>> = Vec::with_capacity(beams_per_group);
            for (b, m, i, _) in ranked {
                if next_beams.len() >= beams_per_group {
                    break;
                }
                let (beam, scored) = (&beams[b], &memo[m]);
                let sym = scored.allowed[i];
                let Some(state) = constrainer.advance(&beam.state, sym) else {
                    continue; // invalid under unconstrained decoding
                };
                match chosen.iter_mut().find(|(s, _)| *s == sym) {
                    Some((_, n)) => *n += 1.0,
                    None => chosen.push((sym, 1.0)),
                }
                let logp = beam.logp + scored.lps[i];
                let name_lp = match beam.state.db.is_none() && sym != SEP {
                    // a piece of the database name
                    true => beam.name_lp.add(|| {
                        if full_rows.len() <= m {
                            full_rows.resize(memo.len(), None);
                        }
                        let row = full_rows[m]
                            .get_or_insert_with(|| scorer.logprobs(&scored.h_next, &all_syms));
                        row[sym as usize]
                    }),
                    false => beam.name_lp,
                };
                let state = if state.done {
                    name_lp.finish(state.db, names);
                    finished.push((state, logp));
                    // a finished beam still occupies a slot this step
                    DecodeState { done: true, ..constrainer.initial() }
                } else {
                    any_alive = true;
                    state
                };
                let h = scored.h_next.clone();
                next_beams.push(Beam { state, h, prev: sym, logp, name_lp });
            }
            *beams = next_beams;
        }
        if !any_alive {
            break;
        }
    }

    let mut out: Vec<DecodedSchema> = finished
        .into_iter()
        .filter_map(|(state, logp)| {
            constrainer.schema_of(&state).map(|schema| DecodedSchema { schema, logp })
        })
        .collect();
    out.sort_by(|a, b| best_first(a.logp, b.logp));
    out
}

/// Merge candidate sequences that share a database: union their tables,
/// keep the best sequence score (paper §3.5 "combine tables from schema
/// sequences that share the same database").
pub fn merge_candidates(decoded: &[DecodedSchema]) -> Vec<DecodedSchema> {
    let mut by_db: Vec<DecodedSchema> = Vec::new();
    for d in decoded {
        match by_db.iter_mut().find(|c| c.schema.database == d.schema.database) {
            Some(existing) => {
                for t in &d.schema.tables {
                    if !existing.schema.tables.iter().any(|x| x.eq_ignore_ascii_case(t)) {
                        existing.schema.tables.push(t.clone());
                    }
                }
                existing.logp = existing.logp.max(d.logp);
            }
            None => by_db.push(d.clone()),
        }
    }
    by_db.sort_by(|a, b| best_first(a.logp, b.logp));
    by_db
}

/// The decoder as it stood before the step memo, the ranked expansions and
/// the cached tables, verbatim: a constrainer that encodes every name at
/// construction and materializes the accessible tables through the graph on
/// every call, and a search loop that steps and clones once per hypothesis.
/// The tests hold today's decoder to it bit for bit.
#[cfg(test)]
mod reference {
    use std::collections::HashMap;

    use super::{DecodeOptions, DecodeState, DecodedSchema, StepScorer};
    use crate::vocab::{PieceVocab, Sym, BOS, EOS, SEP};
    use dbcopilot_graph::{NodeId, QuerySchema, SchemaGraph, Trie};
    use dbcopilot_nn::Tensor;

    pub(super) struct Constrainer<'g> {
        graph: &'g SchemaGraph,
        /// Prefix trie over database names.
        db_trie: Trie<NodeId>,
        /// Per-database table name lists `(piece_seq, node)`.
        tables_by_db: HashMap<NodeId, Vec<(Vec<Sym>, NodeId)>>,
        max_tables: usize,
    }

    impl<'g> Constrainer<'g> {
        pub(super) fn new(graph: &'g SchemaGraph, vocab: &PieceVocab, max_tables: usize) -> Self {
            let mut db_trie = Trie::new();
            let mut tables_by_db = HashMap::new();
            for db in graph.database_nodes() {
                let seq = vocab
                    .encode_name(graph.name(db))
                    .expect("database name pieces must be in vocab");
                db_trie.insert(&seq, db);
                let mut tables = Vec::new();
                for t in graph.tables_of(db) {
                    let tseq = vocab
                        .encode_name(graph.name(t))
                        .expect("table name pieces must be in vocab");
                    tables.push((tseq, t));
                }
                tables_by_db.insert(db, tables);
            }
            Constrainer { graph, db_trie, tables_by_db, max_tables }
        }

        /// Initial decode state.
        pub(super) fn initial(&self) -> DecodeState {
            DecodeState { db: None, tables: Vec::new(), prefix: Vec::new(), done: false }
        }

        /// Accessible table names for a state: all tables of the database when
        /// none is decoded yet, else relation-neighbors of decoded tables.
        fn accessible_tables(&self, state: &DecodeState) -> Vec<&(Vec<Sym>, NodeId)> {
            let Some(db) = state.db else { return Vec::new() };
            let all = &self.tables_by_db[&db];
            if state.tables.is_empty() {
                return all.iter().collect();
            }
            if state.tables.len() >= self.max_tables {
                return Vec::new();
            }
            let mut neighbors: Vec<NodeId> = Vec::new();
            for &t in &state.tables {
                for r in self.graph.related_tables(t) {
                    if !state.tables.contains(&r) && !neighbors.contains(&r) {
                        neighbors.push(r);
                    }
                }
            }
            all.iter().filter(|(_, n)| neighbors.contains(n)).collect()
        }

        /// Allowed next symbols for a state.
        pub(super) fn allowed(&self, state: &DecodeState) -> Vec<Sym> {
            if state.done {
                return Vec::new();
            }
            let mut out = Vec::new();
            match state.db {
                None => {
                    // decoding the database name through the trie
                    if let Some(cur) = self.db_trie.walk(&state.prefix) {
                        out.extend(self.db_trie.continuations(cur));
                        if self.db_trie.terminal(cur).is_some() && !state.prefix.is_empty() {
                            out.push(SEP); // commit database, start first table
                        }
                    }
                }
                Some(_) => {
                    let candidates = self.accessible_tables(state);
                    let mut complete = false;
                    for (seq, _) in &candidates {
                        if seq.len() > state.prefix.len() && seq.starts_with(&state.prefix) {
                            let next = seq[state.prefix.len()];
                            if !out.contains(&next) {
                                out.push(next);
                            }
                        }
                        if **seq == state.prefix {
                            complete = true;
                        }
                    }
                    if complete {
                        out.push(EOS);
                        // another table may follow if any remains accessible
                        // after committing this one
                        let committed = self.commit(state);
                        if let Some(c) = committed {
                            if !self.accessible_tables(&c).is_empty() {
                                out.push(SEP);
                            }
                        }
                    }
                }
            }
            out
        }

        /// Commit the current prefix as a completed element; `None` if the
        /// prefix is not a complete accessible name.
        fn commit(&self, state: &DecodeState) -> Option<DecodeState> {
            let mut next = state.clone();
            match state.db {
                None => {
                    let cur = self.db_trie.walk(&state.prefix)?;
                    let db = *self.db_trie.terminal(cur)?;
                    next.db = Some(db);
                }
                Some(_) => {
                    let candidates = self.accessible_tables(state);
                    let (_, node) = candidates.iter().find(|(seq, _)| *seq == state.prefix)?;
                    next.tables.push(*node);
                }
            }
            next.prefix.clear();
            Some(next)
        }

        /// Advance a state by one symbol; `None` if the symbol is invalid
        /// (used by the unconstrained-decoding ablation, where beams may die).
        pub(super) fn advance(&self, state: &DecodeState, sym: Sym) -> Option<DecodeState> {
            if state.done {
                return None;
            }
            match sym {
                SEP => self.commit(state),
                EOS => {
                    let committed = self.commit(state)?;
                    if committed.tables.is_empty() {
                        return None; // a schema needs at least one table
                    }
                    let mut done = committed;
                    done.done = true;
                    Some(done)
                }
                BOS => None,
                piece => {
                    let mut next = state.clone();
                    next.prefix.push(piece);
                    Some(next)
                }
            }
        }

        /// The decoded query schema of a finished state.
        pub(super) fn schema_of(&self, state: &DecodeState) -> Option<QuerySchema> {
            let db = state.db?;
            if state.tables.is_empty() {
                return None;
            }
            Some(QuerySchema::new(
                self.graph.name(db).to_string(),
                state.tables.iter().map(|t| self.graph.name(*t).to_string()).collect(),
            ))
        }
    }

    #[derive(Clone)]
    struct Beam {
        state: DecodeState,
        h: Tensor,
        prev: Sym,
        logp: f32,
    }

    pub(super) fn beam_search<S: StepScorer>(
        scorer: &mut S,
        constrainer: &Constrainer<'_>,
        vocab_len: usize,
        question: &str,
        opts: &DecodeOptions,
    ) -> Vec<DecodedSchema> {
        let q = scorer.encode(question);
        let groups = if opts.diverse { opts.groups.max(1) } else { 1 };
        let beams_per_group = (opts.beams / groups).max(1);
        let init = Beam { state: constrainer.initial(), h: q.clone(), prev: BOS, logp: 0.0 };
        let mut group_beams: Vec<Vec<Beam>> = vec![vec![init]; groups];
        let mut finished: Vec<(DecodeState, f32)> = Vec::new();
        let all_syms: Vec<Sym> = (0..vocab_len as Sym).collect();

        for _step in 0..opts.max_steps {
            let mut any_alive = false;
            let mut used: HashMap<Sym, f32> = HashMap::new();
            for beams in group_beams.iter_mut() {
                let mut expansions: Vec<(Beam, Sym, f32)> = Vec::new();
                for beam in beams.iter() {
                    if beam.state.done {
                        continue;
                    }
                    let allowed: Vec<Sym> = if opts.constrained {
                        constrainer.allowed(&beam.state)
                    } else {
                        all_syms.clone()
                    };
                    if allowed.is_empty() {
                        continue;
                    }
                    // advance hidden state once per beam
                    let h_next = scorer.step(beam.prev, &beam.h);
                    let lps = scorer.logprobs(&h_next, &allowed);
                    for (i, &sym) in allowed.iter().enumerate() {
                        let penalty =
                            opts.diversity_penalty * used.get(&sym).copied().unwrap_or(0.0);
                        let score = beam.logp + lps[i] - penalty;
                        expansions.push((
                            Beam {
                                state: beam.state.clone(),
                                h: h_next.clone(),
                                prev: sym,
                                logp: beam.logp + lps[i],
                            },
                            sym,
                            score,
                        ));
                    }
                }
                expansions
                    .sort_by(|a, b| b.2.partial_cmp(&a.2).unwrap_or(std::cmp::Ordering::Equal));
                let mut next_beams: Vec<Beam> = Vec::with_capacity(beams_per_group);
                for (beam, sym, _) in expansions {
                    if next_beams.len() >= beams_per_group {
                        break;
                    }
                    let Some(next_state) = constrainer.advance(&beam.state, sym) else {
                        continue; // invalid under unconstrained decoding
                    };
                    *used.entry(sym).or_insert(0.0) += 1.0;
                    if next_state.done {
                        finished.push((next_state, beam.logp));
                        // a finished beam still occupies a slot this step
                        next_beams.push(Beam {
                            state: DecodeState { done: true, ..next_state_placeholder() },
                            ..beam
                        });
                    } else {
                        any_alive = true;
                        next_beams.push(Beam { state: next_state, ..beam });
                    }
                }
                *beams = next_beams;
            }
            if !any_alive {
                break;
            }
        }

        let mut out: Vec<DecodedSchema> = finished
            .into_iter()
            .filter_map(|(state, logp)| {
                constrainer.schema_of(&state).map(|schema| DecodedSchema { schema, logp })
            })
            .collect();
        out.sort_by(|a, b| b.logp.partial_cmp(&a.logp).unwrap_or(std::cmp::Ordering::Equal));
        out
    }

    fn next_state_placeholder() -> DecodeState {
        DecodeState { db: None, tables: Vec::new(), prefix: Vec::new(), done: true }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{RouterConfig, RouterModel};
    use dbcopilot_sqlengine::{Collection, DataType, DatabaseSchema, TableSchema};

    fn collection() -> Collection {
        let mut c = Collection::new();
        let mut db = DatabaseSchema::new("concert_singer");
        db.add_table(TableSchema::new("singer").column("singer_id", DataType::Int).primary(0));
        db.add_table(TableSchema::new("concert").column("concert_id", DataType::Int).primary(0));
        db.add_table(
            TableSchema::new("singer_in_concert")
                .column("singer_id", DataType::Int)
                .column("concert_id", DataType::Int)
                .foreign("singer_id", "singer", "singer_id")
                .foreign("concert_id", "concert", "concert_id"),
        );
        let mut world = DatabaseSchema::new("world");
        world.add_table(TableSchema::new("country").column("code", DataType::Text).primary(0));
        world.add_table(
            TableSchema::new("countrylanguage").column("countrycode", DataType::Text).foreign(
                "countrycode",
                "country",
                "code",
            ),
        );
        c.add_database(db);
        c.add_database(world);
        c
    }

    #[test]
    fn initial_allows_only_db_starts() {
        let coll = collection();
        let g = SchemaGraph::build(&coll);
        let v = PieceVocab::build(&g);
        let t = ConstraintTables::build(&g, &v);
        let c = Constrainer::new(&g, &t, 4);
        let allowed = c.allowed(&c.initial());
        let concert = v.id_of("concert").unwrap();
        let world = v.id_of("world").unwrap();
        assert!(allowed.contains(&concert));
        assert!(allowed.contains(&world));
        assert!(!allowed.contains(&SEP));
        assert!(!allowed.contains(&EOS));
    }

    #[test]
    fn db_must_complete_before_sep() {
        let coll = collection();
        let g = SchemaGraph::build(&coll);
        let v = PieceVocab::build(&g);
        let t = ConstraintTables::build(&g, &v);
        let c = Constrainer::new(&g, &t, 4);
        let mut s = c.initial();
        s = c.advance(&s, v.id_of("concert").unwrap()).unwrap();
        // "concert" is not a complete db name ("concert_singer" is) → no SEP
        let allowed = c.allowed(&s);
        assert!(!allowed.contains(&SEP));
        assert!(allowed.contains(&v.id_of("singer").unwrap()));
        s = c.advance(&s, v.id_of("singer").unwrap()).unwrap();
        let allowed = c.allowed(&s);
        assert!(allowed.contains(&SEP));
    }

    #[test]
    fn first_table_free_then_neighbors_only() {
        let coll = collection();
        let g = SchemaGraph::build(&coll);
        let v = PieceVocab::build(&g);
        let t = ConstraintTables::build(&g, &v);
        let c = Constrainer::new(&g, &t, 4);
        let mut s = c.initial();
        for p in ["concert", "singer"] {
            s = c.advance(&s, v.id_of(p).unwrap()).unwrap();
        }
        s = c.advance(&s, SEP).unwrap(); // commit db
        assert!(s.db.is_some());
        // first table: all three starts allowed
        let allowed = c.allowed(&s);
        assert!(allowed.contains(&v.id_of("singer").unwrap()));
        assert!(allowed.contains(&v.id_of("concert").unwrap()));
        // decode "singer", commit via SEP
        s = c.advance(&s, v.id_of("singer").unwrap()).unwrap();
        // prefix "singer" completes table `singer` but also prefixes
        // singer_in_concert; both SEP/EOS and "in" allowed
        let allowed = c.allowed(&s);
        assert!(allowed.contains(&SEP));
        assert!(allowed.contains(&EOS));
        assert!(allowed.contains(&v.id_of("in").unwrap()));
        s = c.advance(&s, SEP).unwrap();
        // next table must be a neighbor of `singer` → only singer_in_concert
        let allowed = c.allowed(&s);
        assert_eq!(allowed, vec![v.id_of("singer").unwrap()]);
    }

    #[test]
    fn eos_requires_a_table() {
        let coll = collection();
        let g = SchemaGraph::build(&coll);
        let v = PieceVocab::build(&g);
        let t = ConstraintTables::build(&g, &v);
        let c = Constrainer::new(&g, &t, 4);
        let mut s = c.initial();
        s = c.advance(&s, v.id_of("world").unwrap()).unwrap();
        assert!(c.advance(&s, EOS).is_none(), "EOS before any table must fail");
    }

    #[test]
    fn full_sequence_decodes_to_schema() {
        let coll = collection();
        let g = SchemaGraph::build(&coll);
        let v = PieceVocab::build(&g);
        let t = ConstraintTables::build(&g, &v);
        let c = Constrainer::new(&g, &t, 4);
        let mut s = c.initial();
        let syms = [
            v.id_of("world").unwrap(),
            SEP,
            v.id_of("country").unwrap(),
            SEP,
            v.id_of("countrylanguage").unwrap(),
            EOS,
        ];
        for &sym in &syms {
            s = c.advance(&s, sym).unwrap_or_else(|| panic!("blocked at {sym}"));
        }
        let schema = c.schema_of(&s).unwrap();
        assert!(schema
            .same_as(&QuerySchema::new("world", vec!["country".into(), "countrylanguage".into()])));
    }

    #[test]
    fn untrained_beam_search_emits_valid_schemata() {
        let coll = collection();
        let g = SchemaGraph::build(&coll);
        let v = PieceVocab::build(&g);
        let t = ConstraintTables::build(&g, &v);
        let c = Constrainer::new(&g, &t, 3);
        let model = RouterModel::new(RouterConfig::tiny(), v.len());
        let opts = DecodeOptions {
            beams: 4,
            groups: 4,
            diversity_penalty: 1.0,
            constrained: true,
            diverse: true,
            max_steps: 24,
        };
        let out = beam_search(&model, &c, v.len(), "which language is spoken", &opts);
        assert!(!out.is_empty(), "constrained decoding must always yield schemata");
        for d in &out {
            assert!(g.is_valid_schema(&d.schema), "invalid: {}", d.schema);
        }
    }

    #[test]
    fn diverse_groups_yield_distinct_candidates() {
        let coll = collection();
        let g = SchemaGraph::build(&coll);
        let v = PieceVocab::build(&g);
        let t = ConstraintTables::build(&g, &v);
        let c = Constrainer::new(&g, &t, 3);
        let model = RouterModel::new(RouterConfig::tiny(), v.len());
        let opts = DecodeOptions {
            beams: 6,
            groups: 6,
            diversity_penalty: 2.0,
            constrained: true,
            diverse: true,
            max_steps: 24,
        };
        let out = beam_search(&model, &c, v.len(), "question", &opts);
        let dbs: std::collections::HashSet<&str> =
            out.iter().map(|d| d.schema.database.as_str()).collect();
        assert!(dbs.len() >= 2, "diverse beams should cover both databases: {out:?}");
    }

    #[test]
    fn merge_unions_tables_per_db() {
        let a =
            DecodedSchema { schema: QuerySchema::new("world", vec!["country".into()]), logp: -1.0 };
        let b = DecodedSchema {
            schema: QuerySchema::new("world", vec!["countrylanguage".into(), "country".into()]),
            logp: -2.0,
        };
        let m = merge_candidates(&[a, b]);
        assert_eq!(m.len(), 1);
        assert_eq!(m[0].schema.tables.len(), 2);
        assert_eq!(m[0].logp, -1.0);
    }
    // ----- today's decoder against the reference, bit for bit -----

    /// The determinism suite's four questions, over a graph that also has
    /// table relations (so multi-table schemata decode) and a prefix-sharing
    /// pair of table names.
    fn trained_router() -> (crate::router::DbcRouter, Vec<&'static str>) {
        use crate::train::{SerializationMode, TrainExample};
        let mut coll = collection();
        for (db, tables) in [("library", ["book", "author"]), ("cinema", ["movie", "director"])] {
            let mut d = DatabaseSchema::new(db);
            for t in tables {
                d.add_table(TableSchema::new(t).column("id", DataType::Int).primary(0));
            }
            coll.add_database(d);
        }
        let gold = [
            ("how many vocalists are there", "concert_singer", vec!["singer", "singer_in_concert"]),
            ("list the names of all towns", "world", vec!["country", "countrylanguage"]),
            ("which writer published the most volumes", "library", vec!["book"]),
            ("who directed the longest film", "cinema", vec!["movie"]),
        ];
        let examples: Vec<TrainExample> = (0..10)
            .flat_map(|_| gold.iter())
            .map(|(q, db, tables)| TrainExample {
                question: q.to_string(),
                schema: QuerySchema::new(*db, tables.iter().map(|t| t.to_string()).collect()),
            })
            .collect();
        let mut cfg = RouterConfig::tiny();
        cfg.epochs = 4;
        let (mut router, _) = crate::router::DbcRouter::fit(
            SchemaGraph::build(&coll),
            &examples,
            cfg,
            SerializationMode::Dfs,
        );
        router.model.freeze_quant();
        let mut questions: Vec<&str> = gold.iter().map(|g| g.0).collect();
        questions.extend(["", "concerts per singer and their languages"]);
        (router, questions)
    }

    fn assert_same_candidates(new: &[DecodedSchema], old: &[DecodedSchema], what: &str) {
        let key = |d: &DecodedSchema| (d.schema.clone(), d.logp.to_bits());
        assert_eq!(
            new.iter().map(key).collect::<Vec<_>>(),
            old.iter().map(key).collect::<Vec<_>>(),
            "{what}"
        );
    }

    #[test]
    fn beam_search_matches_the_reference_loop_at_both_precisions() {
        let (router, questions) = trained_router();
        let (model, vocab, graph) = (&router.model, &router.vocab, &router.graph);
        let qm = model.quant.as_ref().unwrap();
        let tables = ConstraintTables::build(graph, vocab);
        let new_c = Constrainer::new(graph, &tables, model.cfg.max_tables);
        let old_c = reference::Constrainer::new(graph, vocab, model.cfg.max_tables);
        let mut finished = 0;
        for (constrained, diverse) in [(true, true), (true, false), (false, true), (false, false)] {
            let opts =
                DecodeOptions { constrained, diverse, ..DecodeOptions::from_config(&model.cfg) };
            for q in &questions {
                let what = format!("constrained {constrained}, diverse {diverse}, {q:?}");
                let f32_scorer = || F32Scorer::new(model);
                let new = beam_search_with(&mut f32_scorer(), &new_c, vocab.len(), q, &opts);
                let old = reference::beam_search(&mut f32_scorer(), &old_c, vocab.len(), q, &opts);
                assert_same_candidates(&new, &old, &format!("f32, {what}"));
                let i8_scorer = || crate::qmodel::QuantScorer::new(model, qm);
                let new = beam_search_with(&mut i8_scorer(), &new_c, vocab.len(), q, &opts);
                let old = reference::beam_search(&mut i8_scorer(), &old_c, vocab.len(), q, &opts);
                assert_same_candidates(&new, &old, &format!("i8, {what}"));
                finished += new.len();
            }
        }
        assert!(finished > 0, "the comparison must see decoded schemata");
    }

    #[test]
    fn constrainer_matches_the_reference_on_every_reachable_state() {
        // Breadth-first over the constrained state space, trying *every*
        // vocabulary symbol at each state (the unconstrained ablation does),
        // at a table budget the walk reaches and one it does not.
        let (router, _) = trained_router();
        let (vocab, graph) = (&router.vocab, &router.graph);
        let tables = ConstraintTables::build(graph, vocab);
        for max_tables in [0, 1, 2, 4] {
            let new_c = Constrainer::new(graph, &tables, max_tables);
            let old_c = reference::Constrainer::new(graph, vocab, max_tables);
            let mut frontier = vec![new_c.initial()];
            let mut visited = 0;
            while let Some(state) = frontier.pop() {
                visited += 1;
                let allowed = new_c.allowed(&state);
                assert_eq!(allowed, old_c.allowed(&state), "allowed at {state:?}");
                for sym in 0..vocab.len() as Sym {
                    let (new, old) = (new_c.advance(&state, sym), old_c.advance(&state, sym));
                    assert_eq!(format!("{new:?}"), format!("{old:?}"), "{sym} from {state:?}");
                    if let (Some(next), true) = (new, allowed.contains(&sym)) {
                        frontier.push(next);
                    }
                }
            }
            assert!(visited > 20, "walk too short at budget {max_tables}: {visited}");
        }
    }

    /// Counts scorer calls. A step negates the first lane, so `0.0` and
    /// `-0.0` step to different states.
    struct CountingScorer {
        steps: usize,
        logprobs: usize,
    }

    impl StepScorer for CountingScorer {
        fn encode(&mut self, _question: &str) -> Tensor {
            Tensor::zeros(1, 2)
        }

        fn step(&mut self, _prev: Sym, h: &Tensor) -> Tensor {
            self.steps += 1;
            Tensor::from_row(vec![-h.get(0, 0), 1.0])
        }

        fn logprobs(&mut self, _h: &Tensor, candidates: &[Sym]) -> Vec<f32> {
            self.logprobs += 1;
            vec![0.0; candidates.len()]
        }
    }

    #[test]
    fn step_memo_keys_on_hidden_state_bits() {
        let beam = |h: Vec<f32>, prev| Beam {
            state: DecodeState { db: None, tables: Vec::new(), prefix: Vec::new(), done: false },
            h: Tensor::from_row(h),
            prev,
            logp: 0.0,
            name_lp: (),
        };
        let mut scorer = CountingScorer { steps: 0, logprobs: 0 };
        let mut memo = Vec::new();
        let first = score_beam(&mut scorer, &mut memo, &beam(vec![0.0, f32::NAN], 5), vec![1, 2]);
        // same previous symbol, `==`-equal hidden state, different bits: a
        // separate entry and a separate GRU step
        let negz = score_beam(&mut scorer, &mut memo, &beam(vec![-0.0, f32::NAN], 5), vec![1, 2]);
        assert_ne!(first, negz);
        assert_eq!((scorer.steps, scorer.logprobs), (2, 2));
        assert_ne!(
            memo[first].h_next.get(0, 0).to_bits(),
            memo[negz].h_next.get(0, 0).to_bits(),
            "merging the two would have lost this difference"
        );
        // same bits (NaN included, which `==` would never match): reused whole
        let again = score_beam(&mut scorer, &mut memo, &beam(vec![0.0, f32::NAN], 5), vec![1, 2]);
        assert_eq!(again, first);
        assert_eq!((scorer.steps, scorer.logprobs), (2, 2));
        // same input, other candidates: the step is reused, the softmax is not
        let other = score_beam(&mut scorer, &mut memo, &beam(vec![0.0, f32::NAN], 5), vec![1, 3]);
        assert_ne!(other, first);
        assert_eq!((scorer.steps, scorer.logprobs), (2, 3));
        // other previous symbol: nothing is shared
        score_beam(&mut scorer, &mut memo, &beam(vec![0.0, f32::NAN], 6), vec![1, 2]);
        assert_eq!((scorer.steps, scorer.logprobs), (3, 4));
    }

    #[test]
    fn first_decode_step_runs_one_gru_step_for_all_groups() {
        let coll = collection();
        let g = SchemaGraph::build(&coll);
        let v = PieceVocab::build(&g);
        let t = ConstraintTables::build(&g, &v);
        let c = Constrainer::new(&g, &t, 3);
        let opts = DecodeOptions {
            beams: 6,
            groups: 6,
            diversity_penalty: 1.0,
            constrained: true,
            diverse: true,
            max_steps: 1,
        };
        let mut scorer = CountingScorer { steps: 0, logprobs: 0 };
        beam_search_with(&mut scorer, &c, v.len(), "q", &opts);
        assert_eq!((scorer.steps, scorer.logprobs), (1, 1), "six groups share one first step");
    }

    #[test]
    fn name_logps_off_the_beam_are_the_unconstrained_walk_bit_for_bit() {
        let (router, questions) = trained_router();
        let (model, vocab, graph) = (&router.model, &router.vocab, &router.graph);
        let tables = ConstraintTables::build(graph, vocab);
        let c = Constrainer::new(graph, &tables, model.cfg.max_tables);
        let mut tracked = 0;
        for diverse in [true, false] {
            let opts = DecodeOptions { diverse, ..DecodeOptions::from_config(&model.cfg) };
            for q in &questions {
                let (seqs, names) = beam_search_name_logps(model, &c, vocab.len(), q, &opts);
                let plain = beam_search(model, &c, vocab.len(), q, &opts);
                assert_same_candidates(&seqs, &plain, &format!("tracking moved the search: {q:?}"));
                assert_eq!(names.len(), seqs.len(), "one value per finished sequence");
                for (db, lp) in names {
                    let walked = router.name_logp_unconstrained(q, graph.name(db)).unwrap();
                    assert_eq!(lp.to_bits(), walked.to_bits(), "{q:?} → {}", graph.name(db));
                    tracked += 1;
                }
            }
        }
        assert!(tracked > 0, "the comparison must see finished sequences");
    }

    /// A NaN-mixed vector on which `sort_by` with the closure the routing
    /// sorts used before `best_first` panics ("does not correctly implement
    /// a total order") on this toolchain.
    const NAN_MIXED: [f32; 38] = [
        f32::NAN,
        f32::NAN,
        f32::NAN,
        -0.75,
        0.0,
        -2.25,
        -2.0,
        3.75,
        -3.5,
        5.0,
        3.5,
        f32::NAN,
        0.25,
        f32::NAN,
        f32::NAN,
        0.0,
        1.75,
        2.5,
        1.25,
        0.25,
        f32::NAN,
        1.25,
        -2.0,
        4.75,
        0.75,
        f32::NAN,
        f32::NAN,
        f32::NAN,
        -2.25,
        4.25,
        f32::NAN,
        -4.5,
        f32::NAN,
        -0.5,
        f32::NAN,
        -5.0,
        3.25,
        -0.0,
    ];

    #[test]
    fn best_first_sorts_what_partial_cmp_cannot() {
        let legacy = std::panic::catch_unwind(|| {
            let mut v = NAN_MIXED;
            v.sort_by(|a, b| b.partial_cmp(a).unwrap_or(std::cmp::Ordering::Equal));
        });
        assert!(legacy.is_err(), "the committed vector no longer trips the old comparator");

        let mut v = NAN_MIXED;
        v.sort_by(|a, b| best_first(*a, *b));
        let numbers = NAN_MIXED.iter().filter(|x| !x.is_nan()).count();
        assert!(v[..numbers].windows(2).all(|w| w[0] >= w[1]), "numbers best first: {v:?}");
        assert!(v[numbers..].iter().all(|x| x.is_nan()), "NaN last: {v:?}");
        // a stable sort keeps tied signed zeros in input order
        let zeros: Vec<u32> = v.iter().filter(|x| **x == 0.0).map(|x| x.to_bits()).collect();
        assert_eq!(zeros, [0.0f32, 0.0, -0.0].map(f32::to_bits));
        // without NaN it is the old order, element for element
        let numbers: Vec<f32> = NAN_MIXED.into_iter().filter(|x| !x.is_nan()).collect();
        let (mut old, mut new) = (numbers.clone(), numbers);
        old.sort_by(|a, b| b.partial_cmp(a).unwrap_or(std::cmp::Ordering::Equal));
        new.sort_by(|a, b| best_first(*a, *b));
        let bits = |v: Vec<f32>| v.into_iter().map(f32::to_bits).collect::<Vec<_>>();
        assert_eq!(bits(old), bits(new));
    }
}
