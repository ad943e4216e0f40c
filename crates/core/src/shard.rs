//! The sharded routing tier: scatter-gather over per-shard [`DbcRouter`]s.
//!
//! The paper's premise is routing over *massive* collections, and one
//! monolithic router stops scaling long before the collection does: every
//! schema change retrains the whole model, every bundle load decodes every
//! weight, and fit time grows with the full collection. [`ShardedRouter`]
//! partitions the collection into N shards by a stable hash of the database
//! name ([`shard_of`]) and keeps one independent `DbcRouter` per shard, each
//! routing on its [`SchemaGraph::restrict`]ion of the one schema graph:
//!
//! * **`route` is scatter-gather** — fan out to every non-empty shard on the
//!   persistent worker pool, calibrate each shard's scores for cross-model
//!   comparability (see `calibrate_scores` — independently trained shard
//!   models do not share a score scale), then merge the per-shard rankings
//!   with a deterministic score-then-name tie-break. Results are
//!   bit-identical at any `DBC_THREADS` value (shards are merged in index
//!   order).
//! * **`extend_on` is shard-local** — adding or evicting a database retrains
//!   only the owning shard via [`crate::persist::extend_router`]; every
//!   other shard's weights are shared untouched (same `Arc`s, bit-identical).
//! * **Loading is lazy** — a multi-shard `DBC1` bundle (see
//!   [`crate::persist::load_sharded_router_bytes`]) decodes a shard's
//!   weights behind a [`OnceLock`] on first touch, so a 64-shard bundle
//!   serves its first request after loading one shard, not all of them.
//!   The calibration background is *not* part of that first touch: the job
//!   that trains a shard (in `fit_on` or `extend_on`) computes it, the bundle
//!   manifest carries it, and the loader refuses a manifest without it.
//! * **A hot swap keeps what it did not change** — [`SchemaRouter::inherit`]
//!   lets each shard of a newly loaded tier adopt the decoded router of the
//!   tier it replaces, when its database names, background bits and
//!   payload bytes all equal the old shard's. Each shard records the
//!   answers it computes in a memo bounded in bytes (see `MEMO_BYTES`);
//!   an adopting shard takes that memo and answers the questions asked
//!   before the swap from it, never what its own generation computed (the
//!   serving cache answers those repeats). An adopted shard is byte for
//!   byte the shard that computed those answers, so routing stays
//!   bit-identical; only the changed shards decode and search again.
//!
//! The partition depends only on database names — never on thread count,
//! machine, or load order — so a collection shards identically everywhere.

use std::any::Any;
use std::collections::{BTreeSet, HashMap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

use dbcopilot_graph::SchemaGraph;
use dbcopilot_retrieval::{RoutingResult, SchemaRouter, ShardCounters};
use dbcopilot_runtime::{lock_rank, OrderedMutex};
use dbcopilot_sqlengine::Collection;
use dbcopilot_synth::{CorpusMeta, Questioner};

use crate::decode::best_first;
use crate::model::RouterConfig;
use crate::persist::{extend_router, load_router_slice, PersistError};
use crate::router::DbcRouter;
use crate::train::{synthesize_training_data, SerializationMode, TrainExample, TrainStats};

/// Stable shard assignment: FNV-1a over the database name, reduced mod
/// `num_shards`. Pure integer arithmetic over the name bytes — independent
/// of thread count, platform, and insertion order, so the same collection
/// partitions identically on every machine and every run.
///
/// # Panics
/// Panics if `num_shards` is zero.
pub fn shard_of(database: &str, num_shards: usize) -> usize {
    assert!(num_shards > 0, "a sharded router needs at least one shard");
    const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut h = FNV_OFFSET;
    for &b in database.as_bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(FNV_PRIME);
    }
    (h % num_shards as u64) as usize
}

/// The undecoded payload of a lazily-loaded shard: the whole bundle's bytes
/// (shared across slots) plus this shard's range inside the `SBDL` section.
pub(crate) struct LazyShard {
    pub(crate) bundle: Arc<Vec<u8>>,
    pub(crate) offset: usize,
    pub(crate) len: usize,
}

/// The most bytes one shard's memo holds before it evicts its oldest
/// answers: keys, answers and the strings in them, counted by capacity
/// (see `memo_cost`). One answer at `top_tables = 100` holds about 4
/// databases and 12 tables and costs about 1.5 KB with a short question,
/// so a full memo holds some 700 of them. An answer that alone would take
/// more than 1/64 of the budget (a question over ~16 KB) is never kept, so
/// no one question can flush the memo. A tier's memos cost at most this
/// many bytes per shard: 4 MiB on a 4-shard tier, whatever is asked.
const MEMO_BYTES: usize = 1 << 20;

/// A memo key: the question as asked and the `top_tables` it was asked
/// with.
type MemoKey = (String, usize);

/// The bytes a memo entry holds: its key twice (map and eviction queue)
/// and its answer, each with the heap its strings and vectors reserve.
fn memo_cost(key: &MemoKey, answer: &RoutingResult) -> usize {
    use std::mem::size_of;
    let tables: usize = answer.tables.iter().map(|(d, t, _)| d.capacity() + t.capacity()).sum();
    let databases: usize = answer.databases.iter().map(|(d, _)| d.capacity()).sum();
    2 * (size_of::<MemoKey>() + key.0.capacity())
        + size_of::<(u64, Arc<RoutingResult>)>()
        + size_of::<RoutingResult>()
        + answer.tables.capacity() * size_of::<(String, String, f32)>()
        + tables
        + answer.databases.capacity() * size_of::<(String, f32)>()
        + databases
}

/// A shard's memo: the answers `route_in` computed per `(question,
/// top_tables)`, each tagged with the generation that computed it, bounded
/// to [`MEMO_BYTES`] and evicted first in, first out, so what it holds is a
/// function of the questions asked, in order.
///
/// It answers only what an *earlier* generation computed: within one
/// generation the serving cache already answers repeats, and a slot that
/// was never adopted (generation 0) answers nothing from it. A hot swap
/// carries the memo to the adopting slot and advances its generation, so
/// the questions asked before the swap are answered without a search.
#[derive(Default)]
struct ShardMemo {
    /// How many adoptions this memo has been carried across.
    generation: u64,
    answers: HashMap<MemoKey, (u64, Arc<RoutingResult>)>,
    /// Keys and their costs in insertion order; the front is evicted first.
    order: VecDeque<(MemoKey, usize)>,
    /// The sum of the costs in `order`.
    bytes: usize,
}

impl ShardMemo {
    /// The answer an earlier generation computed for `key`, if any.
    fn get(&self, key: &MemoKey) -> Option<Arc<RoutingResult>> {
        match self.answers.get(key) {
            Some((generation, answer)) if *generation < self.generation => Some(answer.clone()),
            _ => None,
        }
    }

    fn insert(&mut self, key: MemoKey, answer: Arc<RoutingResult>) {
        let cost = memo_cost(&key, &answer);
        // Another request may have computed the same answer meanwhile.
        if cost > MEMO_BYTES / 64 || self.answers.contains_key(&key) {
            return;
        }
        while self.bytes + cost > MEMO_BYTES {
            let Some((oldest, freed)) = self.order.pop_front() else { break };
            self.answers.remove(&oldest);
            self.bytes -= freed;
        }
        self.bytes += cost;
        self.order.push_back((key.clone(), cost));
        self.answers.insert(key, (self.generation, answer));
    }
}

/// One shard: its owned database names (known without decoding), the
/// decoded router behind a `OnceLock` (`None` inside = the shard owns no
/// databases), optional undecoded bytes, its calibration background, its
/// memo of answers and a served-question counter.
pub(crate) struct ShardSlot {
    db_names: Vec<String>,
    lazy: Option<LazyShard>,
    router: OnceLock<Option<Arc<DbcRouter>>>,
    routes: AtomicU64,
    /// Per-database background scores (aligned with `db_names`, see
    /// [`shard_background`]), subtracted out by the cross-shard score
    /// calibration. Empty for an empty shard and in a 1-shard tier, which
    /// never calibrates.
    background: Vec<f32>,
    memo: OrderedMutex<ShardMemo>,
}

impl ShardSlot {
    /// A slot whose router is already in memory (fit, extend, legacy load).
    pub(crate) fn eager(
        db_names: Vec<String>,
        router: Option<Arc<DbcRouter>>,
        background: Vec<f32>,
    ) -> Self {
        let cell = OnceLock::new();
        cell.set(router).expect("fresh OnceLock");
        ShardSlot {
            db_names,
            lazy: None,
            router: cell,
            routes: AtomicU64::new(0),
            background,
            memo: new_memo(),
        }
    }

    /// A slot that decodes `bundle[offset..offset + len]` on first touch,
    /// with the background scores the manifest carried for it.
    pub(crate) fn lazy(
        db_names: Vec<String>,
        bundle: Arc<Vec<u8>>,
        offset: usize,
        len: usize,
        background: Vec<f32>,
    ) -> Self {
        ShardSlot {
            db_names,
            lazy: Some(LazyShard { bundle, offset, len }),
            router: OnceLock::new(),
            routes: AtomicU64::new(0),
            background,
            memo: new_memo(),
        }
    }

    /// The calibration background — what a save writes into the manifest.
    pub(crate) fn background(&self) -> &[f32] {
        &self.background
    }

    /// The shard's router, decoding the lazy payload on first touch.
    ///
    /// # Panics
    /// Panics if the deferred payload fails to decode. The manifest framing
    /// and section offsets were validated eagerly at load time, so reaching
    /// this panic requires the bundle bytes to change underneath a live
    /// router.
    pub(crate) fn router(&self) -> Option<&Arc<DbcRouter>> {
        self.router
            .get_or_init(|| {
                let lazy = self.lazy.as_ref().expect("non-eager slot carries lazy bytes");
                if lazy.len == 0 {
                    return None;
                }
                let bytes = &lazy.bundle[lazy.offset..lazy.offset + lazy.len];
                let router = load_router_slice(bytes)
                    .unwrap_or_else(|e| panic!("lazy shard payload failed to decode: {e}"));
                Some(Arc::new(router))
            })
            .as_ref()
    }

    /// Whether the router is decoded and resident.
    pub(crate) fn is_loaded(&self) -> bool {
        self.router.get().is_some()
    }

    pub(crate) fn db_names(&self) -> &[String] {
        &self.db_names
    }

    /// The raw bundle bytes of a lazily-loaded shard — lets a re-save
    /// splice bytes verbatim instead of re-encoding. Valid whether or not
    /// the router has since been decoded: a loaded router is immutable
    /// (ingestion replaces the slot with an eager one), so the original
    /// bytes stay authoritative, and splicing keeps a load→save round trip
    /// byte-identical (re-encoding would reorder JSON map sections).
    pub(crate) fn raw_bytes(&self) -> Option<&[u8]> {
        self.lazy.as_ref().map(|lazy| &lazy.bundle[lazy.offset..lazy.offset + lazy.len])
    }

    /// Whether this slot is provably the shard `previous` is: the same
    /// database names, the same background bits and the same payload
    /// bytes. A slot built in memory (fit, extend) has no payload bytes to
    /// compare, so it is never the same as anything.
    fn same_shard_as(&self, previous: &ShardSlot) -> bool {
        self.db_names == previous.db_names
            && self
                .background
                .iter()
                .map(|x| x.to_bits())
                .eq(previous.background.iter().map(|x| x.to_bits()))
            && matches!((self.raw_bytes(), previous.raw_bytes()), (Some(a), Some(b)) if a == b)
    }

    /// Adopt `previous`'s decoded router and take its memo, one generation
    /// on, if `previous` is decoded and [the same shard](Self::same_shard_as).
    /// Returns whether it did. A slot that is already decoded keeps its own
    /// router, and one that already remembers answers keeps its own memo.
    fn adopt(&self, previous: &ShardSlot) -> bool {
        let Some(router) = previous.router.get() else { return false };
        if !self.same_shard_as(previous) {
            return false;
        }
        let _ = self.router.set(router.clone());
        let mut taken = previous.take_memo();
        taken.generation += 1;
        let mut memo = self.memo.lock();
        if memo.order.is_empty() {
            *memo = taken;
        }
        true
    }

    /// The answer an earlier generation of this shard computed for `key`.
    fn remembered(&self, key: &MemoKey) -> Option<Arc<RoutingResult>> {
        self.memo.lock().get(key)
    }

    fn remember(&self, key: MemoKey, answer: RoutingResult) {
        self.memo.lock().insert(key, Arc::new(answer));
    }

    /// Empty the memo, returning what it held.
    fn take_memo(&self) -> ShardMemo {
        std::mem::take(&mut *self.memo.lock())
    }
}

fn new_memo() -> OrderedMutex<ShardMemo> {
    OrderedMutex::new("memo", lock_rank::MEMO, ShardMemo::default())
}

/// A schema router partitioned into independent per-database-name shards.
/// See the [module docs](self) for the partitioning, merge, and lifecycle
/// contracts.
pub struct ShardedRouter {
    shards: Vec<Arc<ShardSlot>>,
    cfg: RouterConfig,
    label: String,
    /// Shared probe questions for cross-shard score calibration: every
    /// shard estimates its databases' background scores over this *same*
    /// question set, so the calibrated scores live on one comparable scale.
    /// Captured at fit time, persisted in the bundle manifest, and carried
    /// unchanged through `extend` so retrained shards stay on the tier's
    /// original scale.
    probes: Arc<Vec<String>>,
}

/// How many probe questions the fit captures for score calibration. Enough
/// to average out per-question noise in the background estimate while
/// keeping the fit's walks and the bundle manifest cheap.
const CALIBRATION_PROBES: usize = 96;

/// A shard's calibration background: for each of `db_names`, the mean
/// full-vocabulary name-walk log-probability over the tier's shared
/// `probes` — each model's per-name bias under one common question
/// distribution. With no probes every background is zero and calibration
/// degrades to the raw conditional walk.
fn shard_background(router: &DbcRouter, db_names: &[String], probes: &[String]) -> Vec<f32> {
    db_names
        .iter()
        .map(|db| {
            if probes.is_empty() {
                return 0.0;
            }
            let sum: f32 =
                probes.iter().map(|q| router.name_logp_unconstrained(q, db).unwrap_or(0.0)).sum();
            sum / probes.len() as f32
        })
        .collect()
}

impl ShardedRouter {
    /// [`ShardedRouter::fit_on`] over `SchemaGraph::build(collection)`: a
    /// join-less graph, which no table of the paper reports. Kept for
    /// `exp_perf`'s deployment, which `tests/bench_surface.rs` pins; ROADMAP
    /// item 1(iv)'s `benchmark` change deletes it.
    pub fn fit(
        collection: &Collection,
        examples: &[TrainExample],
        cfg: RouterConfig,
        mode: SerializationMode,
        num_shards: usize,
    ) -> (Self, Vec<TrainStats>) {
        Self::fit_on(&SchemaGraph::build(collection), examples, cfg, mode, num_shards)
    }

    /// Train a sharded router: partition `graph` and `examples` by
    /// [`shard_of`], then fit one `DbcRouter` per non-empty shard on its
    /// [`SchemaGraph::restrict`]ion of `graph`, data-parallel over the
    /// persistent worker pool. Each shard trains with the *unchanged* `cfg`
    /// (same seed), so a 1-shard fit is bit-identical to a monolithic
    /// [`DbcRouter::fit`] over the same graph.
    ///
    /// Returns the router and per-shard training stats (empty stats for
    /// empty shards). Examples whose database is absent from `graph` are
    /// dropped.
    pub fn fit_on(
        graph: &SchemaGraph,
        examples: &[TrainExample],
        cfg: RouterConfig,
        mode: SerializationMode,
        num_shards: usize,
    ) -> (Self, Vec<TrainStats>) {
        assert!(num_shards > 0, "a sharded router needs at least one shard");
        let mut parts: Vec<Vec<TrainExample>> = vec![Vec::new(); num_shards];
        for ex in examples {
            if graph.database_node(&ex.schema.database).is_some() {
                parts[shard_of(&ex.schema.database, num_shards)].push(ex.clone());
            }
        }
        // The shared calibration probes: a prefix of the training stream,
        // identical for every shard (deterministic — example order is the
        // caller's, never thread-count dependent).
        let probes: Vec<String> =
            examples.iter().take(CALIBRATION_PROBES).map(|ex| ex.question.clone()).collect();
        let indices: Vec<usize> = (0..num_shards).collect();
        let fitted: Vec<(ShardSlot, TrainStats)> =
            dbcopilot_runtime::pooled_map(&indices, |_, &s| {
                let graph = graph.restrict(|name| shard_of(name, num_shards) == s);
                let db_names = database_names(&graph);
                if db_names.is_empty() {
                    let stats = TrainStats { epoch_losses: Vec::new(), examples: 0 };
                    return (ShardSlot::eager(db_names, None, Vec::new()), stats);
                }
                let (mut router, stats) = DbcRouter::fit(graph, &parts[s], cfg.clone(), mode);
                router.set_label(&format!("DBCopilot[shard {s}]"));
                let background = if num_shards > 1 {
                    shard_background(&router, &db_names, &probes)
                } else {
                    Vec::new()
                };
                (ShardSlot::eager(db_names, Some(Arc::new(router)), background), stats)
            });
        let (shards, all_stats) = fitted.into_iter().map(|(slot, st)| (Arc::new(slot), st)).unzip();
        let tier = ShardedRouter {
            shards,
            cfg,
            label: format!("DBCopilot (sharded x{num_shards})"),
            probes: Arc::new(probes),
        };
        (tier, all_stats)
    }

    /// Wrap an existing monolithic router as a 1-shard tier (how
    /// pre-manifest `DBC1` bundles load).
    pub fn from_monolith(router: DbcRouter) -> Self {
        let db_names = database_names(&router.graph);
        let cfg = router.model.cfg.clone();
        let slot = ShardSlot::eager(db_names, Some(Arc::new(router)), Vec::new());
        ShardedRouter {
            shards: vec![Arc::new(slot)],
            cfg,
            label: "DBCopilot (sharded x1)".into(),
            probes: Arc::new(Vec::new()),
        }
    }

    /// Assemble from prepared slots (the persistence loader).
    pub(crate) fn from_parts(
        shards: Vec<Arc<ShardSlot>>,
        cfg: RouterConfig,
        probes: Vec<String>,
    ) -> Self {
        let n = shards.len();
        ShardedRouter {
            shards,
            cfg,
            label: format!("DBCopilot (sharded x{n})"),
            probes: Arc::new(probes),
        }
    }

    /// The shared calibration probe questions (persisted with the tier).
    pub(crate) fn probes(&self) -> &[String] {
        &self.probes
    }

    pub(crate) fn slots(&self) -> &[Arc<ShardSlot>] {
        &self.shards
    }

    pub(crate) fn config(&self) -> &RouterConfig {
        &self.cfg
    }

    pub fn set_label(&mut self, label: &str) {
        self.label = label.to_string();
    }

    /// Number of shards (fixed at fit/load time).
    pub fn num_shards(&self) -> usize {
        self.shards.len()
    }

    /// Which shard owns (or would own) `database`.
    pub fn shard_of_db(&self, database: &str) -> usize {
        shard_of(database, self.shards.len())
    }

    /// Shards whose router is currently decoded and resident.
    pub fn loaded_shards(&self) -> usize {
        self.shards.iter().filter(|s| s.is_loaded()).count()
    }

    /// Total databases across all shards.
    pub fn num_databases(&self) -> usize {
        self.shards.iter().map(|s| s.db_names.len()).sum()
    }

    /// All database names, sorted (each shard stores its names sorted, and
    /// shards partition the name space).
    pub fn database_names(&self) -> Vec<String> {
        let mut out: Vec<String> =
            self.shards.iter().flat_map(|s| s.db_names.iter().cloned()).collect();
        out.sort();
        out
    }

    /// The decoded router of one shard, loading it on first touch; `None`
    /// for empty shards.
    pub fn shard_router(&self, shard: usize) -> Option<Arc<DbcRouter>> {
        self.shards[shard].router().cloned()
    }

    /// Route within a single shard, lazily loading only that shard. Empty
    /// shards answer with an empty result. This is the targeted entry point
    /// that keeps a cold multi-shard bundle's first request from decoding
    /// every shard.
    pub fn route_shard(&self, shard: usize, question: &str, top_tables: usize) -> RoutingResult {
        let slot = &self.shards[shard];
        match slot.router() {
            Some(router) => {
                let mut r = self.route_in(slot, router, question, top_tables);
                sort_routing(&mut r, top_tables);
                r
            }
            None => RoutingResult::default(),
        }
    }

    /// One shard's native routing, calibrated (see `calibrate_scores`) when
    /// the tier has more than one shard: the answer an earlier generation of
    /// the slot computed, when its memo has one, else a beam search whose
    /// answer the memo then records for the next generation.
    fn route_in(
        &self,
        slot: &ShardSlot,
        router: &DbcRouter,
        question: &str,
        top_tables: usize,
    ) -> RoutingResult {
        slot.routes.fetch_add(1, Ordering::Relaxed);
        let key = (question.to_string(), top_tables);
        if let Some(answer) = slot.remembered(&key) {
            return RoutingResult::clone(&answer);
        }
        let r = if self.shards.len() == 1 {
            router.route(question, top_tables)
        } else {
            let (mut r, names) = router.route_with_name_logps(question, top_tables);
            let name_logp = |db: &str| names.iter().find(|(n, _)| *n == db).map(|&(_, lp)| lp);
            calibrate_scores(slot, name_logp, &mut r);
            r
        };
        slot.remember(key, r.clone());
        r
    }

    /// Route a batch of questions, data-parallel over the worker pool.
    /// Results are in question order and bit-identical at any `DBC_THREADS`.
    pub fn route_batch<S: AsRef<str> + Sync>(
        &self,
        questions: &[S],
        top_tables: usize,
    ) -> Vec<RoutingResult> {
        dbcopilot_runtime::pooled_map(questions, |_, q| self.route(q.as_ref(), top_tables))
    }

    /// [`ShardedRouter::extend_on`] over `SchemaGraph::build(grown)`: a
    /// join-less graph, which no table of the paper reports. Kept for
    /// `exp_perf`'s deployment, which `tests/bench_surface.rs` pins; ROADMAP
    /// item 1(iv)'s `benchmark` change deletes it.
    pub fn extend(
        &self,
        grown: &Collection,
        meta: &CorpusMeta,
        questioner: &Questioner,
        pairs_for_new: usize,
        epochs: usize,
    ) -> Result<(ShardedRouter, Vec<(usize, TrainStats)>), PersistError> {
        self.extend_on(&SchemaGraph::build(grown), meta, questioner, pairs_for_new, epochs)
    }

    /// Shard-local ingestion: grow (or shrink) the schema graph and retrain
    /// *only* the shards owning changed databases, each on its
    /// [`SchemaGraph::restrict`]ion of `grown`, via [`extend_router`];
    /// every unaffected shard's router is shared into the returned tier
    /// untouched (same `Arc`, bit-identical weights).
    ///
    /// Previously-empty shards that gain databases are fit from scratch on
    /// synthesized questions for their new schemata. Returns the new tier
    /// plus `(shard, stats)` for each retrained shard.
    pub fn extend_on(
        &self,
        grown: &SchemaGraph,
        meta: &CorpusMeta,
        questioner: &Questioner,
        pairs_for_new: usize,
        epochs: usize,
    ) -> Result<(ShardedRouter, Vec<(usize, TrainStats)>), PersistError> {
        let n = self.shards.len();
        let old_names: BTreeSet<&str> =
            self.shards.iter().flat_map(|s| s.db_names.iter().map(String::as_str)).collect();
        let grown_names = database_names(grown);
        let new_names: BTreeSet<&str> = grown_names.iter().map(String::as_str).collect();
        let affected: BTreeSet<usize> =
            old_names.symmetric_difference(&new_names).map(|name| shard_of(name, n)).collect();

        let mut shards = Vec::with_capacity(n);
        let mut retrained = Vec::new();
        for (s, slot) in self.shards.iter().enumerate() {
            if !affected.contains(&s) {
                shards.push(Arc::clone(slot));
                continue;
            }
            let graph = grown.restrict(|name| shard_of(name, n) == s);
            let db_names = database_names(&graph);
            let (router, stats) = match slot.router() {
                Some(old) if !db_names.is_empty() => {
                    let (r, stats) =
                        extend_router(old, graph, meta, questioner, pairs_for_new, epochs)?;
                    (Some(r), stats)
                }
                Some(_) => {
                    // The shard lost every database: nothing to serve.
                    (None, TrainStats { epoch_losses: Vec::new(), examples: 0 })
                }
                None => {
                    // A previously-empty shard gained databases: fit from
                    // scratch on synthesized questions for its schemata.
                    // The seed is split per shard so distinct shards never
                    // share a sample stream.
                    let mut cfg = self.cfg.clone();
                    cfg.epochs = epochs;
                    let seed = dbcopilot_runtime::split_seed(cfg.seed, s as u64);
                    let examples =
                        synthesize_training_data(&graph, meta, questioner, pairs_for_new, seed);
                    let (r, stats) = DbcRouter::fit(graph, &examples, cfg, SerializationMode::Dfs);
                    (Some(r), stats)
                }
            };
            let background = match &router {
                Some(r) if n > 1 => shard_background(r, &db_names, &self.probes),
                _ => Vec::new(),
            };
            let router = router.map(|mut r| {
                r.set_label(&format!("DBCopilot[shard {s}]"));
                Arc::new(r)
            });
            shards.push(Arc::new(ShardSlot::eager(db_names, router, background)));
            retrained.push((s, stats));
        }
        let tier = ShardedRouter {
            shards,
            cfg: self.cfg.clone(),
            label: self.label.clone(),
            probes: Arc::clone(&self.probes),
        };
        Ok((tier, retrained))
    }
}

/// A graph's database names, sorted (the order a shard slot keeps them in).
pub(crate) fn database_names(graph: &SchemaGraph) -> Vec<String> {
    let mut names: Vec<String> =
        graph.database_nodes().into_iter().map(|d| graph.name(d).to_string()).collect();
    names.sort();
    names
}

impl std::fmt::Debug for ShardedRouter {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShardedRouter")
            .field("label", &self.label)
            .field("shards", &self.shards.len())
            .field("loaded", &self.loaded_shards())
            .field("databases", &self.num_databases())
            .finish_non_exhaustive()
    }
}

impl SchemaRouter for ShardedRouter {
    fn name(&self) -> &str {
        &self.label
    }

    /// Scatter-gather: every non-empty shard routes the question on the
    /// worker pool, its native scores are calibrated for cross-shard
    /// comparability (see `calibrate_scores`), and the per-shard rankings
    /// are merged with the deterministic score-then-name tie-break (see
    /// `merge_routing`).
    fn route(&self, question: &str, top_tables: usize) -> RoutingResult {
        let per: Vec<Option<RoutingResult>> =
            dbcopilot_runtime::pooled_map(&self.shards, |_, slot| {
                if slot.db_names.is_empty() {
                    return None;
                }
                let router = slot.router().expect("non-empty shard has a router");
                Some(self.route_in(slot, router, question, top_tables))
            });
        merge_routing(per.into_iter().flatten(), top_tables)
    }

    fn shard_counters(&self) -> Vec<ShardCounters> {
        self.shards
            .iter()
            .map(|s| ShardCounters {
                databases: s.db_names.len(),
                loaded: s.is_loaded(),
                routes: s.routes.load(Ordering::Relaxed),
            })
            .collect()
    }

    /// Adopt, shard by shard, the decoded router and the memo of every
    /// shard of `previous` that this tier provably shares (`previous` is a
    /// `ShardedRouter` of the same shard count, and per shard the names,
    /// background bits and payload bytes are the same — see
    /// `ShardSlot::adopt`). Every other shard stays lazy. A slot already
    /// shared by `Arc` (an in-memory `extend`) is decoded already and is
    /// left as it is, its memo in the generation it was.
    fn inherit(&self, previous: &dyn SchemaRouter) {
        let Some(previous) = previous.as_any().and_then(|p| p.downcast_ref::<ShardedRouter>())
        else {
            return;
        };
        if self.shards.len() != previous.shards.len() {
            return;
        }
        for (slot, old) in self.shards.iter().zip(&previous.shards) {
            if !Arc::ptr_eq(slot, old) {
                slot.adopt(old);
            }
        }
    }

    fn as_any(&self) -> Option<&dyn Any> {
        Some(self)
    }
}

/// Calibrate one shard's native routing scores for cross-shard merging.
///
/// Per-shard scores come from a softmax over the graph-*allowed* candidate
/// subset, which saturates as the shard shrinks: a one-database shard
/// assigns its database `logp ≈ 0` for any question, so raw scores from
/// independently trained shard models are not comparable. Each candidate
/// database is rescored to a background-centred full-vocabulary walk:
///
/// ```text
/// score(db) = logp_full(db | question) − mean over probe questions q of
///             logp_full(db | q)
/// ```
///
/// Both terms walk the database *name* over the **full** vocabulary
/// ([`DbcRouter::name_logp_unconstrained`]) — no graph constraint, so no
/// subset saturation. Subtracting the mean over the tier's *shared* probe
/// questions (the same questions for every shard, captured at fit and
/// persisted with the bundle) centres away each model's per-name bias
/// under one common question distribution — what remains is how much
/// *this* question raises the name above background, a quantity comparable
/// across independently trained models. This is the standard
/// centred-score merge from federated search. How much of the monolith's
/// recall it keeps depends on scale: on Spider at quick scale the 4-shard
/// tier beats it (DB R@1 88.3 vs 76.7), at full scale it falls short
/// (28.0 vs 40.2, ROADMAP item 18).
///
/// Table scores shift along with their database, so within-database table
/// rankings survive the merge untouched.
///
/// The formula is the walk's, but the question's own term is not walked:
/// `name_logp` reads it off the shard's beam search, whose f32 hidden
/// states are the walk's, bit for bit (see
/// [`DbcRouter::route_with_name_logps`]). Only the backgrounds walk, in
/// the job that trains the shard.
///
/// Skipped for 1-shard tiers: a single shard *is* the monolith, there is
/// no cross-model comparison to calibrate, and skipping keeps 1-shard
/// routing identical to [`DbcRouter::route`].
fn calibrate_scores(
    slot: &ShardSlot,
    name_logp: impl Fn(&str) -> Option<f32>,
    r: &mut RoutingResult,
) {
    let RoutingResult { tables, databases } = r;
    for (name, score) in databases.iter_mut() {
        let Some(idx) = slot.db_names.iter().position(|n| n == name) else { continue };
        let Some(cond) = name_logp(name) else { continue };
        let centred = cond - slot.background[idx];
        let shift = centred - *score;
        *score = centred;
        for t in tables.iter_mut().filter(|t| t.0 == *name) {
            t.2 += shift;
        }
    }
}

/// Merge per-shard rankings into one: concatenate, then order by score
/// descending with NaN last and ties broken by name ascending (`best_first`,
/// as in every other routing sort, so the order is total and identical
/// across thread counts and shard visit order), truncating tables to
/// `top_tables`.
/// Databases are unique across shards by construction (shards partition the
/// collection), so no deduplication is needed.
fn merge_routing(
    parts: impl IntoIterator<Item = RoutingResult>,
    top_tables: usize,
) -> RoutingResult {
    let mut merged = RoutingResult::default();
    for part in parts {
        merged.tables.extend(part.tables);
        merged.databases.extend(part.databases);
    }
    sort_routing(&mut merged, top_tables);
    merged
}

/// The shared ranking contract: score descending with NaN last, then
/// database name, then table name — a total order, applied identically to
/// merged and single-shard results.
fn sort_routing(r: &mut RoutingResult, top_tables: usize) {
    r.tables.sort_by(|a, b| {
        best_first(a.2, b.2).then_with(|| a.0.cmp(&b.0)).then_with(|| a.1.cmp(&b.1))
    });
    r.tables.truncate(top_tables);
    r.databases.sort_by(|a, b| best_first(a.1, b.1).then_with(|| a.0.cmp(&b.0)));
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::persist::{load_sharded_router_bytes, sharded_router_to_vec};
    use dbcopilot_graph::QuerySchema;
    use dbcopilot_sqlengine::{DataType, DatabaseSchema, TableSchema};

    const QUESTIONS: [&str; 3] =
        ["how many vocalists", "population of towns", "which writer wrote the most"];

    /// The bundle of a 4-shard tier over three databases.
    fn tier_bytes() -> Vec<u8> {
        let mut collection = Collection::new();
        for (db, table) in [("concert_singer", "singer"), ("world", "city"), ("library", "book")] {
            let mut d = DatabaseSchema::new(db);
            d.add_table(TableSchema::new(table).column("id", DataType::Int).primary(0));
            collection.add_database(d);
        }
        let examples: Vec<TrainExample> = (0..8)
            .flat_map(|_| {
                [("how many vocalists", "concert_singer", "singer"), ("towns", "world", "city")]
                    .map(|(q, db, t)| TrainExample {
                        question: q.into(),
                        schema: QuerySchema::new(db, vec![t.into()]),
                    })
            })
            .collect();
        let mut cfg = RouterConfig::tiny();
        cfg.epochs = 3;
        let (tier, _) = ShardedRouter::fit(&collection, &examples, cfg, SerializationMode::Dfs, 4);
        sharded_router_to_vec(&tier).unwrap()
    }

    /// A loaded tier that has routed every question (so each non-empty
    /// shard is decoded and remembers an answer per question).
    fn warm_tier(bytes: &[u8]) -> ShardedRouter {
        let tier = load_sharded_router_bytes(bytes.to_vec()).unwrap();
        for q in QUESTIONS {
            tier.route(q, 10);
        }
        tier
    }

    fn memo_len(slot: &ShardSlot) -> usize {
        slot.memo.lock().order.len()
    }

    /// Names and score bits of a routing's tables and databases, in order.
    type Bits = (Vec<(String, String, u32)>, Vec<(String, u32)>);

    fn routing_bits(r: &RoutingResult) -> Bits {
        (
            r.tables.iter().map(|(d, t, s)| (d.clone(), t.clone(), s.to_bits())).collect(),
            r.databases.iter().map(|(d, s)| (d.clone(), s.to_bits())).collect(),
        )
    }

    #[test]
    fn a_reload_of_the_same_bytes_adopts_every_decoded_shard_and_answers_from_its_memo() {
        let bytes = tier_bytes();
        let old = warm_tier(&bytes);
        let non_empty = old.slots().iter().filter(|s| !s.db_names.is_empty()).count();
        assert!(non_empty > 1, "the fixture must calibrate across shards");
        assert_eq!(old.loaded_shards(), non_empty);

        // Plant a marker answer in one shard's memo: only a shard that
        // took that memo can answer with it.
        let owner = old.shard_of_db("world");
        let key = (QUESTIONS[1].to_string(), 10);
        let marker = RoutingResult {
            tables: vec![("world".into(), "marker".into(), 1.0)],
            databases: vec![("world".into(), 1.0)],
        };
        old.slots()[owner].memo.lock().answers.insert(key.clone(), (0, Arc::new(marker.clone())));
        assert_ne!(
            routing_bits(&old.route_shard(owner, QUESTIONS[1], 10)),
            routing_bits(&marker),
            "a memo never answers what its own generation computed"
        );
        let remembered: Vec<usize> = old.slots().iter().map(|s| memo_len(s)).collect();

        let new = load_sharded_router_bytes(bytes.clone()).unwrap();
        assert_eq!(new.loaded_shards(), 0);
        new.inherit(&old);
        assert_eq!(new.loaded_shards(), non_empty, "every decoded shard is adopted");
        for (s, (slot, before)) in new.slots().iter().zip(&remembered).enumerate() {
            assert_eq!(memo_len(slot), *before, "shard {s} takes the old memo");
            assert_eq!(memo_len(&old.slots()[s]), 0, "shard {s}'s old memo is taken, not copied");
            if let (Some(Some(a)), Some(Some(b))) = (slot.router.get(), old.slots()[s].router.get())
            {
                assert!(Arc::ptr_eq(a, b), "shard {s} shares the decoded router");
            }
        }
        assert_eq!(
            routing_bits(&new.route_shard(owner, QUESTIONS[1], 10)),
            routing_bits(&marker),
            "the adopted shard answers from the memo it took"
        );
        // What the adopting generation computes and records, it does not
        // read back: the marker recorded now is for the next generation.
        new.slots()[owner].remember(key, marker.clone());
        assert_eq!(new.slots()[owner].memo.lock().answers[&(QUESTIONS[1].to_string(), 10)].0, 0);
        let fresh_key = ("a question no generation asked".to_string(), 10);
        new.slots()[owner].remember(fresh_key.clone(), marker.clone());
        assert!(new.slots()[owner].remembered(&fresh_key).is_none());
    }

    #[test]
    fn shards_differing_in_payload_background_or_names_are_never_adopted() {
        let bytes = tier_bytes();
        let old = warm_tier(&bytes);
        let slot = old.slots().iter().find(|s| !s.db_names.is_empty()).unwrap();
        let lazy = slot.lazy.as_ref().unwrap();
        let payload = lazy.bundle[lazy.offset..lazy.offset + lazy.len].to_vec();
        let len = payload.len();
        let rebuilt = |names: Vec<String>, payload: Vec<u8>, background: Vec<f32>| {
            ShardSlot::lazy(names, Arc::new(payload), 0, len, background)
        };

        let mut flipped = payload.clone();
        flipped[len - 1] ^= 1;
        let mut shifted = slot.background.clone();
        shifted[0] = f32::from_bits(shifted[0].to_bits() ^ 1);
        let mut renamed = slot.db_names.clone();
        renamed[0].push('x');
        let remembered = memo_len(slot);
        for (what, candidate) in [
            ("payload", rebuilt(slot.db_names.clone(), flipped, slot.background.clone())),
            ("background", rebuilt(slot.db_names.clone(), payload.clone(), shifted)),
            ("names", rebuilt(renamed, payload.clone(), slot.background.clone())),
        ] {
            assert!(!candidate.adopt(slot), "a slot with other {what} was adopted");
            assert!(!candidate.is_loaded(), "{what}: the unadopted slot stays lazy");
            assert_eq!(memo_len(&candidate), 0, "{what}");
            assert_eq!(memo_len(slot), remembered, "{what}: the old memo is left alone");
        }
        // A slot built in memory (fit, extend) has no payload bytes to
        // compare, even around the very same router.
        let decoded = slot.router.get().unwrap().clone();
        let eager = ShardSlot::eager(slot.db_names.clone(), decoded, slot.background.clone());
        let same = || rebuilt(slot.db_names.clone(), payload.clone(), slot.background.clone());
        assert!(!same().adopt(&eager));
        // The control: the very same bytes are adopted.
        let adopted = same();
        assert!(adopted.adopt(slot));
        assert!(adopted.is_loaded());
    }

    #[test]
    fn an_undecoded_or_differently_sharded_tier_hands_over_nothing() {
        let bytes = tier_bytes();
        let cold = load_sharded_router_bytes(bytes.clone()).unwrap();
        let new = load_sharded_router_bytes(bytes.clone()).unwrap();
        new.inherit(&cold);
        assert_eq!(new.loaded_shards(), 0, "nothing decoded, nothing to adopt");

        let old = warm_tier(&bytes);
        let mut slots: Vec<Arc<ShardSlot>> = old.slots().to_vec();
        slots.pop();
        let three = ShardedRouter::from_parts(slots, old.config().clone(), Vec::new());
        let new = load_sharded_router_bytes(bytes).unwrap();
        new.inherit(&three);
        assert_eq!(new.loaded_shards(), 0, "a tier of another shard count is not the same tier");
    }

    #[test]
    fn the_memo_evicts_first_in_first_out_within_its_byte_bound() {
        let answer = Arc::new(RoutingResult {
            tables: vec![("world".into(), "city".into(), 1.0)],
            databases: vec![("world".into(), 1.0)],
        });
        let key = |i: usize| (format!("question {i}"), 10);
        let cost = memo_cost(&key(0), &answer);
        let mut memo = ShardMemo::default();
        let fits = MEMO_BYTES / cost;
        for i in 0..fits {
            memo.insert(key(i), Arc::clone(&answer));
        }
        // Re-inserting a remembered key neither duplicates nor refreshes it.
        memo.insert(key(0), Arc::clone(&answer));
        assert_eq!((memo.order.len(), memo.bytes), (fits, fits * cost));
        memo.insert(key(fits), Arc::clone(&answer));
        assert_eq!(memo.order.len(), fits, "one answer in, the oldest out");
        assert!(!memo.answers.contains_key(&key(0)), "the oldest answer goes first");
        assert!(memo.answers.contains_key(&key(1)) && memo.answers.contains_key(&key(fits)));

        // Nothing is readable until the memo is carried to a new generation.
        assert!(memo.get(&key(1)).is_none());
        memo.generation += 1;
        assert!(memo.get(&key(1)).is_some());
        assert!(memo.get(&(key(1).0, 11)).is_none(), "top_tables is part of the key");
    }

    #[test]
    fn long_questions_cannot_push_the_memo_past_its_byte_bound() {
        let answer = Arc::new(RoutingResult {
            tables: vec![("world".into(), "city".into(), 1.0)],
            databases: vec![("world".into(), 1.0)],
        });
        let mut memo = ShardMemo::default();
        memo.insert(("short".into(), 10), Arc::clone(&answer));
        // A question as long as a request body may be is never kept.
        memo.insert(("x".repeat(1 << 20), 10), Arc::clone(&answer));
        assert_eq!(memo.order.len(), 1);
        // The longest kept questions still cannot hold more than the bound.
        let width = (MEMO_BYTES / 64 - memo_cost(&(String::new(), 10), &answer)) / 2;
        for i in 0..200 {
            let mut question = String::with_capacity(width);
            question.extend(std::iter::repeat_n('x', width - 3));
            question.push_str(&format!("{i:03}"));
            let key = (question, 10);
            assert_eq!(memo_cost(&key, &answer), MEMO_BYTES / 64);
            memo.insert(key.clone(), Arc::clone(&answer));
            assert!(memo.answers.contains_key(&key), "a question of the largest kept cost is kept");
            let held: usize = memo.answers.iter().map(|(k, (_, a))| memo_cost(k, a)).sum::<usize>();
            assert_eq!(held, memo.bytes);
            assert!(memo.bytes <= MEMO_BYTES, "{} bytes held after {i} inserts", memo.bytes);
        }
        assert!((2..200).contains(&memo.order.len()), "long questions evict older ones");
    }

    #[test]
    fn shard_assignment_is_stable_and_in_range() {
        for n in [1, 2, 4, 8, 64] {
            for name in ["concert_singer", "world", "library", "cinema", ""] {
                let s = shard_of(name, n);
                assert!(s < n);
                assert_eq!(s, shard_of(name, n), "must be deterministic");
            }
        }
        for name in ["a", "b", "c"] {
            assert_eq!(shard_of(name, 1), 0);
        }
    }

    #[test]
    fn merge_orders_by_score_then_name() {
        let a = RoutingResult {
            tables: vec![("db_b".into(), "t".into(), 1.0), ("db_b".into(), "u".into(), 0.5)],
            databases: vec![("db_b".into(), 1.0)],
        };
        let b = RoutingResult {
            tables: vec![("db_a".into(), "t".into(), 1.0)],
            databases: vec![("db_a".into(), 1.0)],
        };
        let m = merge_routing([a, b], 10);
        // equal scores: name ascending breaks the tie
        assert_eq!(m.tables[0].0, "db_a");
        assert_eq!(m.tables[1].0, "db_b");
        assert_eq!(m.database_names(), vec!["db_a", "db_b"]);
    }

    #[test]
    fn merge_truncates_tables_but_keeps_all_databases() {
        let part = RoutingResult {
            tables: vec![
                ("d".into(), "a".into(), 3.0),
                ("d".into(), "b".into(), 2.0),
                ("d".into(), "c".into(), 1.0),
            ],
            databases: vec![("d".into(), 3.0)],
        };
        let other = RoutingResult {
            tables: vec![("e".into(), "x".into(), 2.5)],
            databases: vec![("e".into(), 2.5)],
        };
        let m = merge_routing([part, other], 2);
        assert_eq!(m.tables.len(), 2);
        assert_eq!(m.tables[0].2, 3.0);
        assert_eq!(m.tables[1].2, 2.5);
        assert_eq!(m.databases.len(), 2);
    }

    #[test]
    fn nan_scores_rank_last_after_a_merge() {
        let nan = RoutingResult {
            tables: vec![("a_nan".into(), "t".into(), f32::NAN)],
            databases: vec![("a_nan".into(), f32::NAN)],
        };
        let finite = RoutingResult {
            tables: vec![("b".into(), "t".into(), -5.0), ("b".into(), "u".into(), -7.0)],
            databases: vec![("b".into(), -5.0)],
        };
        let m = merge_routing([nan, finite], 10);
        assert_eq!(m.database_names(), vec!["b", "a_nan"]);
        let tables: Vec<&str> = m.tables.iter().map(|t| t.0.as_str()).collect();
        assert_eq!(tables, ["b", "b", "a_nan"]);
    }
}
