//! Router training (paper §3.4–3.5).
//!
//! Training data comes from the reverse generation paradigm: valid schemata
//! are sampled by random walks over the schema graph, the schema questioner
//! generates a pseudo-question for each, and the router learns to map the
//! question to the DFS-serialized schema with teacher forcing. The softmax
//! at each step runs over a *candidate set* — the symbols admissible under
//! constrained decoding plus sampled negatives — a sampled softmax that
//! matches the constrained inference distribution.
//!
//! # Data parallelism
//!
//! Both heavy phases here run on the [`dbcopilot_runtime`] primitives and
//! are bit-for-bit reproducible at any `DBC_THREADS` value:
//!
//! * [`synthesize_training_data`] generates pseudo-questions in parallel,
//!   one derived RNG per example;
//! * [`train_router`] shards every minibatch across workers — each example
//!   gets a private tape, a private RNG derived from `(seed, epoch,
//!   example index)`, and its own backward pass; shard gradients are merged
//!   in fixed example order, clipped and applied by one `AdamW` step whose
//!   jobs over fixed parameter ranges also run on the pool
//!   ([`AdamW::step_shards`]), so the updated weights never depend on the
//!   thread count.

use rand::rngs::SmallRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

use dbcopilot_graph::{
    basic_serialize, dfs_serialize, IterOrder, QuerySchema, SchemaGraph, WalkConfig,
};
use dbcopilot_nn::{AdamW, GradShard, Jobs, Tape};
use dbcopilot_runtime::{lock_rank, OrderedMutex};
use dbcopilot_synth::{CorpusMeta, Questioner};

use crate::decode::{Constrainer, ConstraintTables};
use crate::model::RouterModel;
use crate::vocab::{PieceVocab, Sym, BOS, EOS, SEP};

/// How a schema is linearized for the decoder (Table 7 ablation "BS").
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SerializationMode {
    /// Relation-aware DFS order (Algorithm 2).
    Dfs,
    /// Unordered basic serialization.
    Basic,
}

/// A (question, schema) training example.
#[derive(Debug, Clone)]
pub struct TrainExample {
    pub question: String,
    pub schema: QuerySchema,
}

/// Synthesize `n` training examples: random-walk schemata + pseudo-questions
/// (paper Figure 2). Coverage of every database and table is guaranteed
/// first, as in the paper ("covering all (100%) databases and tables").
pub fn synthesize_training_data(
    graph: &SchemaGraph,
    meta: &CorpusMeta,
    questioner: &Questioner,
    n: usize,
    seed: u64,
) -> Vec<TrainExample> {
    let mut rng = SmallRng::seed_from_u64(seed);
    let walk_cfg = WalkConfig::default();
    let schemata = dbcopilot_graph::sample_covering(graph, &walk_cfg, n, &mut rng);
    // Question generation is independent per schema: run it data-parallel
    // with one RNG per example derived from (seed, index), so the corpus is
    // identical at any thread count.
    dbcopilot_runtime::pooled_map(&schemata, |i, schema| {
        let mut schema = schema.clone();
        let mut rng = dbcopilot_runtime::derive_rng(seed, i as u64);
        // Junction-first role order, matching the convention of the
        // extracted training pairs (questions mention endpoints, the
        // junction table is implied).
        if let Some(dbm) = meta.per_db.get(&schema.database) {
            schema
                .tables
                .sort_by_key(|t| !dbm.tables.get(t).map(|tm| tm.is_junction).unwrap_or(false));
        }
        let (entities, attrs) = dbcopilot_synth::schema_tokens(meta, &schema);
        let question = questioner.generate(&entities, &attrs, &mut rng);
        TrainExample { question, schema }
    })
}

/// Convert original corpus instances into training examples (the "OD"/"MD"
/// ablations).
pub fn examples_from_instances(instances: &[dbcopilot_synth::Instance]) -> Vec<TrainExample> {
    instances
        .iter()
        .map(|i| TrainExample { question: i.question.clone(), schema: i.schema.clone() })
        .collect()
}

/// Per-epoch training statistics.
#[derive(Debug, Clone)]
pub struct TrainStats {
    pub epoch_losses: Vec<f32>,
    pub examples: usize,
}

/// Serialize a schema into decoder target symbols.
fn target_symbols(
    graph: &SchemaGraph,
    vocab: &PieceVocab,
    schema: &QuerySchema,
    mode: SerializationMode,
    rng: &mut SmallRng,
) -> Option<Vec<Sym>> {
    let nodes = match mode {
        SerializationMode::Dfs => dfs_serialize(graph, schema, IterOrder::Random(rng))?,
        SerializationMode::Basic => basic_serialize(graph, schema, rng)?,
    };
    let mut syms = Vec::new();
    for (i, node) in nodes.iter().enumerate() {
        if i > 0 {
            syms.push(SEP);
        }
        syms.extend(vocab.encode_name(graph.name(*node))?);
    }
    syms.push(EOS);
    Some(syms)
}

/// Forward + backward for one training example on a private tape: the unit
/// of work of the data-parallel minibatch. Returns the example's mean
/// step loss and its gradients (full scale; the caller folds in the
/// `1/batch` factor when merging).
///
/// All randomness (target serialization order, sampled negatives) comes
/// from a private RNG derived from `(seed, stream)`, so the result depends
/// only on the example — never on which worker ran it.
#[allow(clippy::too_many_arguments)]
fn example_shard(
    model: &RouterModel,
    graph: &SchemaGraph,
    vocab: &PieceVocab,
    constrainer: &Constrainer<'_>,
    ex: &TrainExample,
    mode: SerializationMode,
    negatives: usize,
    seed: u64,
    stream: u64,
) -> Option<(f32, GradShard)> {
    let mut rng = dbcopilot_runtime::derive_rng(seed, stream);
    let vocab_len = vocab.len() as Sym;
    let targets = target_symbols(graph, vocab, &ex.schema, mode, &mut rng)?;
    let mut tape = Tape::new();
    let q = model.encode(&mut tape, &ex.question);
    let mut h = q;
    let mut state = constrainer.initial();
    let mut prev = BOS;
    let mut ex_losses = Vec::with_capacity(targets.len());
    for &gold in &targets {
        h = model.step(&mut tape, prev, q, h);
        let candidates = candidate_set(constrainer, &state, gold, vocab_len, negatives, &mut rng);
        let gold_idx = candidates.iter().position(|&c| c == gold).expect("gold in candidates");
        ex_losses.push(model.step_loss(&mut tape, h, &candidates, gold_idx));
        // advance the constraint state along the gold path; a
        // basic-serialized target can violate constraints, in
        // which case negatives fall back to random sampling
        state = constrainer.advance(&state, gold).unwrap_or(state);
        prev = gold;
    }
    if ex_losses.is_empty() {
        return None;
    }
    let total = tape.sum_scalars(&ex_losses);
    let mean = tape.scale(total, 1.0 / ex_losses.len() as f32);
    let loss = tape.value(mean).get(0, 0);
    tape.backward(mean);
    Some((loss, tape.take_grads()))
}

/// Run each optimizer-epilogue job once on the worker pool, one job per
/// claim. A job is a `FnOnce`, so whichever thread claims it takes it out.
fn run_on_pool(jobs: Jobs<'_>) {
    let jobs: Vec<_> =
        jobs.into_iter().map(|job| OrderedMutex::new("job", lock_rank::JOB, Some(job))).collect();
    dbcopilot_runtime::pooled_map_chunks(&jobs, 1, |_, claimed| {
        for job in claimed {
            let taken = job.lock().take();
            taken.into_iter().for_each(|run| run());
        }
    });
}

/// Train the router with teacher forcing.
///
/// Data-parallel and deterministic: every minibatch is sharded one example
/// per worker, shard gradients merge in fixed example
/// order, and a single `AdamW` step applies the batch-mean gradient — so
/// epoch losses and final weights are bit-identical at any `DBC_THREADS`
/// value (covered by the crate's determinism test suite). No examples, no
/// training: the model comes back as it went in.
pub fn train_router(
    model: &mut RouterModel,
    graph: &SchemaGraph,
    vocab: &PieceVocab,
    data: &[TrainExample],
    mode: SerializationMode,
) -> TrainStats {
    train_with_tables(model, graph, vocab, &ConstraintTables::build(graph, vocab), data, mode)
}

/// [`train_router`] over decoding `tables` the caller already built from
/// `graph` × `vocab` (a router builds them once and keeps them).
pub(crate) fn train_with_tables(
    model: &mut RouterModel,
    graph: &SchemaGraph,
    vocab: &PieceVocab,
    tables: &ConstraintTables,
    data: &[TrainExample],
    mode: SerializationMode,
) -> TrainStats {
    if data.is_empty() {
        return TrainStats { epoch_losses: Vec::new(), examples: 0 };
    }
    let cfg = model.cfg.clone();
    let constrainer = Constrainer::new(graph, tables, cfg.max_tables.max(8));
    // The shuffle RNG runs serially between parallel sections; per-example
    // randomness is derived per (seed, epoch, index) inside the workers.
    let mut shuffle_rng = SmallRng::seed_from_u64(cfg.seed.wrapping_add(101));
    let mut opt = AdamW::new(cfg.lr);
    let mut order: Vec<usize> = (0..data.len()).collect();
    let mut epoch_losses = Vec::with_capacity(cfg.epochs);

    for epoch in 0..cfg.epochs {
        order.shuffle(&mut shuffle_rng);
        let mut epoch_loss = 0.0f32;
        let mut counted = 0usize;
        for chunk in order.chunks(cfg.batch) {
            let frozen: &RouterModel = model;
            let shards = dbcopilot_runtime::pooled_map(chunk, |_, &i| {
                let stream = epoch as u64 * data.len() as u64 + i as u64;
                example_shard(
                    frozen,
                    graph,
                    vocab,
                    &constrainer,
                    &data[i],
                    mode,
                    cfg.negatives,
                    cfg.seed,
                    stream,
                )
            });
            let live: Vec<(f32, GradShard)> = shards.into_iter().flatten().collect();
            if live.is_empty() {
                continue;
            }
            let n = live.len();
            counted += n;
            let inv = 1.0 / n as f32;
            let mut grads = Vec::with_capacity(n);
            for (loss, shard) in live {
                epoch_loss += loss;
                grads.push(shard);
            }
            opt.step_shards(&mut model.store, &grads, inv, 5.0, &run_on_pool);
        }
        epoch_losses.push(epoch_loss / counted.max(1) as f32);
    }
    TrainStats { epoch_losses, examples: data.len() }
}

/// The sampled-softmax candidate set for one step: constrained-admissible
/// symbols plus random negatives, gold guaranteed.
fn candidate_set(
    constrainer: &Constrainer<'_>,
    state: &crate::decode::DecodeState,
    gold: Sym,
    vocab_len: Sym,
    negatives: usize,
    rng: &mut SmallRng,
) -> Vec<Sym> {
    let mut cands = constrainer.allowed(state);
    const MAX_ALLOWED: usize = 96;
    if cands.len() > MAX_ALLOWED {
        cands.shuffle(rng);
        cands.truncate(MAX_ALLOWED);
    }
    if !cands.contains(&gold) {
        cands.push(gold);
    }
    for _ in 0..negatives {
        let s = rng.gen_range(1..vocab_len);
        if !cands.contains(&s) {
            cands.push(s);
        }
    }
    cands
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::RouterConfig;
    use dbcopilot_sqlengine::{Collection, DataType, DatabaseSchema, TableSchema};

    fn collection() -> Collection {
        let mut c = Collection::new();
        for (db, tables) in [
            ("concert_singer", vec!["singer", "concert"]),
            ("world", vec!["country", "city"]),
            ("library", vec!["book", "author"]),
        ] {
            let mut d = DatabaseSchema::new(db);
            for t in tables {
                d.add_table(TableSchema::new(t).column("id", DataType::Int).primary(0));
            }
            c.add_database(d);
        }
        c
    }

    fn toy_examples() -> Vec<TrainExample> {
        let mut out = Vec::new();
        for _ in 0..12 {
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
        }
        out
    }

    #[test]
    fn target_symbols_end_with_eos() {
        let coll = collection();
        let g = SchemaGraph::build(&coll);
        let v = PieceVocab::build(&g);
        let mut rng = SmallRng::seed_from_u64(1);
        let syms = target_symbols(
            &g,
            &v,
            &QuerySchema::new("world", vec!["city".into()]),
            SerializationMode::Dfs,
            &mut rng,
        )
        .unwrap();
        assert_eq!(*syms.last().unwrap(), EOS);
        assert!(syms.contains(&SEP));
    }

    #[test]
    fn training_reduces_loss() {
        let coll = collection();
        let g = SchemaGraph::build(&coll);
        let v = PieceVocab::build(&g);
        let mut model = RouterModel::new(RouterConfig::tiny(), v.len());
        let stats = train_router(&mut model, &g, &v, &toy_examples(), SerializationMode::Dfs);
        let first = stats.epoch_losses[0];
        let last = *stats.epoch_losses.last().unwrap();
        assert!(
            last < first * 0.6,
            "training should reduce loss: {first} → {last} ({:?})",
            stats.epoch_losses
        );
    }

    #[test]
    fn trained_router_routes_toy_questions() {
        use crate::decode::{beam_search, DecodeOptions};
        let coll = collection();
        let g = SchemaGraph::build(&coll);
        let v = PieceVocab::build(&g);
        let mut cfg = RouterConfig::tiny();
        cfg.epochs = 25;
        let mut model = RouterModel::new(cfg, v.len());
        train_router(&mut model, &g, &v, &toy_examples(), SerializationMode::Dfs);
        let t = ConstraintTables::build(&g, &v);
        let c = Constrainer::new(&g, &t, 3);
        let opts = DecodeOptions {
            beams: 4,
            groups: 4,
            diversity_penalty: 1.0,
            constrained: true,
            diverse: true,
            max_steps: 24,
        };
        let out = beam_search(&model, &c, v.len(), "how many vocalists are there", &opts);
        assert!(!out.is_empty());
        assert_eq!(out[0].schema.database, "concert_singer", "top-1: {:?}", out[0].schema);
        assert!(out[0].schema.tables.contains(&"singer".to_string()));
    }

    #[test]
    fn candidate_set_always_contains_gold() {
        let coll = collection();
        let g = SchemaGraph::build(&coll);
        let v = PieceVocab::build(&g);
        let t = ConstraintTables::build(&g, &v);
        let c = Constrainer::new(&g, &t, 4);
        let mut rng = SmallRng::seed_from_u64(5);
        let state = c.initial();
        for gold in [EOS, SEP, 5, 7] {
            let cands = candidate_set(&c, &state, gold, v.len() as Sym, 8, &mut rng);
            assert!(cands.contains(&gold));
        }
    }

    #[test]
    fn basic_serialization_trains_too() {
        let coll = collection();
        let g = SchemaGraph::build(&coll);
        let v = PieceVocab::build(&g);
        let mut model = RouterModel::new(RouterConfig::tiny(), v.len());
        let stats = train_router(&mut model, &g, &v, &toy_examples(), SerializationMode::Basic);
        assert_eq!(stats.epoch_losses.len(), model.cfg.epochs);
    }
}
