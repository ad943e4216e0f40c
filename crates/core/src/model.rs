//! The schema router network: a small encoder–decoder (the paper's
//! T5-base DSI, scaled to this reproduction's from-scratch substrate).
//!
//! * Encoder: hashed bag-of-words question embedding, projected and squashed
//!   to the decoder's initial hidden state (and re-fed at every step).
//! * Decoder: a GRU over output word-piece embeddings; logits come from an
//!   output embedding table, evaluated only over candidate symbols (the
//!   constrained-decoding sets at inference; gold + sampled negatives during
//!   training — a sampled softmax).

use serde::{Deserialize, Serialize};

use dbcopilot_nn::{Embedding, GruCell, GruScratch, Linear, ParamStore, Tape, Tensor, ValId};
use dbcopilot_synth::Lexicon;

use crate::vocab::Sym;

/// Router hyper-parameters (model + training + decoding).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct RouterConfig {
    /// Word-piece embedding width.
    pub dim: usize,
    /// GRU hidden width.
    pub hidden: usize,
    /// Question feature-hashing buckets.
    pub buckets: usize,
    /// AdamW learning rate.
    pub lr: f32,
    pub epochs: usize,
    pub batch: usize,
    /// Random negatives per training step (sampled softmax).
    pub negatives: usize,
    /// Beam count at inference.
    pub beams: usize,
    /// Diverse-beam groups (must divide `beams`).
    pub beam_groups: usize,
    /// Diversity penalty λ (paper: 2.0).
    pub diversity_penalty: f32,
    /// Maximum tables decoded per schema.
    pub max_tables: usize,
    pub seed: u64,
}

impl Default for RouterConfig {
    fn default() -> Self {
        RouterConfig {
            dim: 48,
            hidden: 64,
            buckets: 1 << 13,
            lr: 4e-3,
            epochs: 6,
            batch: 16,
            negatives: 32,
            beams: 10,
            beam_groups: 10,
            diversity_penalty: 2.0,
            max_tables: 4,
            seed: 0xdbc0,
        }
    }
}

impl RouterConfig {
    /// A tiny configuration for unit tests.
    pub fn tiny() -> Self {
        RouterConfig {
            dim: 16,
            hidden: 24,
            buckets: 1 << 9,
            lr: 8e-3,
            epochs: 10,
            batch: 8,
            negatives: 12,
            beams: 4,
            beam_groups: 4,
            diversity_penalty: 1.0,
            max_tables: 3,
            seed: 7,
        }
    }
}

/// The router network parameters.
pub struct RouterModel {
    pub store: ParamStore,
    pub q_emb: Embedding,
    pub q_proj: Linear,
    pub dec_emb: Embedding,
    pub gru: GruCell,
    pub out_emb: Embedding,
    pub cfg: RouterConfig,
    /// Frozen i8 weights for the `RoutePrecision::I8` hot path; `None`
    /// until [`RouterModel::freeze_quant`] freezes them from `store`. Never
    /// persisted: a loaded router re-freezes on `set_precision(I8)`.
    pub quant: Option<crate::qmodel::QuantRouterModel>,
    /// World knowledge of the pretrained backbone (T5 in the paper): used
    /// only to canonicalize question tokens into extra input features.
    lex: Lexicon,
}

impl RouterModel {
    /// Name and shape of every parameter [`RouterModel::new`] registers, in
    /// registration order, without allocating one of them — what a loader
    /// holds an untrusted config against before it lets `new` run. `None`
    /// when `dim + hidden` overflows.
    pub fn param_shapes(
        cfg: &RouterConfig,
        vocab_size: usize,
    ) -> Option<[(&'static str, (usize, usize)); 14]> {
        let (dim, hidden) = (cfg.dim, cfg.hidden);
        let gru_in = dim.checked_add(hidden)?;
        Some([
            ("q_emb.weight", (cfg.buckets, dim)),
            ("q_proj.w", (dim, hidden)),
            ("q_proj.b", (1, hidden)),
            ("dec_emb.weight", (vocab_size, dim)),
            ("gru.wz", (gru_in, hidden)),
            ("gru.uz", (hidden, hidden)),
            ("gru.wr", (gru_in, hidden)),
            ("gru.ur", (hidden, hidden)),
            ("gru.wh", (gru_in, hidden)),
            ("gru.uh", (hidden, hidden)),
            ("gru.bz", (1, hidden)),
            ("gru.br", (1, hidden)),
            ("gru.bh", (1, hidden)),
            ("out_emb.weight", (vocab_size, hidden)),
        ])
    }

    pub fn new(cfg: RouterConfig, vocab_size: usize) -> Self {
        let mut store = ParamStore::new();
        let mut rng = dbcopilot_nn::init::seeded_rng(cfg.seed);
        let q_emb = Embedding::new(&mut store, "q_emb", cfg.buckets, cfg.dim, &mut rng);
        let q_proj = Linear::new(&mut store, "q_proj", cfg.dim, cfg.hidden, &mut rng);
        let dec_emb = Embedding::new(&mut store, "dec_emb", vocab_size, cfg.dim, &mut rng);
        let gru = GruCell::new(&mut store, "gru", cfg.dim + cfg.hidden, cfg.hidden, &mut rng);
        let out_emb = Embedding::new(&mut store, "out_emb", vocab_size, cfg.hidden, &mut rng);
        RouterModel {
            store,
            q_emb,
            q_proj,
            dec_emb,
            gru,
            out_emb,
            cfg,
            quant: None,
            lex: Lexicon::new(),
        }
    }

    /// Freeze the current f32 weights into the i8 store the
    /// `RoutePrecision::I8` hot path scores against. Re-freezing replaces
    /// any previous quantized weights (e.g. after fine-tuning).
    pub fn freeze_quant(&mut self) {
        let frozen = crate::qmodel::QuantRouterModel::freeze(self);
        self.quant = Some(frozen);
    }

    /// Question features: hashed bag of words plus canonicalized-concept
    /// features. The latter model the synonym knowledge a pretrained
    /// backbone brings ("vocalist" and "singer" share an input feature),
    /// exactly as the baselines receive the same knowledge through
    /// paraphrase pre-training (SXFMR/DTR) or hallucination (CRUSH).
    pub fn features(&self, question: &str) -> Vec<usize> {
        let tokens = dbcopilot_retrieval::text::tokenize(question);
        let mut words: Vec<String> = tokens.clone();
        for n in 1..=3usize {
            for w in tokens.windows(n) {
                let phrase = w.join(" ");
                let canon = self.lex.canonical_of(&phrase).or_else(|| {
                    if n == 1 {
                        self.lex.canonical_of(&dbcopilot_synth::lexicon::singularize(&phrase))
                    } else {
                        None
                    }
                });
                if let Some(c) = canon {
                    words.push(format!("c:{c}"));
                }
            }
        }
        dbcopilot_retrieval::text::hash_tokens(&words, self.cfg.buckets)
    }

    // ----- inference (no tape) -----

    /// Encode a question to the initial hidden state `[1, hidden]`.
    pub fn encode_infer(&self, question: &str) -> Tensor {
        let bag = self.q_emb.infer_bag(&self.store, &self.features(question));
        Tensor::tanh(&self.q_proj.infer(&self.store, &bag))
    }

    /// One decoder step: previous symbol + question vector + hidden → new
    /// hidden.
    pub fn step_infer(&self, prev: Sym, q: &Tensor, h: &Tensor) -> Tensor {
        let mut next = Vec::with_capacity(self.cfg.hidden);
        let scratch = &mut GruScratch::default();
        self.step_into(prev, q.as_slice(), h.as_slice(), &mut Vec::new(), scratch, &mut next);
        Tensor::from_row(next)
    }

    /// [`Self::step_infer`] into reused buffers: `x` receives the step
    /// input `concat(dec_emb[prev], q)` and `out` the new hidden state.
    pub(crate) fn step_into(
        &self,
        prev: Sym,
        q: &[f32],
        h: &[f32],
        x: &mut Vec<f32>,
        scratch: &mut GruScratch,
        out: &mut Vec<f32>,
    ) {
        x.clear();
        x.extend_from_slice(self.store.value(self.dec_emb.weight).row(prev as usize));
        x.extend_from_slice(q);
        self.gru.infer_into(&self.store, x, h, scratch, out);
    }

    /// Log-probabilities over `candidates` given hidden state `h`
    /// (softmax over the candidate subset).
    pub fn logprobs_infer(&self, h: &Tensor, candidates: &[Sym]) -> Vec<f32> {
        let idx: Vec<usize> = candidates.iter().map(|&c| c as usize).collect();
        let sub = self.out_emb.infer(&self.store, &idx); // [k, hidden]
        let logits = h.matmul_nt(&sub); // [1, k]
        dbcopilot_nn::tensor::log_softmax(logits.row(0))
    }

    // ----- training (on tape) -----

    /// Encode on the tape.
    pub fn encode(&self, tape: &mut Tape, question: &str) -> ValId {
        let bag = self.q_emb.forward_bag(tape, &self.store, &self.features(question));
        let proj = self.q_proj.forward(tape, &self.store, bag);
        tape.tanh(proj)
    }

    /// One decoder step on the tape.
    pub fn step(&self, tape: &mut Tape, prev: Sym, q: ValId, h: ValId) -> ValId {
        let emb = self.dec_emb.forward(tape, &self.store, &[prev as usize]);
        let x = tape.concat_cols(emb, q);
        self.gru.forward(tape, &self.store, x, h)
    }

    /// Cross-entropy of the gold symbol within a candidate set, on the tape.
    /// `candidates[gold_idx]` must be the gold symbol.
    pub fn step_loss(
        &self,
        tape: &mut Tape,
        h: ValId,
        candidates: &[Sym],
        gold_idx: usize,
    ) -> ValId {
        let idx: Vec<usize> = candidates.iter().map(|&c| c as usize).collect();
        let w = tape.param(&self.store, self.out_emb.weight);
        tape.sampled_softmax_loss(h, w, &idx, gold_idx)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shapes_are_consistent() {
        let cfg = RouterConfig::tiny();
        let m = RouterModel::new(cfg.clone(), 50);
        let q = m.encode_infer("how many singers are there");
        assert_eq!(q.shape(), (1, cfg.hidden));
        let h = m.step_infer(0, &q, &q);
        assert_eq!(h.shape(), (1, cfg.hidden));
        let lp = m.logprobs_infer(&h, &[1, 2, 3]);
        assert_eq!(lp.len(), 3);
        let sum: f32 = lp.iter().map(|v| v.exp()).sum();
        assert!((sum - 1.0).abs() < 1e-4);
    }

    #[test]
    fn param_shapes_is_what_new_registers() {
        let cfg = RouterConfig::tiny();
        let m = RouterModel::new(cfg.clone(), 50);
        let registered: Vec<_> = m.store.iter_values().map(|(n, v)| (n, v.shape())).collect();
        assert_eq!(registered, RouterModel::param_shapes(&cfg, 50).expect("tiny sizes"));
        let wide = RouterConfig { dim: usize::MAX, ..cfg };
        assert!(RouterModel::param_shapes(&wide, 50).is_none(), "dim + hidden overflows");
    }

    #[test]
    fn tape_and_infer_paths_agree() {
        let m = RouterModel::new(RouterConfig::tiny(), 30);
        let mut tape = Tape::new();
        let q_t = m.encode(&mut tape, "list all cities");
        let q_i = m.encode_infer("list all cities");
        assert!(tape.value(q_t).approx_eq(&q_i, 1e-5));
        let h_t = m.step(&mut tape, 5, q_t, q_t);
        let h_i = m.step_infer(5, &q_i, &q_i);
        assert!(tape.value(h_t).approx_eq(&h_i, 1e-5));
    }

    #[test]
    fn step_loss_decreases_with_training_signal() {
        use dbcopilot_nn::AdamW;
        let m = RouterModel::new(RouterConfig::tiny(), 30);
        let mut model = m;
        let mut opt = AdamW::new(0.01);
        let candidates = [4u32, 9, 14];
        let mut first = None;
        let mut last = 0.0;
        for _ in 0..40 {
            let mut tape = Tape::new();
            let q = model.encode(&mut tape, "which vocalist is oldest");
            let h = model.step(&mut tape, crate::vocab::BOS, q, q);
            let loss = model.step_loss(&mut tape, h, &candidates, 1);
            let v = tape.value(loss).get(0, 0);
            first.get_or_insert(v);
            last = v;
            tape.backward(loss);
            tape.collect_grads(&mut model.store);
            opt.step(&mut model.store);
        }
        assert!(last < first.unwrap() * 0.5, "loss {first:?} → {last}");
    }
}
