//! Quantized router inference: the frozen i8 twin of [`RouterModel`].
//!
//! Training and the reference scoring path stay f32; [`QuantRouterModel`]
//! freezes the trained weights into `dbcopilot-nn`'s per-row i8 store and
//! its `QuantScorer` drives the same beam search through i8 dot products with
//! i32 accumulation. Activations (hidden state, question vector, r⊙h) are
//! re-quantized per step into reusable scratch buffers, so a decode step
//! allocates only its output row. Nonlinearities, bias adds and the softmax
//! stay f32 — they are O(hidden) against the O(hidden²) dot products.

use dbcopilot_nn::math;
use dbcopilot_nn::quant::{QuantizedStore, QuantizedVec};
use dbcopilot_nn::{ParamId, Tensor};

use crate::decode::StepScorer;
use crate::model::RouterModel;
use crate::vocab::Sym;

/// Whether a parameter is applied as an `x · W` matvec and therefore stored
/// transposed in the quantized store (one scale per *output* unit, each
/// output reducing over a contiguous row). Embedding tables are gathered
/// row-wise and keep their layout; biases are additive.
fn stored_transposed(name: &str) -> bool {
    matches!(name, "q_proj.w" | "gru.wz" | "gru.uz" | "gru.wr" | "gru.ur" | "gru.wh" | "gru.uh")
}

/// The frozen i8 parameters of a router, plus the exact f32 bias vectors.
///
/// Biases are copied from the f32 store: they are added once per output
/// unit, so exactness there is free.
pub struct QuantRouterModel {
    store: QuantizedStore,
    q_proj_b: Vec<f32>,
    bz: Vec<f32>,
    br: Vec<f32>,
    bh: Vec<f32>,
}

impl QuantRouterModel {
    /// Freeze the model's current f32 weights.
    pub fn freeze(model: &RouterModel) -> Self {
        let bias = |id: ParamId| model.store.value(id).row(0).to_vec();
        QuantRouterModel {
            store: QuantizedStore::freeze(&model.store, stored_transposed),
            q_proj_b: bias(model.q_proj.b),
            bz: bias(model.gru.bz),
            br: bias(model.gru.br),
            bh: bias(model.gru.bh),
        }
    }

    /// The underlying quantized parameter store (accounting, kernel probes).
    pub fn store(&self) -> &QuantizedStore {
        &self.store
    }
}

/// The i8 [`StepScorer`]: one per decode call, holding per-question state
/// (the question vector in both f32 and quantized form) and reusable
/// scratch. Every decode step re-quantizes its activations into these
/// buffers and runs whole-matrix [`QuantizedMatrix::matvec_into`] products,
/// so the hot loop is six contiguous i8 matvecs plus the O(hidden)
/// nonlinearities — no per-row slicing, no allocation after warm-up.
pub(crate) struct QuantScorer<'m> {
    model: &'m RouterModel,
    qm: &'m QuantRouterModel,
    /// The question vector, kept in f32: it is re-concatenated into the
    /// step input every step, and quantizing the concatenation jointly
    /// beats stitching per-segment scales row by row.
    q_f32: Vec<f32>,
    /// Step input `x = concat(dec_emb[prev], q)`, f32 then quantized.
    x: Vec<f32>,
    xq: QuantizedVec,
    /// Quantized hidden state (also reused for the encoder bag).
    hq: QuantizedVec,
    /// Quantized r⊙h.
    rhq: QuantizedVec,
    /// Gate pre-activations from the `x`-side and `h`-side matvecs.
    gx: Vec<f32>,
    gh: Vec<f32>,
    z: Vec<f32>,
    r: Vec<f32>,
    rh: Vec<f32>,
    next: Vec<f32>,
    bag: Vec<f32>,
    logits: Vec<f32>,
}

impl<'m> QuantScorer<'m> {
    pub(crate) fn new(model: &'m RouterModel, qm: &'m QuantRouterModel) -> Self {
        QuantScorer {
            model,
            qm,
            q_f32: Vec::new(),
            x: Vec::new(),
            xq: QuantizedVec::new(),
            hq: QuantizedVec::new(),
            rhq: QuantizedVec::new(),
            gx: Vec::new(),
            gh: Vec::new(),
            z: Vec::new(),
            r: Vec::new(),
            rh: Vec::new(),
            next: Vec::new(),
            bag: Vec::new(),
            logits: Vec::new(),
        }
    }
}

impl StepScorer for QuantScorer<'_> {
    fn encode(&mut self, question: &str) -> Tensor {
        let Self { model, qm, q_f32, hq, gx, bag, .. } = self;
        let cfg = &model.cfg;
        let feats = model.features(question);
        let emb = &qm.store.get(model.q_emb.weight).matrix;
        bag.clear();
        bag.resize(cfg.dim, 0.0);
        if !feats.is_empty() {
            for &f in &feats {
                let s = emb.scale(f);
                for (acc, &q) in bag.iter_mut().zip(emb.row(f)) {
                    *acc += s * q as f32;
                }
            }
            let inv = 1.0 / feats.len() as f32;
            for v in bag.iter_mut() {
                *v *= inv;
            }
        }
        hq.quantize_into(bag);
        let w = &qm.store.get(model.q_proj.w).matrix; // [hidden, dim], transposed
        w.matvec_into(hq, gx);
        q_f32.clear();
        q_f32.extend(gx.iter().zip(&qm.q_proj_b).map(|(v, b)| v + b));
        math::tanh_in_place(q_f32);
        Tensor::from_row(q_f32.clone())
    }

    fn step(&mut self, prev: Sym, h: &Tensor) -> Tensor {
        let Self { model, qm, q_f32, x, xq, hq, rhq, gx, gh, z, r, rh, next, .. } = self;
        let hidden = model.cfg.hidden;
        let store = &qm.store;
        let dec = &store.get(model.dec_emb.weight).matrix; // [vocab, dim]
        let e_scale = dec.scale(prev as usize);
        let hs = h.row(0);
        hq.quantize_into(hs);

        // Materialize x = concat(dec_emb[prev], q) in f32 and quantize it
        // once: every gate then runs one contiguous matvec over the whole
        // [hidden, dim + hidden] weight instead of per-row segment dots.
        x.clear();
        x.extend(dec.row(prev as usize).iter().map(|&q| e_scale * q as f32));
        x.extend_from_slice(q_f32);
        xq.quantize_into(x);

        let wz = &store.get(model.gru.wz).matrix; // [hidden, dim + hidden]
        let uz = &store.get(model.gru.uz).matrix; // [hidden, hidden]
        let wr = &store.get(model.gru.wr).matrix;
        let ur = &store.get(model.gru.ur).matrix;
        let wh = &store.get(model.gru.wh).matrix;
        let uh = &store.get(model.gru.uh).matrix;

        wz.matvec_into(xq, gx);
        uz.matvec_into(hq, gh);
        z.clear();
        z.extend((0..hidden).map(|j| gx[j] + gh[j] + qm.bz[j]));
        math::sigmoid_in_place(z);
        wr.matvec_into(xq, gx);
        ur.matvec_into(hq, gh);
        r.clear();
        r.extend((0..hidden).map(|j| gx[j] + gh[j] + qm.br[j]));
        math::sigmoid_in_place(r);

        rh.clear();
        rh.extend((0..hidden).map(|j| r[j] * hs[j]));
        rhq.quantize_into(rh);

        wh.matvec_into(xq, gx);
        uh.matvec_into(rhq, gh);
        gx.iter_mut().zip(gh.iter()).zip(&qm.bh).for_each(|((a, c), b)| *a = *a + c + b);
        math::tanh_in_place(gx);
        next.clear();
        next.extend((0..hidden).map(|j| (1.0 - z[j]) * hs[j] + z[j] * gx[j]));
        Tensor::from_row(next.clone())
    }

    fn logprobs(&mut self, h: &Tensor, candidates: &[Sym]) -> Vec<f32> {
        let Self { model, qm, hq, logits, .. } = self;
        let out = &qm.store.get(model.out_emb.weight).matrix; // [vocab, hidden]
        hq.quantize_into(h.row(0));
        logits.clear();
        for &c in candidates {
            logits.push(out.dot_row(c as usize, hq));
        }
        dbcopilot_nn::tensor::log_softmax(logits)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::decode::StepScorer;
    use crate::model::RouterConfig;

    fn model() -> RouterModel {
        RouterModel::new(RouterConfig::tiny(), 40)
    }

    #[test]
    fn freeze_covers_every_param_with_expected_orientation() {
        let m = model();
        let qm = QuantRouterModel::freeze(&m);
        assert_eq!(qm.store().len(), m.store.len());
        for ((name, value), entry) in m.store.iter_values().zip(qm.store().entries()) {
            assert_eq!(entry.name, name);
            assert_eq!(entry.transposed, stored_transposed(name), "{name}");
            let (rows, cols) = value.shape();
            let want = if entry.transposed { (cols, rows) } else { (rows, cols) };
            assert_eq!((entry.matrix.rows(), entry.matrix.cols()), want, "{name}");
        }
    }

    #[test]
    fn quant_encode_tracks_f32_encode() {
        let m = model();
        let qm = QuantRouterModel::freeze(&m);
        let mut scorer = QuantScorer::new(&m, &qm);
        let exact = m.encode_infer("how many vocalists are there");
        let quant = scorer.encode("how many vocalists are there");
        assert_eq!(quant.shape(), exact.shape());
        for (a, b) in exact.as_slice().iter().zip(quant.as_slice()) {
            assert!((a - b).abs() < 0.05, "encode drifted: {a} vs {b}");
        }
    }

    #[test]
    fn quant_step_and_logprobs_track_f32() {
        let m = model();
        let qm = QuantRouterModel::freeze(&m);
        let mut scorer = QuantScorer::new(&m, &qm);
        let q_exact = m.encode_infer("list all cities");
        let q = scorer.encode("list all cities");
        let h_exact = m.step_infer(5, &q_exact, &q_exact);
        let h = scorer.step(5, &q);
        for (a, b) in h_exact.as_slice().iter().zip(h.as_slice()) {
            assert!((a - b).abs() < 0.1, "step drifted: {a} vs {b}");
        }
        let cands = [1u32, 7, 19, 33];
        let lp_exact = m.logprobs_infer(&h_exact, &cands);
        let lp = scorer.logprobs(&h, &cands);
        let sum: f32 = lp.iter().map(|v| v.exp()).sum();
        assert!((sum - 1.0).abs() < 1e-4, "logprobs must normalize, sum {sum}");
        for (a, b) in lp_exact.iter().zip(&lp) {
            assert!((a - b).abs() < 0.25, "logprob drifted: {a} vs {b}");
        }
    }
}
