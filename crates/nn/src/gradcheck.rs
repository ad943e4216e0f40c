//! Finite-difference gradient checking.
//!
//! Test code: validates that every backward implementation of this crate
//! matches the numerical derivative of the corresponding forward pass.

use crate::optim::{ParamId, ParamStore};
use crate::tensor::Tensor;

/// Compare the analytic gradient of `param` (accumulated in `store` by
/// running `loss_fn` once) against central finite differences, returning
/// the largest relative difference `|a−n| / max(|a|, |n|, 1e-3)`.
///
/// `loss_fn` must build a fresh tape, run backward, and call
/// `collect_grads` so gradients land in the store; it returns the scalar
/// loss. The store is left with zeroed gradients and the original values.
fn check_param(
    store: &mut ParamStore,
    param: ParamId,
    eps: f32,
    mut loss_fn: impl FnMut(&mut ParamStore) -> f32,
) -> f32 {
    store.zero_grads();
    let _ = loss_fn(store);
    let analytic = store
        .dense_grad(param)
        .unwrap_or_else(|| Tensor::zeros(store.value(param).rows(), store.value(param).cols()));
    store.zero_grads();

    let (rows, cols) = store.value(param).shape();
    let mut max_rel: f32 = 0.0;
    for r in 0..rows {
        for c in 0..cols {
            let orig = store.value(param).get(r, c);
            store.value_mut(param).set(r, c, orig + eps);
            let up = loss_fn(store);
            store.zero_grads();
            store.value_mut(param).set(r, c, orig - eps);
            let down = loss_fn(store);
            store.zero_grads();
            store.value_mut(param).set(r, c, orig);

            let numeric = (up - down) / (2.0 * eps);
            let a = analytic.get(r, c);
            let abs = (a - numeric).abs();
            let rel = abs / a.abs().max(numeric.abs()).max(1e-3);
            max_rel = max_rel.max(rel);
        }
    }
    max_rel
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::init::seeded_rng;
    use crate::layers::{Embedding, GruCell, Linear};
    use crate::tape::Tape;

    fn scalar_loss(tape: &mut Tape, out: crate::tape::ValId, dim: usize) -> crate::tape::ValId {
        let ones = tape.constant(Tensor::from_vec(dim, 1, vec![1.0; dim]));
        let s = tape.matmul(out, ones);

        tape.mul_elem(s, s)
    }

    #[test]
    fn linear_gradcheck() {
        let mut rng = seeded_rng(23);
        let mut store = ParamStore::new();
        let lin = Linear::new(&mut store, "l", 3, 2, &mut rng);
        let x = Tensor::from_row(vec![0.3, -0.7, 1.1]);
        let run = |store: &mut ParamStore| {
            let mut tape = Tape::new();
            let xv = tape.constant(x.clone());
            let y = lin.forward(&mut tape, store, xv);
            let loss = scalar_loss(&mut tape, y, 2);
            tape.backward(loss);
            let v = tape.value(loss).get(0, 0);
            tape.collect_grads(store);
            v
        };
        for pid in [lin.w, lin.b] {
            let rel = check_param(&mut store, pid, 1e-2, run);
            assert!(rel < 0.05, "linear rel err {}", rel);
        }
    }

    #[test]
    fn gru_gradcheck() {
        let mut rng = seeded_rng(29);
        let mut store = ParamStore::new();
        let gru = GruCell::new(&mut store, "g", 2, 3, &mut rng);
        let x = Tensor::from_row(vec![0.5, -0.25]);
        let h0 = Tensor::from_row(vec![0.1, 0.0, -0.1]);
        let run = |store: &mut ParamStore| {
            let mut tape = Tape::new();
            let xv = tape.constant(x.clone());
            let hv = tape.constant(h0.clone());
            let h1 = gru.forward(&mut tape, store, xv, hv);
            let h2 = gru.forward(&mut tape, store, xv, h1); // two steps: reuse params
            let loss = scalar_loss(&mut tape, h2, 3);
            tape.backward(loss);
            let v = tape.value(loss).get(0, 0);
            tape.collect_grads(store);
            v
        };
        for pid in [gru.wz, gru.uz, gru.bz, gru.wr, gru.ur, gru.br, gru.wh, gru.uh, gru.bh] {
            let rel = check_param(&mut store, pid, 1e-2, run);
            assert!(rel < 0.08, "gru rel err {} for {pid:?}", rel);
        }
    }

    #[test]
    fn embedding_and_cross_entropy_gradcheck() {
        let mut rng = seeded_rng(31);
        let mut store = ParamStore::new();
        let emb = Embedding::new(&mut store, "e", 5, 3, &mut rng);
        let proj = Linear::new(&mut store, "p", 3, 4, &mut rng);
        let run = |store: &mut ParamStore| {
            let mut tape = Tape::new();
            let bag = emb.forward_bag(&mut tape, store, &[1, 4, 1]);
            let logits = proj.forward(&mut tape, store, bag);
            let loss = tape.cross_entropy_logits(logits, 2);
            tape.backward(loss);
            let v = tape.value(loss).get(0, 0);
            tape.collect_grads(store);
            v
        };
        for pid in [emb.weight, proj.w, proj.b] {
            let rel = check_param(&mut store, pid, 1e-2, run);
            assert!(rel < 0.05, "emb rel err {} for {pid:?}", rel);
        }
    }

    #[test]
    fn sampled_softmax_gradcheck() {
        let mut rng = seeded_rng(37);
        let mut store = ParamStore::new();
        let out_emb = Embedding::new(&mut store, "o", 6, 3, &mut rng);
        let proj = Linear::new(&mut store, "p", 2, 3, &mut rng);
        let x = Tensor::from_row(vec![0.4, -0.9]);
        let run = |store: &mut ParamStore| {
            let mut tape = Tape::new();
            let xv = tape.constant(x.clone());
            let h = proj.forward(&mut tape, store, xv);
            let table = tape.param(store, out_emb.weight);
            let first = tape.sampled_softmax_loss(h, table, &[5, 1, 3], 1);
            let second = tape.sampled_softmax_loss(h, table, &[3, 0], 0); // row 3 twice
            let loss = tape.add(first, second);
            tape.backward(loss);
            let v = tape.value(loss).get(0, 0);
            tape.collect_grads(store);
            v
        };
        for pid in [out_emb.weight, proj.w, proj.b] {
            let rel = check_param(&mut store, pid, 1e-2, run);
            assert!(rel < 0.05, "sampled softmax rel err {} for {pid:?}", rel);
        }
    }
}
