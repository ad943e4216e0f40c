//! Reusable model layers.
//!
//! Each layer owns [`ParamId`]s into a shared [`ParamStore`] and exposes two
//! paths:
//! * `forward` — records onto a [`Tape`] for training;
//! * `infer` — plain tensor math with no tape overhead, used by beam search
//!   and the retrieval baselines at query time.

use rand::rngs::SmallRng;

use crate::init::xavier_uniform;
use crate::math;
use crate::optim::{ParamId, ParamStore};
use crate::tape::{Tape, ValId};
use crate::tensor::{matmul_into, Tensor};

/// Fully connected layer `y = x·W + b`.
#[derive(Debug, Clone)]
pub struct Linear {
    pub w: ParamId,
    pub b: ParamId,
    pub in_dim: usize,
    pub out_dim: usize,
}

impl Linear {
    pub fn new(
        store: &mut ParamStore,
        prefix: &str,
        in_dim: usize,
        out_dim: usize,
        rng: &mut SmallRng,
    ) -> Self {
        let w = store.add(format!("{prefix}.w"), xavier_uniform(in_dim, out_dim, rng));
        let b = store.add(format!("{prefix}.b"), Tensor::zeros(1, out_dim));
        Linear { w, b, in_dim, out_dim }
    }

    pub fn forward(&self, tape: &mut Tape, store: &ParamStore, x: ValId) -> ValId {
        let w = tape.param(store, self.w);
        let b = tape.param(store, self.b);
        let xw = tape.matmul(x, w);
        tape.add(xw, b)
    }

    pub fn infer(&self, store: &ParamStore, x: &Tensor) -> Tensor {
        x.matmul(store.value(self.w)).add(store.value(self.b))
    }
}

/// Embedding table `[vocab, dim]` with mean-pooled bag lookup.
#[derive(Debug, Clone)]
pub struct Embedding {
    pub weight: ParamId,
    pub vocab: usize,
    pub dim: usize,
}

impl Embedding {
    pub fn new(
        store: &mut ParamStore,
        prefix: &str,
        vocab: usize,
        dim: usize,
        rng: &mut SmallRng,
    ) -> Self {
        let weight = store.add(format!("{prefix}.weight"), xavier_uniform(vocab, dim, rng));
        Embedding { weight, vocab, dim }
    }

    /// Gather rows for `indices` → `[indices.len(), dim]`.
    pub fn forward(&self, tape: &mut Tape, store: &ParamStore, indices: &[usize]) -> ValId {
        let w = tape.param(store, self.weight);
        tape.lookup(w, indices)
    }

    /// Mean of the embeddings of `indices` → `[1, dim]` (a bag-of-words
    /// encoder). An empty bag yields the zero vector.
    pub fn forward_bag(&self, tape: &mut Tape, store: &ParamStore, indices: &[usize]) -> ValId {
        if indices.is_empty() {
            return tape.constant(Tensor::zeros(1, self.dim));
        }
        let rows = self.forward(tape, store, indices);
        tape.mean_rows(rows)
    }

    pub fn infer(&self, store: &ParamStore, indices: &[usize]) -> Tensor {
        store.value(self.weight).lookup_rows(indices)
    }

    pub fn infer_bag(&self, store: &ParamStore, indices: &[usize]) -> Tensor {
        if indices.is_empty() {
            return Tensor::zeros(1, self.dim);
        }
        self.infer(store, indices).mean_rows()
    }
}

/// Gated recurrent unit cell (Cho et al., 2014).
///
/// `z = σ(x·Wz + h·Uz + bz)`, `r = σ(x·Wr + h·Ur + br)`,
/// `h̃ = tanh(x·Wh + (r⊙h)·Uh + bh)`, `h' = (1−z)⊙h + z⊙h̃`.
#[derive(Debug, Clone)]
pub struct GruCell {
    pub wz: ParamId,
    pub uz: ParamId,
    pub bz: ParamId,
    pub wr: ParamId,
    pub ur: ParamId,
    pub br: ParamId,
    pub wh: ParamId,
    pub uh: ParamId,
    pub bh: ParamId,
    pub in_dim: usize,
    pub hidden: usize,
}

impl GruCell {
    pub fn new(
        store: &mut ParamStore,
        prefix: &str,
        in_dim: usize,
        hidden: usize,
        rng: &mut SmallRng,
    ) -> Self {
        let mut mat = |suffix: &str, r: usize, c: usize, rng: &mut SmallRng| {
            store.add(format!("{prefix}.{suffix}"), xavier_uniform(r, c, rng))
        };
        let wz = mat("wz", in_dim, hidden, rng);
        let uz = mat("uz", hidden, hidden, rng);
        let wr = mat("wr", in_dim, hidden, rng);
        let ur = mat("ur", hidden, hidden, rng);
        let wh = mat("wh", in_dim, hidden, rng);
        let uh = mat("uh", hidden, hidden, rng);
        let bz = store.add(format!("{prefix}.bz"), Tensor::zeros(1, hidden));
        let br = store.add(format!("{prefix}.br"), Tensor::zeros(1, hidden));
        let bh = store.add(format!("{prefix}.bh"), Tensor::zeros(1, hidden));
        GruCell { wz, uz, bz, wr, ur, br, wh, uh, bh, in_dim, hidden }
    }

    /// One recurrent step on the tape: `(x[1,in], h[1,hidden]) → h'[1,hidden]`,
    /// recorded as a single node.
    pub fn forward(&self, tape: &mut Tape, store: &ParamStore, x: ValId, h: ValId) -> ValId {
        let w = [self.wz, self.uz, self.bz, self.wr, self.ur, self.br, self.wh, self.uh, self.bh];
        let w = w.map(|p| tape.param(store, p));
        let wt = [self.wz, self.uz, self.wr, self.ur, self.wh, self.uh];
        tape.gru_step(x, h, w, wt.map(|p| store.transposed(p).clone()))
    }

    /// The same step from twenty primitive nodes: the bitwise oracle of
    /// `Tape::gru_step`.
    #[cfg(test)]
    fn forward_primitives(&self, tape: &mut Tape, store: &ParamStore, x: ValId, h: ValId) -> ValId {
        let gate = |tape: &mut Tape, w: ParamId, u: ParamId, b: ParamId| {
            let wv = tape.param(store, w);
            let uv = tape.param(store, u);
            let bv = tape.param(store, b);
            let xw = tape.matmul(x, wv);
            let hu = tape.matmul(h, uv);
            let s = tape.add(xw, hu);
            tape.add(s, bv)
        };
        let z_pre = gate(tape, self.wz, self.uz, self.bz);
        let z = tape.sigmoid(z_pre);
        let r_pre = gate(tape, self.wr, self.ur, self.br);
        let r = tape.sigmoid(r_pre);

        let wh = tape.param(store, self.wh);
        let uh = tape.param(store, self.uh);
        let bh = tape.param(store, self.bh);
        let xwh = tape.matmul(x, wh);
        let rh = tape.mul_elem(r, h);
        let rhu = tape.matmul(rh, uh);
        let s = tape.add(xwh, rhu);
        let cand_pre = tape.add(s, bh);
        let cand = tape.tanh(cand_pre);

        let one_minus_z = tape.one_minus(z);
        let keep = tape.mul_elem(one_minus_z, h);
        let take = tape.mul_elem(z, cand);
        tape.add(keep, take)
    }

    /// One recurrent step without a tape: `(x[1,in], h[1,hidden]) →
    /// h'[1,hidden]`, through [`GruCell::infer_into`].
    pub fn infer(&self, store: &ParamStore, x: &Tensor, h: &Tensor) -> Tensor {
        let mut out = Vec::with_capacity(self.hidden);
        self.infer_into(store, x.as_slice(), h.as_slice(), &mut GruScratch::default(), &mut out);
        Tensor::from_row(out)
    }

    /// One recurrent step without a tape into `out`, allocating nothing once
    /// `scratch` and `out` have held a step of this width. The six products
    /// run on the kernel [`Tensor::matmul`] runs, and every element is
    /// rounded exactly as the tensor-per-operation composition rounds it:
    /// `((x·W + h·U) + b)`, [`math::sigmoid`], [`math::tanh`],
    /// `(1−z)·h + z·h̃`. Each gate's pre-activations are written first and
    /// then passed through the vectorised nonlinearity in place.
    ///
    /// # Panics
    /// Panics unless `x` has `in_dim` elements and `h` has `hidden`.
    pub fn infer_into(
        &self,
        store: &ParamStore,
        x: &[f32],
        h: &[f32],
        scratch: &mut GruScratch,
        out: &mut Vec<f32>,
    ) {
        assert_eq!((x.len(), h.len()), (self.in_dim, self.hidden), "GRU step shape mismatch");
        let GruScratch { xw, hu, z, r, rh } = scratch;
        let bias = |b: ParamId| store.value(b).as_slice();
        let mut gate = |gate: &mut Vec<f32>, w: ParamId, u: ParamId, b: ParamId| {
            product(xw, x, store.value(w));
            product(hu, h, store.value(u));
            gate.clear();
            gate.extend(xw.iter().zip(hu.iter()).zip(bias(b)).map(|((a, c), b)| a + c + b));
        };
        gate(z, self.wz, self.uz, self.bz);
        math::sigmoid_in_place(z);
        gate(r, self.wr, self.ur, self.br);
        math::sigmoid_in_place(r);
        rh.clear();
        rh.extend(r.iter().zip(h).map(|(r, h)| r * h));
        product(xw, x, store.value(self.wh));
        product(hu, rh, store.value(self.uh));
        xw.iter_mut().zip(hu.iter()).zip(bias(self.bh)).for_each(|((a, c), b)| *a = *a + c + b);
        math::tanh_in_place(xw);
        out.clear();
        out.extend(xw.iter().zip(z.iter().zip(h)).map(|(cand, (z, h))| (1.0 - z) * h + z * cand));
    }

    /// The step as it stood before [`GruCell::infer_into`], one tensor per
    /// operation: the bitwise oracle of the fused step.
    #[cfg(test)]
    fn infer_composition(&self, store: &ParamStore, x: &Tensor, h: &Tensor) -> Tensor {
        let gate = |w: ParamId, u: ParamId, b: ParamId| {
            x.matmul(store.value(w)).add(&h.matmul(store.value(u))).add(store.value(b))
        };
        let z = gate(self.wz, self.uz, self.bz).sigmoid();
        let r = gate(self.wr, self.ur, self.br).sigmoid();
        let cand = x
            .matmul(store.value(self.wh))
            .add(&r.mul_elem(h).matmul(store.value(self.uh)))
            .add(store.value(self.bh))
            .tanh();
        z.map(|v| 1.0 - v).mul_elem(h).add(&z.mul_elem(&cand))
    }
}

/// The reusable buffers of [`GruCell::infer_into`]: two gate products, the
/// update and reset gates, and `r⊙h`. A scratch serves steps of any width.
#[derive(Debug, Default)]
pub struct GruScratch {
    xw: Vec<f32>,
    hu: Vec<f32>,
    z: Vec<f32>,
    r: Vec<f32>,
    rh: Vec<f32>,
}

/// `out = a[1×k] × w[k×n]`, summed by the kernel behind [`Tensor::matmul`].
fn product(out: &mut Vec<f32>, a: &[f32], w: &Tensor) {
    assert_eq!(a.len(), w.rows(), "GRU product shape mismatch");
    out.clear();
    out.resize(w.cols(), 0.0);
    matmul_into(out, a, w.as_slice(), w.rows(), w.cols());
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::init::seeded_rng;

    #[test]
    fn linear_forward_matches_infer() {
        let mut rng = seeded_rng(3);
        let mut store = ParamStore::new();
        let lin = Linear::new(&mut store, "l", 3, 2, &mut rng);
        let x = Tensor::from_row(vec![1.0, -2.0, 0.5]);
        let mut tape = Tape::new();
        let xv = tape.constant(x.clone());
        let y = lin.forward(&mut tape, &store, xv);
        assert!(tape.value(y).approx_eq(&lin.infer(&store, &x), 1e-6));
    }

    #[test]
    fn embedding_bag_empty_is_zero() {
        let mut rng = seeded_rng(3);
        let mut store = ParamStore::new();
        let emb = Embedding::new(&mut store, "e", 10, 4, &mut rng);
        let bag = emb.infer_bag(&store, &[]);
        assert_eq!(bag.as_slice(), &[0.0; 4]);
    }

    #[test]
    fn gru_forward_matches_infer() {
        let mut rng = seeded_rng(11);
        let mut store = ParamStore::new();
        let gru = GruCell::new(&mut store, "g", 4, 5, &mut rng);
        let x = Tensor::from_row(vec![0.1, 0.2, -0.3, 0.4]);
        let h = Tensor::from_row(vec![0.0, 0.5, -0.5, 0.25, 1.0]);
        let mut tape = Tape::new();
        let xv = tape.constant(x.clone());
        let hv = tape.constant(h.clone());
        let out = gru.forward(&mut tape, &store, xv, hv);
        assert!(tape.value(out).approx_eq(&gru.infer(&store, &x, &h), 1e-5));
    }

    #[test]
    fn gru_output_is_bounded() {
        // h' is a convex combination of h and tanh(·), so it stays in [-1, 1]
        // whenever h does.
        let mut rng = seeded_rng(5);
        let mut store = ParamStore::new();
        let gru = GruCell::new(&mut store, "g", 2, 3, &mut rng);
        let mut h = Tensor::zeros(1, 3);
        for i in 0..20 {
            let x = Tensor::from_row(vec![(i as f32).sin(), (i as f32).cos()]);
            h = gru.infer(&store, &x, &h);
            assert!(h.as_slice().iter().all(|v| v.abs() <= 1.0 + 1e-5));
        }
    }

    #[test]
    fn gru_gradients_flow_to_all_parameters() {
        let mut rng = seeded_rng(17);
        let mut store = ParamStore::new();
        let gru = GruCell::new(&mut store, "g", 2, 2, &mut rng);
        let mut tape = Tape::new();
        let x = tape.constant(Tensor::from_row(vec![1.0, -1.0]));
        let h = tape.constant(Tensor::zeros(1, 2));
        let out = gru.forward(&mut tape, &store, x, h);
        let ones = tape.constant(Tensor::from_vec(2, 1, vec![1.0, 1.0]));
        let s = tape.matmul(out, ones);
        tape.backward(s);
        tape.collect_grads(&mut store);
        for pid in [gru.wz, gru.uz, gru.bz, gru.wr, gru.wh, gru.uh, gru.bh] {
            assert!(store.dense_grad(pid).is_some(), "missing grad for {pid:?}");
        }
    }

    /// Unroll `steps` GRU steps with shared parameters from `h0`, one fresh
    /// `x` per step and a loss reading every hidden state (so each `h`
    /// collects a gradient from its own head and from the next step, as in
    /// training), through `step`. Returns the bits of every hidden state and
    /// of all eleven kinds of gradient: each `x`, `h0`, the nine parameters.
    fn unroll_bits(
        gru: &GruCell,
        store: &ParamStore,
        xs: &[Tensor],
        h0: &Tensor,
        step: impl Fn(&GruCell, &mut Tape, &ParamStore, ValId, ValId) -> ValId,
    ) -> Vec<Vec<u32>> {
        let bits = |t: &Tensor| t.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<u32>>();
        let mut tape = Tape::new();
        let h0 = tape.leaf(h0.clone());
        let xs: Vec<ValId> = xs.iter().map(|x| tape.leaf(x.clone())).collect();
        let (mut h, mut out, mut losses) = (h0, Vec::new(), Vec::new());
        for (t, &x) in xs.iter().enumerate() {
            h = step(gru, &mut tape, store, x, h);
            out.push(bits(tape.value(h)));
            let read = (0..gru.hidden).map(|j| ((t * 7 + j * 3) % 5) as f32 - 1.5).collect();
            let read = tape.constant(Tensor::from_vec(gru.hidden, 1, read));
            losses.push(tape.matmul(h, read));
        }
        let loss = tape.sum_scalars(&losses);
        tape.backward(loss);
        out.extend(xs.iter().chain([&h0]).map(|&id| bits(&tape.grad(id).expect("leaf gradient"))));
        let grads = tape.take_grads();
        assert_eq!(grads.len(), 9, "every GRU parameter collects a gradient");
        out.extend(grads.into_iter().map(|(_, g)| bits(&g.into_dense())));
        out
    }

    /// Inputs with exact zeros (the kernels' skip path) among ordinary values.
    fn gru_inputs(seed: u64, steps: usize, in_dim: usize, hidden: usize) -> (Vec<Tensor>, Tensor) {
        use rand::Rng;
        let mut rng = seeded_rng(seed);
        let mut vec = |n: usize| -> Tensor {
            let v = (0..n).map(|_| {
                if rng.gen_range(0..4) == 0 {
                    0.0
                } else {
                    rng.gen_range(-1.0f32..1.0)
                }
            });
            Tensor::from_row(v.collect())
        };
        ((0..steps).map(|_| vec(in_dim)).collect(), vec(hidden))
    }

    #[test]
    fn fused_gru_step_is_bitwise_the_primitive_composition() {
        for seed in 0..24u64 {
            let (in_dim, hidden) = (1 + seed as usize % 7, 1 + (seed as usize * 5) % 11);
            let mut store = ParamStore::new();
            let gru = GruCell::new(&mut store, "g", in_dim, hidden, &mut seeded_rng(seed + 100));
            // One step from random state, then the six-step unroll.
            for steps in [1, 6] {
                let (xs, h0) = gru_inputs(seed, steps, in_dim, hidden);
                let fused = unroll_bits(&gru, &store, &xs, &h0, GruCell::forward);
                let oracle = unroll_bits(&gru, &store, &xs, &h0, GruCell::forward_primitives);
                assert_eq!(fused, oracle, "seed {seed}, {steps} steps");
            }
        }
    }

    /// Exact zeros of both signs (the products' `a == 0.0` skip), subnormals,
    /// NaN and ±inf, one time in three each; else a value in `[-1, 1]`.
    fn hostile(state: &mut u64) -> f32 {
        const POOL: [f32; 9] = [
            0.0,
            -0.0,
            f32::MIN_POSITIVE / 8.0,
            -f32::MIN_POSITIVE / 2.0,
            f32::NAN,
            f32::INFINITY,
            f32::NEG_INFINITY,
            1.0,
            -0.5,
        ];
        let bits = proptest::next_state(state);
        match bits % 3 {
            0 => POOL[(bits >> 8) as usize % POOL.len()],
            _ => ((bits >> 8) % 2001) as f32 / 1000.0 - 1.0,
        }
    }

    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// `infer_into` is the tensor-per-operation step bit for bit, over
        /// three shapes in a row on one scratch and one output buffer (widths
        /// up to past the products' 64-column block), the last shape wider or
        /// narrower than the one before it.
        #[test]
        fn infer_into_is_bitwise_the_tensor_composition(seed in 0u64..100_000) {
            let mut state = seed;
            let (mut scratch, mut out) = (GruScratch::default(), Vec::new());
            for _ in 0..3 {
                let in_dim = 1 + (proptest::next_state(&mut state) % 90) as usize;
                let hidden = 1 + (proptest::next_state(&mut state) % 70) as usize;
                let mut store = ParamStore::new();
                let gru = GruCell::new(&mut store, "g", in_dim, hidden, &mut seeded_rng(state));
                // biases start at zero, where `(a + c) + b` and `a + (c + b)`
                // agree; give them values that tell the associations apart
                for b in [gru.bz, gru.br, gru.bh] {
                    let values = (0..hidden).map(|_| hostile(&mut state)).collect();
                    *store.value_mut(b) = Tensor::from_row(values);
                }
                let x: Vec<f32> = (0..in_dim).map(|_| hostile(&mut state)).collect();
                let h: Vec<f32> = (0..hidden).map(|_| hostile(&mut state)).collect();
                gru.infer_into(&store, &x, &h, &mut scratch, &mut out);
                let (x, h) = (Tensor::from_row(x), Tensor::from_row(h));
                let oracle = gru.infer_composition(&store, &x, &h);
                // Which NaN an operation returns is not part of Rust's float
                // semantics (the compiler may swap an addition's operands),
                // so every NaN counts as one value.
                let bits = |v: &[f32]| {
                    v.iter().map(|v| if v.is_nan() { u32::MAX } else { v.to_bits() }).collect::<Vec<_>>()
                };
                prop_assert_eq!(bits(&out), bits(oracle.as_slice()), "{}x{}", in_dim, hidden);
                prop_assert_eq!(bits(gru.infer(&store, &x, &h).as_slice()), bits(&out));
            }
        }
    }

    #[test]
    fn fused_gru_step_leaves_constants_without_gradient() {
        let mut store = ParamStore::new();
        let gru = GruCell::new(&mut store, "g", 3, 4, &mut seeded_rng(9));
        let mut tape = Tape::new();
        let x = tape.constant(Tensor::from_row(vec![0.5, 0.0, -1.0]));
        let h = tape.leaf(Tensor::from_row(vec![0.1, -0.2, 0.0, 0.3]));
        let out = gru.forward(&mut tape, &store, x, h);
        let ones = tape.constant(Tensor::from_vec(4, 1, vec![1.0; 4]));
        let loss = tape.matmul(out, ones);
        tape.backward(loss);
        assert!(tape.grad(x).is_none(), "a constant input collects nothing");
        assert!(tape.grad(h).is_some());
    }
}
