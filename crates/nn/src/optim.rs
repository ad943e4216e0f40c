//! Parameter storage and optimizers.
//!
//! [`ParamStore`] owns all trainable tensors of a model plus their accumulated
//! gradients and optimizer state. [`AdamW`] implements decoupled weight decay
//! (Loshchilov & Hutter, 2019) — the optimizer used for the paper's schema
//! router — with a *lazy* path for sparse (embedding) gradients: rows that
//! received no gradient in a step are not touched, which keeps training cost
//! proportional to the tokens actually used rather than the vocabulary size.

use std::collections::{BTreeMap, HashMap};
use std::sync::OnceLock;

use crate::tape::Grad;
use crate::tensor::Tensor;

/// Identifier of a parameter inside a [`ParamStore`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ParamId(pub(crate) usize);

/// One worker's gradients, drained from its tape in ascending [`ParamId`]
/// order (see `Tape::take_grads`). Shards from a data-parallel step are
/// combined with [`ParamStore::merge_grads`].
pub type GradShard = Vec<(ParamId, Grad)>;

struct Param {
    name: String,
    value: Tensor,
    /// `valueᵀ`, built on first use and dropped whenever `value` can change.
    transposed: OnceLock<Tensor>,
    grad: GradAccum,
    /// First Adam moment.
    m: Option<Tensor>,
    /// Second Adam moment.
    v: Option<Tensor>,
}

/// Accumulated gradient for one parameter: dense, sparse rows, or absent.
///
/// The sparse accumulator is a `BTreeMap` so every iteration over it (norm,
/// clipping, optimizer updates) runs in row order — float summation order is
/// part of the training determinism contract.
#[derive(Default)]
enum GradAccum {
    #[default]
    None,
    Dense(Tensor),
    Sparse(BTreeMap<usize, Vec<f32>>),
}

/// Owns model parameters, gradients and optimizer state.
#[derive(Default)]
pub struct ParamStore {
    params: Vec<Param>,
    by_name: HashMap<String, usize>,
}

impl std::fmt::Debug for ParamStore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let mut d = f.debug_struct("ParamStore");
        for p in &self.params {
            d.field(&p.name, &p.value.shape());
        }
        d.finish()
    }
}

impl ParamStore {
    pub fn new() -> Self {
        Self::default()
    }

    /// Register a parameter. Names must be unique.
    ///
    /// # Panics
    /// Panics on duplicate names.
    pub fn add(&mut self, name: impl Into<String>, value: Tensor) -> ParamId {
        let name = name.into();
        assert!(!self.by_name.contains_key(&name), "duplicate parameter name {name:?}");
        let id = self.params.len();
        self.by_name.insert(name.clone(), id);
        let transposed = OnceLock::new();
        self.params.push(Param {
            name,
            value,
            transposed,
            grad: GradAccum::None,
            m: None,
            v: None,
        });
        ParamId(id)
    }

    pub fn value(&self, id: ParamId) -> &Tensor {
        &self.params[id.0].value
    }

    pub fn value_mut(&mut self, id: ParamId) -> &mut Tensor {
        let p = &mut self.params[id.0];
        p.transposed.take();
        &mut p.value
    }

    /// `value(id)ᵀ`, shared by every tape recorded between two updates: a
    /// weight that is a right matmul operand at every decoder step is
    /// transposed once per minibatch, not once per backward product.
    pub(crate) fn transposed(&self, id: ParamId) -> &Tensor {
        let p = &self.params[id.0];
        p.transposed.get_or_init(|| p.value.transpose())
    }

    /// Look up a parameter id by name.
    pub fn id_of(&self, name: &str) -> Option<ParamId> {
        self.by_name.get(name).copied().map(ParamId)
    }

    pub fn len(&self) -> usize {
        self.params.len()
    }

    pub fn is_empty(&self) -> bool {
        self.params.is_empty()
    }

    /// Fold a gradient contribution into the accumulator for `id`.
    pub fn accumulate_grad(&mut self, id: ParamId, grad: Grad) {
        self.accumulate_scaled(id, grad, 1.0);
    }

    /// Fold `grad · s` into the accumulator for `id`: every value is
    /// rounded once by the product and once by the sum it joins, or stored
    /// as the rounded product where it is the first to arrive.
    fn accumulate_scaled(&mut self, id: ParamId, grad: Grad, s: f32) {
        let slot = &mut self.params[id.0].grad;
        match grad {
            Grad::Dense(mut t) => {
                if let GradAccum::Dense(d) = slot {
                    return d.add_scaled_assign(&t, s);
                }
                let cols = t.cols();
                let buf = t.as_mut_slice();
                if s != 1.0 {
                    buf.iter_mut().for_each(|v| *v *= s);
                }
                // Mixing dense into sparse: densify.
                if let GradAccum::Sparse(map) = slot {
                    for (r, row) in std::mem::take(map) {
                        for (c, v) in row.into_iter().enumerate() {
                            buf[r * cols + c] += v;
                        }
                    }
                }
                *slot = GradAccum::Dense(t);
            }
            Grad::SparseRows { entries, cols, .. } => {
                if let GradAccum::None = slot {
                    *slot = GradAccum::Sparse(BTreeMap::new());
                }
                for (r, mut row) in entries {
                    let acc = match slot {
                        GradAccum::Dense(d) => &mut d.as_mut_slice()[r * cols..(r + 1) * cols],
                        GradAccum::Sparse(map) => match map.get_mut(&r) {
                            Some(acc) => acc,
                            None => {
                                row.iter_mut().for_each(|v| *v *= s);
                                map.insert(r, row);
                                continue;
                            }
                        },
                        GradAccum::None => unreachable!("slot was made sparse above"),
                    };
                    for (a, v) in acc.iter_mut().zip(row) {
                        *a += v * s;
                    }
                }
            }
        }
    }

    /// Merge per-worker gradient shards into the accumulators, scaling every
    /// contribution by `scale` (e.g. `1/batch` for a batch-mean loss whose
    /// shards were each seeded with gradient 1).
    ///
    /// Shards are folded strictly in iteration order, and entries within a
    /// shard in their listed (ascending-`ParamId`) order, so the accumulated
    /// gradient is bit-identical no matter how many threads produced the
    /// shards — the keystone of deterministic data-parallel training.
    pub fn merge_grads(&mut self, shards: impl IntoIterator<Item = GradShard>, scale: f32) {
        for shard in shards {
            for (pid, g) in shard {
                self.accumulate_scaled(pid, g, scale);
            }
        }
    }

    /// Clear all accumulated gradients.
    pub fn zero_grads(&mut self) {
        for p in &mut self.params {
            p.grad = GradAccum::None;
        }
    }

    /// Global L2 norm of all accumulated gradients.
    pub fn grad_norm(&self) -> f32 {
        let mut sq = 0.0f32;
        for p in &self.params {
            match &p.grad {
                GradAccum::None => {}
                GradAccum::Dense(t) => sq += t.as_slice().iter().map(|v| v * v).sum::<f32>(),
                GradAccum::Sparse(map) => {
                    for row in map.values() {
                        sq += row.iter().map(|v| v * v).sum::<f32>();
                    }
                }
            }
        }
        sq.sqrt()
    }

    /// Scale all gradients so the global norm does not exceed `max_norm`.
    pub fn clip_grad_norm(&mut self, max_norm: f32) {
        let norm = self.grad_norm();
        if norm <= max_norm || norm == 0.0 {
            return;
        }
        let s = max_norm / norm;
        for p in &mut self.params {
            match &mut p.grad {
                GradAccum::None => {}
                GradAccum::Dense(t) => {
                    for v in t.as_mut_slice() {
                        *v *= s;
                    }
                }
                GradAccum::Sparse(map) => {
                    for row in map.values_mut() {
                        for v in row {
                            *v *= s;
                        }
                    }
                }
            }
        }
    }

    /// Densified gradient of a parameter (for tests / gradient checking).
    pub fn dense_grad(&self, id: ParamId) -> Option<Tensor> {
        let p = &self.params[id.0];
        match &p.grad {
            GradAccum::None => None,
            GradAccum::Dense(t) => Some(t.clone()),
            GradAccum::Sparse(map) => {
                let (rows, cols) = p.value.shape();
                let mut out = Tensor::zeros(rows, cols);
                let buf = out.as_mut_slice();
                for (&r, row) in map {
                    for (c, &v) in row.iter().enumerate() {
                        buf[r * cols + c] += v;
                    }
                }
                Some(out)
            }
        }
    }

    /// Iterate over `(name, shape)` pairs (diagnostics).
    pub fn describe(&self) -> Vec<(String, (usize, usize))> {
        self.params.iter().map(|p| (p.name.clone(), p.value.shape())).collect()
    }

    /// Iterate `(name, value)` pairs in registration ([`ParamId`]) order.
    pub fn iter_values(&self) -> impl Iterator<Item = (&str, &Tensor)> {
        self.params.iter().map(|p| (p.name.as_str(), &p.value))
    }
}

/// AdamW with decoupled weight decay and lazy sparse updates.
#[derive(Debug, Clone)]
pub struct AdamW {
    pub lr: f32,
    pub beta1: f32,
    pub beta2: f32,
    pub eps: f32,
    pub weight_decay: f32,
    /// Step counter for bias correction.
    t: u64,
}

impl AdamW {
    pub fn new(lr: f32) -> Self {
        AdamW { lr, beta1: 0.9, beta2: 0.999, eps: 1e-8, weight_decay: 0.01, t: 0 }
    }

    /// Current step count.
    pub fn steps(&self) -> u64 {
        self.t
    }

    /// Apply one optimization step using the gradients accumulated in
    /// `store`, then clear them.
    pub fn step(&mut self, store: &mut ParamStore) {
        self.t += 1;
        let bc1 = 1.0 - self.beta1.powi(self.t as i32);
        let bc2 = 1.0 - self.beta2.powi(self.t as i32);
        for p in &mut store.params {
            let grad = std::mem::take(&mut p.grad);
            p.transposed.take();
            let (rows, cols) = p.value.shape();
            if p.m.is_none() {
                p.m = Some(Tensor::zeros(rows, cols));
                p.v = Some(Tensor::zeros(rows, cols));
            }
            let m = p.m.as_mut().unwrap().as_mut_slice();
            let v = p.v.as_mut().unwrap().as_mut_slice();
            let w = p.value.as_mut_slice();
            let mut update = |i: usize, g: f32, lr: f32, b1: f32, b2: f32, eps: f32, wd: f32| {
                m[i] = b1 * m[i] + (1.0 - b1) * g;
                v[i] = b2 * v[i] + (1.0 - b2) * g * g;
                let mh = m[i] / bc1;
                let vh = v[i] / bc2;
                w[i] -= lr * (mh / (vh.sqrt() + eps) + wd * w[i]);
            };
            match grad {
                GradAccum::None => {}
                GradAccum::Dense(g) => {
                    for (i, &gv) in g.as_slice().iter().enumerate() {
                        update(i, gv, self.lr, self.beta1, self.beta2, self.eps, self.weight_decay);
                    }
                }
                GradAccum::Sparse(map) => {
                    // Lazy AdamW: untouched rows keep stale moments. This is
                    // the standard sparse-Adam approximation.
                    for (r, row) in map {
                        for (c, &gv) in row.iter().enumerate() {
                            update(
                                r * cols + c,
                                gv,
                                self.lr,
                                self.beta1,
                                self.beta2,
                                self.eps,
                                self.weight_decay,
                            );
                        }
                    }
                }
            }
        }
    }
}

/// Plain stochastic gradient descent (used by baseline encoders and tests).
#[derive(Debug, Clone)]
pub struct Sgd {
    pub lr: f32,
}

impl Sgd {
    pub fn new(lr: f32) -> Self {
        Sgd { lr }
    }

    /// Apply one step and clear gradients.
    pub fn step(&mut self, store: &mut ParamStore) {
        for p in &mut store.params {
            let grad = std::mem::take(&mut p.grad);
            p.transposed.take();
            let cols = p.value.cols();
            let w = p.value.as_mut_slice();
            match grad {
                GradAccum::None => {}
                GradAccum::Dense(g) => {
                    for (wi, &gv) in w.iter_mut().zip(g.as_slice()) {
                        *wi -= self.lr * gv;
                    }
                }
                GradAccum::Sparse(map) => {
                    for (r, row) in map {
                        for (c, &gv) in row.iter().enumerate() {
                            w[r * cols + c] -= self.lr * gv;
                        }
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn adamw_minimizes_quadratic() {
        let mut store = ParamStore::new();
        let w = store.add("w", Tensor::from_vec(1, 1, vec![5.0]));
        let mut opt = AdamW::new(0.1);
        for _ in 0..300 {
            // d/dw (w-2)^2 = 2(w-2)
            let wv = store.value(w).get(0, 0);
            store.accumulate_grad(w, Grad::Dense(Tensor::from_vec(1, 1, vec![2.0 * (wv - 2.0)])));
            opt.step(&mut store);
        }
        let wv = store.value(w).get(0, 0);
        assert!((wv - 2.0).abs() < 0.1, "w={wv}");
    }

    #[test]
    fn sparse_grads_only_touch_their_rows() {
        let mut store = ParamStore::new();
        let e = store.add("emb", Tensor::zeros(4, 2));
        store.accumulate_grad(
            e,
            Grad::SparseRows { rows: 4, cols: 2, entries: vec![(1, vec![1.0, 1.0])] },
        );
        let mut opt = Sgd::new(0.5);
        opt.step(&mut store);
        let v = store.value(e);
        assert_eq!(v.row(0), &[0.0, 0.0]);
        assert_eq!(v.row(1), &[-0.5, -0.5]);
        assert_eq!(v.row(2), &[0.0, 0.0]);
    }

    #[test]
    fn grad_accumulation_merges_sparse_entries() {
        let mut store = ParamStore::new();
        let e = store.add("emb", Tensor::zeros(3, 1));
        store.accumulate_grad(
            e,
            Grad::SparseRows { rows: 3, cols: 1, entries: vec![(0, vec![1.0]), (2, vec![3.0])] },
        );
        store.accumulate_grad(
            e,
            Grad::SparseRows { rows: 3, cols: 1, entries: vec![(0, vec![1.5])] },
        );
        let g = store.dense_grad(e).unwrap();
        assert_eq!(g.as_slice(), &[2.5, 0.0, 3.0]);
    }

    #[test]
    fn merge_grads_matches_sequential_accumulation() {
        // Two shards merged with a 1/2 scale must equal accumulating the
        // same contributions serially at half weight.
        let build = || {
            let mut s = ParamStore::new();
            let w = s.add("w", Tensor::zeros(1, 2));
            let e = s.add("emb", Tensor::zeros(3, 2));
            (s, w, e)
        };
        let shard1: GradShard = vec![
            (ParamId(0), Grad::Dense(Tensor::from_row(vec![1.0, 2.0]))),
            (ParamId(1), Grad::SparseRows { rows: 3, cols: 2, entries: vec![(1, vec![4.0, 4.0])] }),
        ];
        let shard2: GradShard = vec![(ParamId(0), Grad::Dense(Tensor::from_row(vec![3.0, -1.0])))];

        let (mut merged, w, e) = build();
        merged.merge_grads(vec![shard1.clone(), shard2.clone()], 0.5);

        let (mut serial, _, _) = build();
        for shard in [shard1, shard2] {
            for (pid, mut g) in shard {
                g.scale_in_place(0.5);
                serial.accumulate_grad(pid, g);
            }
        }
        assert_eq!(
            merged.dense_grad(w).unwrap().as_slice(),
            serial.dense_grad(w).unwrap().as_slice()
        );
        assert_eq!(
            merged.dense_grad(e).unwrap().as_slice(),
            serial.dense_grad(e).unwrap().as_slice()
        );
        assert_eq!(merged.dense_grad(w).unwrap().as_slice(), &[2.0, 0.5]);
    }

    #[test]
    fn clip_grad_norm_scales_down() {
        let mut store = ParamStore::new();
        let w = store.add("w", Tensor::zeros(1, 2));
        store.accumulate_grad(w, Grad::Dense(Tensor::from_row(vec![3.0, 4.0]))); // norm 5
        store.clip_grad_norm(1.0);
        let g = store.dense_grad(w).unwrap();
        assert!((g.norm() - 1.0).abs() < 1e-5);
    }

    #[test]
    #[should_panic(expected = "duplicate parameter name")]
    fn duplicate_names_rejected() {
        let mut store = ParamStore::new();
        store.add("w", Tensor::zeros(1, 1));
        store.add("w", Tensor::zeros(1, 1));
    }
}
