//! Reverse-mode automatic differentiation over [`Tensor`]s.
//!
//! A [`Tape`] records every operation as an `Op` naming its operands;
//! [`Tape::backward`] walks the record in reverse and each op *adds* its
//! contributions into its operands' gradient slots (`Slots`): a dense
//! tensor (`add`), a transposed product accumulated in place (`add_tn`) or
//! embedding rows (`add_rows`, written into one flat buffer per slot, with
//! no allocation per row and no sort). A slot's first contribution is
//! stored as it arrives and later ones are added in reverse node order, so
//! every sum associates the same way at any thread count.
//! Gradients are dense except for embedding lookups, which produce
//! [`Grad::SparseRows`] so that large embedding matrices never materialize a
//! dense gradient (critical for the schema router's output vocabulary).
//!
//! Parameters live in a [`ParamStore`]; the tape
//! caches one leaf node per parameter and [`Tape::collect_grads`] moves the
//! accumulated gradients back into the store after a backward pass.

use std::collections::BTreeMap;

use crate::math;
use crate::optim::{ParamId, ParamStore};
use crate::tensor::{add_tn, log_softmax, Tensor};

/// Identifier of a value recorded on a [`Tape`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ValId(usize);

/// A parameter's gradient, as [`Tape::take_grads`] hands it over.
#[derive(Debug, Clone)]
pub enum Grad {
    /// Dense gradient with the same shape as the forward value.
    Dense(Tensor),
    /// Sparse row-wise gradient into a `[rows, cols]` matrix, flat: entry `k`
    /// is row `idx[k]` with values `vals[k·cols..(k+1)·cols]`, and unlisted
    /// rows carry none. A row listed twice is two contributions, added in
    /// order. Produced by embedding lookups.
    SparseRows { rows: usize, cols: usize, idx: Vec<usize>, vals: Vec<f32> },
}

impl Grad {
    /// Materialize as a dense tensor.
    pub fn into_dense(self) -> Tensor {
        match self {
            Grad::Dense(t) => t,
            Grad::SparseRows { rows, cols, idx, vals } => rows_to_dense((rows, cols), &idx, &vals),
        }
    }

    /// Multiply every gradient value by `s` in place: the two-pass oracle
    /// `ParamStore::merge_grads` is tested against.
    #[cfg(test)]
    pub(crate) fn scale_in_place(&mut self, s: f32) {
        let vals = match self {
            Grad::Dense(t) => t.as_mut_slice(),
            Grad::SparseRows { vals, .. } => vals.as_mut_slice(),
        };
        vals.iter_mut().for_each(|v| *v *= s);
    }
}

/// Flat rows added into zeros of `shape`, entry by entry.
pub(crate) fn rows_to_dense(shape: (usize, usize), idx: &[usize], vals: &[f32]) -> Tensor {
    let (rows, cols) = shape;
    let mut out = Tensor::zeros(rows, cols);
    let buf = out.as_mut_slice();
    for (&r, row) in idx.iter().zip(vals.chunks(cols.max(1))) {
        for (b, v) in buf[r * cols..(r + 1) * cols].iter_mut().zip(row) {
            *b += v;
        }
    }
    out
}

/// `at[r]` of a row no entry holds.
const ABSENT: u32 = u32::MAX;

/// A node's gradient while [`Tape::backward`] accumulates it.
enum Slot {
    Dense(Tensor),
    /// Embedding rows, laid out as in [`Grad::SparseRows`]. The first
    /// contribution stays as it arrived, repeated rows and all, and `at` is
    /// `None`. The second coalesces it in place; from then on every row has
    /// one entry, at position `at[r]` (or `ABSENT`), in first-arrival order.
    Rows {
        shape: (usize, usize),
        idx: Vec<usize>,
        vals: Vec<f32>,
        at: Option<Vec<u32>>,
    },
}

impl Slot {
    fn to_dense(&self) -> Tensor {
        match self {
            Slot::Dense(t) => t.clone(),
            Slot::Rows { shape, idx, vals, .. } => rows_to_dense(*shape, idx, vals),
        }
    }

    fn into_dense(self) -> Tensor {
        match self {
            Slot::Dense(t) => t,
            rows => rows.to_dense(),
        }
    }

    fn into_grad(self) -> Grad {
        match self {
            Slot::Dense(t) => Grad::Dense(t),
            Slot::Rows { shape: (rows, cols), idx, vals, .. } => {
                Grad::SparseRows { rows, cols, idx, vals }
            }
        }
    }
}

/// Sum each row's repeated entries into its first one (later entries added
/// in order) and drop the repeats, keeping first-arrival order; returns the
/// position of every row held.
fn coalesce(rows: usize, cols: usize, idx: &mut Vec<usize>, vals: &mut Vec<f32>) -> Vec<u32> {
    let mut at = vec![ABSENT; rows];
    let mut kept = 0;
    for k in 0..idx.len() {
        let r = idx[k];
        match at[r] {
            ABSENT => {
                at[r] = kept as u32;
                idx[kept] = r;
                vals.copy_within(k * cols..(k + 1) * cols, kept * cols);
                kept += 1;
            }
            p => {
                let (head, tail) = vals.split_at_mut(k * cols);
                let p = p as usize;
                for (a, v) in head[p * cols..(p + 1) * cols].iter_mut().zip(&tail[..cols]) {
                    *a += v;
                }
            }
        }
    }
    idx.truncate(kept);
    vals.truncate(kept * cols);
    at
}

/// What produced a node: its operands plus whatever the backward pass
/// needs beyond their forward values and the node's own.
enum Op {
    /// Constants, leaves, and any node no gradient flows through.
    Leaf,
    MatMul(ValId, ValId),
    MatMulNt(ValId, ValId),
    Add(ValId, ValId),
    Sub(ValId, ValId),
    MulElem(ValId, ValId),
    /// `a·s`; also `1 − a`, whose backward is that of `a·(−1)`.
    Scale(ValId, f32),
    Tanh(ValId),
    Sigmoid(ValId),
    Relu(ValId),
    ConcatCols(ValId, ValId),
    Lookup(ValId, Vec<usize>),
    MeanRows(ValId),
    /// Operand and the clamped norm of each of its rows.
    L2Normalize(ValId, Vec<f32>),
    StackRows(Vec<ValId>),
    /// Mean cross-entropy over logits rows: softmax probabilities saved.
    CrossEntropy {
        logits: ValId,
        targets: Vec<usize>,
        probs: Vec<f32>,
    },
    /// One GRU step (boxed: it is ten tensors wide).
    Gru(Box<GruStep>),
    /// Sampled-softmax loss of `h` against the gathered rows `sub` of `emb`.
    SampledSoftmax {
        h: ValId,
        emb: ValId,
        idx: Vec<usize>,
        sub: Tensor,
        gold: usize,
        probs: Vec<f32>,
    },
}

/// Operands of a GRU step: `w` is `[wz, uz, bz, wr, ur, br, wh, uh, bh]`,
/// `wt` the transposes `[wzᵀ, uzᵀ, wrᵀ, urᵀ, whᵀ, uhᵀ]` and `saved` the
/// gate values `[z, r, r⊙h, h̃]`.
struct GruStep {
    x: ValId,
    h: ValId,
    w: [ValId; 9],
    wt: [Tensor; 6],
    saved: [Tensor; 4],
}

/// The gradient slots of the nodes below the one being differentiated.
struct Slots<'a> {
    grads: &'a mut [Option<Slot>],
    requires: &'a [bool],
}

impl Slots<'_> {
    /// Add a dense contribution, evaluated only if `id` tracks gradient.
    fn add(&mut self, id: ValId, contrib: impl FnOnce() -> Tensor) {
        if !self.requires[id.0] {
            return;
        }
        let t = contrib();
        let slot = &mut self.grads[id.0];
        *slot = Some(Slot::Dense(match slot.take() {
            Some(held) => {
                let mut d = held.into_dense();
                d.add_scaled_assign(&t, 1.0);
                d
            }
            None => t,
        }));
    }

    /// Add `aᵀ × g` without materializing it (see [`add_tn`]).
    fn add_tn(&mut self, id: ValId, a: &Tensor, g: &Tensor) {
        if self.requires[id.0] {
            let mut dense = match self.grads[id.0].take() {
                Some(slot) => slot.into_dense(),
                None => Tensor::zeros(a.cols(), g.cols()),
            };
            add_tn(dense.as_mut_slice(), a, g);
            self.grads[id.0] = Some(Slot::Dense(dense));
        }
    }

    /// Add gradient row `row(k)` at row `idx[k]` of the `shape`d matrix `id`,
    /// for every `k`, straight into the slot's flat buffer.
    fn add_rows<R: IntoIterator<Item = f32>>(
        &mut self,
        id: ValId,
        shape: (usize, usize),
        idx: &[usize],
        row: impl Fn(usize) -> R,
    ) {
        if !self.requires[id.0] {
            return;
        }
        let cols = shape.1;
        match &mut self.grads[id.0] {
            slot @ None => {
                let mut vals = Vec::with_capacity(idx.len() * cols);
                (0..idx.len()).for_each(|k| vals.extend(row(k)));
                *slot = Some(Slot::Rows { shape, idx: idx.to_vec(), vals, at: None });
            }
            Some(Slot::Dense(a)) => {
                let vals: Vec<f32> = (0..idx.len()).flat_map(&row).collect();
                a.add_scaled_assign(&rows_to_dense(shape, idx, &vals), 1.0);
            }
            Some(Slot::Rows { idx: held, vals, at, .. }) => {
                let at = at.get_or_insert_with(|| coalesce(shape.0, cols, held, vals));
                for (k, &r) in idx.iter().enumerate() {
                    match at[r] {
                        ABSENT => {
                            at[r] = held.len() as u32;
                            held.push(r);
                            vals.extend(row(k));
                        }
                        p => {
                            let p = p as usize;
                            for (a, v) in vals[p * cols..(p + 1) * cols].iter_mut().zip(row(k)) {
                                *a += v;
                            }
                        }
                    }
                }
            }
        }
    }
}

/// A recorded computation graph. Node `i`'s value, op, gradient slot and
/// requires-gradient flag sit at index `i` of the four vectors.
#[derive(Default)]
pub struct Tape {
    values: Vec<Tensor>,
    ops: Vec<Op>,
    grads: Vec<Option<Slot>>,
    requires: Vec<bool>,
    /// Ordered so gradient collection is deterministic (float addition
    /// order affects training bit-for-bit reproducibility).
    param_leaves: BTreeMap<ParamId, ValId>,
}

impl Tape {
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of recorded nodes (useful for tests and diagnostics).
    pub fn len(&self) -> usize {
        self.values.len()
    }

    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// Record a node; it tracks gradient iff one of `inputs` does.
    fn push(&mut self, value: Tensor, op: Op, inputs: &[ValId]) -> ValId {
        let req = inputs.iter().any(|id| self.requires[id.0]);
        self.push_node(value, if req { op } else { Op::Leaf }, req)
    }

    fn push_node(&mut self, value: Tensor, op: Op, requires: bool) -> ValId {
        self.values.push(value);
        self.ops.push(op);
        self.grads.push(None);
        self.requires.push(requires);
        ValId(self.values.len() - 1)
    }

    /// Forward value of a node.
    pub fn value(&self, id: ValId) -> &Tensor {
        &self.values[id.0]
    }

    /// A constant leaf: gradients are not tracked through it.
    pub fn constant(&mut self, t: Tensor) -> ValId {
        self.push_node(t, Op::Leaf, false)
    }

    /// A leaf that requires gradient but is not bound to a parameter store
    /// (used by tests and gradient checking).
    pub fn leaf(&mut self, t: Tensor) -> ValId {
        self.push_node(t, Op::Leaf, true)
    }

    /// Leaf bound to `store[param]`. Repeated calls with the same parameter on
    /// the same tape return the same node so gradients accumulate correctly.
    pub fn param(&mut self, store: &ParamStore, param: ParamId) -> ValId {
        if let Some(&id) = self.param_leaves.get(&param) {
            return id;
        }
        let id = self.leaf(store.value(param).clone());
        self.param_leaves.insert(param, id);
        id
    }

    /// Matrix product `a × b`.
    pub fn matmul(&mut self, a: ValId, b: ValId) -> ValId {
        let out = self.value(a).matmul(self.value(b));
        self.push(out, Op::MatMul(a, b), &[a, b])
    }

    /// `a × bᵀ` without materializing the transpose.
    pub fn matmul_nt(&mut self, a: ValId, b: ValId) -> ValId {
        let out = self.value(a).matmul_nt(self.value(b));
        self.push(out, Op::MatMulNt(a, b), &[a, b])
    }

    /// Element-wise sum; a single-row `b` broadcasts over the rows of `a`.
    pub fn add(&mut self, a: ValId, b: ValId) -> ValId {
        let out = self.value(a).add(self.value(b));
        self.push(out, Op::Add(a, b), &[a, b])
    }

    /// Element-wise difference.
    pub fn sub(&mut self, a: ValId, b: ValId) -> ValId {
        let out = self.value(a).sub(self.value(b));
        self.push(out, Op::Sub(a, b), &[a, b])
    }

    /// Element-wise (Hadamard) product.
    pub fn mul_elem(&mut self, a: ValId, b: ValId) -> ValId {
        let out = self.value(a).mul_elem(self.value(b));
        self.push(out, Op::MulElem(a, b), &[a, b])
    }

    /// Multiply by a scalar constant.
    pub fn scale(&mut self, a: ValId, s: f32) -> ValId {
        let out = self.value(a).scale(s);
        self.push(out, Op::Scale(a, s), &[a])
    }

    /// `1 - a`, element-wise (used by GRU gates).
    pub fn one_minus(&mut self, a: ValId) -> ValId {
        let out = self.value(a).map(|v| 1.0 - v);
        self.push(out, Op::Scale(a, -1.0), &[a])
    }

    pub fn tanh(&mut self, a: ValId) -> ValId {
        let out = Tensor::tanh(self.value(a));
        self.push(out, Op::Tanh(a), &[a])
    }

    pub fn sigmoid(&mut self, a: ValId) -> ValId {
        let out = self.value(a).sigmoid();
        self.push(out, Op::Sigmoid(a), &[a])
    }

    pub fn relu(&mut self, a: ValId) -> ValId {
        let out = self.value(a).relu();
        self.push(out, Op::Relu(a), &[a])
    }

    /// Horizontal concatenation.
    pub fn concat_cols(&mut self, a: ValId, b: ValId) -> ValId {
        let out = self.value(a).concat_cols(self.value(b));
        self.push(out, Op::ConcatCols(a, b), &[a, b])
    }

    /// Embedding lookup: gather `indices` rows of `emb`. The gradient to the
    /// embedding matrix is sparse.
    pub fn lookup(&mut self, emb: ValId, indices: &[usize]) -> ValId {
        let out = self.value(emb).lookup_rows(indices);
        self.push(out, Op::Lookup(emb, indices.to_vec()), &[emb])
    }

    /// Mean over rows `[m,n] → [1,n]`.
    pub fn mean_rows(&mut self, a: ValId) -> ValId {
        let out = self.value(a).mean_rows();
        self.push(out, Op::MeanRows(a), &[a])
    }

    /// L2-normalize each row: `y = x / max(‖x‖, ε)`.
    pub fn l2_normalize(&mut self, a: ValId) -> ValId {
        const EPS: f32 = 1e-8;
        let mut out = self.value(a).clone();
        let cols = out.cols().max(1);
        let mut norms = Vec::with_capacity(out.rows());
        for row in out.as_mut_slice().chunks_mut(cols) {
            let n = row.iter().map(|v| v * v).sum::<f32>().sqrt().max(EPS);
            for v in row.iter_mut() {
                *v /= n;
            }
            norms.push(n);
        }
        self.push(out, Op::L2Normalize(a, norms), &[a])
    }

    /// Stack single-row tensors into a matrix `[n, cols]`.
    pub fn stack_rows(&mut self, ids: &[ValId]) -> ValId {
        assert!(!ids.is_empty(), "stack_rows needs at least one row");
        let cols = self.value(ids[0]).cols();
        let mut data = Vec::with_capacity(ids.len() * cols);
        for &id in ids {
            let v = self.value(id);
            assert_eq!(v.rows(), 1, "stack_rows expects single-row inputs");
            assert_eq!(v.cols(), cols, "stack_rows width mismatch");
            data.extend_from_slice(v.as_slice());
        }
        self.push(Tensor::from_vec(ids.len(), cols, data), Op::StackRows(ids.to_vec()), ids)
    }

    /// Mean softmax cross-entropy over the rows of a logits matrix, one
    /// target class per row. Returns the scalar loss node.
    pub fn cross_entropy_rows(&mut self, logits: ValId, targets: &[usize]) -> ValId {
        let lv = self.value(logits);
        assert_eq!(lv.rows(), targets.len(), "one target per logits row");
        let mut loss = 0.0f32;
        let mut probs = Vec::with_capacity(lv.len());
        for (r, &t) in targets.iter().enumerate() {
            assert!(t < lv.cols(), "target class out of range");
            let ls = log_softmax(lv.row(r));
            loss -= ls[t];
            probs.extend_from_slice(&ls);
        }
        math::exp_in_place(&mut probs);
        loss /= targets.len() as f32;
        let op = Op::CrossEntropy { logits, targets: targets.to_vec(), probs };
        self.push(Tensor::from_vec(1, 1, vec![loss]), op, &[logits])
    }

    /// Softmax cross-entropy of a single-row logits tensor against a target
    /// class. Returns the scalar loss node (shape `[1,1]`).
    pub fn cross_entropy_logits(&mut self, logits: ValId, target: usize) -> ValId {
        let lv = self.value(logits);
        assert_eq!(lv.rows(), 1, "cross_entropy_logits expects a single-row logits tensor");
        let (loss, probs) = nll_and_probs(lv.row(0), target);
        let op = Op::CrossEntropy { logits, targets: vec![target], probs };
        self.push(Tensor::from_vec(1, 1, vec![loss]), op, &[logits])
    }

    /// Sampled-softmax loss in one node: the cross-entropy of candidate
    /// `gold` under `h × emb[idx]ᵀ` — what `lookup → matmul_nt →
    /// cross_entropy_logits` computes, value and gradients bit for bit.
    pub fn sampled_softmax_loss(
        &mut self,
        h: ValId,
        emb: ValId,
        idx: &[usize],
        gold: usize,
    ) -> ValId {
        let sub = self.value(emb).lookup_rows(idx);
        let logits = self.value(h).matmul_nt(&sub);
        assert_eq!(logits.rows(), 1, "sampled_softmax_loss expects a single-row hidden state");
        let (loss, probs) = nll_and_probs(logits.row(0), gold);
        let op = Op::SampledSoftmax { h, emb, idx: idx.to_vec(), sub, gold, probs };
        self.push(Tensor::from_vec(1, 1, vec![loss]), op, &[h, emb])
    }

    /// One GRU step in one node: `w` is `[wz, uz, bz, wr, ur, br, wh, uh,
    /// bh]` and `wt` the transposes `[wzᵀ, uzᵀ, wrᵀ, urᵀ, whᵀ, uhᵀ]` the
    /// backward pass multiplies by. Value and all eleven gradients are bit
    /// for bit those of the twenty primitive nodes of the textbook
    /// composition (kept as the test oracle in `layers.rs`).
    pub(crate) fn gru_step(&mut self, x: ValId, h: ValId, w: [ValId; 9], wt: [Tensor; 6]) -> ValId {
        let [wz, uz, bz, wr, ur, br, wh, uh, bh] = w.map(|id| self.value(id));
        let (xv, hv) = (self.value(x), self.value(h));
        let pre =
            |w: &Tensor, s: &Tensor, u: &Tensor, b: &Tensor| xv.matmul(w).add(&s.matmul(u)).add(b);
        let z = pre(wz, hv, uz, bz).sigmoid();
        let r = pre(wr, hv, ur, br).sigmoid();
        let rh = r.mul_elem(hv);
        let cand = Tensor::tanh(&pre(wh, &rh, uh, bh));
        let out = z.map(|v| 1.0 - v).mul_elem(hv).add(&z.mul_elem(&cand));
        let mut inputs = vec![x, h];
        inputs.extend(w);
        let step = GruStep { x, h, w, wt, saved: [z, r, rh, cand] };
        self.push(out, Op::Gru(Box::new(step)), &inputs)
    }

    /// Sum a list of scalar nodes into one scalar (for batching losses).
    pub fn sum_scalars(&mut self, ids: &[ValId]) -> ValId {
        assert!(!ids.is_empty(), "sum_scalars needs at least one node");
        let mut acc = ids[0];
        for &id in &ids[1..] {
            acc = self.add(acc, id);
        }
        acc
    }

    /// Run backpropagation from a scalar node, seeding its gradient with 1.
    ///
    /// # Panics
    /// Panics if `loss` is not a `[1,1]` tensor.
    pub fn backward(&mut self, loss: ValId) {
        assert_eq!(self.value(loss).shape(), (1, 1), "backward expects a scalar loss");
        self.grads[loss.0] = Some(Slot::Dense(Tensor::from_vec(1, 1, vec![1.0])));
        for i in (0..self.values.len()).rev() {
            // Operands precede the node, so the node's own gradient and its
            // operands' slots are disjoint halves.
            let (below, own) = self.grads.split_at_mut(i);
            let g = match (&self.ops[i], &own[0]) {
                (Op::Leaf, _) | (_, None) => continue,
                (_, Some(Slot::Dense(g))) => g,
                // Only leaves (embeddings) receive sparse gradients.
                (_, Some(Slot::Rows { .. })) => {
                    unreachable!("non-leaf node received a sparse gradient")
                }
            };
            let slots = Slots { grads: below, requires: &self.requires };
            backward_op(&self.ops[i], g, &self.values, i, slots);
        }
    }

    /// Gradient of a node after [`Tape::backward`], densified.
    pub fn grad(&self, id: ValId) -> Option<Tensor> {
        self.grads[id.0].as_ref().map(Slot::to_dense)
    }

    /// Move all parameter-leaf gradients into the store (accumulating), then
    /// clear them from the tape.
    pub fn collect_grads(&mut self, store: &mut ParamStore) {
        for (pid, g) in self.take_grads() {
            store.accumulate_grad(pid, g);
        }
    }

    /// Drain parameter-leaf gradients into a shard, in ascending [`ParamId`]
    /// order. Worker threads return shards to the training loop, which
    /// merges them in fixed shard order via
    /// [`AdamW::step_shards`](crate::optim::AdamW::step_shards) — the
    /// combination is bit-identical at any thread count.
    pub fn take_grads(&mut self) -> crate::optim::GradShard {
        let mut out = Vec::with_capacity(self.param_leaves.len());
        for (&pid, &vid) in &self.param_leaves {
            if let Some(slot) = self.grads[vid.0].take() {
                out.push((pid, slot.into_grad()));
            }
        }
        out
    }
}

/// Add node `i`'s contributions (it was produced by `op` and its gradient is
/// `g`) into its operands' slots, in the order the contributions are listed.
fn backward_op(op: &Op, g: &Tensor, values: &[Tensor], i: usize, mut slots: Slots<'_>) {
    let val = |id: &ValId| &values[id.0];
    match op {
        Op::Leaf => {}
        Op::MatMul(a, b) => {
            slots.add(*a, || g.matmul_nt(val(b)));
            slots.add_tn(*b, val(a), g);
        }
        Op::MatMulNt(a, b) => {
            slots.add(*a, || g.matmul(val(b)));
            slots.add_tn(*b, g, val(a));
        }
        Op::Add(a, b) => {
            slots.add(*a, || g.clone());
            let broadcast = val(b).rows() == 1 && val(a).rows() > 1;
            slots.add(*b, || if broadcast { sum_rows(g) } else { g.clone() });
        }
        Op::Sub(a, b) => {
            slots.add(*a, || g.clone());
            slots.add(*b, || g.scale(-1.0));
        }
        Op::MulElem(a, b) => {
            slots.add(*a, || g.mul_elem(val(b)));
            slots.add(*b, || g.mul_elem(val(a)));
        }
        Op::Scale(a, s) => slots.add(*a, || g.scale(*s)),
        Op::Tanh(a) => slots.add(*a, || g.mul_elem(&values[i].map(|y| 1.0 - y * y))),
        Op::Sigmoid(a) => slots.add(*a, || g.mul_elem(&values[i].map(|y| y * (1.0 - y)))),
        Op::Relu(a) => {
            slots.add(*a, || g.mul_elem(&val(a).map(|v| if v > 0.0 { 1.0 } else { 0.0 })))
        }
        Op::ConcatCols(a, b) => {
            let ac = val(a).cols();
            let cut = |from: usize, to: usize| {
                let data = (0..g.rows()).flat_map(|r| &g.row(r)[from..to]).copied().collect();
                Tensor::from_vec(g.rows(), to - from, data)
            };
            slots.add(*a, || cut(0, ac));
            slots.add(*b, || cut(ac, g.cols()));
        }
        Op::Lookup(emb, idx) => {
            slots.add_rows(*emb, val(emb).shape(), idx, |k| g.row(k).iter().copied())
        }
        Op::MeanRows(a) => slots.add(*a, || {
            let (m, n) = val(a).shape();
            let inv = if m == 0 { 0.0 } else { 1.0 / m as f32 };
            let row: Vec<f32> = g.row(0).iter().map(|&v| v * inv).collect();
            Tensor::from_vec(m, n, row.repeat(m))
        }),
        Op::L2Normalize(a, norms) => slots.add(*a, || {
            let y = &values[i];
            let mut data = Vec::with_capacity(y.len());
            for (r, norm) in norms.iter().enumerate() {
                let (yr, gr) = (y.row(r), g.row(r));
                let dot: f32 = yr.iter().zip(gr).map(|(a, b)| a * b).sum();
                data.extend(yr.iter().zip(gr).map(|(yv, gv)| (gv - yv * dot) / norm));
            }
            Tensor::from_vec(y.rows(), y.cols(), data)
        }),
        Op::StackRows(ids) => {
            for (r, id) in ids.iter().enumerate() {
                slots.add(*id, || Tensor::from_row(g.row(r).to_vec()));
            }
        }
        Op::CrossEntropy { logits, targets, probs } => slots.add(*logits, || {
            let (rows, cols) = val(logits).shape();
            let scale = g.get(0, 0) / targets.len() as f32;
            Tensor::from_vec(rows, cols, softmax_grad(probs, cols, targets, scale))
        }),
        Op::SampledSoftmax { h, emb, idx, sub, gold, probs } => {
            let gl = Tensor::from_row(softmax_grad(probs, probs.len(), &[*gold], g.get(0, 0)));
            slots.add(*h, || gl.matmul(sub));
            // Row `k` of `glᵀ × h`, as `add_tn` would form it.
            let (gl, hv) = (gl.as_slice(), val(h).as_slice());
            let row = |k: usize| {
                let gc = gl[k];
                hv.iter().map(move |&v| if gc == 0.0 { 0.0 } else { 0.0 + gc * v })
            };
            slots.add_rows(*emb, val(emb).shape(), idx, row);
        }
        Op::Gru(step) => {
            let GruStep { x, h, w, wt, saved: [z, r, rh, cand] } = &**step;
            let (xv, hv) = (val(x), val(h));
            // One gate's pre-activation `x·W + s·U + b` with gradient `d`
            // feeds `b`, `U`, `x` and `W`; returns the gradient of `s`.
            let gate = |slots: &mut Slots<'_>, d: &Tensor, s: &Tensor, k: usize| {
                let ([w, u, b], [wt, ut]) =
                    ([w[3 * k], w[3 * k + 1], w[3 * k + 2]], [&wt[2 * k], &wt[2 * k + 1]]);
                slots.add(b, || d.clone());
                slots.add_tn(u, s, d);
                slots.add(*x, || d.matmul(wt));
                slots.add_tn(w, xv, d);
                d.matmul(ut)
            };
            // h' = (1 − z)⊙h + z⊙h̃, in the reverse of the primitives' order.
            slots.add(*h, || g.mul_elem(&z.map(|v| 1.0 - v)));
            let mut d_z = g.mul_elem(cand);
            d_z.add_scaled_assign(&g.mul_elem(hv).scale(-1.0), 1.0);
            let d_cand = g.mul_elem(z).mul_elem(&cand.map(|y| 1.0 - y * y));
            let d_rh = gate(&mut slots, &d_cand, rh, 2);
            slots.add(*h, || d_rh.mul_elem(r));
            let d_r = d_rh.mul_elem(hv).mul_elem(&r.map(|y| y * (1.0 - y)));
            let d_h = gate(&mut slots, &d_r, hv, 1);
            slots.add(*h, || d_h);
            let d_z = d_z.mul_elem(&z.map(|y| y * (1.0 - y)));
            let d_h = gate(&mut slots, &d_z, hv, 0);
            slots.add(*h, || d_h);
        }
    }
}

/// Negative log-likelihood of class `target` under the softmax of `logits`,
/// and the softmax itself.
fn nll_and_probs(logits: &[f32], target: usize) -> (f32, Vec<f32>) {
    assert!(target < logits.len(), "target class out of range");
    let mut probs = log_softmax(logits);
    let nll = -probs[target];
    math::exp_in_place(&mut probs);
    (nll, probs)
}

/// `(softmax − onehot(target)) · scale` for every `cols`-wide row.
fn softmax_grad(probs: &[f32], cols: usize, targets: &[usize], scale: f32) -> Vec<f32> {
    let mut grad = probs.to_vec();
    for (r, &t) in targets.iter().enumerate() {
        grad[r * cols + t] -= 1.0;
    }
    for v in &mut grad {
        *v *= scale;
    }
    grad
}

/// Column-wise sum of rows `[m,n] → [1,n]`.
fn sum_rows(t: &Tensor) -> Tensor {
    let mut out = vec![0.0f32; t.cols()];
    for r in 0..t.rows() {
        for (o, &v) in out.iter_mut().zip(t.row(r)) {
            *o += v;
        }
    }
    Tensor::from_row(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backward_through_matmul() {
        let mut tape = Tape::new();
        let a = tape.leaf(Tensor::from_vec(1, 2, vec![1.0, 2.0]));
        let b = tape.leaf(Tensor::from_vec(2, 1, vec![3.0, 4.0]));
        let c = tape.matmul(a, b); // scalar 11
        assert_eq!(tape.value(c).get(0, 0), 11.0);
        tape.backward(c);
        assert_eq!(tape.grad(a).unwrap().as_slice(), &[3.0, 4.0]);
        assert_eq!(tape.grad(b).unwrap().as_slice(), &[1.0, 2.0]);
    }

    #[test]
    fn matmul_nt_matches_explicit_transpose() {
        let mut tape = Tape::new();
        let a = tape.leaf(Tensor::from_vec(1, 3, vec![1.0, -1.0, 2.0]));
        let b = tape.leaf(Tensor::from_vec(2, 3, vec![0.5, 1.0, 0.0, 2.0, -1.0, 1.0]));
        let c = tape.matmul_nt(a, b);
        let expected = tape.value(a).matmul(&tape.value(b).transpose());
        assert!(tape.value(c).approx_eq(&expected, 1e-6));
    }

    #[test]
    fn broadcast_add_bias_grad_sums_rows() {
        let mut tape = Tape::new();
        let x = tape.leaf(Tensor::from_vec(3, 2, vec![1.0; 6]));
        let b = tape.leaf(Tensor::from_row(vec![0.5, -0.5]));
        let y = tape.add(x, b);
        // reduce to scalar: mean_rows then matmul with ones
        let m = tape.mean_rows(y);
        let ones = tape.constant(Tensor::from_vec(2, 1, vec![1.0, 1.0]));
        let s = tape.matmul(m, ones);
        tape.backward(s);
        // d s / d b = sum over rows of (1/3) = 1 per column
        let gb = tape.grad(b).unwrap();
        assert!(gb.approx_eq(&Tensor::from_row(vec![1.0, 1.0]), 1e-5));
    }

    #[test]
    fn lookup_produces_sparse_grad() {
        let mut tape = Tape::new();
        let emb = tape.leaf(Tensor::from_vec(4, 2, vec![0.0; 8]));
        let g = tape.lookup(emb, &[1, 3, 1]);
        let m = tape.mean_rows(g);
        let ones = tape.constant(Tensor::from_vec(2, 1, vec![1.0, 1.0]));
        let s = tape.matmul(m, ones);
        tape.backward(s);
        let ge = tape.grad(emb).unwrap();
        // rows 1 (twice) and 3 get 1/3 each per column
        assert!((ge.get(1, 0) - 2.0 / 3.0).abs() < 1e-5);
        assert!((ge.get(3, 0) - 1.0 / 3.0).abs() < 1e-5);
        assert_eq!(ge.get(0, 0), 0.0);
        assert_eq!(ge.get(2, 0), 0.0);
    }

    #[test]
    fn cross_entropy_grad_is_softmax_minus_onehot() {
        let mut tape = Tape::new();
        let logits = tape.leaf(Tensor::from_row(vec![1.0, 2.0, 3.0]));
        let loss = tape.cross_entropy_logits(logits, 2);
        tape.backward(loss);
        let g = tape.grad(logits).unwrap();
        let sm = Tensor::from_row(vec![1.0, 2.0, 3.0]).softmax_rows();
        assert!((g.get(0, 0) - sm.get(0, 0)).abs() < 1e-5);
        assert!((g.get(0, 2) - (sm.get(0, 2) - 1.0)).abs() < 1e-5);
    }

    #[test]
    fn loss_decreases_under_gd_on_tiny_regression() {
        // fit y = x * w with squared-error-like surrogate via two steps
        let mut w = Tensor::from_vec(1, 1, vec![0.0]);
        for _ in 0..50 {
            let mut tape = Tape::new();
            let wv = tape.leaf(w.clone());
            let x = tape.constant(Tensor::from_vec(1, 1, vec![2.0]));
            let y = tape.matmul(x, wv); // 2w
            let t = tape.constant(Tensor::from_vec(1, 1, vec![6.0]));
            let d = tape.sub(y, t);
            let sq = tape.mul_elem(d, d);
            tape.backward(sq);
            let g = tape.grad(wv).unwrap();
            w.add_scaled_assign(&g, -0.05);
        }
        assert!((w.get(0, 0) - 3.0).abs() < 0.05, "w={}", w.get(0, 0));
    }

    #[test]
    fn grads_accumulate_across_two_uses() {
        let mut tape = Tape::new();
        let a = tape.leaf(Tensor::from_vec(1, 1, vec![2.0]));
        let y = tape.mul_elem(a, a); // a^2, da = 2a = 4
        tape.backward(y);
        assert!((tape.grad(a).unwrap().get(0, 0) - 4.0).abs() < 1e-5);
    }

    #[test]
    fn l2_normalize_unit_norm_and_grad() {
        let mut tape = Tape::new();
        let a = tape.leaf(Tensor::from_row(vec![3.0, 4.0]));
        let n = tape.l2_normalize(a);
        assert!((tape.value(n).norm() - 1.0).abs() < 1e-6);
        assert!((tape.value(n).get(0, 0) - 0.6).abs() < 1e-6);
        // numeric gradient check on f = first component of normalized vec
        let pick = tape.constant(Tensor::from_vec(2, 1, vec![1.0, 0.0]));
        let f = tape.matmul(n, pick);
        tape.backward(f);
        let g = tape.grad(a).unwrap();
        // analytic: d(x/||x||)_0/dx = (e0 - y*y0)/||x|| = ([1,0]-0.6*[0.6,0.8])/5
        assert!((g.get(0, 0) - (1.0 - 0.36) / 5.0).abs() < 1e-5);
        assert!((g.get(0, 1) - (-0.48) / 5.0).abs() < 1e-5);
    }

    #[test]
    fn stack_rows_roundtrip_grads() {
        let mut tape = Tape::new();
        let a = tape.leaf(Tensor::from_row(vec![1.0, 2.0]));
        let b = tape.leaf(Tensor::from_row(vec![3.0, 4.0]));
        let m = tape.stack_rows(&[a, b]);
        assert_eq!(tape.value(m).shape(), (2, 2));
        let loss = tape.cross_entropy_rows(m, &[0, 1]);
        tape.backward(loss);
        let ga = tape.grad(a).unwrap();
        let gb = tape.grad(b).unwrap();
        // row softmax grads: (p - onehot)/2
        let p0 = Tensor::from_row(vec![1.0, 2.0]).softmax_rows();
        assert!((ga.get(0, 0) - (p0.get(0, 0) - 1.0) / 2.0).abs() < 1e-5);
        assert!(
            (gb.get(0, 1)
                - (Tensor::from_row(vec![3.0, 4.0]).softmax_rows().get(0, 1) - 1.0) / 2.0)
                .abs()
                < 1e-5
        );
    }

    #[test]
    fn cross_entropy_rows_matches_single_row_version() {
        let mut tape = Tape::new();
        let l = tape.leaf(Tensor::from_row(vec![0.2, -0.4, 1.0]));
        let multi = tape.cross_entropy_rows(l, &[2]);
        let mut tape2 = Tape::new();
        let l2 = tape2.leaf(Tensor::from_row(vec![0.2, -0.4, 1.0]));
        let single = tape2.cross_entropy_logits(l2, 2);
        assert!((tape.value(multi).get(0, 0) - tape2.value(single).get(0, 0)).abs() < 1e-6);
    }

    #[test]
    fn tape_and_grad_are_send() {
        fn assert_send<T: Send>() {}
        assert_send::<Tape>();
        assert_send::<Grad>();
    }

    /// Feed `contributions` to one gradient slot, as backward ops do: a
    /// `Dense` one through `add`, rows through `add_rows`.
    fn slot_after(shape: (usize, usize), contributions: &[Grad]) -> Grad {
        let (mut grads, requires) = (vec![None], [true]);
        for c in contributions {
            let mut slots = Slots { grads: &mut grads, requires: &requires };
            match c {
                Grad::Dense(t) => slots.add(ValId(0), || t.clone()),
                Grad::SparseRows { cols, idx, vals, .. } => {
                    let row = |k: usize| vals[k * cols..(k + 1) * cols].iter().copied();
                    slots.add_rows(ValId(0), shape, idx, row)
                }
            }
        }
        grads.pop().flatten().expect("a contribution arrived").into_grad()
    }

    fn rows(cols: usize, entries: &[(usize, &[f32])]) -> Grad {
        let idx = entries.iter().map(|(r, _)| *r).collect();
        let vals = entries.iter().flat_map(|(_, v)| v.iter().copied()).collect();
        Grad::SparseRows { rows: 8, cols, idx, vals }
    }

    #[test]
    fn sparse_accumulate_coalesces_rows() {
        let first = rows(2, &[(2, &[1.0, 2.0]), (0, &[0.5, 0.5])]);
        let second = rows(2, &[(2, &[10.0, 20.0]), (3, &[1.0, 1.0]), (2, &[100.0, 200.0])]);
        let Grad::SparseRows { idx, vals, .. } = slot_after((8, 2), &[first, second]) else {
            panic!("stayed sparse")
        };
        assert_eq!(idx, vec![2, 0, 3], "one entry per row, in first-arrival order");
        assert_eq!(vals, vec![111.0, 222.0, 0.5, 0.5, 1.0, 1.0]);
    }

    #[test]
    fn sparse_accumulate_stays_bounded() {
        // Regression: repeated accumulation onto the same rows must not grow
        // the entry list (it used to append unboundedly).
        let mut contributions = vec![rows(1, &[(1, &[1.0])])];
        contributions.extend((0..100).map(|_| rows(1, &[(1, &[1.0]), (5, &[2.0])])));
        let Grad::SparseRows { idx, vals, .. } = slot_after((8, 1), &contributions) else {
            panic!("stayed sparse")
        };
        assert_eq!((idx, vals), (vec![1, 5], vec![101.0, 200.0]));
    }

    /// A single contribution is kept as it arrived, repeated rows and all:
    /// a store merging it scales each entry before adding, as it always did.
    #[test]
    fn a_lone_contribution_keeps_its_repeated_rows() {
        let once = rows(1, &[(3, &[1.0]), (1, &[2.0]), (3, &[4.0])]);
        let Grad::SparseRows { idx, vals, .. } = slot_after((8, 1), &[once]) else {
            panic!("stayed sparse")
        };
        assert_eq!((idx, vals), (vec![3, 1, 3], vec![1.0, 2.0, 4.0]));
    }

    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// The flat slot against the one-`Vec`-per-row slot it replaced,
        /// over random contribution sequences: repeated rows, exact zeros
        /// and `-0.0`, empty row lists, and a slot densified by a dense
        /// contribution arriving before, between or after rows.
        #[test]
        fn flat_slot_matches_the_vec_per_row_slot(seed in 0u64..1_000_000) {
            use crate::oracle::{below, contribution, per_row, OldGrad};
            let mut state = seed;
            let shape = (1 + below(&mut state, 12), 1 + below(&mut state, 5));
            let dense_odds = [0, 2, 5][below(&mut state, 3)];
            let contributions: Vec<Grad> = (0..1 + below(&mut state, 6))
                .map(|_| {
                    let dense = dense_odds > 0 && below(&mut state, dense_odds) == 0;
                    contribution(&mut state, shape, dense)
                })
                .collect();
            let mut old = OldGrad::from_grad(&contributions[0]);
            contributions[1..].iter().for_each(|c| old.accumulate(OldGrad::from_grad(c)));
            prop_assert_eq!(per_row(&slot_after(shape, &contributions)), old.per_row());
        }
    }

    #[test]
    fn take_grads_orders_by_param_id_and_clears() {
        let mut store = ParamStore::new();
        let b = store.add("b", Tensor::zeros(1, 1));
        let a = store.add("a", Tensor::zeros(1, 1));
        let mut tape = Tape::new();
        // touch in reverse registration order: shard order must still be
        // ascending ParamId
        let av = tape.param(&store, a);
        let bv = tape.param(&store, b);
        let s = tape.mul_elem(av, bv);
        tape.backward(s);
        let shard = tape.take_grads();
        assert_eq!(shard.len(), 2);
        let ids: Vec<_> = shard.iter().map(|(pid, _)| *pid).collect();
        assert!(ids.windows(2).all(|w| w[0] < w[1]), "ascending ParamId order: {ids:?}");
        assert!(tape.take_grads().is_empty(), "grads drained");
    }

    #[test]
    fn constant_subgraphs_are_pruned() {
        let mut tape = Tape::new();
        let a = tape.constant(Tensor::from_vec(1, 1, vec![2.0]));
        let b = tape.constant(Tensor::from_vec(1, 1, vec![3.0]));
        let c = tape.mul_elem(a, b);
        tape.backward(c);
        assert!(tape.grad(a).is_none());
    }

    fn bits(t: &Tensor) -> Vec<u32> {
        t.as_slice().iter().map(|v| v.to_bits()).collect()
    }

    /// A deterministic matrix with exact zeros and a `-0.0` among its values.
    fn matrix(rows: usize, cols: usize, salt: usize) -> Tensor {
        let value = |i: usize| match (i * 7 + salt * 3) % 11 {
            0 => 0.0,
            1 => -0.0,
            v => (v as f32 - 5.5) * 0.37 + salt as f32 * 0.01,
        };
        Tensor::from_vec(rows, cols, (0..rows * cols).map(value).collect())
    }

    /// What the materialising protocol handed a slot: each contribution a
    /// fresh gradient in the old one-`Vec`-per-row layout, the first stored
    /// as it arrives, the rest accumulated.
    fn fold(contributions: Vec<Grad>) -> crate::oracle::OldGrad {
        let mut it = contributions.iter().map(crate::oracle::OldGrad::from_grad);
        let mut slot = it.next().expect("at least one contribution");
        it.for_each(|c| slot.accumulate(c));
        slot
    }

    fn sparse(rows: usize, cols: usize, idx: &[usize], g: &Tensor) -> Grad {
        Grad::SparseRows { rows, cols, idx: idx.to_vec(), vals: g.as_slice().to_vec() }
    }

    fn assert_same_grad(actual: &Grad, expected: &Grad) {
        match (actual, expected) {
            (Grad::Dense(a), Grad::Dense(e)) => assert_eq!(bits(a), bits(e)),
            (
                Grad::SparseRows { idx: ai, vals: av, .. },
                Grad::SparseRows { idx: ei, vals: ev, .. },
            ) => {
                assert_eq!(ai, ei);
                assert_eq!(crate::oracle::bits(av), crate::oracle::bits(ev));
            }
            _ => panic!("one gradient is dense, the other sparse"),
        }
    }

    /// A use of the parameter under test: the scalar it feeds the loss and
    /// the contribution the materialising protocol built for it.
    type Use = (ValId, Box<dyn Fn(&Tape) -> Grad>);

    /// Reduce `out` to a scalar through fixed, non-uniform weights.
    fn scalar(tape: &mut Tape, out: ValId, salt: usize) -> ValId {
        let (m, n) = tape.value(out).shape();
        let read = tape.constant(matrix(n, 1, salt));
        let col = tape.matmul(out, read);
        let ones = tape.constant(Tensor::from_vec(1, m, vec![1.0; m]));
        tape.matmul(ones, col)
    }

    fn gather_use(tape: &mut Tape, w: ValId, idx: &'static [usize], bag: bool) -> Use {
        let (rows, cols) = tape.value(w).shape();
        let looked = tape.lookup(w, idx);
        let out = if bag { tape.mean_rows(looked) } else { looked };
        let grad =
            move |t: &Tape| sparse(rows, cols, idx, &t.grad(looked).expect("rows' gradient"));
        (scalar(tape, out, idx.len()), Box::new(grad))
    }

    fn matmul_use(tape: &mut Tape, w: ValId, salt: usize) -> Use {
        let x = tape.constant(matrix(2, tape.value(w).rows(), salt));
        let y = tape.matmul(x, w);
        let grad = move |t: &Tape| {
            Grad::Dense(t.value(x).transpose().matmul(&t.grad(y).expect("product's gradient")))
        };
        (scalar(tape, y, salt), Box::new(grad))
    }

    fn matmul_nt_use(tape: &mut Tape, w: ValId, salt: usize) -> Use {
        let q = tape.constant(matrix(1, tape.value(w).cols(), salt));
        let y = tape.matmul_nt(q, w);
        let grad = move |t: &Tape| {
            Grad::Dense(t.grad(y).expect("product's gradient").transpose().matmul(t.value(q)))
        };
        (scalar(tape, y, salt), Box::new(grad))
    }

    /// One parameter used by two matmuls, a `matmul_nt`, a lookup *and* a
    /// bag in one graph, in three mixes: only products (dense slot), only
    /// gathers (sparse slot), and both (the sparse slot densified when a
    /// product meets it). The slot must hold, bit for bit, the separately
    /// materialised contributions folded in reverse node order.
    #[test]
    fn slots_collect_what_materialised_contributions_sum_to() {
        for (products, gathers) in [(true, false), (false, true), (true, true)] {
            let mut store = ParamStore::new();
            let p = store.add("p", matrix(5, 3, 1));
            let mut tape = Tape::new();
            let w = tape.param(&store, p);
            let mut uses: Vec<Use> = Vec::new();
            if gathers {
                uses.push(gather_use(&mut tape, w, &[1, 3, 1], false));
            }
            if products {
                uses.push(matmul_use(&mut tape, w, 2));
                uses.push(matmul_use(&mut tape, w, 3));
            }
            if gathers {
                uses.push(gather_use(&mut tape, w, &[3, 4], true));
            }
            if products {
                uses.push(matmul_nt_use(&mut tape, w, 4));
            }
            let heads: Vec<ValId> = uses.iter().map(|(head, _)| *head).collect();
            let loss = tape.sum_scalars(&heads);
            tape.backward(loss);
            let expected = fold(uses.iter().rev().map(|(_, grad)| grad(&tape)).collect());
            let actual = tape.take_grads().pop().expect("the parameter's gradient").1;
            assert_eq!(matches!(actual, Grad::Dense(_)), products, "sparse until a product");
            assert_eq!(crate::oracle::per_row(&actual), expected.per_row());
        }
    }

    /// The fused sampled-softmax node against `lookup → matmul_nt →
    /// cross_entropy_logits`: loss, hidden-state gradient and the sparse
    /// embedding gradient, over two heads sharing `h` and the table (so the
    /// slots accumulate), candidate lists with a repeated row, and a hidden
    /// state with exact zeros.
    #[test]
    fn fused_sampled_softmax_is_bitwise_the_primitive_composition() {
        let run = |fused: bool| {
            let mut store = ParamStore::new();
            let e = store.add("emb", matrix(9, 6, 2));
            let mut tape = Tape::new();
            let emb = tape.param(&store, e);
            let h = tape.leaf(matrix(1, 6, 3));
            let heads: [(&[usize], usize); 2] = [(&[4, 0, 7, 4, 2], 2), (&[8, 7, 1], 0)];
            let losses: Vec<ValId> = heads
                .iter()
                .map(|&(idx, gold)| {
                    if fused {
                        return tape.sampled_softmax_loss(h, emb, idx, gold);
                    }
                    let sub = tape.lookup(emb, idx);
                    let logits = tape.matmul_nt(h, sub);
                    tape.cross_entropy_logits(logits, gold)
                })
                .collect();
            let values: Vec<u32> = losses.iter().flat_map(|&l| bits(tape.value(l))).collect();
            let total = tape.sum_scalars(&losses);
            let mean = tape.scale(total, 0.5);
            tape.backward(mean);
            let dh = bits(&tape.grad(h).expect("hidden-state gradient"));
            (values, dh, tape.take_grads().pop().expect("embedding gradient").1)
        };
        let (fused, oracle) = (run(true), run(false));
        assert_eq!((&fused.0, &fused.1), (&oracle.0, &oracle.1));
        assert_same_grad(&fused.2, &oracle.2);
        assert!(matches!(fused.2, Grad::SparseRows { .. }), "the table's gradient stays sparse");
    }
}
