//! Parameter storage and optimizers.
//!
//! [`ParamStore`] owns all trainable tensors of a model plus their accumulated
//! gradients and optimizer state. [`AdamW`] implements decoupled weight decay
//! (Loshchilov & Hutter, 2019) — the optimizer used for the paper's schema
//! router — with a *lazy* path for sparse (embedding) gradients: rows that
//! received no gradient in a step are not touched, which keeps training cost
//! proportional to the tokens actually used rather than the vocabulary size.
//!
//! # The epilogue
//!
//! Between two minibatches the optimizer merges the per-example gradient
//! shards, takes the global norm, clips and updates
//! ([`AdamW::step_shards`]) in two rounds of jobs over fixed ranges of
//! `SPAN` elements of every parameter's gradient — merge, then clip and
//! update — handed to a runner that may run them in any order on any
//! thread. No element's arithmetic depends on who runs it or where a range
//! ends. The norm's partial sums (one per dense gradient, one per sparse
//! row) are taken by the merge job holding all of a sum's elements, or
//! after the merge where none does, and folded in parameter then row order.
//! So the weights are bit-identical to the serial `merge_grads`,
//! `clip_grad_norm`, `step` at any thread count.

use std::collections::HashMap;
use std::sync::OnceLock;

use crate::tape::{rows_to_dense, Grad};
use crate::tensor::Tensor;

/// Identifier of a parameter inside a [`ParamStore`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ParamId(pub(crate) usize);

/// One worker's gradients, drained from its tape in ascending [`ParamId`]
/// order (see `Tape::take_grads`). Shards from a data-parallel step are
/// combined by [`AdamW::step_shards`].
pub type GradShard = Vec<(ParamId, Grad)>;

/// Independent jobs of one epilogue phase: a runner runs each exactly once,
/// in any order, on any thread.
pub type Jobs<'a> = Vec<Box<dyn FnOnce() + Send + 'a>>;

/// Gradient elements per epilogue job. Fixed, so the ranges never depend on
/// the thread count (and no result depends on the ranges).
const SPAN: usize = 8192;

fn run_inline(jobs: Jobs<'_>) {
    jobs.into_iter().for_each(|job| job());
}

struct Param {
    name: String,
    value: Tensor,
    /// `valueᵀ`, built on first use and dropped whenever `value` can change.
    transposed: OnceLock<Tensor>,
    grad: GradAccum,
    /// Scratch the merge reuses, as fresh buffers would fault in fresh pages
    /// every step: the values of the last gradient an `AdamW` step consumed,
    /// and a table row → accumulator row map (only rows just set are read).
    spare: Vec<f32>,
    row_at: Vec<u32>,
    /// First Adam moment.
    m: Option<Tensor>,
    /// Second Adam moment.
    v: Option<Tensor>,
}

impl Param {
    /// Move the accumulated gradient out, leaving none.
    fn take_grad(&mut self) -> Option<Grad> {
        let (rows, cols) = self.value.shape();
        match std::mem::take(&mut self.grad) {
            GradAccum::None => None,
            GradAccum::Dense(t) => Some(Grad::Dense(t)),
            GradAccum::Rows { idx, vals } => Some(Grad::SparseRows { rows, cols, idx, vals }),
        }
    }
}

/// Accumulated gradient for one parameter: dense, sparse rows, or absent.
#[derive(Default)]
enum GradAccum {
    #[default]
    None,
    Dense(Tensor),
    /// Row `idx[k]` holds `vals[k·cols..(k+1)·cols]`, rows strictly
    /// ascending: the order the norm sums them in (float summation order is
    /// part of the training determinism contract).
    Rows {
        idx: Vec<usize>,
        vals: Vec<f32>,
    },
}

impl GradAccum {
    fn into_values(self) -> Option<Vec<f32>> {
        match self {
            GradAccum::None => None,
            GradAccum::Dense(t) => Some(t.into_vec()),
            GradAccum::Rows { vals, .. } => Some(vals),
        }
    }

    fn values_mut(&mut self) -> &mut [f32] {
        match self {
            GradAccum::None => &mut [],
            GradAccum::Dense(t) => t.as_mut_slice(),
            GradAccum::Rows { vals, .. } => vals,
        }
    }
}

/// A parameter's accumulator while the merge folds into it, and for sparse
/// rows the rows it holds (ascending) with each table row's position among
/// them.
struct Fold {
    vals: Vec<f32>,
    rows: Option<(Vec<usize>, Vec<u32>)>,
}

impl Fold {
    /// The accumulator `parts` fold into, in `p`'s scratch: dense if any
    /// part is, else one row per table row any part names, found by a
    /// bitmap, not a sort.
    fn new(p: &mut Param, parts: &[(&Grad, f32)]) -> Self {
        let ((rows, cols), mut vals) = (p.value.shape(), std::mem::take(&mut p.spare));
        if parts.iter().any(|(g, _)| matches!(g, Grad::Dense(_))) {
            vals.resize(rows * cols, 0.0);
            return Fold { vals, rows: None };
        }
        let mut marks = vec![0u64; rows.div_ceil(64)];
        for (g, _) in parts {
            if let Grad::SparseRows { idx, .. } = g {
                idx.iter().for_each(|&r| marks[r / 64] |= 1 << (r % 64));
            }
        }
        let (mut held, mut at) = (Vec::new(), std::mem::take(&mut p.row_at));
        at.resize(rows, 0);
        for (w, mut bits) in marks.into_iter().enumerate() {
            while bits != 0 {
                let r = w * 64 + bits.trailing_zeros() as usize;
                at[r] = held.len() as u32;
                held.push(r);
                bits &= bits - 1;
            }
        }
        vals.resize(held.len() * cols, 0.0);
        Fold { vals, rows: Some((held, at)) }
    }
}

/// Fold every part into `acc`, elements `lo..` of a `cols`-wide accumulator
/// whose rows sit at `at[row]` (sparse) or at their own index (dense): each
/// element starts at `-0.0`, the identity of IEEE addition (so a first
/// contribution lands as its rounded product), and adds `g·s` of every part
/// in order.
fn fold_range(acc: &mut [f32], lo: usize, parts: &[(&Grad, f32)], at: Option<&[u32]>, cols: usize) {
    let hi = lo + acc.len();
    acc.fill(-0.0);
    for &(g, s) in parts {
        match g {
            Grad::Dense(t) => {
                for (a, &v) in acc.iter_mut().zip(&t.as_slice()[lo..hi]) {
                    *a += v * s;
                }
            }
            Grad::SparseRows { idx, vals, .. } => {
                for (&r, row) in idx.iter().zip(vals.chunks(cols.max(1))) {
                    let start = at.map_or(r, |at| at[r] as usize) * cols;
                    let (from, to) = (start.max(lo), (start + cols).min(hi));
                    if from < to {
                        let row = &row[from - start..to - start];
                        for (a, &v) in acc[from - lo..to - lo].iter_mut().zip(row) {
                            *a += v * s;
                        }
                    }
                }
            }
        }
    }
}

fn sum_sq(v: &[f32]) -> f32 {
    v.iter().map(|v| v * v).sum::<f32>()
}

/// `max_norm / norm` if a gradient of global norm `norm` must shrink.
fn clip_factor(norm: f32, max_norm: f32) -> Option<f32> {
    if norm <= max_norm || norm == 0.0 {
        None
    } else {
        Some(max_norm / norm)
    }
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
            spare: Vec::new(),
            row_at: Vec::new(),
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
        self.merge_grads([vec![(id, grad)]], 1.0);
    }

    /// Merge per-worker gradient shards into the accumulators, scaling every
    /// contribution by `scale` (e.g. `1/batch` for a batch-mean loss whose
    /// shards were each seeded with gradient 1).
    ///
    /// Every element folds, in one fixed order, what it had accumulated and
    /// then each shard's `g·scale`, shards in iteration order and a shard's
    /// rows in their listed order: a value is stored as its rounded product
    /// where it arrives first and added after that. The accumulated gradient
    /// is bit-identical no matter how many threads produced the shards — the
    /// keystone of deterministic data-parallel training.
    pub(crate) fn merge_grads(&mut self, shards: impl IntoIterator<Item = GradShard>, scale: f32) {
        let shards: Vec<GradShard> = shards.into_iter().collect();
        self.merge(&shards, scale, SPAN, &run_inline);
    }

    /// [`ParamStore::merge_grads`] as jobs of `span` accumulator elements.
    /// A job also takes the norm's partial sum (see [`ParamStore::norm`]) of
    /// each dense gradient or sparse row whose elements all fall in its
    /// range; the rest stay `None`, per parameter.
    fn merge(
        &mut self,
        shards: &[GradShard],
        scale: f32,
        span: usize,
        run: &dyn Fn(Jobs<'_>),
    ) -> Vec<Vec<Option<f32>>> {
        let mut held: Vec<Option<Grad>> = self.params.iter().map(|_| None).collect();
        for (pid, _) in shards.iter().flatten() {
            if held[pid.0].is_none() {
                held[pid.0] = self.params[pid.0].take_grad();
            }
        }
        // A parameter's parts, in the order they fold: what it held (as is),
        // then every shard's.
        let mut parts: Vec<Vec<(&Grad, f32)>> = (held.iter())
            .map(|g| {
                let mut parts = Vec::with_capacity(shards.len() + 1);
                parts.extend(g.iter().map(|g| (g, 1.0)));
                parts
            })
            .collect();
        for (pid, g) in shards.iter().flatten() {
            parts[pid.0].push((g, scale));
        }
        let mut folds: Vec<Option<Fold>> = (self.params.iter_mut().zip(&parts))
            .map(|(p, parts)| (!parts.is_empty()).then(|| Fold::new(p, parts)))
            .collect();
        let mut partials: Vec<Vec<Option<f32>>> = (folds.iter())
            .map(|f| f.as_ref().map_or(0, |f| f.rows.as_ref().map_or(1, |(held, _)| held.len())))
            .map(|units| vec![None; units])
            .collect();
        let mut jobs: Jobs<'_> = Vec::new();
        for (((fold, parts), p), partials) in
            folds.iter_mut().zip(&parts).zip(&self.params).zip(&mut partials)
        {
            let Some(Fold { vals, rows }) = fold else { continue };
            let at = rows.as_ref().map(|(_, at)| at.as_slice());
            let (cols, len) = (p.value.cols(), vals.len());
            let mut partials = Pieces::new(partials);
            for (k, acc) in vals.chunks_mut(span).enumerate() {
                let (lo, hi) = (k * span, k * span + acc.len());
                // The units whole in `lo..hi`, and how wide one is.
                let (units, width) = match at {
                    None => (if hi - lo == len { 0..1 } else { 0..0 }, len),
                    Some(_) => (lo.div_ceil(cols)..(hi / cols).max(lo.div_ceil(cols)), cols),
                };
                let out = partials.take(units.start, units.end);
                jobs.push(Box::new(move || {
                    fold_range(acc, lo, parts, at, cols);
                    for (unit, o) in units.zip(out) {
                        *o = Some(sum_sq(&acc[unit * width - lo..][..width]));
                    }
                }));
            }
        }
        run(jobs);
        for (p, fold) in self.params.iter_mut().zip(folds) {
            let Some(Fold { vals, rows }) = fold else { continue };
            p.grad = match rows {
                Some((idx, at)) => {
                    p.row_at = at;
                    GradAccum::Rows { idx, vals }
                }
                None => GradAccum::Dense(Tensor::from_vec(p.value.rows(), p.value.cols(), vals)),
            };
        }
        partials
    }

    /// Clear all accumulated gradients.
    pub fn zero_grads(&mut self) {
        for p in &mut self.params {
            p.grad = GradAccum::None;
        }
    }

    /// Global L2 norm of all accumulated gradients.
    pub fn grad_norm(&self) -> f32 {
        self.norm(&[])
    }

    /// The global norm from one partial sum of squares per dense gradient
    /// and per sparse row, folded in parameter then row order: `known[p][k]`
    /// where a merge job took it, summed here where not.
    fn norm(&self, known: &[Vec<Option<f32>>]) -> f32 {
        let mut sq = 0.0f32;
        for (i, p) in self.params.iter().enumerate() {
            let known = known.get(i).map_or(&[][..], Vec::as_slice);
            let part =
                |k: usize, v: &[f32]| known.get(k).copied().flatten().unwrap_or_else(|| sum_sq(v));
            match &p.grad {
                GradAccum::None => {}
                GradAccum::Dense(t) => sq += part(0, t.as_slice()),
                GradAccum::Rows { idx, vals } => {
                    let cols = p.value.cols();
                    (0..idx.len()).for_each(|k| sq += part(k, &vals[k * cols..(k + 1) * cols]));
                }
            }
        }
        sq.sqrt()
    }

    /// Scale all gradients so the global norm does not exceed `max_norm`.
    pub fn clip_grad_norm(&mut self, max_norm: f32) {
        if let Some(s) = clip_factor(self.grad_norm(), max_norm) {
            for p in &mut self.params {
                p.grad.values_mut().iter_mut().for_each(|v| *v *= s);
            }
        }
    }

    /// Densified gradient of a parameter (for tests / gradient checking).
    pub fn dense_grad(&self, id: ParamId) -> Option<Tensor> {
        let p = &self.params[id.0];
        match &p.grad {
            GradAccum::None => None,
            GradAccum::Dense(t) => Some(t.clone()),
            GradAccum::Rows { idx, vals } => Some(rows_to_dense(p.value.shape(), idx, vals)),
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

/// Hands out disjoint pieces of one buffer, in ascending order.
struct Pieces<'a, T> {
    rest: &'a mut [T],
    at: usize,
}

impl<'a, T> Pieces<'a, T> {
    fn new(buf: &'a mut [T]) -> Self {
        Pieces { rest: buf, at: 0 }
    }

    /// Elements `from..to`, where `from` is at or past the previous `to`.
    fn take(&mut self, from: usize, to: usize) -> &'a mut [T] {
        let (_, rest) = std::mem::take(&mut self.rest).split_at_mut(from - self.at);
        let (piece, rest) = rest.split_at_mut(to - from);
        self.rest = rest;
        self.at = to;
        piece
    }
}

/// The stretches of gradient elements `lo..hi` that are contiguous in the
/// parameter too, as `(gradient offset, parameter offset, length)`: one for a
/// dense gradient, one per row or part of a row for sparse `idx`.
fn runs(
    idx: Option<&[usize]>,
    cols: usize,
    lo: usize,
    hi: usize,
) -> impl Iterator<Item = (usize, usize, usize)> + '_ {
    let dense = idx.is_none().then_some((lo, lo, hi - lo));
    let rows = idx.into_iter().flat_map(move |idx| {
        (lo / cols..(hi - 1) / cols + 1).map(move |k| {
            let (from, to) = ((k * cols).max(lo), ((k + 1) * cols).min(hi));
            (from, idx[k] * cols + from - k * cols, to - from)
        })
    });
    dense.into_iter().chain(rows)
}

/// AdamW's constants at one step.
#[derive(Clone, Copy)]
struct Moments {
    lr: f32,
    b1: f32,
    b2: f32,
    eps: f32,
    wd: f32,
    bc1: f32,
    bc2: f32,
}

impl Moments {
    /// Update `w` and its moments `m`, `v` by `g`, element by element.
    fn apply(&self, w: &mut [f32], m: &mut [f32], v: &mut [f32], g: &[f32]) {
        let Moments { lr, b1, b2, eps, wd, bc1, bc2 } = *self;
        for (((w, m), v), &g) in w.iter_mut().zip(m).zip(v).zip(g) {
            *m = b1 * *m + (1.0 - b1) * g;
            *v = b2 * *v + (1.0 - b2) * g * g;
            let mh = *m / bc1;
            let vh = *v / bc2;
            *w -= lr * (mh / (vh.sqrt() + eps) + wd * *w);
        }
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
        self.update(store, None, SPAN, &run_inline);
    }

    /// One optimization step from data-parallel gradient shards: bit for bit
    /// `merge_grads(shards, scale)`, `clip_grad_norm(max_norm)` and
    /// [`AdamW::step`], each phase handed to `run` as jobs over fixed ranges
    /// of every parameter (see the module docs).
    pub fn step_shards(
        &mut self,
        store: &mut ParamStore,
        shards: &[GradShard],
        scale: f32,
        max_norm: f32,
        run: &dyn Fn(Jobs<'_>),
    ) {
        let partials = store.merge(shards, scale, SPAN, run);
        let clip = clip_factor(store.norm(&partials), max_norm);
        self.update(store, clip, SPAN, run);
    }

    /// Scale every gradient by `clip` (if any), take one step from them in
    /// jobs of `span` gradient elements, and clear them.
    fn update(
        &mut self,
        store: &mut ParamStore,
        clip: Option<f32>,
        span: usize,
        run: &dyn Fn(Jobs<'_>),
    ) {
        self.t += 1;
        let k = Moments {
            lr: self.lr,
            b1: self.beta1,
            b2: self.beta2,
            eps: self.eps,
            wd: self.weight_decay,
            bc1: 1.0 - self.beta1.powi(self.t as i32),
            bc2: 1.0 - self.beta2.powi(self.t as i32),
        };
        let mut grads: Vec<GradAccum> =
            store.params.iter_mut().map(|p| std::mem::take(&mut p.grad)).collect();
        let mut jobs: Jobs<'_> = Vec::new();
        for (p, grad) in store.params.iter_mut().zip(&mut grads) {
            p.transposed.take();
            let (rows, cols) = p.value.shape();
            let m = p.m.get_or_insert_with(|| Tensor::zeros(rows, cols)).as_mut_slice();
            let v = p.v.get_or_insert_with(|| Tensor::zeros(rows, cols)).as_mut_slice();
            // Lazy AdamW: rows without gradient keep stale moments. This is
            // the standard sparse-Adam approximation.
            let (idx, g) = match grad {
                GradAccum::None => continue,
                GradAccum::Dense(t) => (None, t.as_mut_slice()),
                GradAccum::Rows { idx, vals } => (Some(idx.as_slice()), vals.as_mut_slice()),
            };
            let at = |j: usize| idx.map_or(j, |idx| idx[j / cols] * cols + j % cols);
            let mut bufs = [p.value.as_mut_slice(), m, v].map(Pieces::new);
            for (j, g) in g.chunks_mut(span).enumerate() {
                let (lo, hi) = (j * span, j * span + g.len());
                let (from, to) = (at(lo), at(hi - 1) + 1);
                let [w, m, v] = bufs.each_mut().map(|buf| buf.take(from, to));
                jobs.push(Box::new(move || {
                    if let Some(c) = clip {
                        g.iter_mut().for_each(|x| *x *= c);
                    }
                    for (a, t, n) in runs(idx, cols, lo, hi) {
                        let (t, a) = (t - from, a - lo);
                        k.apply(&mut w[t..t + n], &mut m[t..t + n], &mut v[t..t + n], &g[a..a + n]);
                    }
                }));
            }
        }
        run(jobs);
        for (p, grad) in store.params.iter_mut().zip(grads) {
            if let Some(vals) = grad.into_values() {
                p.spare = vals;
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
            Grad::SparseRows { rows: 4, cols: 2, idx: vec![1], vals: vec![1.0, 1.0] },
        );
        AdamW::new(0.5).step(&mut store);
        let v = store.value(e);
        assert_eq!(v.row(0), &[0.0, 0.0]);
        assert!(v.row(1).iter().all(|&w| (w + 0.5).abs() < 1e-6), "{:?}", v.row(1));
        assert_eq!(v.row(2), &[0.0, 0.0]);
        assert_eq!(v.row(3), &[0.0, 0.0]);
    }

    #[test]
    fn grad_accumulation_merges_sparse_entries() {
        let mut store = ParamStore::new();
        let e = store.add("emb", Tensor::zeros(3, 1));
        store.accumulate_grad(
            e,
            Grad::SparseRows { rows: 3, cols: 1, idx: vec![0, 2], vals: vec![1.0, 3.0] },
        );
        store.accumulate_grad(
            e,
            Grad::SparseRows { rows: 3, cols: 1, idx: vec![0], vals: vec![1.5] },
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
            (ParamId(1), Grad::SparseRows { rows: 3, cols: 2, idx: vec![1], vals: vec![4.0, 4.0] }),
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

    use crate::oracle::{below, bits, contribution, hostile, GradBits, OldGrad, OldStore};
    use proptest::prelude::*;

    /// A parameter's gradient as the oracle's `grad_bits` reports it.
    fn grad_bits(store: &ParamStore, id: usize) -> GradBits {
        let p = &store.params[id];
        match &p.grad {
            GradAccum::None => None,
            GradAccum::Dense(t) => Some(Ok(bits(t.as_slice()))),
            GradAccum::Rows { idx, vals } => {
                let rows = vals.chunks(p.value.cols().max(1)).map(bits);
                Some(Err(idx.iter().copied().zip(rows).collect()))
            }
        }
    }

    /// Every gradient, weight and moment of `store` against the oracle's.
    fn assert_same_state(store: &ParamStore, old: &OldStore) -> Result<(), TestCaseError> {
        for (i, (p, o)) in store.params.iter().zip(&old.params).enumerate() {
            prop_assert_eq!(grad_bits(store, i), old.grad_bits(i), "gradient of param {}", i);
            prop_assert_eq!(bits(p.value.as_slice()), bits(o.value.as_slice()), "param {}", i);
            let moment = |t: &Option<Tensor>| t.as_ref().map(|t| bits(t.as_slice()));
            prop_assert_eq!((moment(&p.m), moment(&p.v)), (moment(&o.m), moment(&o.v)));
        }
        Ok(())
    }

    /// A runner that runs the jobs in an order drawn from `seed`.
    fn shuffled(seed: u64) -> impl Fn(Jobs<'_>) {
        let state = std::cell::Cell::new(seed);
        move |jobs| {
            let mut jobs: Vec<_> = jobs.into_iter().map(Some).collect();
            let mut s = state.get();
            let mut order: Vec<usize> = (0..jobs.len()).collect();
            for i in (1..order.len()).rev() {
                order.swap(i, below(&mut s, i + 1));
            }
            state.set(s);
            order.into_iter().for_each(|i| jobs[i].take().expect("each job runs once")());
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// The flat accumulator and the range-job epilogue against the
        /// `BTreeMap` accumulator and serial loops they replaced, bit for
        /// bit, over two optimizer steps: `accumulate_grad`, `merge_grads`
        /// (1–20 shards, `scale ≠ 1`, repeated rows, exact zeros and
        /// `-0.0`, sparse gradients densified by a dense one in either
        /// order), `grad_norm`, `clip_grad_norm`, `AdamW::step`, and the
        /// same step as jobs of `span` elements — one element, less than a
        /// row, a row and a bit, or whole parameters — run in a shuffled
        /// order.
        #[test]
        fn flat_rows_and_range_jobs_match_the_btreemap_store(seed in 0u64..1_000_000) {
            let mut state = seed;
            let shapes: Vec<(usize, usize)> = (0..1 + below(&mut state, 4))
                .map(|_| (1 + below(&mut state, 10), 1 + below(&mut state, 6)))
                .collect();
            // Per parameter: never dense, always dense, or either.
            let modes: Vec<usize> = shapes.iter().map(|_| below(&mut state, 3)).collect();
            let cols = shapes.iter().map(|s| s.1).max().unwrap_or(1);
            let span = [1, cols.saturating_sub(1).max(1), cols + 1, 3 * cols + 2, SPAN][below(&mut state, 5)];
            let init: Vec<Tensor> = shapes
                .iter()
                .map(|&(r, c)| Tensor::from_vec(r, c, (0..r * c).map(|_| hostile(&mut state)).collect()))
                .collect();
            let (mut serial, mut jobs) = (ParamStore::new(), ParamStore::new());
            for (i, t) in init.iter().enumerate() {
                for store in [&mut serial, &mut jobs] {
                    store.add(format!("p{i}"), t.clone());
                }
            }
            let mut old = OldStore::new(init);
            let (mut opt, mut opt_jobs) = (AdamW::new(0.05), AdamW::new(0.05));
            let runner = shuffled(seed);
            for _ in 0..2 {
                let draw = |state: &mut u64, i: usize| {
                    let dense = modes[i] == 1 || (modes[i] == 2 && below(state, 2) == 0);
                    contribution(state, shapes[i], dense)
                };
                // What a parameter holds before the merge folds first.
                for i in 0..shapes.len() {
                    if below(&mut state, 3) == 0 {
                        let g = draw(&mut state, i);
                        for store in [&mut serial, &mut jobs] {
                            store.accumulate_grad(ParamId(i), g.clone());
                        }
                        old.accumulate_scaled(i, OldGrad::from_grad(&g), 1.0);
                    }
                }
                let mut shards: Vec<GradShard> = Vec::new();
                for _ in 0..1 + below(&mut state, 20) {
                    let touched: Vec<usize> =
                        (0..shapes.len()).filter(|_| below(&mut state, 3) != 0).collect();
                    shards.push(touched.into_iter().map(|i| (ParamId(i), draw(&mut state, i))).collect());
                }
                let old_shards: Vec<Vec<(usize, OldGrad)>> = shards
                    .iter()
                    .map(|s| s.iter().map(|(p, g)| (p.0, OldGrad::from_grad(g))).collect())
                    .collect();
                let scale = [1.0, 0.5, 1.0 / 3.0, -1.25, 0.1][below(&mut state, 5)];
                let max_norm = [0.5, 3.0, 1e9][below(&mut state, 3)];

                old.merge_grads(&old_shards, scale);
                serial.merge_grads(shards.clone(), scale);
                assert_same_state(&serial, &old)?;
                let partials = jobs.merge(&shards, scale, span, &runner);
                assert_same_state(&jobs, &old)?;
                let norm = old.norm().to_bits();
                prop_assert_eq!(serial.grad_norm().to_bits(), norm);
                prop_assert_eq!(jobs.norm(&partials).to_bits(), norm);

                old.clip_grad_norm(max_norm);
                serial.clip_grad_norm(max_norm);
                assert_same_state(&serial, &old)?;
                old.adamw_step(opt.steps() + 1, opt.lr, opt.beta1, opt.beta2, opt.eps, opt.weight_decay);
                opt.step(&mut serial);
                assert_same_state(&serial, &old)?;
                let clip = clip_factor(jobs.norm(&partials), max_norm);
                opt_jobs.update(&mut jobs, clip, span, &runner);
                assert_same_state(&jobs, &old)?;
            }
        }
    }

    /// `step_shards` is the three serial calls, here on real threads.
    #[test]
    fn step_shards_on_threads_is_merge_clip_step() {
        let mut state = 7u64;
        let shapes = [(40, 3), (9, 700), (1, 5000)];
        let fresh = || {
            let mut s = ParamStore::new();
            for (i, &(r, c)) in shapes.iter().enumerate() {
                s.add(format!("p{i}"), Tensor::zeros(r, c));
            }
            s
        };
        let shards: Vec<GradShard> = (0..6)
            .map(|_| {
                (0..3).map(|i| (ParamId(i), contribution(&mut state, shapes[i], i != 0))).collect()
            })
            .collect();
        let (mut serial, mut threaded) = (fresh(), fresh());
        let mut opt = AdamW::new(0.01);
        serial.merge_grads(shards.clone(), 0.25);
        serial.clip_grad_norm(0.5);
        opt.step(&mut serial);
        let on_threads = |jobs: Jobs<'_>| {
            std::thread::scope(|s| {
                let mut jobs = jobs;
                let half = jobs.split_off(jobs.len() / 2);
                s.spawn(move || half.into_iter().for_each(|job| job()));
                jobs.into_iter().for_each(|job| job());
            })
        };
        AdamW::new(0.01).step_shards(&mut threaded, &shards, 0.25, 0.5, &on_threads);
        for (a, b) in serial.iter_values().zip(threaded.iter_values()) {
            assert_eq!(bits(a.1.as_slice()), bits(b.1.as_slice()), "{}", a.0);
        }
    }
}
