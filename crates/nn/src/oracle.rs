//! The gradient layouts the flat rows replaced, kept as test oracles: a
//! tape slot of one `Vec` per row, coalesced by a stable sort, and a
//! parameter store whose sparse accumulator is a `BTreeMap` of rows, with
//! the merge, norm, clipping and optimizer loops that walked it.

use std::collections::BTreeMap;

use crate::tape::Grad;
use crate::tensor::Tensor;

/// A gradient in the old layout: one `(row, values)` entry per row.
#[derive(Debug, Clone)]
pub(crate) enum OldGrad {
    Dense(Tensor),
    Rows { rows: usize, cols: usize, entries: Vec<(usize, Vec<f32>)> },
}

impl OldGrad {
    pub(crate) fn from_grad(g: &Grad) -> Self {
        match g {
            Grad::Dense(t) => OldGrad::Dense(t.clone()),
            Grad::SparseRows { rows, cols, idx, vals } => OldGrad::Rows {
                rows: *rows,
                cols: *cols,
                entries: idx
                    .iter()
                    .zip(vals.chunks((*cols).max(1)))
                    .map(|(&r, v)| (r, v.to_vec()))
                    .collect(),
            },
        }
    }

    fn into_dense(self) -> Tensor {
        match self {
            OldGrad::Dense(t) => t,
            OldGrad::Rows { rows, cols, entries } => {
                let mut out = Tensor::zeros(rows, cols);
                let buf = out.as_mut_slice();
                for (r, row) in entries {
                    for (c, v) in row.iter().enumerate() {
                        buf[r * cols + c] += v;
                    }
                }
                out
            }
        }
    }

    /// The old tape slot's merge of a later contribution.
    pub(crate) fn accumulate(&mut self, other: OldGrad) {
        match (&mut *self, other) {
            (OldGrad::Dense(a), OldGrad::Dense(b)) => a.add_scaled_assign(&b, 1.0),
            (OldGrad::Rows { entries, .. }, OldGrad::Rows { entries: more, .. }) => {
                entries.extend(more);
                coalesce_rows(entries);
            }
            (OldGrad::Dense(a), sparse) => a.add_scaled_assign(&sparse.into_dense(), 1.0),
            (sparse @ OldGrad::Rows { .. }, OldGrad::Dense(b)) => {
                let mut d =
                    std::mem::replace(sparse, OldGrad::Dense(Tensor::zeros(0, 0))).into_dense();
                d.add_scaled_assign(&b, 1.0);
                *sparse = OldGrad::Dense(d);
            }
        }
    }

    /// Row → the value lists listed for it, in order (bits), or the dense
    /// bits: what a merge into a store can tell apart.
    pub(crate) fn per_row(&self) -> PerRow {
        match self {
            OldGrad::Dense(t) => PerRow::Dense(bits(t.as_slice())),
            OldGrad::Rows { entries, .. } => {
                let mut rows: BTreeMap<usize, Vec<Vec<u32>>> = BTreeMap::new();
                for (r, v) in entries {
                    rows.entry(*r).or_default().push(bits(v));
                }
                PerRow::Rows(rows)
            }
        }
    }
}

/// See [`OldGrad::per_row`].
#[derive(Debug, PartialEq, Eq)]
pub(crate) enum PerRow {
    Dense(Vec<u32>),
    Rows(BTreeMap<usize, Vec<Vec<u32>>>),
}

/// The flat gradient seen the way [`OldGrad::per_row`] sees the old one.
pub(crate) fn per_row(g: &Grad) -> PerRow {
    OldGrad::from_grad(g).per_row()
}

pub(crate) fn bits(v: &[f32]) -> Vec<u32> {
    v.iter().map(|x| x.to_bits()).collect()
}

/// Sort entries by row index (stable, so same-row contributions keep their
/// arrival order) and sum duplicates into one entry per row.
fn coalesce_rows(entries: &mut Vec<(usize, Vec<f32>)>) {
    if entries.len() < 2 {
        return;
    }
    entries.sort_by_key(|(r, _)| *r);
    let mut write = 0;
    for read in 1..entries.len() {
        if entries[read].0 == entries[write].0 {
            let (head, tail) = entries.split_at_mut(read);
            for (a, v) in head[write].1.iter_mut().zip(&tail[0].1) {
                *a += v;
            }
        } else {
            write += 1;
            entries.swap(write, read);
        }
    }
    entries.truncate(write + 1);
}

/// A parameter's gradient: `None`, the dense bits, or `(row, bits)` in row
/// order.
pub(crate) type GradBits = Option<Result<Vec<u32>, Vec<(usize, Vec<u32>)>>>;

#[derive(Default)]
pub(crate) enum OldAccum {
    #[default]
    None,
    Dense(Tensor),
    Sparse(BTreeMap<usize, Vec<f32>>),
}

pub(crate) struct OldParam {
    pub(crate) value: Tensor,
    pub(crate) grad: OldAccum,
    pub(crate) m: Option<Tensor>,
    pub(crate) v: Option<Tensor>,
}

/// The old `ParamStore`'s gradient and optimizer half.
pub(crate) struct OldStore {
    pub(crate) params: Vec<OldParam>,
}

impl OldStore {
    pub(crate) fn new(values: Vec<Tensor>) -> Self {
        let params = values
            .into_iter()
            .map(|value| OldParam { value, grad: OldAccum::None, m: None, v: None })
            .collect();
        OldStore { params }
    }

    pub(crate) fn accumulate_scaled(&mut self, id: usize, grad: OldGrad, s: f32) {
        let slot = &mut self.params[id].grad;
        match grad {
            OldGrad::Dense(mut t) => {
                if let OldAccum::Dense(d) = slot {
                    return d.add_scaled_assign(&t, s);
                }
                let cols = t.cols();
                let buf = t.as_mut_slice();
                if s != 1.0 {
                    buf.iter_mut().for_each(|v| *v *= s);
                }
                if let OldAccum::Sparse(map) = slot {
                    for (r, row) in std::mem::take(map) {
                        for (c, v) in row.into_iter().enumerate() {
                            buf[r * cols + c] += v;
                        }
                    }
                }
                *slot = OldAccum::Dense(t);
            }
            OldGrad::Rows { entries, cols, .. } => {
                if let OldAccum::None = slot {
                    *slot = OldAccum::Sparse(BTreeMap::new());
                }
                for (r, mut row) in entries {
                    let acc = match slot {
                        OldAccum::Dense(d) => &mut d.as_mut_slice()[r * cols..(r + 1) * cols],
                        OldAccum::Sparse(map) => match map.get_mut(&r) {
                            Some(acc) => acc,
                            None => {
                                row.iter_mut().for_each(|v| *v *= s);
                                map.insert(r, row);
                                continue;
                            }
                        },
                        OldAccum::None => unreachable!("slot was made sparse above"),
                    };
                    for (a, v) in acc.iter_mut().zip(row) {
                        *a += v * s;
                    }
                }
            }
        }
    }

    pub(crate) fn merge_grads(&mut self, shards: &[Vec<(usize, OldGrad)>], scale: f32) {
        for shard in shards {
            for (pid, g) in shard {
                self.accumulate_scaled(*pid, g.clone(), scale);
            }
        }
    }

    pub(crate) fn norm(&self) -> f32 {
        let mut sq = 0.0f32;
        for p in &self.params {
            match &p.grad {
                OldAccum::None => {}
                OldAccum::Dense(t) => sq += t.as_slice().iter().map(|v| v * v).sum::<f32>(),
                OldAccum::Sparse(map) => {
                    for row in map.values() {
                        sq += row.iter().map(|v| v * v).sum::<f32>();
                    }
                }
            }
        }
        sq.sqrt()
    }

    pub(crate) fn clip_grad_norm(&mut self, max_norm: f32) {
        let norm = self.norm();
        if norm <= max_norm || norm == 0.0 {
            return;
        }
        let s = max_norm / norm;
        for p in &mut self.params {
            match &mut p.grad {
                OldAccum::None => {}
                OldAccum::Dense(t) => t.as_mut_slice().iter_mut().for_each(|v| *v *= s),
                OldAccum::Sparse(map) => {
                    map.values_mut().flatten().for_each(|v| *v *= s);
                }
            }
        }
    }

    pub(crate) fn grad_bits(&self, id: usize) -> GradBits {
        match &self.params[id].grad {
            OldAccum::None => None,
            OldAccum::Dense(t) => Some(Ok(bits(t.as_slice()))),
            OldAccum::Sparse(map) => Some(Err(map.iter().map(|(r, v)| (*r, bits(v))).collect())),
        }
    }

    /// The old `AdamW::step` at step `t`.
    pub(crate) fn adamw_step(&mut self, t: u64, lr: f32, b1: f32, b2: f32, eps: f32, wd: f32) {
        let bc1 = 1.0 - b1.powi(t as i32);
        let bc2 = 1.0 - b2.powi(t as i32);
        for p in &mut self.params {
            let grad = std::mem::take(&mut p.grad);
            let (rows, cols) = p.value.shape();
            if p.m.is_none() {
                p.m = Some(Tensor::zeros(rows, cols));
                p.v = Some(Tensor::zeros(rows, cols));
            }
            let m = p.m.as_mut().unwrap().as_mut_slice();
            let v = p.v.as_mut().unwrap().as_mut_slice();
            let w = p.value.as_mut_slice();
            let mut update = |i: usize, g: f32| {
                m[i] = b1 * m[i] + (1.0 - b1) * g;
                v[i] = b2 * v[i] + (1.0 - b2) * g * g;
                let mh = m[i] / bc1;
                let vh = v[i] / bc2;
                w[i] -= lr * (mh / (vh.sqrt() + eps) + wd * w[i]);
            };
            match grad {
                OldAccum::None => {}
                OldAccum::Dense(g) => {
                    g.as_slice().iter().enumerate().for_each(|(i, &gv)| update(i, gv));
                }
                OldAccum::Sparse(map) => {
                    for (r, row) in map {
                        row.iter().enumerate().for_each(|(c, &gv)| update(r * cols + c, gv));
                    }
                }
            }
        }
    }
}

/// A value from a pool rich in signed zeros and in pairs whose products
/// cancel exactly, or (one time in four) an arbitrary small float.
pub(crate) fn hostile(state: &mut u64) -> f32 {
    const POOL: [f32; 10] = [0.0, -0.0, 1.0, -1.0, 0.5, -0.5, 3.0, -3.0, 1.5, -0.75];
    let bits = proptest::next_state(state);
    match bits % 4 {
        0 => ((bits >> 8) % 2001) as f32 / 1000.0 - 1.0,
        _ => POOL[(bits >> 8) as usize % POOL.len()],
    }
}

/// A uniform draw from `0..n`.
pub(crate) fn below(state: &mut u64, n: usize) -> usize {
    (proptest::next_state(state) % n as u64) as usize
}

/// A random gradient for a `rows × cols` parameter: dense, or up to six
/// rows drawn with repeats (an empty list included).
pub(crate) fn contribution(state: &mut u64, (rows, cols): (usize, usize), dense: bool) -> Grad {
    if dense {
        let vals = (0..rows * cols).map(|_| hostile(state)).collect();
        return Grad::Dense(Tensor::from_vec(rows, cols, vals));
    }
    let idx: Vec<usize> = (0..below(state, 7)).map(|_| below(state, rows)).collect();
    let vals = (0..idx.len() * cols).map(|_| hostile(state)).collect();
    Grad::SparseRows { rows, cols, idx, vals }
}
