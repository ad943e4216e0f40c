//! Dense, row-major `f32` matrices.
//!
//! Every value in this crate is a 2-D tensor; vectors are single-row
//! matrices. Data is shared behind an [`Arc`] so cloning a tensor (e.g. to
//! hand a gradient to two operands) is O(1); mutation goes through
//! copy-on-write ([`Arc::make_mut`]).
//!
//! The three product kernels ([`Tensor::matmul`], [`Tensor::matmul_nt`],
//! `add_tn`) share one numeric contract (ARCHITECTURE.md "f32 numeric
//! contract"): every output element is one sequential sum over the
//! reduction index, started from `+0.0`, skipping terms whose left factor
//! is `== 0.0`, each term a rounded `mul` followed by a rounded `add`.
//! Loops vectorise across independent outputs, never along the reduction.

use std::fmt;
use std::sync::Arc;

use crate::math;

/// A dense row-major matrix of `f32`.
#[derive(Clone)]
pub struct Tensor {
    rows: usize,
    cols: usize,
    data: Arc<Vec<f32>>,
}

impl fmt::Debug for Tensor {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Tensor[{}x{}]", self.rows, self.cols)?;
        if self.len() <= 16 {
            write!(f, " {:?}", self.data.as_slice())?;
        }
        Ok(())
    }
}

impl Tensor {
    /// A `rows × cols` tensor filled with zeros.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Self::full(rows, cols, 0.0)
    }

    /// A `rows × cols` tensor filled with `value`.
    pub fn full(rows: usize, cols: usize, value: f32) -> Self {
        Tensor { rows, cols, data: Arc::new(vec![value; rows * cols]) }
    }

    /// Builds a tensor from a flat row-major buffer.
    ///
    /// # Panics
    /// Panics if `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f32>) -> Self {
        assert_eq!(data.len(), rows * cols, "tensor data length mismatch");
        Tensor { rows, cols, data: Arc::new(data) }
    }

    /// A single-row tensor (a vector).
    pub fn from_row(data: Vec<f32>) -> Self {
        let cols = data.len();
        Self::from_vec(1, cols, data)
    }

    pub fn rows(&self) -> usize {
        self.rows
    }

    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Total number of elements.
    pub fn len(&self) -> usize {
        self.rows * self.cols
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    pub fn as_slice(&self) -> &[f32] {
        &self.data
    }

    /// The flat row-major buffer, copied only if another tensor shares it.
    pub(crate) fn into_vec(self) -> Vec<f32> {
        Arc::try_unwrap(self.data).unwrap_or_else(|shared| shared.as_ref().clone())
    }

    /// Mutable access to the underlying buffer (copy-on-write).
    pub fn as_mut_slice(&mut self) -> &mut [f32] {
        Arc::make_mut(&mut self.data).as_mut_slice()
    }

    #[inline]
    pub fn get(&self, r: usize, c: usize) -> f32 {
        debug_assert!(r < self.rows && c < self.cols);
        self.data[r * self.cols + c]
    }

    #[inline]
    pub fn set(&mut self, r: usize, c: usize, v: f32) {
        debug_assert!(r < self.rows && c < self.cols);
        let cols = self.cols;
        self.as_mut_slice()[r * cols + c] = v;
    }

    /// Borrow row `r` as a slice.
    pub fn row(&self, r: usize) -> &[f32] {
        debug_assert!(r < self.rows);
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Matrix product `self × rhs`.
    ///
    /// # Panics
    /// Panics if `self.cols != rhs.rows`.
    pub fn matmul(&self, rhs: &Tensor) -> Tensor {
        assert_eq!(
            self.cols, rhs.rows,
            "matmul shape mismatch: {}x{} × {}x{}",
            self.rows, self.cols, rhs.rows, rhs.cols
        );
        let (m, k, n) = (self.rows, self.cols, rhs.cols);
        let mut out = vec![0.0f32; m * n];
        matmul_into(&mut out, self.as_slice(), rhs.as_slice(), k, n);
        Tensor::from_vec(m, n, out)
    }

    /// `self × rhsᵀ`, bit-identical to `self.matmul(&rhs.transpose())`
    /// without building the transpose: eight rows of `rhs` are reduced
    /// side by side, each in its own sequential chain.
    ///
    /// # Panics
    /// Panics if `self.cols != rhs.cols`.
    pub fn matmul_nt(&self, rhs: &Tensor) -> Tensor {
        assert_eq!(
            self.cols, rhs.cols,
            "matmul_nt shape mismatch: {}x{} × ({}x{})ᵀ",
            self.rows, self.cols, rhs.rows, rhs.cols
        );
        let (k, n, b) = (self.cols, rhs.rows, rhs.as_slice());
        let mut out = vec![0.0f32; self.rows * n];
        for (i, orow) in out.chunks_mut(n.max(1)).enumerate() {
            let mut c = 0;
            while c < n {
                c += match n - c {
                    8.. => {
                        orow[c..c + 8].copy_from_slice(&dots::<8>(self.row(i), &b[c * k..]));
                        8
                    }
                    _ => {
                        orow[c] = dots::<1>(self.row(i), &b[c * k..])[0];
                        1
                    }
                };
            }
        }
        Tensor::from_vec(self.rows, n, out)
    }

    /// Transposed copy.
    pub fn transpose(&self) -> Tensor {
        let mut out = vec![0.0f32; self.len()];
        for r in 0..self.rows {
            for c in 0..self.cols {
                out[c * self.rows + r] = self.get(r, c);
            }
        }
        Tensor::from_vec(self.cols, self.rows, out)
    }

    /// Element-wise sum. Shapes must match exactly, except a single-row rhs is
    /// broadcast over all rows of `self`.
    pub fn add(&self, rhs: &Tensor) -> Tensor {
        if rhs.rows == 1 && self.rows > 1 {
            assert_eq!(self.cols, rhs.cols, "broadcast add width mismatch");
            let mut out = self.clone();
            let o = out.as_mut_slice();
            for r in 0..self.rows {
                for c in 0..self.cols {
                    o[r * self.cols + c] += rhs.data[c];
                }
            }
            return out;
        }
        assert_eq!(self.shape(), rhs.shape(), "add shape mismatch");
        self.zip_map(rhs, |a, b| a + b)
    }

    /// Element-wise difference (no broadcasting).
    pub fn sub(&self, rhs: &Tensor) -> Tensor {
        assert_eq!(self.shape(), rhs.shape(), "sub shape mismatch");
        self.zip_map(rhs, |a, b| a - b)
    }

    /// Element-wise (Hadamard) product.
    pub fn mul_elem(&self, rhs: &Tensor) -> Tensor {
        assert_eq!(self.shape(), rhs.shape(), "mul_elem shape mismatch");
        self.zip_map(rhs, |a, b| a * b)
    }

    /// Multiply every element by `s`.
    pub fn scale(&self, s: f32) -> Tensor {
        self.map(|v| v * s)
    }

    /// Apply `f` element-wise, returning a new tensor.
    pub fn map(&self, f: impl Fn(f32) -> f32) -> Tensor {
        Tensor::from_vec(self.rows, self.cols, self.data.iter().map(|&v| f(v)).collect())
    }

    /// A copy with the in-place slice function `f` run over its data.
    fn apply(&self, f: fn(&mut [f32])) -> Tensor {
        let mut data = self.data.to_vec();
        f(&mut data);
        Tensor::from_vec(self.rows, self.cols, data)
    }

    fn zip_map(&self, rhs: &Tensor, f: impl Fn(f32, f32) -> f32) -> Tensor {
        let data = self.data.iter().zip(rhs.data.iter()).map(|(&a, &b)| f(a, b)).collect();
        Tensor::from_vec(self.rows, self.cols, data)
    }

    /// Accumulate `rhs * s` into `self` in place.
    pub fn add_scaled_assign(&mut self, rhs: &Tensor, s: f32) {
        assert_eq!(self.shape(), rhs.shape(), "add_scaled_assign shape mismatch");
        let dst = self.as_mut_slice();
        for (d, &r) in dst.iter_mut().zip(rhs.data.iter()) {
            *d += r * s;
        }
    }

    /// Element-wise [`math::tanh`].
    pub fn tanh(&self) -> Tensor {
        self.apply(math::tanh_in_place)
    }

    /// Element-wise [`math::sigmoid`].
    pub fn sigmoid(&self) -> Tensor {
        self.apply(math::sigmoid_in_place)
    }

    pub fn relu(&self) -> Tensor {
        self.map(|v| v.max(0.0))
    }

    /// Mean over rows: `[m,n] → [1,n]`. The mean of zero rows is a zero vector.
    pub fn mean_rows(&self) -> Tensor {
        let mut out = vec![0.0f32; self.cols];
        if self.rows == 0 {
            return Tensor::from_row(out);
        }
        for r in 0..self.rows {
            for (o, &v) in out.iter_mut().zip(self.row(r)) {
                *o += v;
            }
        }
        let inv = 1.0 / self.rows as f32;
        for o in &mut out {
            *o *= inv;
        }
        Tensor::from_row(out)
    }

    /// Sum of all elements.
    pub fn sum(&self) -> f32 {
        self.data.iter().sum()
    }

    /// Euclidean (Frobenius) norm.
    pub fn norm(&self) -> f32 {
        self.data.iter().map(|v| v * v).sum::<f32>().sqrt()
    }

    /// Row-wise softmax.
    pub fn softmax_rows(&self) -> Tensor {
        let mut out = self.clone();
        let cols = self.cols;
        let buf = out.as_mut_slice();
        for r in 0..self.rows {
            let row = &mut buf[r * cols..(r + 1) * cols];
            softmax_in_place(row);
        }
        out
    }

    /// Index of the maximum element of row `r` (first on ties).
    pub fn argmax_row(&self, r: usize) -> usize {
        let row = self.row(r);
        let mut best = 0;
        let mut best_v = f32::NEG_INFINITY;
        for (i, &v) in row.iter().enumerate() {
            if v > best_v {
                best_v = v;
                best = i;
            }
        }
        best
    }

    /// Gather rows `indices` from `self` into a new `[indices.len(), cols]`
    /// tensor (embedding lookup).
    pub fn lookup_rows(&self, indices: &[usize]) -> Tensor {
        let mut out = Vec::with_capacity(indices.len() * self.cols);
        for &i in indices {
            assert!(i < self.rows, "lookup index {i} out of range ({} rows)", self.rows);
            out.extend_from_slice(self.row(i));
        }
        Tensor::from_vec(indices.len(), self.cols, out)
    }

    /// Horizontal concatenation `[m,a] ++ [m,b] → [m,a+b]`.
    pub fn concat_cols(&self, rhs: &Tensor) -> Tensor {
        assert_eq!(self.rows, rhs.rows, "concat_cols row mismatch");
        let cols = self.cols + rhs.cols;
        let mut out = Vec::with_capacity(self.rows * cols);
        for r in 0..self.rows {
            out.extend_from_slice(self.row(r));
            out.extend_from_slice(rhs.row(r));
        }
        Tensor::from_vec(self.rows, cols, out)
    }

    /// Cosine similarity between two single-row tensors; 0.0 when either has
    /// zero norm.
    pub fn cosine(&self, rhs: &Tensor) -> f32 {
        assert_eq!(self.shape(), rhs.shape(), "cosine shape mismatch");
        let dot: f32 = self.data.iter().zip(rhs.data.iter()).map(|(&a, &b)| a * b).sum();
        let d = self.norm() * rhs.norm();
        if d == 0.0 {
            0.0
        } else {
            dot / d
        }
    }

    /// True if every element differs from `rhs` by at most `tol`.
    pub fn approx_eq(&self, rhs: &Tensor, tol: f32) -> bool {
        self.shape() == rhs.shape()
            && self.data.iter().zip(rhs.data.iter()).all(|(&a, &b)| (a - b).abs() <= tol)
    }
}

/// Dot products of `a` against the first `N` rows (each `a.len()` wide) of
/// `b`, every one summed in index order from `+0.0`, skipping `a[j] == 0.0`.
fn dots<const N: usize>(a: &[f32], b: &[f32]) -> [f32; N] {
    let rows: [&[f32]; N] = std::array::from_fn(|l| &b[l * a.len()..(l + 1) * a.len()]);
    let mut acc = [0.0f32; N];
    for (j, &av) in a.iter().enumerate() {
        if av != 0.0 {
            for (s, row) in acc.iter_mut().zip(&rows) {
                *s += av * row[j];
            }
        }
    }
    acc
}

/// Defines `fn $name($args)` as the `#[inline(always)]` body `$body`, run
/// from a copy compiled with AVX2 where the CPU has it (the runtime
/// detection `quant` uses). Lanes are independent outputs and the `avx2`
/// feature cannot fuse `mul` with `add`, so both copies give the same bits;
/// `wide_kernels_match_portable_ones` and `crate::math`'s tests hold them
/// to it.
macro_rules! at_widest {
    ($vis:vis fn $name:ident($($arg:ident: $ty:ty),*) = $body:ident) => {
        $vis fn $name($($arg: $ty),*) {
            #[cfg(target_arch = "x86_64")]
            if std::arch::is_x86_feature_detected!("avx2") {
                #[target_feature(enable = "avx2")]
                unsafe fn wide($($arg: $ty),*) {
                    $body($($arg),*)
                }
                // SAFETY: AVX2 support was just verified at runtime.
                return unsafe { wide($($arg),*) };
            }
            $body($($arg),*)
        }
    };
}
pub(crate) use at_widest;

at_widest!(
    pub(crate) fn matmul_into(dst: &mut [f32], a: &[f32], b: &[f32], k: usize, n: usize)
        = matmul_body
);
at_widest!(fn add_tn_into(dst: &mut [f32], a: &[f32], g: &[f32], k: usize, n: usize) = add_tn_body);

/// `out[m×n] = a[m×k] × b[k×n]` over zeroed `out`, in blocks of output
/// columns whose sums over `k` stay in registers (a read-modify-write of
/// `out` per term would wait on the store before it); `b` is read with unit
/// stride.
#[inline(always)]
fn matmul_body(out: &mut [f32], a: &[f32], b: &[f32], k: usize, n: usize) {
    /// `W` output columns starting at `from`; returns the next column.
    #[inline(always)]
    fn cols<const W: usize>(orow: &mut [f32], arow: &[f32], b: &[f32], from: usize) -> usize {
        let mut acc = [0.0f32; W];
        for (&av, brow) in arow.iter().zip(b.chunks(orow.len())) {
            if av != 0.0 {
                let bcols: &[f32; W] = brow[from..from + W].try_into().expect("W columns");
                acc.iter_mut().zip(bcols).for_each(|(s, &bv)| *s += av * bv);
            }
        }
        orow[from..from + W].copy_from_slice(&acc);
        from + W
    }
    if k == 0 || n == 0 {
        return;
    }
    for (orow, arow) in out.chunks_mut(n).zip(a.chunks(k)) {
        let mut from = 0;
        while from < n {
            from = match n - from {
                64.. => cols::<64>(orow, arow, b, from),
                32.. => cols::<32>(orow, arow, b, from),
                16.. => cols::<16>(orow, arow, b, from),
                8.. => cols::<8>(orow, arow, b, from),
                _ => cols::<1>(orow, arow, b, from),
            };
        }
    }
}

/// `dst[k×n] += aᵀ × g` in place (`a` is `[m,k]`, `g` is `[m,n]`),
/// bit-identical to materialising `a.transpose().matmul(g)` and adding it
/// with `add_scaled_assign(_, 1.0)`: each `dst` element receives *one*
/// addend, the product element summed from `+0.0` over `a`'s rows in order
/// with `a == 0.0` terms skipped. For `m == 1` (every backward of a
/// vector–matrix product) that is the rank-1 update
/// `dst[i][j] += 0.0 + a[i]·g[j]`.
pub(crate) fn add_tn(dst: &mut [f32], a: &Tensor, g: &Tensor) {
    let ((m, k), n) = (a.shape(), g.cols());
    assert_eq!((m, dst.len()), (g.rows(), k * n), "add_tn shape mismatch");
    add_tn_into(dst, a.as_slice(), g.as_slice(), k, n);
}

#[inline(always)]
fn add_tn_body(dst: &mut [f32], a: &[f32], g: &[f32], k: usize, n: usize) {
    // `y += 0.0 + a·x`: the `0.0 +` makes the addend what the materialised
    // product would hold — never `-0.0`, which would leave a `-0.0` in `y`.
    let axpy = |y: &mut [f32], a: f32, x: &[f32]| {
        y.iter_mut().zip(x).for_each(|(y, &x)| *y += 0.0 + a * x);
    };
    if k == 0 || n == 0 {
        return;
    }
    let mut term = vec![0.0f32; n];
    for (i, drow) in dst.chunks_mut(n).enumerate() {
        if a.len() == k {
            // One row of `a`: no partial sums to hold. A skipped
            // `a[i] == 0.0` still adds the product's `+0.0`s.
            match a[i] == 0.0 {
                true => drow.iter_mut().for_each(|d| *d += 0.0),
                false => axpy(drow, a[i], g),
            }
            continue;
        }
        term.fill(0.0);
        for (arow, grow) in a.chunks(k).zip(g.chunks(n)) {
            if arow[i] != 0.0 {
                axpy(&mut term, arow[i], grow);
            }
        }
        axpy(drow, 1.0, &term);
    }
}

/// Numerically stable in-place softmax of a slice: `exp(v − max)`, summed
/// in index order from `+0.0`, each divided by the sum.
pub fn softmax_in_place(row: &mut [f32]) {
    if row.is_empty() {
        return;
    }
    let max = row.iter().copied().fold(f32::NEG_INFINITY, f32::max);
    row.iter_mut().for_each(|v| *v -= max);
    math::exp_in_place(row);
    let sum = row.iter().fold(0.0f32, |s, &v| s + v);
    if sum > 0.0 {
        for v in row.iter_mut() {
            *v /= sum;
        }
    }
}

/// Numerically stable log-softmax of a slice into a new vector:
/// `v − max − ln Σ exp(v − max)`, the sum in index order from `+0.0`. The
/// exponentials are formed in the output, which then receives each
/// `v − max − log_sum` from the input row.
pub fn log_softmax(row: &[f32]) -> Vec<f32> {
    let max = row.iter().copied().fold(f32::NEG_INFINITY, f32::max);
    let mut out: Vec<f32> = row.iter().map(|&v| v - max).collect();
    math::exp_in_place(&mut out);
    let log_sum = math::ln(out.iter().fold(0.0f32, |s, &v| s + v));
    out.iter_mut().zip(row).for_each(|(o, &v)| *o = v - max - log_sum);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeros_and_shape() {
        let t = Tensor::zeros(3, 4);
        assert_eq!(t.shape(), (3, 4));
        assert_eq!(t.len(), 12);
        assert!(t.as_slice().iter().all(|&v| v == 0.0));
    }

    #[test]
    fn matmul_identity() {
        let a = Tensor::from_vec(2, 2, vec![1.0, 2.0, 3.0, 4.0]);
        let i = Tensor::from_vec(2, 2, vec![1.0, 0.0, 0.0, 1.0]);
        assert!(a.matmul(&i).approx_eq(&a, 1e-6));
        assert!(i.matmul(&a).approx_eq(&a, 1e-6));
    }

    #[test]
    fn matmul_rectangular() {
        let a = Tensor::from_vec(2, 3, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let b = Tensor::from_vec(3, 1, vec![1.0, 0.0, -1.0]);
        let c = a.matmul(&b);
        assert_eq!(c.shape(), (2, 1));
        assert_eq!(c.as_slice(), &[-2.0, -2.0]);
    }

    #[test]
    #[should_panic(expected = "matmul shape mismatch")]
    fn matmul_bad_shapes_panic() {
        let a = Tensor::zeros(2, 3);
        let b = Tensor::zeros(2, 3);
        let _ = a.matmul(&b);
    }

    #[test]
    fn broadcast_add_row() {
        let a = Tensor::from_vec(2, 2, vec![1.0, 2.0, 3.0, 4.0]);
        let b = Tensor::from_row(vec![10.0, 20.0]);
        let c = a.add(&b);
        assert_eq!(c.as_slice(), &[11.0, 22.0, 13.0, 24.0]);
    }

    #[test]
    fn transpose_roundtrip() {
        let a = Tensor::from_vec(2, 3, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let t = a.transpose();
        assert_eq!(t.shape(), (3, 2));
        assert!(t.transpose().approx_eq(&a, 0.0));
    }

    #[test]
    fn mean_rows_basic() {
        let a = Tensor::from_vec(2, 2, vec![1.0, 2.0, 3.0, 4.0]);
        let m = a.mean_rows();
        assert_eq!(m.as_slice(), &[2.0, 3.0]);
    }

    #[test]
    fn mean_rows_empty_is_zero() {
        let a = Tensor::zeros(0, 3);
        assert_eq!(a.mean_rows().as_slice(), &[0.0, 0.0, 0.0]);
    }

    #[test]
    fn softmax_rows_sums_to_one() {
        let a = Tensor::from_vec(2, 3, vec![1.0, 2.0, 3.0, -1.0, 0.0, 1.0]);
        let s = a.softmax_rows();
        for r in 0..2 {
            let sum: f32 = s.row(r).iter().sum();
            assert!((sum - 1.0).abs() < 1e-5);
        }
    }

    #[test]
    fn softmax_stable_under_large_logits() {
        let mut row = vec![1000.0, 1001.0, 999.0];
        softmax_in_place(&mut row);
        assert!(row.iter().all(|v| v.is_finite()));
        assert!((row.iter().sum::<f32>() - 1.0).abs() < 1e-5);
    }

    #[test]
    fn log_softmax_matches_softmax() {
        let row = vec![0.5, -0.5, 2.0];
        let ls = log_softmax(&row);
        let mut sm = row.clone();
        softmax_in_place(&mut sm);
        for (a, b) in ls.iter().zip(sm.iter()) {
            assert!((a.exp() - b).abs() < 1e-5);
        }
    }

    #[test]
    fn lookup_rows_gathers() {
        let e = Tensor::from_vec(3, 2, vec![1.0, 1.0, 2.0, 2.0, 3.0, 3.0]);
        let g = e.lookup_rows(&[2, 0, 2]);
        assert_eq!(g.as_slice(), &[3.0, 3.0, 1.0, 1.0, 3.0, 3.0]);
    }

    #[test]
    fn concat_cols_widths() {
        let a = Tensor::from_vec(2, 1, vec![1.0, 2.0]);
        let b = Tensor::from_vec(2, 2, vec![3.0, 4.0, 5.0, 6.0]);
        let c = a.concat_cols(&b);
        assert_eq!(c.shape(), (2, 3));
        assert_eq!(c.row(0), &[1.0, 3.0, 4.0]);
        assert_eq!(c.row(1), &[2.0, 5.0, 6.0]);
    }

    #[test]
    fn cosine_of_parallel_vectors() {
        let a = Tensor::from_row(vec![1.0, 2.0]);
        let b = Tensor::from_row(vec![2.0, 4.0]);
        assert!((a.cosine(&b) - 1.0).abs() < 1e-6);
        let zero = Tensor::from_row(vec![0.0, 0.0]);
        assert_eq!(a.cosine(&zero), 0.0);
    }

    #[test]
    fn clone_is_cheap_and_cow() {
        let a = Tensor::from_row(vec![1.0, 2.0]);
        let mut b = a.clone();
        b.set(0, 0, 9.0);
        assert_eq!(a.get(0, 0), 1.0, "clone must not alias after mutation");
        assert_eq!(b.get(0, 0), 9.0);
    }

    #[test]
    fn argmax_first_on_ties() {
        let a = Tensor::from_row(vec![0.5, 1.0, 1.0]);
        assert_eq!(a.argmax_row(0), 1);
    }

    /// A value from a pool rich in signed zeros and in pairs whose products
    /// cancel exactly, or (one time in four) an arbitrary small float.
    fn hostile(state: &mut u64) -> f32 {
        const POOL: [f32; 10] = [0.0, -0.0, 1.0, -1.0, 0.5, -0.5, 3.0, -3.0, 1.5, -0.75];
        let bits = proptest::next_state(state);
        match bits % 4 {
            0 => ((bits >> 8) % 2001) as f32 / 1000.0 - 1.0,
            _ => POOL[(bits >> 8) as usize % POOL.len()],
        }
    }

    fn hostile_matrix(state: &mut u64, rows: usize, cols: usize) -> Tensor {
        Tensor::from_vec(rows, cols, (0..rows * cols).map(|_| hostile(state)).collect())
    }

    fn bits(t: &[f32]) -> Vec<u32> {
        t.iter().map(|v| v.to_bits()).collect()
    }

    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// `matmul_nt` is the transposing form bit for bit: row vectors and
        /// matrices, widths on neither side of a lane multiple, signed
        /// zeros and exact cancellations.
        #[test]
        fn matmul_nt_is_matmul_of_the_transpose(seed in 0u64..100_000) {
            let mut state = seed;
            let m = 1 + (proptest::next_state(&mut state) % 4) as usize * (seed % 2) as usize;
            let k = 1 + (proptest::next_state(&mut state) % 19) as usize;
            let n = 1 + (proptest::next_state(&mut state) % 21) as usize;
            let a = hostile_matrix(&mut state, m, k);
            let b = hostile_matrix(&mut state, n, k);
            let expected = a.matmul(&b.transpose());
            prop_assert_eq!(bits(a.matmul_nt(&b).as_slice()), bits(expected.as_slice()));
        }

        /// `add_tn` in place is materialise-then-`add_scaled_assign`, onto
        /// destinations that themselves hold signed zeros.
        #[test]
        fn add_tn_is_materialise_then_add(seed in 0u64..100_000) {
            let mut state = seed;
            let m = 1 + (proptest::next_state(&mut state) % 4) as usize * (seed % 2) as usize;
            let k = 1 + (proptest::next_state(&mut state) % 19) as usize;
            let n = 1 + (proptest::next_state(&mut state) % 21) as usize;
            let a = hostile_matrix(&mut state, m, k);
            let g = hostile_matrix(&mut state, m, n);
            let mut expected = hostile_matrix(&mut state, k, n);
            let mut dst = expected.clone();
            expected.add_scaled_assign(&a.transpose().matmul(&g), 1.0);
            add_tn(dst.as_mut_slice(), &a, &g);
            prop_assert_eq!(bits(dst.as_slice()), bits(expected.as_slice()));
        }

        /// The AVX2 copies of the product kernels (where the CPU runs them)
        /// and the portable loop nests they are compiled from agree bit for
        /// bit, over every column-block width `matmul_body` has.
        #[test]
        fn wide_kernels_match_portable_ones(seed in 0u64..100_000) {
            let mut state = seed;
            let m = 1 + (proptest::next_state(&mut state) % 3) as usize;
            let k = 1 + (proptest::next_state(&mut state) % 40) as usize;
            let n = 1 + (proptest::next_state(&mut state) % 150) as usize;
            let a = hostile_matrix(&mut state, m, k);
            let b = hostile_matrix(&mut state, k, n);
            let mut portable = vec![0.0f32; m * n];
            matmul_body(&mut portable, a.as_slice(), b.as_slice(), k, n);
            prop_assert_eq!(bits(a.matmul(&b).as_slice()), bits(&portable));

            let g = hostile_matrix(&mut state, m, n);
            let mut wide = hostile_matrix(&mut state, k, n);
            let mut portable = wide.as_slice().to_vec();
            add_tn_body(&mut portable, a.as_slice(), g.as_slice(), k, n);
            add_tn(wide.as_mut_slice(), &a, &g);
            prop_assert_eq!(bits(wide.as_slice()), bits(&portable));
        }
    }

    /// The register-blocked `matmul` sums each output in the reduction's
    /// index order from `+0.0`, skipping `== 0.0` left factors: a product
    /// whose terms cancel to `-0.0 + 0.0` comes out `+0.0`, and a skipped
    /// `0 · ∞` never makes a NaN.
    #[test]
    fn matmul_keeps_zero_skips_and_positive_zero() {
        let a = Tensor::from_row(vec![0.0, -0.0, 1.0, -1.0]);
        let b =
            Tensor::from_vec(4, 2, vec![f32::INFINITY, 1.0, f32::NAN, 1.0, -0.0, 2.5, 0.0, 2.5]);
        let out = a.matmul(&b);
        assert_eq!(bits(out.as_slice()), bits(&[0.0, 0.0]));
    }
}
