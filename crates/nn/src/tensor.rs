//! Dense, row-major `f32` matrices.
//!
//! Every value in this crate is a 2-D tensor; vectors are single-row
//! matrices. Data is shared behind an [`Arc`] so cloning a tensor (e.g. to
//! capture it in a backward closure) is O(1); mutation goes through
//! copy-on-write ([`Arc::make_mut`]).

use std::fmt;
use std::sync::Arc;

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
        let a = self.as_slice();
        let b = rhs.as_slice();
        // i-k-j loop order: unit-stride access to both `b` and `out`.
        for i in 0..m {
            let arow = &a[i * k..(i + 1) * k];
            let orow = &mut out[i * n..(i + 1) * n];
            for (kk, &av) in arow.iter().enumerate() {
                if av == 0.0 {
                    continue;
                }
                let brow = &b[kk * n..(kk + 1) * n];
                for (o, &bv) in orow.iter_mut().zip(brow) {
                    *o += av * bv;
                }
            }
        }
        Tensor::from_vec(m, n, out)
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

    pub fn tanh(&self) -> Tensor {
        self.map(f32::tanh)
    }

    pub fn sigmoid(&self) -> Tensor {
        self.map(|v| 1.0 / (1.0 + (-v).exp()))
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

/// Numerically stable in-place softmax of a slice.
pub fn softmax_in_place(row: &mut [f32]) {
    if row.is_empty() {
        return;
    }
    let max = row.iter().copied().fold(f32::NEG_INFINITY, f32::max);
    let mut sum = 0.0;
    for v in row.iter_mut() {
        *v = (*v - max).exp();
        sum += *v;
    }
    if sum > 0.0 {
        for v in row.iter_mut() {
            *v /= sum;
        }
    }
}

/// Numerically stable log-softmax of a slice into a new vector.
pub fn log_softmax(row: &[f32]) -> Vec<f32> {
    let max = row.iter().copied().fold(f32::NEG_INFINITY, f32::max);
    let log_sum: f32 = row.iter().map(|&v| (v - max).exp()).sum::<f32>().ln();
    row.iter().map(|&v| v - max - log_sum).collect()
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
}
