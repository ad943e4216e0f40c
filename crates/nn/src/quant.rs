//! Read-only i8 quantization for the inference hot path.
//!
//! Training stays f32; serving freezes the trained [`ParamStore`] into
//! per-row symmetrically quantized matrices ([`QuantizedStore::freeze`]) and
//! scores with i8 dot products accumulated in i32. The layout is chosen for
//! the read side: a [`QuantizedMatrix`] stores its reduction dimension
//! contiguously, so a matrix–vector product walks both operands with unit
//! stride and no heap allocation.
//!
//! Per-row symmetric scheme: for each row, `scale = max_abs / 127` (floored
//! at [`f32::MIN_POSITIVE`] for nonzero rows so the reciprocal stays finite)
//! and `q = round(x / scale)` clamped to `[-127, 127]`. The dequantized
//! value `scale * q` is within `scale / 2` of the original — the bound the
//! property tests in `tests/quant.rs` hold the implementation to. All-zero
//! rows get `scale = 0` and all-zero codes.

use crate::optim::{ParamId, ParamStore};
use crate::tensor::Tensor;

/// Quantize `src` into `dst`, returning the per-row scale.
///
/// On x86-64 with AVX2 the row runs through a 32-lane kernel that
/// reproduces the portable scalar quantizer bit for bit (same scale, same codes),
/// so which machine froze a model never shows in its codes.
///
/// # Panics
/// Panics if `dst.len() != src.len()`.
pub fn quantize_row_into(src: &[f32], dst: &mut [i8]) -> f32 {
    #[cfg(target_arch = "x86_64")]
    if std::arch::is_x86_feature_detected!("avx2") {
        // SAFETY: AVX2 support was just verified at runtime.
        if let Some(scale) = unsafe { x86::quantize_row_avx2(src, dst) } {
            return scale;
        }
    }
    quantize_row_scalar(src, dst)
}

/// The portable quantizer: the fallback where AVX2 is missing, and the oracle
/// the AVX2 kernel is tested against.
///
/// # Panics
/// Panics if `dst.len() != src.len()`.
pub(crate) fn quantize_row_scalar(src: &[f32], dst: &mut [i8]) -> f32 {
    assert_eq!(src.len(), dst.len(), "quantize_row_scalar length mismatch");
    let max = src.iter().fold(0.0f32, |m, &v| m.max(v.abs()));
    if max == 0.0 {
        dst.fill(0);
        return 0.0;
    }
    let (scale, inv) = scale_and_reciprocal(max);
    for (d, &v) in dst.iter_mut().zip(src) {
        *d = (v * inv).round().clamp(-127.0, 127.0) as i8;
    }
    scale
}

/// The row scale for a nonzero `max_abs`, and its reciprocal.
#[inline]
fn scale_and_reciprocal(max_abs: f32) -> (f32, f32) {
    // Floor the scale at the smallest normal so `1/scale` is finite even for
    // rows of subnormals; the scale/2 error bound still holds (codes just
    // use less of the i8 range).
    let scale = (max_abs / 127.0).max(f32::MIN_POSITIVE);
    (scale, 1.0 / scale)
}

/// i8 dot product with i32 accumulation.
///
/// Each product is at most `127 * 127 = 16129`, so the accumulator is exact
/// for any vector shorter than ~133k elements — far beyond every dimension
/// in this workspace (the widest reduction is `buckets = 8192`). On x86-64
/// with AVX2 the reduction runs through a `vpmaddwd` kernel; integer
/// arithmetic is exact, so the SIMD and scalar paths return bit-identical
/// results and determinism is unaffected by which machine runs the model.
#[inline]
pub fn dot_i8(a: &[i8], b: &[i8]) -> i32 {
    debug_assert_eq!(a.len(), b.len());
    #[cfg(target_arch = "x86_64")]
    if std::arch::is_x86_feature_detected!("avx2") {
        // SAFETY: AVX2 support was just verified at runtime.
        return unsafe { x86::dot_i8_avx2(a, b) };
    }
    dot_i8_scalar(a, b)
}

#[inline]
fn dot_i8_scalar(a: &[i8], b: &[i8]) -> i32 {
    let mut acc = 0i32;
    for (&x, &y) in a.iter().zip(b) {
        acc += x as i32 * y as i32;
    }
    acc
}

#[cfg(target_arch = "x86_64")]
mod x86 {
    use std::arch::x86_64::*;

    /// `dot_i8` over AVX2: 16 lanes per iteration, sign-extended to i16 and
    /// reduced pairwise into i32 by `vpmaddwd` (exact for every i8 value —
    /// every product fits i16 headroom and every pair sum fits i32).
    ///
    /// # Safety
    /// Requires AVX2; callers must check `is_x86_feature_detected!("avx2")`.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn dot_i8_avx2(a: &[i8], b: &[i8]) -> i32 {
        let n = a.len().min(b.len());
        let mut acc = _mm256_setzero_si256();
        let mut i = 0;
        while i + 16 <= n {
            let va = _mm256_cvtepi8_epi16(_mm_loadu_si128(a.as_ptr().add(i) as *const __m128i));
            let vb = _mm256_cvtepi8_epi16(_mm_loadu_si128(b.as_ptr().add(i) as *const __m128i));
            acc = _mm256_add_epi32(acc, _mm256_madd_epi16(va, vb));
            i += 16;
        }
        let quad = _mm_add_epi32(_mm256_castsi256_si128(acc), _mm256_extracti128_si256(acc, 1));
        let pair = _mm_add_epi32(quad, _mm_shuffle_epi32(quad, 0b01_00_11_10));
        let one = _mm_add_epi32(pair, _mm_shuffle_epi32(pair, 0b00_00_00_01));
        let mut total = _mm_cvtsi128_si32(one);
        while i < n {
            total += a[i] as i32 * b[i] as i32;
            i += 1;
        }
        total
    }

    /// Rows per register block of [`matvec_i8_avx2`].
    const BLOCK: usize = 4;

    /// `out[r] = scales[r] * xs * dot(row r of data, x)` for a row-major
    /// `[out.len(), x.len()]` code matrix, register-blocked: four rows share
    /// every load of `x`, and their four i32 sums leave the vector unit
    /// through one joint horizontal reduction, scale and store.
    ///
    /// A 32-lane step is `vpmaddubsw(|x|, w·sign(x))`: unsigned × signed
    /// bytes, adjacent products summed into i16, then widened to i32 by
    /// `vpmaddwd` against ones. `w·sign(x)·|x| = w·x` lane for lane, so the
    /// integer result equals the scalar dot product exactly provided nothing
    /// saturates: with `|w| <= 127` (the precondition) and `|x| <= 128`, a
    /// pair sum is at most `2·127·128 = 32 512 < i16::MAX`, and `vpsignb`
    /// never meets the one value it cannot negate (`w = -128`).
    ///
    /// The last `x.len() % 32` lanes run as one more full-width step against
    /// a zero-padded copy of `x`'s tail: the matrix is read 32 bytes wide
    /// there too (the lanes past the row end meet zero activations), straight
    /// from `data` while that read stays inside it and from a zero-padded
    /// copy for the last rows. Rows past the last full block of four go
    /// through [`dot_i8_avx2`].
    ///
    /// # Safety
    /// Requires AVX2; callers must check `is_x86_feature_detected!("avx2")`.
    /// Every code in `data` must lie in `[-127, 127]` for the result to equal
    /// the scalar product (memory safety does not depend on it).
    ///
    /// # Panics
    /// Panics if `data.len() != out.len() * x.len()` or
    /// `scales.len() != out.len()`.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn matvec_i8_avx2(
        data: &[i8],
        scales: &[f32],
        x: &[i8],
        xs: f32,
        out: &mut [f32],
    ) {
        let (rows, cols) = (out.len(), x.len());
        assert_eq!(data.len(), rows * cols, "matvec code count mismatch");
        assert_eq!(scales.len(), rows, "matvec scale count mismatch");
        let full = cols / 32;
        let tail = cols % 32;
        let mut x_tail = [0i8; 32];
        x_tail[..tail].copy_from_slice(&x[full * 32..]);
        let x_tail = _mm256_loadu_si256(x_tail.as_ptr() as *const __m256i);
        let ones = _mm256_set1_epi16(1);
        let xs4 = _mm_set1_ps(xs);

        let blocked = rows - rows % BLOCK;
        for r in (0..blocked).step_by(BLOCK) {
            let base = data.as_ptr().add(r * cols);
            let mut acc = [_mm256_setzero_si256(); BLOCK];
            for k in 0..full {
                // SAFETY (loads): `k * 32 + 32 <= cols`, so each read stays
                // inside `x` and inside row `r + j` of `data`.
                let xv = _mm256_loadu_si256(x.as_ptr().add(k * 32) as *const __m256i);
                let xa = _mm256_abs_epi8(xv);
                for (j, a) in acc.iter_mut().enumerate() {
                    let w = _mm256_loadu_si256(base.add(j * cols + k * 32) as *const __m256i);
                    let pairs = _mm256_maddubs_epi16(xa, _mm256_sign_epi8(w, xv));
                    *a = _mm256_add_epi32(*a, _mm256_madd_epi16(pairs, ones));
                }
            }
            if tail > 0 {
                let xa = _mm256_abs_epi8(x_tail);
                let at = full * 32;
                // The furthest of the four 32-byte reads, row `r + 3`'s,
                // ends `32 - tail` bytes into the row after it.
                let staged;
                let (w_tail, stride) = if (r + BLOCK) * cols + (32 - tail) <= data.len() {
                    (base.add(at), cols)
                } else {
                    staged = stage_tails(&data[r * cols..(r + BLOCK) * cols], cols, at);
                    (staged.as_ptr() as *const i8, 32)
                };
                for (j, a) in acc.iter_mut().enumerate() {
                    // SAFETY: the branch above bounds the reads from `data`
                    // by `data.len()`; `staged` is `BLOCK` rows of 32 bytes.
                    let w = _mm256_loadu_si256(w_tail.add(j * stride) as *const __m256i);
                    let pairs = _mm256_maddubs_epi16(xa, _mm256_sign_epi8(w, x_tail));
                    *a = _mm256_add_epi32(*a, _mm256_madd_epi16(pairs, ones));
                }
            }
            // Joint reduction: two rounds of pairwise adds leave, in each
            // 128-bit half, the four rows' partial sums side by side.
            let s01 = _mm256_hadd_epi32(acc[0], acc[1]);
            let s23 = _mm256_hadd_epi32(acc[2], acc[3]);
            let s = _mm256_hadd_epi32(s01, s23);
            let dots = _mm_add_epi32(_mm256_castsi256_si128(s), _mm256_extracti128_si256(s, 1));
            // `(scale * xs) * dot`, the scalar path's association.
            // SAFETY: `r + 4 <= rows`, the length of `scales` and of `out`.
            let sc = _mm_mul_ps(_mm_loadu_ps(scales.as_ptr().add(r)), xs4);
            _mm_storeu_ps(out.as_mut_ptr().add(r), _mm_mul_ps(sc, _mm_cvtepi32_ps(dots)));
        }
        for r in blocked..rows {
            let d = dot_i8_avx2(&data[r * cols..(r + 1) * cols], x);
            out[r] = scales[r] * xs * d as f32;
        }
    }

    /// Zero-padded copies of the lanes from `at` on of each of `block`'s rows.
    fn stage_tails(block: &[i8], cols: usize, at: usize) -> [[i8; 32]; BLOCK] {
        let mut staged = [[0i8; 32]; BLOCK];
        for (s, row) in staged.iter_mut().zip(block.chunks_exact(cols)) {
            s[..cols - at].copy_from_slice(&row[at..]);
        }
        staged
    }

    /// The largest f32 below one half: `trunc(t + copysign(PRED_HALF, t))`
    /// is `t` rounded half away from zero (adding a full `0.5` would carry
    /// `0.49999997` up to `1.0`). Checked exhaustively against `f32::round`
    /// for every `|t| < 127.4`, more than the quantizer can produce.
    const PRED_HALF: f32 = f32::from_bits(0x3eff_ffff);

    /// Eight scaled values, rounded half away from zero, as i32.
    ///
    /// # Safety
    /// Requires AVX2, and `src` readable for eight `f32`.
    #[target_feature(enable = "avx2")]
    unsafe fn round8(src: *const f32, inv: __m256) -> __m256i {
        let t = _mm256_mul_ps(_mm256_loadu_ps(src), inv);
        let sign = _mm256_and_ps(t, _mm256_set1_ps(-0.0));
        let half = _mm256_or_ps(sign, _mm256_set1_ps(PRED_HALF));
        _mm256_cvttps_epi32(_mm256_add_ps(t, half))
    }

    /// Thirty-two values quantized to codes.
    ///
    /// # Safety
    /// Requires AVX2, and `src` readable for 32 `f32`.
    #[target_feature(enable = "avx2")]
    unsafe fn quantize32(src: *const f32, inv: __m256) -> __m256i {
        let ab = _mm256_packs_epi32(round8(src, inv), round8(src.add(8), inv));
        let cd = _mm256_packs_epi32(round8(src.add(16), inv), round8(src.add(24), inv));
        // The packs interleave 128-bit halves; put the dwords back in order.
        let order = _mm256_setr_epi32(0, 4, 1, 5, 2, 6, 3, 7);
        _mm256_permutevar8x32_epi32(_mm256_packs_epi16(ab, cd), order)
    }

    /// [`super::quantize_row_scalar`] over AVX2, bit for bit. `None` when the
    /// row holds an infinity or a NaN: the scalar path defines those cases
    /// and the caller falls back to it.
    ///
    /// The abs-max is an unsigned integer max over sign-cleared bit patterns
    /// (the same order as the float order on finite values, with every
    /// non-finite pattern above them, so one comparison detects both).
    /// Scale and reciprocal are the scalar expressions. Rounding is
    /// [`PRED_HALF`]'s add-then-truncate. `|v| <= max` and `inv` is within
    /// three roundings of `127 / max`, so `|v * inv| < 127.001`: the i32
    /// conversion and both saturating packs are exact, and the scalar path's
    /// clamp to `[-127, 127]` never binds.
    ///
    /// # Safety
    /// Requires AVX2; callers must check `is_x86_feature_detected!("avx2")`.
    ///
    /// # Panics
    /// Panics if `dst.len() != src.len()`.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn quantize_row_avx2(src: &[f32], dst: &mut [i8]) -> Option<f32> {
        let n = src.len();
        assert_eq!(dst.len(), n, "quantize_row_avx2 length mismatch");
        let abs = _mm256_set1_epi32(0x7fff_ffff);
        let mut max8 = _mm256_setzero_si256();
        let mut i = 0;
        while i + 8 <= n {
            // SAFETY: `i + 8 <= n` keeps the read inside `src`.
            let bits = _mm256_loadu_si256(src.as_ptr().add(i) as *const __m256i);
            max8 = _mm256_max_epu32(max8, _mm256_and_si256(bits, abs));
            i += 8;
        }
        let mut lanes = [0u32; 8];
        _mm256_storeu_si256(lanes.as_mut_ptr() as *mut __m256i, max8);
        let max_bits =
            src[i..].iter().map(|v| v.to_bits() & 0x7fff_ffff).chain(lanes).fold(0, u32::max);
        if max_bits == 0 {
            dst.fill(0);
            return Some(0.0);
        }
        if max_bits >= f32::INFINITY.to_bits() {
            return None;
        }
        let (scale, inv) = super::scale_and_reciprocal(f32::from_bits(max_bits));
        let inv = _mm256_set1_ps(inv);
        let mut i = 0;
        while i + 32 <= n {
            // SAFETY: `i + 32 <= n` bounds the read of `src` and the write
            // of `dst`, which has the same length.
            let codes = quantize32(src.as_ptr().add(i), inv);
            _mm256_storeu_si256(dst.as_mut_ptr().add(i) as *mut __m256i, codes);
            i += 32;
        }
        if i < n {
            // The last partial group goes through zero-padded buffers.
            let mut staged = [0.0f32; 32];
            staged[..n - i].copy_from_slice(&src[i..]);
            let mut codes = [0i8; 32];
            let packed = quantize32(staged.as_ptr(), inv);
            _mm256_storeu_si256(codes.as_mut_ptr() as *mut __m256i, packed);
            dst[i..].copy_from_slice(&codes[..n - i]);
        }
        Some(scale)
    }
}

/// A quantized vector: one scale plus i8 codes, with a reusable buffer so
/// per-step activation quantization allocates nothing after warm-up.
#[derive(Debug, Clone, Default)]
pub struct QuantizedVec {
    pub scale: f32,
    pub data: Vec<i8>,
}

impl QuantizedVec {
    pub fn new() -> Self {
        Self::default()
    }

    /// Quantize a fresh vector.
    pub fn quantize(src: &[f32]) -> Self {
        let mut q = Self::new();
        q.quantize_into(src);
        q
    }

    /// Re-quantize in place, reusing the code buffer.
    pub fn quantize_into(&mut self, src: &[f32]) {
        self.data.resize(src.len(), 0);
        self.scale = quantize_row_into(src, &mut self.data);
    }

    pub fn len(&self) -> usize {
        self.data.len()
    }

    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }
}

/// A per-row symmetrically quantized matrix: `scales[r]` dequantizes row `r`
/// of the contiguous i8 `data`.
#[derive(Debug, Clone, PartialEq)]
pub struct QuantizedMatrix {
    rows: usize,
    cols: usize,
    scales: Vec<f32>,
    /// Every code lies in `[-127, 127]`: what quantization produces, and
    /// what the blocked AVX2 matvec needs to be exact.
    data: Vec<i8>,
}

impl QuantizedMatrix {
    /// Quantize a tensor row by row, keeping its layout.
    pub fn from_tensor(t: &Tensor) -> Self {
        let (rows, cols) = t.shape();
        let mut scales = Vec::with_capacity(rows);
        let mut data = vec![0i8; rows * cols];
        for r in 0..rows {
            scales.push(quantize_row_into(t.row(r), &mut data[r * cols..(r + 1) * cols]));
        }
        QuantizedMatrix { rows, cols, scales, data }
    }

    /// Quantize the *transpose* of a tensor, row by row.
    ///
    /// A linear map stored as `W: [in, out]` becomes `[out, in]` with one
    /// scale per output unit, so `y[j]` reduces over a contiguous row.
    pub fn from_tensor_transposed(t: &Tensor) -> Self {
        Self::from_tensor(&t.transpose())
    }

    /// Build from raw parts (the kernel tests' inputs).
    ///
    /// # Panics
    /// Panics if the buffer lengths disagree with the shape, or if a code is
    /// `-128`, which quantization never makes.
    #[cfg(test)]
    pub(crate) fn from_raw(rows: usize, cols: usize, scales: Vec<f32>, data: Vec<i8>) -> Self {
        assert_eq!(scales.len(), rows, "scale count mismatch");
        assert_eq!(data.len(), rows * cols, "code count mismatch");
        assert!(!data.contains(&i8::MIN), "a code is -128");
        QuantizedMatrix { rows, cols, scales, data }
    }

    pub fn rows(&self) -> usize {
        self.rows
    }

    pub fn cols(&self) -> usize {
        self.cols
    }

    pub fn scales(&self) -> &[f32] {
        &self.scales
    }

    pub fn data(&self) -> &[i8] {
        &self.data
    }

    #[inline]
    pub fn scale(&self, r: usize) -> f32 {
        self.scales[r]
    }

    /// Row `r` of the i8 codes.
    #[inline]
    pub fn row(&self, r: usize) -> &[i8] {
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Full dequantization back to a tensor (same layout as stored).
    pub fn dequantize(&self) -> Tensor {
        let mut out = Vec::with_capacity(self.rows * self.cols);
        for r in 0..self.rows {
            let s = self.scales[r];
            out.extend(self.row(r).iter().map(|&q| s * q as f32));
        }
        Tensor::from_vec(self.rows, self.cols, out)
    }

    /// `scales[r] * x.scale * dot_i8(row r, x)`.
    #[inline]
    pub fn dot_row(&self, r: usize, x: &QuantizedVec) -> f32 {
        self.scales[r] * x.scale * dot_i8(self.row(r), &x.data) as f32
    }

    /// Matrix–vector product into a reusable output buffer:
    /// `out[r] = scales[r] * x.scale * dot_i8(row r, x)`.
    ///
    /// The CPU-feature dispatch happens once per product: with AVX2 the rows
    /// go through a register-blocked kernel (four rows per load of `x`),
    /// otherwise through the scalar loop. Both return the same bits.
    ///
    /// # Panics
    /// Panics if `x.len() != cols`.
    pub fn matvec_into(&self, x: &QuantizedVec, out: &mut Vec<f32>) {
        assert_eq!(x.len(), self.cols, "matvec length mismatch");
        out.clear();
        out.resize(self.rows, 0.0);
        if self.cols == 0 {
            return;
        }
        #[cfg(target_arch = "x86_64")]
        if std::arch::is_x86_feature_detected!("avx2") {
            // SAFETY: AVX2 support was just verified at runtime, and every
            // code is in [-127, 127], the kernel's no-saturation precondition.
            unsafe { x86::matvec_i8_avx2(&self.data, &self.scales, &x.data, x.scale, out) };
            return;
        }
        self.matvec_scalar(x, out);
    }

    /// The portable matvec: the fallback, and the oracle the AVX2 kernel is
    /// tested against. `out` is already `rows` long.
    fn matvec_scalar(&self, x: &QuantizedVec, out: &mut [f32]) {
        let rows = self.data.chunks_exact(self.cols).zip(&self.scales);
        for (o, (row, &s)) in out.iter_mut().zip(rows) {
            *o = s * x.scale * dot_i8_scalar(row, &x.data) as f32;
        }
    }
}

/// One frozen parameter: the quantized matrix plus whether it was stored
/// transposed relative to the f32 original (true for linear-map weights, so
/// matvec reduces along contiguous rows).
#[derive(Debug, Clone, PartialEq)]
pub struct QuantEntry {
    pub name: String,
    pub transposed: bool,
    pub matrix: QuantizedMatrix,
}

/// All parameters of a model frozen to i8, indexed by [`ParamId`] in
/// registration order — the same order [`ParamStore::iter_values`] walks, so
/// the ids handed out at model construction address both stores.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct QuantizedStore {
    entries: Vec<QuantEntry>,
}

impl QuantizedStore {
    /// Freeze every parameter of `store`. Parameters for which `transpose`
    /// returns true (by name) are stored transposed.
    pub fn freeze(store: &ParamStore, transpose: impl Fn(&str) -> bool) -> Self {
        let entries = store
            .iter_values()
            .map(|(name, value)| {
                let t = transpose(name);
                QuantEntry {
                    name: name.to_string(),
                    transposed: t,
                    matrix: if t {
                        QuantizedMatrix::from_tensor_transposed(value)
                    } else {
                        QuantizedMatrix::from_tensor(value)
                    },
                }
            })
            .collect();
        QuantizedStore { entries }
    }

    /// The entry for a parameter id handed out by the matching [`ParamStore`].
    #[inline]
    pub fn get(&self, id: ParamId) -> &QuantEntry {
        &self.entries[id.0]
    }

    pub fn entries(&self) -> &[QuantEntry] {
        &self.entries
    }

    pub fn by_name(&self, name: &str) -> Option<&QuantEntry> {
        self.entries.iter().find(|e| e.name == name)
    }

    pub fn len(&self) -> usize {
        self.entries.len()
    }

    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantize_roundtrip_within_half_scale() {
        let t = Tensor::from_vec(2, 3, vec![1.0, -2.5, 0.3, 100.0, -0.001, 42.0]);
        let q = QuantizedMatrix::from_tensor(&t);
        let d = q.dequantize();
        for r in 0..2 {
            for (orig, deq) in t.row(r).iter().zip(d.row(r)) {
                assert!(
                    (orig - deq).abs() <= q.scale(r) * 0.5 + 1e-12,
                    "row {r}: {orig} vs {deq} (scale {})",
                    q.scale(r)
                );
            }
        }
    }

    #[test]
    fn zero_rows_get_zero_scale_and_codes() {
        let t = Tensor::zeros(3, 4);
        let q = QuantizedMatrix::from_tensor(&t);
        assert!(q.scales().iter().all(|&s| s == 0.0));
        assert!(q.data().iter().all(|&v| v == 0));
        assert!(q.dequantize().approx_eq(&t, 0.0));
    }

    #[test]
    fn transposed_layout_matches_matmul() {
        // y = x · W  must equal the transposed-quantized matvec up to the
        // quantization error bound.
        let w = Tensor::from_vec(3, 2, vec![0.5, -1.0, 0.25, 2.0, -0.75, 0.125]);
        let x = vec![1.0f32, -2.0, 0.5];
        let exact = Tensor::from_row(x.clone()).matmul(&w);

        let qw = QuantizedMatrix::from_tensor_transposed(&w);
        assert_eq!((qw.rows(), qw.cols()), (2, 3));
        let qx = QuantizedVec::quantize(&x);
        let mut out = Vec::new();
        qw.matvec_into(&qx, &mut out);
        for (j, (&e, &got)) in exact.as_slice().iter().zip(&out).enumerate() {
            assert!((e - got).abs() < 0.05, "col {j}: exact {e} vs quant {got}");
        }
    }

    #[test]
    fn dot_i8_is_exact() {
        let a = vec![127i8; 1000];
        let b = vec![-127i8; 1000];
        assert_eq!(dot_i8(&a, &b), -127 * 127 * 1000);
    }

    #[test]
    fn quantized_vec_reuses_buffer() {
        let mut q = QuantizedVec::new();
        q.quantize_into(&[1.0, 2.0, 3.0]);
        let cap = q.data.capacity();
        q.quantize_into(&[-3.0, 0.0, 1.5]);
        assert_eq!(q.data.capacity(), cap, "re-quantization must not reallocate");
        assert_eq!(q.len(), 3);
    }

    #[test]
    fn freeze_preserves_param_order_and_orientation() {
        let mut store = ParamStore::new();
        let a = store.add("enc.w", Tensor::from_vec(2, 3, vec![1.0; 6]));
        let b = store.add("emb.weight", Tensor::from_vec(4, 2, vec![0.5; 8]));
        let qs = QuantizedStore::freeze(&store, |name| name.ends_with(".w"));
        assert_eq!(qs.len(), 2);
        assert!(qs.get(a).transposed);
        assert_eq!((qs.get(a).matrix.rows(), qs.get(a).matrix.cols()), (3, 2));
        assert!(!qs.get(b).transposed);
        assert_eq!((qs.get(b).matrix.rows(), qs.get(b).matrix.cols()), (4, 2));
        assert_eq!(qs.by_name("emb.weight").unwrap().name, "emb.weight");
    }
    // ----- AVX2 ≡ scalar, bit for bit -----
    //
    // The public entry points dispatch to the AVX2 kernels where the CPU has
    // them; the scalar functions are called directly, so both run on one
    // machine. (Without AVX2 both sides are the scalar path.)

    /// Reduction lengths around every kernel boundary: below one 16-lane
    /// step, and `len % 32` in {0, 1, 16, 17, 31}.
    const LENGTHS: [usize; 16] = [1, 2, 7, 15, 16, 17, 31, 32, 33, 48, 49, 63, 64, 65, 112, 127];

    fn quantize_both(src: &[f32]) -> ((f32, Vec<i8>), (f32, Vec<i8>)) {
        let mut fast = vec![0i8; src.len()];
        let mut slow = vec![0i8; src.len()];
        let fs = quantize_row_into(src, &mut fast);
        let ss = quantize_row_scalar(src, &mut slow);
        ((fs, fast), (ss, slow))
    }

    fn assert_quantize_parity(src: &[f32]) {
        let ((fs, fast), (ss, slow)) = quantize_both(src);
        assert_eq!(fs.to_bits(), ss.to_bits(), "scale differs for {src:?}");
        assert_eq!(fast, slow, "codes differ for {src:?}");
    }

    /// A finite f32 spanning ~80 binary orders of magnitude, subnormals
    /// included.
    fn sample_f32(state: &mut u64) -> f32 {
        let bits = proptest::next_state(state);
        let mantissa = ((bits & 0xFF_FFFF) as f32 / 8_388_608.0) - 1.0; // [-1, 1)
        let exp = ((bits >> 24) % 81) as i32 - 40;
        mantissa * 2.0f32.powi(exp)
    }

    fn sample_codes(state: &mut u64, n: usize, lo: i8) -> Vec<i8> {
        (0..n)
            .map(|_| match proptest::next_state(state) % 8 {
                0 => 127,
                1 => lo,
                _ => (proptest::next_state(state) % 255) as i32 as i8,
            })
            .map(|c| c.max(lo))
            .collect()
    }

    fn assert_matvec_parity(m: &QuantizedMatrix, x: &QuantizedVec) {
        let mut fast = Vec::new();
        m.matvec_into(x, &mut fast);
        let mut slow = vec![0.0; m.rows()];
        m.matvec_scalar(x, &mut slow);
        for r in 0..m.rows() {
            let shape = (m.rows(), m.cols());
            assert_eq!(fast[r].to_bits(), slow[r].to_bits(), "matvec row {r} of {shape:?}");
            let want = m.scale(r) * x.scale * dot_i8_scalar(m.row(r), &x.data) as f32;
            assert_eq!(m.dot_row(r, x).to_bits(), want.to_bits(), "dot_row {r} of {shape:?}");
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(48))]

        #[test]
        fn quantize_matches_scalar_bit_for_bit(seed in 0u64..10_000) {
            let mut state = seed;
            for n in LENGTHS {
                let mut row: Vec<f32> = (0..n).map(|_| sample_f32(&mut state)).collect();
                assert_quantize_parity(&row);
                // a row of subnormals engages the scale floor
                for v in row.iter_mut() {
                    *v *= f32::MIN_POSITIVE;
                }
                assert_quantize_parity(&row);
            }
        }

        #[test]
        fn matvec_and_dot_row_match_scalar_bit_for_bit(seed in 0u64..10_000) {
            let mut state = seed;
            let rows = 1 + (proptest::next_state(&mut state) % 11) as usize; // rows % 4 varies
            for cols in LENGTHS {
                let scales = (0..rows).map(|_| sample_f32(&mut state).abs()).collect();
                let codes = sample_codes(&mut state, rows * cols, -127);
                let m = QuantizedMatrix::from_raw(rows, cols, scales, codes);
                // activations may hold -128: `data` is a public field
                let x = QuantizedVec {
                    scale: sample_f32(&mut state).abs(),
                    data: sample_codes(&mut state, cols, -128),
                };
                assert_matvec_parity(&m, &x);
            }
        }
    }

    #[test]
    fn quantize_rounds_ties_like_the_scalar_path() {
        // A row holding 127.0 has scale 1 and reciprocal 1, so the scaled
        // value is the input itself and every tie is hit exactly.
        let mut row = vec![127.0f32, -127.0, 126.5, -126.5, 0.499_999_97, -0.499_999_97];
        for k in 0..127 {
            let tie = k as f32 + 0.5;
            for v in [tie, f32::from_bits(tie.to_bits() - 1), f32::from_bits(tie.to_bits() + 1)] {
                row.extend([v, -v]);
            }
        }
        let ((scale, codes), _) = quantize_both(&row);
        assert_eq!(scale, 1.0);
        assert_eq!(&codes[..6], &[127, -127, 127, -127, 0, 0]);
        assert_quantize_parity(&row);
        // every length, so ties also land in the zero-padded last group
        for n in 1..row.len().min(70) {
            let mut head = row[..n].to_vec();
            head[0] = 127.0;
            assert_quantize_parity(&head);
        }
    }

    #[test]
    fn quantize_edge_rows_match_scalar() {
        for n in LENGTHS {
            assert_quantize_parity(&vec![0.0; n]);
            assert_quantize_parity(&vec![-0.0; n]);
            assert_quantize_parity(&vec![f32::from_bits(1); n]); // smallest subnormal
            assert_quantize_parity(&vec![f32::MAX; n]);
            for special in [f32::NAN, f32::INFINITY, f32::NEG_INFINITY] {
                let mut row = vec![1.5f32; n];
                row[n / 2] = special;
                let ((fs, fast), (ss, slow)) = quantize_both(&row);
                assert_eq!(fs.to_bits(), ss.to_bits(), "{special} at {n}");
                assert_eq!(fast, slow, "{special} at {n}");
            }
        }
    }

    #[test]
    fn matvec_is_exact_at_the_saturation_corner() {
        // The largest pair sums the blocked kernel can meet: |w| = 127
        // against |x| = 128 in every lane, all four sign combinations.
        for cols in LENGTHS {
            for (w, xv) in [(127i8, -128i8), (-127, -128), (127, 127), (-127, 127)] {
                let m = QuantizedMatrix::from_raw(8, cols, vec![0.5; 8], vec![w; 8 * cols]);
                let x = QuantizedVec { scale: 0.25, data: vec![xv; cols] };
                assert_matvec_parity(&m, &x);
            }
        }
    }

    #[test]
    fn store_frozen_through_the_vector_quantizer_equals_a_scalar_freeze() {
        let mut state = 12;
        let mut store = ParamStore::new();
        for (name, rows, cols) in [("gru.wz", 112, 64), ("emb.weight", 37, 48), ("b", 1, 64)] {
            let data = (0..rows * cols).map(|_| sample_f32(&mut state)).collect();
            store.add(name, Tensor::from_vec(rows, cols, data));
        }
        let frozen = QuantizedStore::freeze(&store, |name| name.ends_with(".wz"));
        for ((_, value), entry) in store.iter_values().zip(frozen.entries()) {
            let t = if entry.transposed { value.transpose() } else { value.clone() };
            let (rows, cols) = t.shape();
            let mut codes = vec![0i8; rows * cols];
            let scales = (0..rows)
                .map(|r| quantize_row_scalar(t.row(r), &mut codes[r * cols..(r + 1) * cols]))
                .collect();
            let scalar = QuantizedMatrix::from_raw(rows, cols, scales, codes);
            assert_eq!(entry.matrix, scalar, "{}", entry.name);
        }
    }
}
