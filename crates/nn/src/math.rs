//! First-party `exp`, `sigmoid`, `tanh` and `ln` for `f32`: the router's
//! transcendentals, shared by inference and the tape.
//!
//! Every function is plain `f32` `mul`, `add`, `div`, compares, selects and
//! integer bit operations — no call into the platform libm and never a fused
//! multiply-add — so one source gives the same bits on any x86-64, and the
//! in-place slice forms ([`exp_in_place`], [`sigmoid_in_place`],
//! [`tanh_in_place`]), which run from an AVX2 copy where the CPU has one,
//! give the bits of the scalar functions applied element by element
//! (ARCHITECTURE.md "Inference numeric contract"). [`ln`] runs once per
//! softmax row and has no slice form.
//!
//! Accuracy against an `f64` reference, over every input whose result is a
//! normal `f32` (the `#[ignore]`d exhaustive sweep measures it): `exp`
//! ≤ 0.991 ULP, `sigmoid` ≤ 2.481, `tanh` ≤ 1.331, `ln` ≤ 0.830.
//!
//! Special values: a NaN gives a NaN; `exp(+∞) = +∞`, `exp(−∞) = +0`;
//! `exp(x) = +∞` from `x ≈ 88.72` up (the first input whose result rounds
//! past `f32::MAX`); underflow is gradual — results below
//! `f32::MIN_POSITIVE` are computed as subnormals, down to `+0` from
//! `x ≈ −103.97`; `sigmoid(±∞)` is `1` and `0`; `tanh(±∞) = ±1` and
//! `tanh(±0) = ±0`; `ln(+0) = ln(−0) = −∞`, `ln(x < 0)` is NaN,
//! `ln(+∞) = +∞`.

use crate::tensor::at_widest;

/// `1.5 · 2²³`: added to a value of magnitude below 2²², the sum's low
/// mantissa bits hold the value rounded to the nearest integer.
const ROUND: f32 = 12_582_912.0;
/// `ln 2` in two parts. The high part has 9 significant bits, so `n ·
/// LN2_HI` is exact for every exponent `n` the reduction meets.
const LN2_HI: f32 = 355.0 / 512.0;
const LN2_LO: f32 = -2.121_944_4e-4;
/// `exp`'s inputs are clamped to `[EXP_LO, EXP_HI]`: at the top the result
/// has already overflowed to `+∞`, at the bottom it rounds to `+0`.
const EXP_HI: f32 = 89.0;
const EXP_LO: f32 = -104.0;
/// Below this magnitude `tanh` is its odd polynomial, above it
/// `1 − 2/(exp(2|x|) + 1)`.
const TANH_SMALL: f32 = 0.625;
const SIGN: u32 = 0x8000_0000;

/// `eˣ`: `x = n·ln 2 + r` with `n` rounded to nearest by adding `1.5·2²³`
/// and `|r| ≤ ln 2 / 2` from the two-part `ln 2`; `eʳ = 1 + r + r²·P(r)`
/// with `P` of degree 5; `2ⁿ` built from exponent bits as two exact
/// factors, so the last multiply rounds once, to `+∞` on overflow or to a
/// subnormal on underflow.
#[inline(always)]
pub fn exp(x: f32) -> f32 {
    // Compare-and-select, not `min`/`max`: a NaN passes through.
    let x = if x > EXP_HI { EXP_HI } else { x };
    let x = if x < EXP_LO { EXP_LO } else { x };
    let t = x * std::f32::consts::LOG2_E + ROUND;
    let n = t - ROUND;
    let r = (x - n * LN2_HI) - n * LN2_LO;
    let p = ((((1.987_569_1e-4 * r + 1.398_199_9e-3) * r + 8.333_452e-3) * r + 4.166_579_6e-2) * r
        + 1.666_666_6e-1)
        * r
        + 0.5;
    let y = p * (r * r) + r + 1.0;
    // `n` ∈ [−150, 128] sits in `t`'s low bits; each half is a normal 2ᵏ.
    let n = t.to_bits().wrapping_sub(ROUND.to_bits()) as i32;
    let half = n >> 1;
    y * pow2(half) * pow2(n.wrapping_sub(half))
}

/// `2ᵏ` for `k` ∈ [−126, 127], from its exponent bits.
#[inline(always)]
fn pow2(k: i32) -> f32 {
    f32::from_bits((k.wrapping_add(127) as u32) << 23)
}

/// The logistic function `1 / (1 + e⁻ˣ)`.
#[inline(always)]
pub fn sigmoid(x: f32) -> f32 {
    1.0 / (1.0 + exp(-x))
}

/// `tanh x`, computed on `a = |x|` with the sign bit of `x` restored (so
/// `tanh(−0) = −0`): below `a = 0.625` the odd polynomial
/// `a + a·s·P(s)`, `s = a²`, else `1 − 2/(exp(2a) + 1)`. Both are
/// computed and one is selected, so the slice form has no branch.
#[inline(always)]
pub fn tanh(x: f32) -> f32 {
    let a = x.abs();
    let s = a * a;
    let small =
        ((((-5.704_988_7e-3 * s + 2.063_908_8e-2) * s - 5.373_971_5e-2) * s + 1.333_144_2e-1) * s
            - 3.333_328e-1)
            * s
            * a
            + a;
    let large = 1.0 - 2.0 / (exp(a + a) + 1.0);
    let t = if a < TANH_SMALL { small } else { large };
    f32::from_bits(t.to_bits() | (x.to_bits() & SIGN))
}

/// `ln x`: `x = m·2ᵉ` with `m` ∈ [√½, √2), `ln m = f − f²/2 + f³·P(f)` for
/// `f = m − 1` with `P` of degree 8, plus `e·ln 2` in two parts.
pub fn ln(x: f32) -> f32 {
    if x.is_nan() || x < 0.0 {
        return f32::NAN;
    }
    if x == 0.0 {
        return f32::NEG_INFINITY;
    }
    if x == f32::INFINITY {
        return x;
    }
    // A subnormal is scaled into the normal range first.
    let (x, e) = if x < f32::MIN_POSITIVE { (x * 8_388_608.0, -23) } else { (x, 0) };
    let bits = x.to_bits();
    // `x = m·2ᵉ` with `m` ∈ [½, 1).
    let e = e + (bits >> 23) as i32 - 126;
    let m = f32::from_bits((bits & 0x007F_FFFF) | 0x3F00_0000);
    let (f, e) =
        if m < std::f32::consts::FRAC_1_SQRT_2 { (m + m - 1.0, e - 1) } else { (m - 1.0, e) };
    let z = f * f;
    let p = (((((((7.037_683_6e-2 * f - 1.151_461e-1) * f + 1.167_699_84e-1) * f
        - 1.242_014_1e-1)
        * f
        + 1.424_932_3e-1)
        * f
        - 1.666_805_7e-1)
        * f
        + 2.000_071_4e-1)
        * f
        - 2.499_999_4e-1)
        * f
        + 3.333_333e-1;
    let fe = e as f32;
    let y = p * f * z + LN2_LO * fe - 0.5 * z;
    (f + y) + LN2_HI * fe
}

#[inline(always)]
fn exp_body(v: &mut [f32]) {
    v.iter_mut().for_each(|x| *x = exp(*x));
}

#[inline(always)]
fn sigmoid_body(v: &mut [f32]) {
    v.iter_mut().for_each(|x| *x = sigmoid(*x));
}

#[inline(always)]
fn tanh_body(v: &mut [f32]) {
    v.iter_mut().for_each(|x| *x = tanh(*x));
}

at_widest!(pub fn exp_in_place(v: &mut [f32]) = exp_body);
at_widest!(pub fn sigmoid_in_place(v: &mut [f32]) = sigmoid_body);
at_widest!(pub fn tanh_in_place(v: &mut [f32]) = tanh_body);

#[cfg(test)]
mod tests {
    use super::*;

    /// The largest error each function may have, in units in the last place
    /// of the exact result's binade, over every input whose result is a
    /// normal `f32`: the exhaustive sweep's measured maxima, rounded up.
    const EXP_ULP: f64 = 0.991;
    const SIGMOID_ULP: f64 = 2.481;
    const TANH_ULP: f64 = 1.331;
    const LN_ULP: f64 = 0.830;

    /// A vectorised function: its scalar form, its slice form and the
    /// `f64` reference it is measured against.
    struct Vectorised {
        name: &'static str,
        scalar: fn(f32) -> f32,
        in_place: fn(&mut [f32]),
        reference: fn(f64) -> f64,
    }

    const VECTORISED: [Vectorised; 3] = [
        Vectorised { name: "exp", scalar: exp, in_place: exp_in_place, reference: f64::exp },
        Vectorised {
            name: "sigmoid",
            scalar: sigmoid,
            in_place: sigmoid_in_place,
            reference: |x| 1.0 / (1.0 + (-x).exp()),
        },
        Vectorised { name: "tanh", scalar: tanh, in_place: tanh_in_place, reference: f64::tanh },
    ];

    /// Bits, with every NaN counted as one value: which NaN an operation
    /// returns is not part of Rust's float semantics.
    fn bits(v: f32) -> u32 {
        if v.is_nan() {
            u32::MAX
        } else {
            v.to_bits()
        }
    }

    /// `got`'s distance from the exact `want` in ULPs of `want`'s `f32`
    /// binade, or `None` when `want` is not a normal `f32`.
    fn ulps(got: f32, want: f64) -> Option<f64> {
        let normal = (f32::MIN_POSITIVE as f64..=f32::MAX as f64).contains(&want.abs());
        let binade = ((want.to_bits() >> 52) & 0x7FF) as i32 - 1023;
        normal.then(|| (got as f64 - want).abs() / 2f64.powi(binade - 23))
    }

    /// The worst ULP error of each vectorised function, then of `ln`, over
    /// `inputs`, panicking on any lane where the slice form and the scalar
    /// form disagree.
    fn sweep(inputs: &[f32]) -> [f64; 4] {
        let mut worst = [0.0f64; 4];
        let mut lanes = inputs.to_vec();
        for (k, Vectorised { name, scalar, in_place, reference }) in VECTORISED.iter().enumerate() {
            lanes.copy_from_slice(inputs);
            in_place(&mut lanes);
            for (&x, &wide) in inputs.iter().zip(&lanes) {
                let one = scalar(x);
                assert_eq!(bits(wide), bits(one), "{name}({x:e}): slice form ≠ scalar form");
                if let Some(u) = ulps(one, reference(x as f64)) {
                    worst[k] = worst[k].max(u);
                }
            }
        }
        for &x in inputs {
            if let Some(u) = ulps(ln(x), (x as f64).ln()) {
                worst[3] = worst[3].max(u);
            }
        }
        worst
    }

    fn assert_within_bounds(worst: [f64; 4]) {
        let names = ["exp", "sigmoid", "tanh", "ln"];
        let bounds = [EXP_ULP, SIGMOID_ULP, TANH_ULP, LN_ULP];
        for ((name, w), bound) in names.iter().zip(worst).zip(bounds) {
            assert!(w <= bound, "{name}: {w:.3} ULP exceeds the committed {bound}");
        }
    }

    /// ~10⁶ inputs: half arbitrary bit patterns, half spread over the
    /// range where the results are neither saturated nor zero; slice
    /// lengths that leave every remainder after the 8-lane body.
    #[test]
    fn sampled_inputs_match_between_forms_and_stay_within_ulp_bounds() {
        let mut state = 0x5EED_u64;
        let mut worst = [0.0f64; 4];
        let mut len = 0;
        let mut inputs = Vec::new();
        while len < 1 << 20 {
            let n = 4096 + (len / 4096) % 9;
            inputs.clear();
            inputs.extend((0..n).map(|i| {
                let r = proptest::next_state(&mut state);
                match i % 2 {
                    0 => f32::from_bits((r >> 32) as u32),
                    _ => (r >> 40) as f32 / (1u64 << 24) as f32 * 200.0 - 100.0,
                }
            }));
            for (w, s) in worst.iter_mut().zip(sweep(&inputs)) {
                *w = w.max(s);
            }
            len += n;
        }
        assert_within_bounds(worst);
    }

    #[test]
    fn special_values() {
        let inf = f32::INFINITY;
        let mut specials = vec![f32::NAN, -f32::NAN, inf, -inf, 0.0, -0.0, f32::MAX, f32::MIN];
        specials.extend([f32::MIN_POSITIVE, -f32::MIN_POSITIVE, 1e-45, -1e-45, 1.0, -1.0]);
        for Vectorised { name, scalar, in_place, .. } in &VECTORISED {
            let mut lanes = specials.clone();
            in_place(&mut lanes);
            for (&x, &wide) in specials.iter().zip(&lanes) {
                assert_eq!(bits(wide), bits(scalar(x)), "{name}({x:e})");
            }
            assert!(scalar(f32::NAN).is_nan() && scalar(-f32::NAN).is_nan(), "{name}(NaN)");
        }
        assert!(ln(f32::NAN).is_nan());

        assert_eq!(exp(inf), inf);
        assert_eq!(exp(-inf).to_bits(), 0, "exp(−∞) is +0");
        assert_eq!(exp(0.0), 1.0);
        assert_eq!(exp(-0.0), 1.0);
        assert_eq!((sigmoid(inf), sigmoid(-inf)), (1.0, 0.0));
        assert_eq!(sigmoid(-inf).to_bits(), 0);
        assert_eq!((tanh(inf), tanh(-inf)), (1.0, -1.0));
        assert_eq!(tanh(0.0).to_bits(), 0.0f32.to_bits());
        assert_eq!(tanh(-0.0).to_bits(), (-0.0f32).to_bits(), "tanh keeps the sign of zero");
        assert_eq!((ln(0.0), ln(-0.0)), (-inf, -inf));
        assert_eq!((ln(inf), ln(1.0)), (inf, 0.0));
        assert!(ln(-1.0).is_nan() && ln(-inf).is_nan() && ln(-1e-45).is_nan());
        assert_eq!(ln(1e-45), (1e-45f32 as f64).ln() as f32, "ln of the smallest subnormal");
    }

    /// `exp` overflows to `+∞` exactly where the rounded result passes
    /// `f32::MAX`: 88.72283 (`0x42B17217`) is the largest finite input.
    #[test]
    fn exp_overflow_threshold() {
        let last = f32::from_bits(0x42B1_7217);
        assert!(exp(last).is_finite() && (last as f64).exp() < f32::MAX as f64);
        let next = f32::from_bits(last.to_bits() + 1);
        assert!((next as f64).exp() > f32::MAX as f64);
        assert_eq!(exp(next), f32::INFINITY);
        assert_eq!(exp(EXP_HI), f32::INFINITY);
        assert_eq!(exp(1e30), f32::INFINITY);
    }

    /// Underflow is gradual: below `f32::MIN_POSITIVE` the result is the
    /// subnormal nearest the exact value, to within one subnormal step,
    /// until it rounds to `+0` near `−150·ln 2`.
    #[test]
    fn exp_underflow_is_gradual() {
        let step = f32::from_bits(1) as f64;
        let mut x = -87.33f32;
        while x > -103.9 {
            let got = exp(x);
            let want = (x as f64).exp();
            assert!(got > 0.0, "exp({x}) flushed to zero");
            assert!((got as f64 - want).abs() <= step, "exp({x}) = {got:e}, exact {want:e}");
            x -= 0.0137;
        }
        assert!(exp(-87.4) < f32::MIN_POSITIVE, "a subnormal result");
        for x in [-104.0f32, -105.0, -1e30] {
            assert_eq!(exp(x).to_bits(), 0, "exp({x}) is +0");
        }
    }

    /// Every `f32` bit pattern: the slice form (the AVX2 copy where the CPU
    /// has AVX2) equals the scalar form bit for bit, and each function stays
    /// within its committed ULP bound. Minutes in release; CI runs it as a
    /// named step.
    #[test]
    #[ignore]
    fn exhaustive_all_bit_patterns() {
        const CHUNK: u64 = 1 << 16;
        let threads = std::thread::available_parallelism().map_or(1, |n| n.get()) as u64;
        let worst = std::thread::scope(|scope| {
            let workers: Vec<_> = (0..threads)
                .map(|t| {
                    scope.spawn(move || {
                        let mut worst = [0.0f64; 4];
                        let mut inputs = Vec::with_capacity(CHUNK as usize);
                        let mut start = t * CHUNK;
                        while start < 1 << 32 {
                            inputs.clear();
                            inputs.extend((start..start + CHUNK).map(|b| f32::from_bits(b as u32)));
                            for (w, s) in worst.iter_mut().zip(sweep(&inputs)) {
                                *w = w.max(s);
                            }
                            start += threads * CHUNK;
                        }
                        worst
                    })
                })
                .collect();
            workers.into_iter().map(|w| w.join().expect("sweep worker")).fold(
                [0.0f64; 4],
                |mut acc, w| {
                    acc.iter_mut().zip(w).for_each(|(a, w)| *a = a.max(w));
                    acc
                },
            )
        });
        eprintln!(
            "max ULP: exp {:.4}, sigmoid {:.4}, tanh {:.4}, ln {:.4}",
            worst[0], worst[1], worst[2], worst[3]
        );
        assert_within_bounds(worst);
    }
}
