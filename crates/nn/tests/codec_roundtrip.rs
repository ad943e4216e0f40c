//! Property tests for the `DBC1` binary codec: every `f32` bit pattern —
//! normal, subnormal, zero of either sign, infinite, and NaN with any
//! payload — must survive a save→load round trip bit-exactly, and every
//! corruption of a valid file must fail with a typed error, not a panic
//! (and not a `debug_assert!` that vanishes in release builds).

use proptest::prelude::*;

use dbcopilot_nn::codec::{decode_store, encode_store, encoded_store_len};
use dbcopilot_nn::{ParamStore, Tensor};

/// Derive a deterministic stream of arbitrary `f32` bit patterns from one
/// sampled seed (SplitMix64, the same generator the vendored proptest
/// uses), seasoned with the interesting fixed points.
fn bits_stream(seed: u64, n: usize) -> Vec<f32> {
    const SPECIALS: &[u32] = &[
        0x0000_0000, // +0.0
        0x8000_0000, // -0.0
        0x7f80_0000, // +inf
        0xff80_0000, // -inf
        0x7fc0_0000, // quiet NaN
        0x7fa0_0001, // signalling-style NaN payload
        0xffc1_2345, // negative NaN with payload
        0x0000_0001, // smallest subnormal
        0x007f_ffff, // largest subnormal
        0x7f7f_ffff, // f32::MAX
    ];
    let mut state = seed;
    (0..n)
        .map(|i| {
            // Even slots cycle the special fixed points so every stream
            // holds NaNs/infs/subnormals; odd slots are seeded arbitrary
            // patterns, so the stream varies per case at any length.
            if i % 2 == 0 {
                f32::from_bits(SPECIALS[(i / 2) % SPECIALS.len()])
            } else {
                f32::from_bits(proptest::next_state(&mut state) as u32)
            }
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Arbitrary bit patterns (including NaN payloads and infinities)
    /// survive a binary save→load round trip exactly.
    #[test]
    fn arbitrary_bits_roundtrip_exactly(seed in 0u64..=u64::MAX) {
        let values = bits_stream(seed, 64);
        let mut store = ParamStore::new();
        store.add("a", Tensor::from_vec(4, 8, values[..32].to_vec()));
        store.add("b.weight", Tensor::from_vec(8, 4, values[32..].to_vec()));

        let bytes = encode_store(&store);
        prop_assert_eq!(bytes.len(), encoded_store_len(&store));
        let loaded = decode_store(&bytes).map_err(|e| TestCaseError::fail(e.to_string()))?;
        prop_assert_eq!(loaded.len(), store.len());
        for ((an, av), (bn, bv)) in store.iter_values().zip(loaded.iter_values()) {
            prop_assert_eq!(an, bn);
            prop_assert_eq!(av.shape(), bv.shape());
            for (x, y) in av.as_slice().iter().zip(bv.as_slice()) {
                prop_assert_eq!(x.to_bits(), y.to_bits(), "bits drifted in {}", an);
            }
        }
    }

    /// Single-byte corruption anywhere in a valid file either fails with a
    /// typed error or — if it lands inside weight data, where any bits are
    /// legal — still decodes without panicking. It must never crash.
    #[test]
    fn single_byte_corruption_never_panics(seed in 0u64..=u64::MAX) {
        let values = bits_stream(seed, 8);
        let mut store = ParamStore::new();
        store.add("w", Tensor::from_vec(2, 4, values));
        let bytes = encode_store(&store);
        let pos = (proptest::next_state(&mut { seed }) as usize) % bytes.len();
        let mut bad = bytes.clone();
        bad[pos] ^= 0xff;
        // Err is fine; Ok is fine (weight-byte flips are legal data); a
        // panic would abort the test process.
        let _ = decode_store(&bad);
    }

    /// Every strict prefix of a valid file is rejected with an error.
    #[test]
    fn truncation_always_errors(seed in 0u64..=u64::MAX) {
        let values = bits_stream(seed, 8);
        let mut store = ParamStore::new();
        store.add("w", Tensor::from_vec(1, 8, values));
        let bytes = encode_store(&store);
        let cut = (proptest::next_state(&mut { seed }) as usize) % bytes.len();
        prop_assert!(decode_store(&bytes[..cut]).is_err(), "prefix of {} bytes decoded", cut);
    }
}
