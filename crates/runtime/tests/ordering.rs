//! Property tests for the determinism contract: the pooled primitives must
//! agree with the serial map for arbitrary inputs, chunk sizes, and thread
//! counts — including counts above the pool size, where the surplus is
//! simply not scheduled.

use proptest::prelude::*;
use rand::Rng;

use dbcopilot_runtime::{derive_rng, pooled_map, pooled_map_chunks, with_thread_count};

/// Arbitrary-ish inputs derived from one sampled seed (the vendored
/// proptest subset samples integer ranges only).
fn case(seed: u64) -> (Vec<u64>, usize, usize) {
    let mut rng = derive_rng(seed, 0);
    let len = rng.gen_range(0usize..200);
    let items: Vec<u64> = (0..len).map(|_| rng.gen_range(0u64..1_000_000)).collect();
    let chunk_size = rng.gen_range(1usize..17);
    // up to twice MAX_DEFAULT_THREADS, the largest pool hardware detection builds
    let threads = rng.gen_range(1usize..33);
    (items, chunk_size, threads)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// `pooled_map_chunks` equals the serial chunked map, at any thread
    /// count, for arbitrary item lists and chunk sizes.
    #[test]
    fn chunked_map_matches_serial(seed in 0u64..1_000_000) {
        let (items, chunk_size, threads) = case(seed);
        let serial: Vec<(usize, u64, usize)> = items
            .chunks(chunk_size)
            .enumerate()
            .map(|(i, c)| (i, c.iter().sum(), c.len()))
            .collect();
        let parallel = with_thread_count(threads, || {
            pooled_map_chunks(&items, chunk_size, |i, c| (i, c.iter().sum::<u64>(), c.len()))
        });
        prop_assert_eq!(parallel, serial, "chunk_size={} threads={}", chunk_size, threads);
    }

    /// `pooled_map` preserves item order and index pairing.
    #[test]
    fn item_map_matches_serial(seed in 0u64..1_000_000) {
        let (items, _, threads) = case(seed);
        let serial: Vec<u64> = items.iter().enumerate().map(|(i, &x)| x + i as u64).collect();
        let parallel = with_thread_count(threads, || {
            pooled_map(&items, |i, &x| x + i as u64)
        });
        prop_assert_eq!(parallel, serial, "threads={}", threads);
    }
}
