//! A fixed-bucket, lock-free latency histogram: the server's `/stats`
//! whole-request latency. (Benchmark percentiles are exact and come from
//! `exp_perf`'s own recorder, not from these buckets.)
//!
//! Buckets are log-spaced with 4 sub-steps per power of two (≤ ~25%
//! relative error on reported quantiles), covering 1 µs to ~an hour, with
//! a saturating catch-all above that.
//! Recording is one atomic increment; quantiles are nearest-rank over the
//! cumulative counts, reported as the matched bucket's upper bound.

use std::sync::atomic::{AtomicU64, Ordering};

/// 4 sub-buckets per octave over 2^0..2^31 µs.
const OCTAVES: usize = 32;
const SUBS: usize = 4;
const BUCKETS: usize = OCTAVES * SUBS;

/// Concurrent fixed-bucket histogram over microsecond samples.
#[derive(Debug)]
pub struct Histogram {
    buckets: Box<[AtomicU64; BUCKETS]>,
    count: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

/// Bucket index for a microsecond sample.
///
/// 0–3 µs map to indices 0–3 exactly; from there each octave `o ≥ 2`
/// contributes 4 equal sub-buckets at indices `(o-1)·4 .. (o-1)·4+3`, so
/// the layout is contiguous: `[4,5)[5,6)[6,7)[7,8)[8,10)[10,12)…`.
fn index(us: u64) -> usize {
    if us < SUBS as u64 {
        return us as usize;
    }
    let octave = 63 - us.leading_zeros() as usize; // ≥ 2 here
    if octave >= OCTAVES {
        // Beyond the covered range: everything lands in the final,
        // saturating bucket.
        return BUCKETS - 1;
    }
    let sub = ((us >> (octave - 2)) & 0b11) as usize;
    (octave - 1) * SUBS + sub
}

/// Inclusive upper bound (µs) of a bucket.
fn upper_bound(index: usize) -> u64 {
    if index == BUCKETS - 1 {
        return u64::MAX; // the saturating catch-all
    }
    if index < SUBS {
        return index as u64;
    }
    let (octave, sub) = (index / SUBS + 1, index % SUBS);
    // Sub-bucket `sub` covers [2^o · (1 + sub/4), 2^o · (1 + (sub+1)/4)).
    (1u64 << octave) + ((sub as u64 + 1) << octave) / SUBS as u64 - 1
}

impl Histogram {
    pub fn new() -> Self {
        Histogram {
            buckets: Box::new(std::array::from_fn(|_| AtomicU64::new(0))),
            count: AtomicU64::new(0),
        }
    }

    /// Record one sample, in microseconds.
    pub fn record_us(&self, us: u64) {
        // `index` saturates into the final bucket, so the slot always exists.
        if let Some(bucket) = self.buckets.get(index(us)) {
            bucket.fetch_add(1, Ordering::Relaxed);
        }
        self.count.fetch_add(1, Ordering::Relaxed);
    }

    /// Samples recorded.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Nearest-rank quantile (`q` in 0..=1), as the upper bound (µs) of the
    /// bucket holding that rank. Returns 0 when empty.
    pub fn quantile_us(&self, q: f64) -> u64 {
        let total = self.count();
        if total == 0 {
            return 0;
        }
        let rank = ((q * total as f64).ceil() as u64).clamp(1, total);
        let mut seen = 0u64;
        for (i, bucket) in self.buckets.iter().enumerate() {
            seen += bucket.load(Ordering::Relaxed);
            if seen >= rank {
                return upper_bound(i);
            }
        }
        upper_bound(BUCKETS - 1)
    }

    /// p50, shorthand for the `/stats` payload.
    pub fn p50_us(&self) -> u64 {
        self.quantile_us(0.50)
    }

    /// p95, shorthand for the `/stats` payload.
    pub fn p95_us(&self) -> u64 {
        self.quantile_us(0.95)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buckets_are_monotone_and_cover_the_sample() {
        let mut last = 0;
        for i in 1..BUCKETS {
            let ub = upper_bound(i);
            assert!(ub > last, "bucket {i} upper bound {ub} not past {last}");
            last = ub;
        }
        // every sample lands in a bucket whose bound is >= the sample and
        // within ~25% of it
        for us in [0u64, 1, 3, 4, 5, 17, 100, 1000, 12_345, 1_000_000, u64::MAX / 2] {
            let ub = upper_bound(index(us));
            assert!(ub >= us, "{us} put above its bucket bound {ub}");
            if (4..(1 << 31)).contains(&us) {
                assert!(ub as f64 <= us as f64 * 1.25 + 1.0, "{us} bound {ub} too loose");
            }
        }
    }

    #[test]
    fn quantiles_are_nearest_rank_over_buckets() {
        let h = Histogram::new();
        assert_eq!(h.quantile_us(0.5), 0, "empty histogram reports 0");
        for us in [100u64; 50] {
            h.record_us(us);
        }
        for us in [10_000u64; 50] {
            h.record_us(us);
        }
        assert_eq!(h.count(), 100);
        let p50 = h.p50_us();
        assert!((100..=127).contains(&p50), "p50 {p50} should sit in the 100µs bucket");
        let p95 = h.p95_us();
        assert!((10_000..=12_500).contains(&p95), "p95 {p95} should sit in the 10ms bucket");
    }
}
