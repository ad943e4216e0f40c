//! The benchmark's own recorder: raw latency samples, exact percentiles,
//! medians over windows, open-loop due-time arithmetic, and the process
//! counters read from `/proc`.
//!
//! `dbcopilot_http::Histogram` buckets latencies with up to 25 % error,
//! which is wider than every bound in `BENCHMARK.json`; nothing here uses it.

use std::time::Duration;

/// Latency of one request in nanoseconds, saturating at `u32::MAX` (4.29 s,
/// far beyond every latency limit).
pub fn sample_ns(latency: Duration) -> u32 {
    u32::try_from(latency.as_nanos()).unwrap_or(u32::MAX)
}

/// The exact `p`-quantile (nearest rank) of `samples`, which it sorts.
/// `None` when there are no samples.
pub fn percentile(samples: &mut [u32], p: f64) -> Option<u32> {
    if samples.is_empty() {
        return None;
    }
    samples.sort_unstable();
    let rank = (p * samples.len() as f64).ceil() as usize;
    Some(samples[rank.clamp(1, samples.len()) - 1])
}

/// Median of a few window values (mean of the middle two when even).
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no windows");
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// `(max − min) / median` of the window values: the noise gauge.
pub fn spread(values: &[f64]) -> f64 {
    let max = values.iter().copied().fold(f64::MIN, f64::max);
    let min = values.iter().copied().fold(f64::MAX, f64::min);
    let mid = median(values);
    if mid == 0.0 {
        0.0
    } else {
        (max - min) / mid
    }
}

/// The send schedule of one open-loop connection: request `i` is due at
/// `offset + i × interval` after the run starts, whatever happened to the
/// requests before it.
#[derive(Debug, Clone, Copy)]
pub struct Schedule {
    offset: Duration,
    interval: Duration,
}

impl Schedule {
    /// Connection `conn` of `conns` sharing `rate_per_sec` evenly, staggered
    /// so the connections' due times interleave.
    pub fn new(rate_per_sec: f64, conn: usize, conns: usize) -> Self {
        let interval = Duration::from_secs_f64(conns as f64 / rate_per_sec);
        Schedule { offset: interval.mul_f64(conn as f64 / conns as f64), interval }
    }

    pub fn due(&self, i: u64) -> Duration {
        self.offset + self.interval.mul_f64(i as f64)
    }
}

/// An open-loop request's latency runs from its due time, so a stalled
/// connection charges its backlog to the requests that waited; lateness is
/// how long after the due time the generator wrote it.
pub fn open_loop_sample(due: Duration, sent: Duration, done: Duration) -> (Duration, Duration) {
    (done.saturating_sub(due), sent.saturating_sub(due))
}

/// Slot of the run containing `at`, given the slot end times in ascending
/// order: slot 0 is the warm-up (before `ends[0]`), slot `w` the `w`-th
/// measurement window (`ends[w − 1]..ends[w]`), and `ends.len()` means the
/// run is over.
pub fn slot_of(ends: &[Duration], at: Duration) -> usize {
    ends.partition_point(|&end| end <= at)
}

/// Nanoseconds a thread has spent on a CPU: the first field of its
/// `schedstat` file. `/proc/self/stat` counts in 10 ms ticks, too coarse
/// for CPU time per request.
fn on_cpu_ns(schedstat: impl AsRef<std::path::Path>) -> Option<u64> {
    std::fs::read_to_string(schedstat).ok()?.split_ascii_whitespace().next()?.parse().ok()
}

/// CPU time of the calling thread, in nanoseconds.
pub fn thread_cpu_ns() -> u64 {
    on_cpu_ns("/proc/thread-self/schedstat").expect("read this thread's schedstat")
}

/// CPU time of every live thread of this process, in nanoseconds. A thread
/// that has exited is no longer counted, so differences are taken only
/// across spans in which none does.
pub fn process_cpu_ns() -> u64 {
    std::fs::read_dir("/proc/self/task")
        .expect("list /proc/self/task")
        .filter_map(Result::ok)
        // A thread may exit between the listing and the read.
        .filter_map(|task| on_cpu_ns(task.path().join("schedstat")))
        .sum()
}

/// Peak resident set size of this process in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("VmHWM in /proc/self/status");
    kb / 1024.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_are_exact_nearest_rank() {
        let mut s: Vec<u32> = (1..=100).rev().collect();
        assert_eq!(percentile(&mut s, 0.50), Some(50));
        assert_eq!(percentile(&mut s, 0.95), Some(95));
        assert_eq!(percentile(&mut s, 0.99), Some(99));
        assert_eq!(percentile(&mut s, 1.0), Some(100));
        let mut one = vec![7];
        assert_eq!(percentile(&mut one, 0.5), Some(7));
        assert_eq!(percentile(&mut one, 0.95), Some(7));
        assert_eq!(percentile(&mut [], 0.5), None);
        // 20 samples: p95 is the 19th, p50 the 10th.
        let mut s: Vec<u32> = (1..=20).map(|v| v * 10).collect();
        assert_eq!(percentile(&mut s, 0.95), Some(190));
        assert_eq!(percentile(&mut s, 0.50), Some(100));
    }

    #[test]
    fn window_median_and_spread() {
        assert_eq!(median(&[5.0, 1.0, 3.0, 4.0, 2.0]), 3.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[9.0]), 9.0);
        assert!((spread(&[90.0, 100.0, 110.0]) - 0.2).abs() < 1e-12);
        assert_eq!(spread(&[0.0, 0.0]), 0.0);
    }

    #[test]
    fn due_times_are_staggered_and_independent_of_progress() {
        // 800 requests/s over 2 connections: 2.5 ms apart on each, the second
        // connection offset by half an interval.
        let a = Schedule::new(800.0, 0, 2);
        let b = Schedule::new(800.0, 1, 2);
        assert_eq!(a.due(0), Duration::ZERO);
        assert_eq!(a.due(4), Duration::from_millis(10));
        assert_eq!(b.due(0), Duration::from_micros(1250));
        assert_eq!(b.due(2), Duration::from_micros(6250));
    }

    #[test]
    fn open_loop_latency_counts_the_wait_from_the_due_time() {
        let ms = Duration::from_millis;
        // Due at 10 ms, written at 13 ms behind a stalled request, done at 15.
        assert_eq!(open_loop_sample(ms(10), ms(13), ms(15)), (ms(5), ms(3)));
        // Written on time.
        assert_eq!(open_loop_sample(ms(10), ms(10), ms(11)), (ms(1), ms(0)));
    }

    #[test]
    fn slots_partition_the_run_into_warm_up_and_windows() {
        let ms = Duration::from_millis;
        let ends = [ms(100), ms(200), ms(300)];
        assert_eq!(slot_of(&ends, ms(0)), 0);
        assert_eq!(slot_of(&ends, ms(99)), 0);
        assert_eq!(slot_of(&ends, ms(100)), 1);
        assert_eq!(slot_of(&ends, ms(199)), 1);
        assert_eq!(slot_of(&ends, ms(200)), 2);
        assert_eq!(slot_of(&ends, ms(300)), 3);
    }

    #[test]
    fn process_counters_read() {
        assert!(peak_rss_mb() > 0.0);
        let thread = thread_cpu_ns();
        let began = std::time::Instant::now();
        while began.elapsed() < Duration::from_millis(30) {
            std::hint::spin_loop();
        }
        // The counter advances at scheduler ticks, a few milliseconds apart.
        assert!(thread_cpu_ns() >= thread + 10_000_000);
        // Other tests' threads come and go, so only: this thread is in it.
        assert!(process_cpu_ns() >= thread_cpu_ns());
    }
}
