//! The four workloads: what each sends, how a run is cut into windows,
//! how the windows become metrics, and the checks that each workload still
//! does what it was chosen for.

use std::time::{Duration, Instant};

use dbcopilot::http::ServerStats;
use dbcopilot::serve::ServiceStats;

use crate::deploy::Deployment;
use crate::loadgen::{
    Connection, Mix, Plan, Requests, RunContext, MIXED_HIT_ONE_IN, SWAP_MISS_ONE_IN,
};
use crate::names::{Metrics, END_TO_END, PER_LAYER};
use crate::pool::Pool;
use crate::recorder::{median, percentile, process_cpu_ns, spread, Schedule};

/// Measurement windows in a run. Latencies are medians over the windows.
/// The shared box this was tuned on freezes for tens to hundreds of
/// milliseconds a few times a minute; a freeze spoils the window it falls
/// in, and the median of twelve survives five of those.
pub const WINDOWS: usize = 12;

/// More requests than one connection completes in a second on any
/// workload; sizes the sample vectors, which are never touched beyond use.
const MAX_RATE_PER_CONNECTION: f64 = 250_000.0;

/// How long a generator that polls watches its socket before it sleeps on
/// it: longer than a cached answer takes, far shorter than a computed one.
const POLL: Duration = Duration::from_micros(200);

pub struct Spec {
    pub name: &'static str,
    mix: Mix,
    /// Connections, each driven by a generator thread of its own. With the
    /// server's threads they stay within the two cores of the smallest box
    /// the benchmark runs on; more would measure its scheduler.
    conns: usize,
    /// Requests kept outstanding on each connection.
    depth: usize,
    /// `Some(rate)` makes the workload open loop at `rate` requests/s.
    open_rate: Option<f64>,
    /// A request slower than this misses the workload's latency limit.
    limit: Duration,
    /// How long a generator polls for a response before it sleeps. Where
    /// most answers come from the cache, a generator that sleeps would
    /// report the host's wake-up time as the program's latency.
    poll: Duration,
}

pub const SPECS: &[Spec] = &[
    Spec {
        name: "ask_cold",
        mix: Mix::Cold,
        conns: 2,
        depth: 1,
        open_rate: None,
        limit: Duration::from_millis(5),
        poll: Duration::ZERO,
    },
    // Depth-1 ping-pong on loopback measures how the kernel wakes the two
    // threads, not the program. With 16 outstanding on one connection and
    // a generator that polls, the worker always has a request waiting and
    // wakes nobody: one busy thread on each core.
    Spec {
        name: "ask_hot",
        mix: Mix::Hot,
        conns: 1,
        depth: 16,
        open_rate: None,
        limit: Duration::from_millis(1),
        poll: POLL,
    },
    // Below the rate at which a connection's next request is due before
    // its last computed answer is back: past it the 95th percentile is set
    // by queueing alone and swings by half from run to run.
    Spec {
        name: "ask_mixed_open",
        mix: Mix::Mixed,
        conns: 2,
        depth: 1,
        open_rate: Some(400.0),
        limit: Duration::from_millis(5),
        poll: Duration::ZERO,
    },
    // One connection both routes and publishes, so it always knows which
    // tier must answer.
    Spec {
        name: "route_swap",
        mix: Mix::Swap,
        conns: 1,
        depth: 1,
        open_rate: None,
        limit: Duration::from_millis(20),
        poll: POLL,
    },
];

pub fn spec(name: &str) -> Option<&'static Spec> {
    SPECS.iter().find(|s| s.name == name)
}

/// The public counters of the program, read at a slot boundary.
struct Boundary {
    at: Duration,
    cpu_ns: u64,
    front: ServiceStats,
    server: ServerStats,
}

pub struct Outcome {
    pub end_to_end: Metrics,
    pub per_layer: Metrics,
    /// Requests sent inside the windows, and how many of them failed.
    pub attempted: u64,
    pub failed: u64,
    /// The workload no longer does what it was chosen for: the run is void.
    pub violations: Vec<String>,
    /// Timing-dependent expectations that did not hold on this run.
    pub warnings: Vec<String>,
}

fn front_stats(spec: &Spec, deployment: &Deployment) -> ServiceStats {
    match spec.mix {
        Mix::Swap => deployment.app.route.stats(),
        _ => deployment.app.ask.stats(),
    }
}

fn us(ns: u32) -> f64 {
    f64::from(ns) / 1e3
}

/// What a run of any workload needs besides its [`Spec`].
pub struct Harness<'a> {
    pub deployment: &'a Deployment,
    pub pool: &'a Pool,
    pub requests: &'a Requests,
    pub seed: u64,
    /// Worker threads of the server: no workload opens more connections.
    pub workers: usize,
    /// Measured seconds, split evenly over the windows.
    pub seconds: f64,
    /// Unmeasured time before the first window.
    pub warm_up: Duration,
}

/// Run one workload for a warm-up and `WINDOWS` windows of `seconds / WINDOWS`.
pub fn run(spec: &Spec, harness: &Harness) -> Outcome {
    let Harness { deployment, pool, requests, seed, workers, seconds, warm_up } = *harness;
    let conns = spec.conns.min(workers);
    let window = Duration::from_secs_f64(seconds / WINDOWS as f64);
    let ends: Vec<Duration> = (0..=WINDOWS as u32).map(|w| warm_up + window * w).collect();

    // Hits must be hits from the first request on.
    if matches!(spec.mix, Mix::Hot | Mix::Mixed) {
        deployment.app.ask.warm(pool.head());
    }

    let samples = (MAX_RATE_PER_CONNECTION * window.max(warm_up).as_secs_f64()) as usize;
    let ctx = RunContext {
        addr: deployment.server.addr(),
        requests,
        pool,
        start: Instant::now(),
        ends: &ends,
        limit: spec.limit,
        poll: spec.poll,
    };
    let mut connections: Vec<Connection> = (0..conns)
        .map(|c| Connection::open(&ctx, Plan::new(spec.mix, seed, c, conns), samples))
        .collect();
    let mut boundaries: Vec<Boundary> = Vec::with_capacity(ends.len());
    // Generators outlive the last boundary, so that the process's CPU time
    // read there still counts theirs.
    let finished = std::sync::Barrier::new(conns + 1);
    std::thread::scope(|s| {
        for (c, connection) in connections.iter_mut().enumerate() {
            let (ctx, finished) = (&ctx, &finished);
            // dbc-lint: allow(no-raw-spawn): each generator connection is an
            // independent client that blocks on its own socket; running them
            // on the program's worker pool would put the load inside the
            // system it measures.
            s.spawn(move || {
                match spec.open_rate {
                    Some(rate) => connection.run_open(ctx, Schedule::new(rate, c, conns)),
                    None => connection.run_closed(ctx, spec.depth),
                }
                finished.wait();
            });
        }
        for &end in &ends {
            if let Some(wait) = end.checked_sub(ctx.start.elapsed()) {
                std::thread::sleep(wait);
            }
            boundaries.push(Boundary {
                at: ctx.start.elapsed(),
                cpu_ns: process_cpu_ns(),
                front: front_stats(spec, deployment),
                server: deployment.server.stats(),
            });
        }
        finished.wait();
    });
    summarize(spec, deployment, &connections, &boundaries)
}

fn summarize(
    spec: &Spec,
    deployment: &Deployment,
    connections: &[Connection],
    boundaries: &[Boundary],
) -> Outcome {
    let mut violations = Vec::new();
    let mut warnings = Vec::new();

    // Slot 0 is the warm-up; windows are slots 1..=WINDOWS.
    let mut all: Vec<u32> = Vec::new();
    let (mut rates, mut p50s, mut p95s, mut mets) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let (mut failed_total, mut slow_total) = (0u64, 0u64);
    let mut publishes_per_window = Vec::new();
    for w in 1..=WINDOWS {
        let mut window: Vec<u32> = Vec::new();
        let (mut failed, mut slow, mut publishes) = (0u64, 0u64, 0usize);
        for connection in connections {
            let log = &connection.slots[w];
            window.extend_from_slice(&log.latency_ns);
            failed += log.failed;
            slow += log.slow;
            publishes += log.publish_ns.len();
        }
        failed_total += failed;
        slow_total += slow;
        publishes_per_window.push(publishes);
        if window.is_empty() {
            // The box froze for the whole window: it has no percentile,
            // and the medians are over the others.
            warnings.push(format!("window {w} completed no request"));
            continue;
        }
        let secs = (boundaries[w].at - boundaries[w - 1].at).as_secs_f64();
        rates.push(window.len() as f64 / secs);
        mets.push((window.len() as u64 - slow) as f64 / (window.len() as u64 + failed) as f64);
        p50s.push(us(percentile(&mut window, 0.50).expect("non-empty")));
        p95s.push(us(percentile(&mut window, 0.95).expect("non-empty")));
        all.extend_from_slice(&window);
    }
    let completed_total = all.len() as u64;
    let sent_total = completed_total + failed_total;
    let warm_up_failed: u64 = connections.iter().map(|c| c.slots[0].failed).sum();
    if warm_up_failed > 0 {
        violations.push(format!("{warm_up_failed} requests failed during warm-up"));
    }

    // The window values, for reading how the run went.
    for (name, values) in
        [("throughput_rps", &rates), ("latency_p50_us", &p50s), ("latency_p95_us", &p95s)]
    {
        println!("# {} windows {name} {values:.1?}", spec.name);
    }
    let mut end_to_end = Metrics::new(END_TO_END);
    if rates.len() * 2 <= WINDOWS {
        violations.push(format!("only {} of {WINDOWS} windows completed a request", rates.len()));
    } else {
        // Latencies and the share within the limit are medians of the
        // windows: a freeze of the box spoils the windows it falls in, on
        // the open loop with its whole backlog, and leaves the median alone.
        end_to_end.set("latency_p50_us", median(&p50s));
        end_to_end.set("latency_p95_us", median(&p95s));
        end_to_end.set("slo_met_share", median(&mets));
        // Rate and cost are of the whole run: a freeze takes little from
        // them, and route_swap's windows hold one publish or two, so their
        // rates alternate.
        let secs = (boundaries[WINDOWS].at - boundaries[0].at).as_secs_f64();
        end_to_end.set("throughput_rps", completed_total as f64 / secs);
        // The program's CPU time: the process's less its generator threads'.
        let generators: u64 =
            connections.iter().map(|c| c.cpu_marks_ns[WINDOWS + 1] - c.cpu_marks_ns[1]).sum();
        let process = boundaries[WINDOWS].cpu_ns - boundaries[0].cpu_ns;
        let program_us = process.saturating_sub(generators) as f64 / 1e3;
        end_to_end.set("cpu_us_per_req", program_us / completed_total as f64);
    }

    let (first, last) = (&boundaries[0].front, &boundaries[WINDOWS].front);
    let hits = last.cache_hits - first.cache_hits;
    let lookups = hits + last.cache_misses - first.cache_misses;
    let hit_share = if lookups == 0 { 0.0 } else { hits as f64 / lookups as f64 };
    let computed = last.computed - first.computed;
    let batches = last.batches - first.batches;
    let mut publish_ns: Vec<u32> = connections
        .iter()
        .flat_map(|c| c.slots[1..].iter().flat_map(|log| log.publish_ns.iter().copied()))
        .collect();
    let mut late_ns: Vec<u32> = connections
        .iter()
        .flat_map(|c| c.slots[1..].iter().flat_map(|log| log.late_ns.iter().copied()))
        .collect();
    let late_p95_us = percentile(&mut late_ns, 0.95).map_or(0.0, us);
    // The tier serving when the run ended: a publish starts its counters anew.
    let route_now = deployment.app.route.stats();

    let mut per_layer = Metrics::new(PER_LAYER);
    per_layer.set("serve.cache_hit_share", hit_share);
    per_layer.set("serve.computed", computed as f64);
    per_layer.set("serve.batches", batches as f64);
    per_layer
        .set("serve.mean_batch", if batches == 0 { 0.0 } else { computed as f64 / batches as f64 });
    per_layer.set("serve.max_batch", last.max_batch_observed as f64);
    per_layer.set("serve.generation", route_now.generation as f64);
    per_layer.set("serve.publish_p50_ms", percentile(&mut publish_ns, 0.5).map_or(0.0, us) / 1e3);
    let (edge_first, edge_last) = (&boundaries[0].server, &boundaries[WINDOWS].server);
    per_layer.set("http.requests", (edge_last.requests - edge_first.requests) as f64);
    per_layer.set("http.shed", (edge_last.shed - edge_first.shed) as f64);
    per_layer
        .set("core.shard_routes", route_now.shards.iter().map(|s| s.routes).sum::<u64>() as f64);
    per_layer
        .set("core.shards_loaded", route_now.shards.iter().filter(|s| s.loaded).count() as f64);
    per_layer.set("loadgen.sent", sent_total as f64);
    per_layer.set("loadgen.completed", completed_total as f64);
    per_layer.set("loadgen.late_p95_us", late_p95_us);
    per_layer.set("loadgen.latency_p99_us", percentile(&mut all, 0.99).map_or(0.0, us));
    per_layer.set("loadgen.window_spread", spread(&rates));
    let share = |n: u64| if sent_total == 0 { 0.0 } else { n as f64 / sent_total as f64 };
    per_layer.set("loadgen.slo_miss_share", share(slow_total + failed_total));
    per_layer.set("loadgen.failed_share", share(failed_total));

    if failed_total > 0 {
        violations.push(format!("{failed_total} of {sent_total} responses differ from the oracle"));
    }
    match spec.mix {
        Mix::Cold => {
            if hit_share > 0.01 {
                violations.push(format!("ask_cold hit the cache: hit share {hit_share:.4} > 0.01"));
            }
        }
        Mix::Hot => {
            if hit_share < 0.99 {
                violations
                    .push(format!("ask_hot missed the cache: hit share {hit_share:.4} < 0.99"));
            }
            if computed != 0 {
                violations.push(format!("ask_hot ran the pipeline {computed} times"));
            }
        }
        Mix::Mixed => {
            // The coin is fair to within four standard deviations on a
            // run too short (`--smoke`) for 0.03 to cover that.
            let target = 1.0 / MIXED_HIT_ONE_IN as f64;
            let coin = 4.0 * (target * (1.0 - target) / lookups.max(1) as f64).sqrt();
            let tolerance = coin.max(0.03);
            if (hit_share - target).abs() > tolerance {
                violations.push(format!(
                    "ask_mixed_open hit share {hit_share:.4} is not {target} ± {tolerance:.3}"
                ));
            }
            if late_p95_us >= 1000.0 {
                warnings.push(format!("the generator ran late: p95 {late_p95_us:.0} us"));
            }
        }
        Mix::Swap => {
            // A generation lasts about 0.6 s: expect a publish for every
            // measured second at the least.
            let publishes: usize = publishes_per_window.iter().sum();
            let secs = (boundaries[WINDOWS].at - boundaries[0].at).as_secs_f64();
            if (publishes as f64) < secs.floor() {
                violations.push(format!("publishes per window: {publishes_per_window:?}"));
            }
            let target = 1.0 / SWAP_MISS_ONE_IN as f64;
            if (1.0 - hit_share - target).abs() > 0.02 {
                warnings.push(format!(
                    "route_swap miss share {:.4} is not 0.10 ± 0.02",
                    1.0 - hit_share
                ));
            }
        }
    }
    Outcome {
        end_to_end,
        per_layer,
        attempted: sent_total,
        failed: failed_total,
        violations,
        warnings,
    }
}
