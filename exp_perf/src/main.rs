//! `exp_perf` — the repository's benchmark.
//!
//! Trains the fixed deployment, serves the real stack (`HttpServer` →
//! `ServiceApp{AskService<DbCopilot>, RouterService<ShardedRouter>}`) on a
//! loopback socket in this process with `C = min(nproc, 4)` workers, drives
//! one of four workloads against it over one or two connections, checks
//! every response byte for
//! byte against the library called directly, and prints every metric by
//! name with its unit. With `--trace 1` it also replays single asks through
//! each layer's public entry points and prints the per-layer metrics.
//!
//! ```sh
//! cargo run --release --manifest-path exp_perf/Cargo.toml -- \
//!     --workload ask_cold --seed 1 --seconds 16 --trace 0
//! ```
//!
//! The last line of standard output is one JSON object, as
//! `BENCHMARK.json`'s contract asks. See `README.md` beside this package.

mod alloc;
mod client;
mod deploy;
mod loadgen;
mod names;
mod pool;
mod recorder;
mod trace;
mod workloads;

use std::process::ExitCode;
use std::time::{Duration, Instant};

use names::{Metrics, PER_LAYER};

#[global_allocator]
static ALLOCATOR: alloc::Counting = alloc::Counting;

/// Set-ups per run when `setup_s` is reported; it is their median.
const SETUPS: usize = 3;

struct Args {
    workloads: Vec<&'static workloads::Spec>,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
}

fn usage() -> String {
    let names: Vec<&str> = names::WORKLOADS.iter().map(|w| w.name).collect();
    format!(
        "usage: exp_perf [--workload <{}|all>] [--seed <u64>] [--seconds <n>] [--trace <0|1>]\n\
         \x20      exp_perf --list     every workload and metric name, with units\n\
         \x20      exp_perf --smoke    all four workloads with tiny windows, same checks",
        names.join("|")
    )
}

fn parse_args() -> Result<Option<Args>, String> {
    let mut args = Args {
        workloads: workloads::SPECS.iter().collect(),
        seed: 1,
        seconds: 16.0,
        trace: false,
        smoke: false,
    };
    let mut argv = std::env::args().skip(1);
    while let Some(flag) = argv.next() {
        let mut value = || argv.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--list" => {
                names::print_list();
                return Ok(None);
            }
            "--smoke" => {
                args.smoke = true;
                args.seconds = 1.0;
            }
            "--workload" => {
                let name = value()?;
                if name != "all" {
                    let spec = workloads::spec(&name).ok_or(format!("no workload {name:?}"))?;
                    args.workloads = vec![spec];
                }
            }
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(args.seconds > 0.0 && args.seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                }
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(Some(args))
}

/// The `[profile.release]` table this binary was built under.
fn release_profile() -> String {
    let manifest = include_str!("../Cargo.toml");
    let table = manifest.split("[profile.release]").nth(1).unwrap_or("");
    let lines: Vec<&str> = table
        .lines()
        .map(str::trim)
        .take_while(|l| !l.starts_with('['))
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
        .collect();
    lines.join(", ")
}

fn rustc_version() -> String {
    std::process::Command::new("rustc")
        .arg("--version")
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".into())
}

fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &Metrics) -> String {
    let fields: Vec<String> = metrics
        .rows()
        .into_iter()
        .map(|(name, unit, value)| {
            // `{:?}` prints an `f64` with all its digits.
            format!("\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        fields.join(", ")
    )
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(Some(args)) => args,
        Ok(None) => return ExitCode::SUCCESS,
        Err(why) => {
            eprintln!("exp_perf: {why}\n{}", usage());
            return ExitCode::from(2);
        }
    };
    if cfg!(debug_assertions) {
        eprintln!("exp_perf: refusing to measure a debug build; run with --release");
        return ExitCode::from(2);
    }
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let workers = nproc.min(4);
    if let Ok(threads) = std::env::var("DBC_THREADS") {
        if threads.trim().parse() != Ok(workers) {
            eprintln!(
                "exp_perf: DBC_THREADS={threads} but the benchmark runs C={workers}; unset it"
            );
            return ExitCode::from(2);
        }
    }
    println!(
        "# exp_perf seed={} seconds={} trace={} nproc={nproc} C={workers} | {} | [profile.release] {}",
        args.seed,
        args.seconds,
        u8::from(args.trace),
        rustc_version(),
        release_profile()
    );

    // Set-up, several times when `setup_s` is reported: the run keeps the
    // last deployment and reports the median of the build times.
    let setups = if args.trace || args.smoke { 1 } else { SETUPS };
    let mut stage_runs = Vec::new();
    let mut setup_secs = Vec::new();
    let mut deployment = None;
    for _ in 0..setups {
        drop(deployment.take());
        let mut stages = Metrics::new(PER_LAYER);
        let (built, secs) = deploy::build(workers, &mut stages);
        deployment = Some(built);
        stage_runs.push(stages);
        setup_secs.push(secs);
    }
    let deployment = deployment.expect("at least one set-up");
    let setup_s = recorder::median(&setup_secs);
    let mut setup_layers = Metrics::median_of(&stage_runs);

    let oracle_start = Instant::now();
    let pool = pool::build(&deployment, args.seed);
    let requests = loadgen::Requests::render(&pool);
    setup_layers.set("loadgen.oracle_s", oracle_start.elapsed().as_secs_f64());

    let replay = args.trace.then(|| {
        let (metrics, tracer, warnings) =
            trace::replay(&deployment, &pool, if args.smoke { 32 } else { trace::ASK_QUESTIONS });
        for warning in warnings {
            eprintln!("exp_perf: trace: warning: {warning}");
        }
        (metrics, tracer)
    });

    let harness = workloads::Harness {
        deployment: &deployment,
        pool: &pool,
        requests: &requests,
        seed: args.seed,
        workers,
        seconds: args.seconds,
        warm_up: Duration::from_millis(if args.smoke { 200 } else { 1000 }),
    };
    let mut exit = ExitCode::SUCCESS;
    for spec in &args.workloads {
        let mut outcome = workloads::run(spec, &harness);
        for warning in &outcome.warnings {
            eprintln!("exp_perf: {}: warning: {warning}", spec.name);
        }
        if !outcome.violations.is_empty() {
            for violation in &outcome.violations {
                eprintln!("exp_perf: {}: FAILED: {violation}", spec.name);
            }
            exit = ExitCode::FAILURE;
        }
        let correct = outcome.violations.is_empty();
        let metrics = match &replay {
            Some((replayed, _)) => {
                outcome.per_layer.absorb(&setup_layers);
                outcome.per_layer.absorb(replayed);
                outcome.per_layer
            }
            None => {
                outcome.end_to_end.set("peak_rss_mb", recorder::peak_rss_mb());
                outcome.end_to_end.set("setup_s", setup_s);
                outcome.end_to_end
            }
        };
        if !metrics.is_complete() {
            continue; // too few windows completed anything; the failure is on stderr
        }
        println!("## {}", spec.name);
        for (name, unit, value) in metrics.rows() {
            println!("{name:<34} {value:>16.4} {unit}");
        }
        println!("{}", result_line(correct, outcome.attempted, outcome.failed, &metrics));
    }
    if let Some((_, tracer)) = &replay {
        match tracer.write() {
            Ok(path) => eprintln!("exp_perf: spans written to {}", path.display()),
            Err(e) => {
                eprintln!("exp_perf: cannot write the span file: {e}");
                exit = ExitCode::FAILURE;
            }
        }
    }
    exit
}
