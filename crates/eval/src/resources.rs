//! Efficiency and resource measurement (Table 5).
//!
//! [`measure_concurrent`] is the paper's Table 5 stopwatch and the only
//! in-process QPS function: it times every routing method (BM25, dense,
//! CRUSH, DBCopilot) through the same closure. System performance — the
//! served stack over a socket — is `exp_perf`'s job, which times none of
//! the baselines.

// dbc-lint: allow(no-wallclock-determinism): this module *measures* wall
// time (Table 5's QPS column is its deliverable); timings are reported,
// never folded into routed results or DBC1 bytes.
use std::time::Instant;

use dbcopilot_retrieval::SchemaRouter;

/// One row of Table 5.
#[derive(Debug, Clone)]
pub struct ResourceReport {
    pub method: String,
    /// Queries per second over the measurement batch.
    pub qps: f64,
    /// Training + index construction time.
    pub build_secs: f64,
    /// Serialized index/model size.
    pub disk_mb: f64,
}

/// Measure query throughput (the paper uses a query batch of 64; queries
/// cycle if fewer are provided): the one-client case of
/// [`measure_concurrent`].
pub fn measure_qps(
    router: &(dyn SchemaRouter + Send + Sync),
    questions: &[String],
    batch: usize,
) -> f64 {
    measure_concurrent(questions, batch, 1, |q| {
        let _ = router.route(q, 100);
    })
}

/// The driver behind every in-process QPS number: `clients` threads
/// (the caller is the first) issue `total` requests round-robin over
/// `questions` through `serve_one`, returning requests per second. Pass a
/// closure over `RouterService::route` or `AskService::ask` and the number
/// includes cache hits, micro-batching and pool dispatch.
pub fn measure_concurrent(
    questions: &[String],
    total: usize,
    clients: usize,
    serve_one: impl Fn(&str) + Sync,
) -> f64 {
    assert!(!questions.is_empty());
    let clients = clients.max(1);
    let per_client = total.div_ceil(clients);
    let run_client = &|client: usize| {
        for i in 0..per_client {
            serve_one(&questions[(client * per_client + i) % questions.len()]);
        }
    };
    // dbc-lint: allow(no-wallclock-determinism): QPS measurement is the
    // deliverable; the timing never reaches a routing result.
    let start = Instant::now();
    std::thread::scope(|s| {
        for client in 1..clients {
            // dbc-lint: allow(no-raw-spawn): measurement clients must be
            // independent OS threads — running them on the WorkerPool would
            // serialize the very concurrency being measured.
            s.spawn(move || run_client(client));
        }
        run_client(0);
    });
    let secs = start.elapsed().as_secs_f64();
    (per_client * clients) as f64 / secs.max(1e-9)
}

/// One precision's routing latency and recall (the f32-vs-i8 comparison
/// printed under Table 5).
#[derive(Debug, Clone)]
pub struct PrecisionRow {
    pub precision: String,
    /// Mean per-query routing latency in microseconds.
    pub latency_us: f64,
    pub db_r1: f64,
    pub db_r5: f64,
}

/// Render the f32-vs-i8 precision comparison. Recall is measured, not
/// asserted: quantization noise at quick scale should leave it unchanged,
/// and printing both lets a drift show up in the experiment log.
pub fn render_precision_table(rows: &[PrecisionRow]) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "{:<10} {:>16} {:>9} {:>9}\n",
        "Precision", "Latency (µs/q)", "DB R@1", "DB R@5"
    ));
    for r in rows {
        out.push_str(&format!(
            "{:<10} {:>16.1} {:>8.1}% {:>8.1}%\n",
            r.precision, r.latency_us, r.db_r1, r.db_r5
        ));
    }
    out
}

/// Render Table 5.
pub fn render_table5(rows: &[ResourceReport]) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "{:<12} {:>9} {:>10} {:>10}\n",
        "Method", "QPS", "Build (s)", "Disk (MB)"
    ));
    for r in rows {
        out.push_str(&format!(
            "{:<12} {:>9.1} {:>10.1} {:>10.2}\n",
            r.method, r.qps, r.build_secs, r.disk_mb
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use dbcopilot_retrieval::{Bm25Index, Bm25Params, Target, TargetSet};

    fn tiny_router() -> Bm25Index {
        Bm25Index::build(
            TargetSet {
                targets: vec![Target {
                    database: "d".into(),
                    table: "t".into(),
                    text: "t a b".into(),
                }],
            },
            Bm25Params::default(),
        )
    }

    #[test]
    fn qps_positive() {
        let r = tiny_router();
        let qs = vec!["a of t".to_string()];
        let qps = measure_qps(&r, &qs, 16);
        assert!(qps > 0.0);
    }

    #[test]
    fn served_qps_positive_and_cache_backed() {
        use dbcopilot_serve::{RouterService, ServiceConfig};
        let service = RouterService::from_router(tiny_router(), ServiceConfig::default());
        let qs = vec!["a of t".to_string(), "b of t".to_string()];
        let qps = measure_concurrent(&qs, 64, 4, |q| {
            let _ = service.route(q);
        });
        assert!(qps > 0.0);
        let stats = service.stats();
        assert!(stats.cache_hits > 0, "repeated questions must hit the cache: {stats:?}");
    }

    #[test]
    fn precision_table_renders() {
        let text = render_precision_table(&[
            PrecisionRow { precision: "f32".into(), latency_us: 812.5, db_r1: 91.0, db_r5: 98.0 },
            PrecisionRow { precision: "i8".into(), latency_us: 401.2, db_r1: 91.0, db_r5: 98.0 },
        ]);
        assert!(text.contains("f32") && text.contains("i8"));
        assert!(text.contains("Latency"));
        assert!(text.contains("DB R@1"));
    }

    #[test]
    fn render_contains_method() {
        let row =
            ResourceReport { method: "BM25".into(), qps: 812.5, build_secs: 0.5, disk_mb: 0.001 };
        let text = render_table5(&[row]);
        assert!(text.contains("BM25"));
        assert!(text.contains("QPS"));
    }
}
