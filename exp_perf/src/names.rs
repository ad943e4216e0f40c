//! Every name the benchmark prints: workloads, end-to-end metrics and
//! per-layer metrics, each with its unit. `BENCHMARK.json` at the root of
//! the repository lists exactly these (a unit test compares them), and
//! [`Metrics`] refuses a name that is not here.

use std::collections::BTreeMap;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
}

pub const WORKLOADS: &[Workload] = &[
    Workload {
        name: "ask_cold",
        why: "closed loop, POST /ask over twice the cache: every request routes, generates, executes",
    },
    Workload {
        name: "ask_hot",
        why: "closed loop, one connection with 16 POST /ask outstanding over cached questions: parse, probe, render only",
    },
    Workload {
        name: "ask_mixed_open",
        why: "open loop at a fixed 400 requests/s, 1 in 4 asks cached and 3 in 4 computed: arrivals do not wait for answers",
    },
    Workload {
        name: "route_swap",
        why: "closed loop, POST /route on one connection that also hot-swaps the sharded tier: reads beside writes",
    },
];

pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
}

const fn lower(name: &'static str, unit: &'static str) -> Metric {
    Metric { name, unit, better: Better::Lower }
}

const fn higher(name: &'static str, unit: &'static str) -> Metric {
    Metric { name, unit, better: Better::Higher }
}

/// What a user of the served system sees. Latencies and `slo_met_share`
/// are medians over a run's windows, `throughput_rps` and `cpu_us_per_req`
/// are of the whole run, `setup_s` is the median of the run's set-ups and
/// `peak_rss_mb` is read once, after the last window.
pub const END_TO_END: &[Metric] = &[
    higher("throughput_rps", "1/s"),
    lower("latency_p50_us", "us"),
    lower("latency_p95_us", "us"),
    lower("cpu_us_per_req", "us"),
    higher("slo_met_share", "share"),
    lower("peak_rss_mb", "MiB"),
    lower("setup_s", "s"),
];

pub const PER_LAYER: &[Metric] = &[
    // Set-up stages (all move `setup_s` only).
    lower("synth.build_corpus_s", "s"),
    lower("graph.build_s", "s"),
    lower("synth.questioner_train_s", "s"),
    lower("core.synthesize_s", "s"),
    lower("core.fit_monolith_s", "s"),
    lower("core.fit_sharded_s", "s"),
    lower("core.extend_s", "s"),
    lower("core.quant_freeze_ms", "ms"),
    lower("core.bundle_save_ms", "ms"),
    lower("core.bundle_bytes", "B"),
    lower("core.bundle_load_ms", "ms"),
    lower("core.first_touch_ms", "ms"),
    lower("sqlengine.prepare_all_ms", "ms"),
    lower("http.bind_ms", "ms"),
    lower("loadgen.oracle_s", "s"),
    // The workload's timed windows, from the public counters.
    higher("serve.cache_hit_share", "share"),
    lower("serve.computed", "count"),
    lower("serve.batches", "count"),
    higher("serve.mean_batch", "count"),
    higher("serve.max_batch", "count"),
    higher("serve.generation", "count"),
    lower("serve.publish_p50_ms", "ms"),
    higher("http.requests", "count"),
    lower("http.shed", "count"),
    lower("core.shard_routes", "count"),
    lower("core.shards_loaded", "count"),
    higher("loadgen.sent", "count"),
    higher("loadgen.completed", "count"),
    lower("loadgen.late_p95_us", "us"),
    lower("loadgen.latency_p99_us", "us"),
    lower("loadgen.window_spread", "share"),
    lower("loadgen.slo_miss_share", "share"),
    lower("loadgen.failed_share", "share"),
    // The replay trace: mean µs over the replayed questions, one thread.
    lower("http.request_us", "us"),
    lower("http.request_p95_us", "us"),
    lower("http.parse_us", "us"),
    lower("http.decode_body_us", "us"),
    lower("http.render_us", "us"),
    lower("http.socket_self_us", "us"),
    lower("http.request_hot_us", "us"),
    lower("serve.ask_miss_us", "us"),
    lower("serve.normalize_us", "us"),
    lower("serve.miss_self_us", "us"),
    lower("serve.ask_hit_us", "us"),
    lower("facade.ask_with_us", "us"),
    lower("facade.ask_with_p95_us", "us"),
    lower("facade.self_us", "us"),
    lower("core.route_us", "us"),
    lower("core.route_p95_us", "us"),
    lower("core.beam_search_us", "us"),
    lower("core.merge_self_us", "us"),
    lower("nl2sql.resolve_us", "us"),
    lower("nl2sql.prompt_us", "us"),
    lower("nl2sql.generate_us", "us"),
    lower("sqlengine.parse_us", "us"),
    lower("sqlengine.compile_us", "us"),
    lower("sqlengine.run_us", "us"),
    lower("http.route_request_us", "us"),
    lower("serve.route_miss_us", "us"),
    lower("core.route_sharded_us", "us"),
    lower("core.route_shard_sum_us", "us"),
    lower("core.calibrate_self_us", "us"),
    lower("core.name_logp_us", "us"),
    lower("http.render_route_us", "us"),
    // Kernels and batches.
    lower("nn.matvec_i8_us", "us"),
    lower("nn.matvec_i8_macs", "count"),
    lower("nn.dot_i8_ns", "ns"),
    lower("runtime.pool_map1_us", "us"),
    lower("runtime.pool_map16_us", "us"),
    lower("core.route_batch16_us_per_q", "us"),
    lower("serve.ask_many16_us_per_q", "us"),
    lower("sqlengine.run_bigrows_us", "us"),
    lower("sqlengine.prepare_bigrows_ms", "ms"),
    // Exact counts from the counting allocator.
    lower("alloc.ask_cold_count", "count"),
    lower("alloc.ask_cold_bytes", "B"),
    lower("alloc.ask_hot_count", "count"),
    lower("alloc.route_count", "count"),
    lower("alloc.sql_run_count", "count"),
    lower("alloc.http_parse_count", "count"),
    lower("alloc.http_render_count", "count"),
    // Checks on the trace itself.
    lower("attribution.route_gap_share", "share"),
    lower("attribution.generate_gap_share", "share"),
    lower("attribution.execute_gap_share", "share"),
    lower("trace.overhead_share", "share"),
];

/// `--list`: every name with its unit, one a line.
pub fn print_list() {
    for w in WORKLOADS {
        println!("workload    {:<32} {}", w.name, w.why);
    }
    for (kind, metrics) in [("end_to_end", END_TO_END), ("per_layer ", PER_LAYER)] {
        for m in metrics {
            println!("{kind}  {:<32} {:<6} {} is better", m.name, m.unit, m.better.as_str());
        }
    }
}

/// Named values of one kind (`END_TO_END` or `PER_LAYER`), in catalogue
/// order when printed. Setting a name outside the catalogue is a bug in
/// the benchmark, and so is printing with one missing.
pub struct Metrics {
    catalogue: &'static [Metric],
    values: BTreeMap<&'static str, f64>,
}

impl Metrics {
    pub fn new(catalogue: &'static [Metric]) -> Self {
        Metrics { catalogue, values: BTreeMap::new() }
    }

    pub fn set(&mut self, name: &str, value: f64) {
        let metric = self
            .catalogue
            .iter()
            .find(|m| m.name == name)
            .unwrap_or_else(|| panic!("metric {name:?} is not in the catalogue"));
        assert!(value.is_finite(), "metric {name} is {value}");
        self.values.insert(metric.name, value);
    }

    pub fn get(&self, name: &str) -> f64 {
        *self.values.get(name).unwrap_or_else(|| panic!("metric {name:?} was never set"))
    }

    pub fn is_complete(&self) -> bool {
        self.catalogue.iter().all(|m| self.values.contains_key(m.name))
    }

    /// Copy every value of `other` (same catalogue) into `self`.
    pub fn absorb(&mut self, other: &Metrics) {
        for (name, value) in &other.values {
            self.set(name, *value);
        }
    }

    /// Every metric of the catalogue as `(name, unit, value)`.
    pub fn rows(&self) -> Vec<(&'static str, &'static str, f64)> {
        self.catalogue.iter().map(|m| (m.name, m.unit, self.get(m.name))).collect()
    }

    /// Element-wise median of several runs of the same stages.
    pub fn median_of(runs: &[Metrics]) -> Metrics {
        let first = runs.first().expect("at least one run");
        let mut out = Metrics::new(first.catalogue);
        for name in first.values.keys() {
            let values: Vec<f64> = runs.iter().map(|r| r.get(name)).collect();
            out.set(name, crate::recorder::median(&values));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde::Value;

    fn valid_name(name: &str) -> bool {
        !name.is_empty()
            && name.len() <= 64
            && name.as_bytes()[0].is_ascii_alphanumeric()
            && name.bytes().all(|b| b.is_ascii_alphanumeric() || b"_.-".contains(&b))
    }

    fn names_of(doc: &Value, key: &str) -> Vec<(String, Option<String>, Option<String>)> {
        doc.get(key)
            .and_then(Value::as_array)
            .unwrap_or_else(|| panic!("BENCHMARK.json has no {key} list"))
            .iter()
            .map(|entry| {
                let field = |k: &str| entry.get(k).and_then(Value::as_str).map(str::to_string);
                (field("name").expect("entry has a name"), field("unit"), field("better"))
            })
            .collect()
    }

    #[test]
    fn benchmark_json_lists_exactly_the_catalogue() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let doc: Value = serde_json::from_str(&text).expect("BENCHMARK.json parses");

        let workloads = names_of(&doc, "workloads");
        assert!((2..=8).contains(&workloads.len()));
        let listed: Vec<&str> = workloads.iter().map(|w| w.0.as_str()).collect();
        let ours: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        assert_eq!(listed, ours);

        for (key, catalogue, cap) in [("end_to_end", END_TO_END, 16), ("per_layer", PER_LAYER, 128)]
        {
            let listed = names_of(&doc, key);
            assert!(!listed.is_empty() && listed.len() <= cap, "{key} has {}", listed.len());
            let ours: Vec<_> = catalogue
                .iter()
                .map(|m| {
                    let (unit, better) = (m.unit.to_string(), m.better.as_str().to_string());
                    (m.name.to_string(), Some(unit), Some(better))
                })
                .collect();
            assert_eq!(listed, ours, "{key} differs from the catalogue");
        }
        assert!(names_of(&doc, "end_to_end").iter().any(|m| m.0 == "setup_s"));
    }

    #[test]
    fn names_are_well_formed_and_unique() {
        let mut all: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        all.extend(END_TO_END.iter().chain(PER_LAYER).map(|m| m.name));
        for name in &all {
            assert!(valid_name(name), "{name:?}");
        }
        let unique: std::collections::BTreeSet<&str> = all.iter().copied().collect();
        assert_eq!(unique.len(), all.len(), "a name is used twice");
        for w in WORKLOADS {
            assert!(w.why.len() <= 200 && !w.why.contains('\n'));
        }
        for m in END_TO_END.iter().chain(PER_LAYER) {
            assert!(m.unit.len() <= 16);
            assert!(m.unit.bytes().all(|b| b.is_ascii_alphanumeric() || b"_/%.-".contains(&b)));
        }
    }

    #[test]
    #[should_panic(expected = "not in the catalogue")]
    fn unknown_metric_names_are_refused() {
        Metrics::new(END_TO_END).set("latency_p42_us", 1.0);
    }
}
