//! `dbcopilot-bench` — experiment binaries (`exp_*`) regenerating every
//! table and figure of the paper.
//!
//! Run with `DBC_SCALE=quick` for a fast smoke pass or leave unset for the
//! full (paper-shaped) scale. Every binary prints the corresponding paper
//! table/figure in plain text (a committed paper-vs-measured artifact is
//! ROADMAP item 2). System performance is not measured here: that is
//! `exp_perf/`.
//!
//! ```
//! use dbcopilot_bench::render_routing_rows;
//! use dbcopilot_eval::RoutingMetrics;
//!
//! let table = render_routing_rows("Spider", &[("BM25".into(), RoutingMetrics::default())]);
//! assert!(table.contains("Spider") && table.contains("BM25"));
//! ```

use dbcopilot_eval::RoutingMetrics;

/// Render a Table 3/4-style routing block.
pub fn render_routing_rows(title: &str, rows: &[(String, RoutingMetrics)]) -> String {
    let mut out = format!("== {title} ==\n");
    out.push_str(&format!(
        "{:<14} {:>8} {:>8} {:>8} {:>8} {:>8}\n",
        "Method", "DB R@1", "DB R@5", "Tab R@5", "Tab R@15", "mAP"
    ));
    for (name, m) in rows {
        out.push_str(&format!(
            "{:<14} {:>8.2} {:>8.2} {:>8.2} {:>8.2} {:>8.2}\n",
            name, m.db_r1, m.db_r5, m.table_r5, m.table_r15, m.map
        ));
    }
    out
}

/// Render a Table 6-style EX block.
pub fn render_ex_rows(title: &str, rows: &[(String, f64, f64)]) -> String {
    let mut out = format!("== {title} ==\n");
    out.push_str(&format!("{:<28} {:>8} {:>9}\n", "Config", "EX", "Cost ($)"));
    for (name, ex, cost) in rows {
        out.push_str(&format!("{:<28} {:>8.2} {:>9.4}\n", name, ex, cost));
    }
    out
}
