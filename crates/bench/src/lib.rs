//! `dbcopilot-bench` — the programs that regenerate the paper's evaluation.
//!
//! * `exp_quality [table…]` prints Tables 2–7, Figures 7 and 10 and the
//!   sharded tier's recall sweep in plain text, every table when given no
//!   names (`table2` … `table7`, `fig7`, `fig10`, `sharding`). At
//!   `DBC_SCALE=quick` every table but Table 5, which prints timings,
//!   prints `quality_quick.expected` beside this crate's manifest byte for
//!   byte, at any `DBC_THREADS`; CI diffs it. `sharding` is also a gate:
//!   the run exits non-zero if 4 shards route more than 2 points worse
//!   than 1.
//! * `exp_scaling` — training and indexing time at 1, 2, 4 and 8 threads.
//!
//! Run with `DBC_SCALE=quick` for a fast smoke pass or leave unset for the
//! full (paper-shaped) scale. System performance is not measured here:
//! that is `exp_perf/`.
//!
//! Every table of `exp_quality` reads one
//! [`Workbench`](dbcopilot_eval::Workbench), which prepares a corpus and
//! builds a method the first time a table asks for it and hands the same
//! one to every later table:
//!
//! ```
//! use dbcopilot_eval::{CorpusKind, MethodKind, Scale, Workbench};
//! use dbcopilot_synth::CorpusSizes;
//!
//! let mut scale = Scale::quick();
//! scale.spider = CorpusSizes { num_databases: 4, train_n: 60, test_n: 8 };
//! scale.synth_pairs = 60;
//! let bench = Workbench::new(scale);
//! // Table 3 and Figure 7 both read Spider's BM25 index: it is built once
//! let (table3, _) = bench.method(CorpusKind::Spider, MethodKind::Bm25);
//! let (fig7, _) = bench.method(CorpusKind::Spider, MethodKind::Bm25);
//! assert!(std::ptr::addr_eq(table3, fig7));
//! ```
