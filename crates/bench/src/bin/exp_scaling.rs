//! Thread-scaling report for the data-parallel phases: trains the router
//! and rebuilds the retrieval indexes at several pinned thread counts,
//! printing wall time and verifying bit-identical training results.
//!
//! ```sh
//! DBC_SCALE=quick cargo run --release --bin exp_scaling
//! ```
//!
//! On a multi-core machine `train_router` should scale near-linearly to a
//! few threads (the acceptance target is ≥2× at 4 threads); on a single
//! core all rows show the same time, but the `identical` column must stay
//! `yes` everywhere — that is the determinism contract.

use std::time::Instant;

use dbcopilot_core::SerializationMode;
use dbcopilot_eval::{fit_dbcopilot, prepare, CorpusKind, Scale};
use dbcopilot_retrieval::{Bm25Index, Bm25Params};
use dbcopilot_runtime::with_thread_count;

fn main() {
    let scale = Scale::from_env();
    let prepared = prepare(CorpusKind::Spider, &scale);
    println!(
        "== Thread scaling — {} synth pairs, {} epochs, batch {} ==",
        prepared.synth_examples.len(),
        scale.router.epochs,
        scale.router.batch
    );
    println!("{:>7} | {:>12} | {:>12} | identical", "threads", "train (s)", "bm25 (s)");

    let mut reference: Option<Vec<u32>> = None;
    let mut violated = false;
    for threads in [1usize, 2, 4, 8] {
        let (train_secs, bm25_secs, losses) = with_thread_count(threads, || {
            let t0 = Instant::now();
            let (_, stats) =
                fit_dbcopilot(&prepared, &prepared.synth_examples, &scale, SerializationMode::Dfs);
            let train_secs = t0.elapsed().as_secs_f64();
            let targets = prepared.targets.clone(); // outside the timed region
            let t1 = Instant::now();
            let idx = Bm25Index::build(targets, Bm25Params::default());
            assert!(idx.num_docs() > 0);
            let bm25_secs = t1.elapsed().as_secs_f64();
            let losses: Vec<u32> = stats.epoch_losses.iter().map(|v| v.to_bits()).collect();
            (train_secs, bm25_secs, losses)
        });
        let identical = match &reference {
            None => {
                reference = Some(losses);
                "(ref)"
            }
            Some(r) if *r == losses => "yes",
            Some(_) => {
                violated = true;
                "NO — DETERMINISM VIOLATION"
            }
        };
        println!("{threads:>7} | {train_secs:>12.2} | {bm25_secs:>12.3} | {identical}");
    }
    if violated {
        eprintln!("determinism violation: epoch losses depend on the thread count");
        std::process::exit(1);
    }
}
