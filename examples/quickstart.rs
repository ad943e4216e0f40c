//! Quickstart: build a small multi-database corpus, train the DBCopilot
//! pipeline, and ask schema-agnostic questions — with candidate fallback,
//! execution-feedback repair, and the full pipeline trace.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use dbcopilot::{AskOptions, AttemptOutcome, DbCopilot, PipelineConfig, TraceLevel};
use dbcopilot_core::{load_router_slice, router_to_vec};
use dbcopilot_synth::{build_spider_like, CorpusSizes};

fn main() {
    println!("Building a 24-database corpus …");
    let corpus = build_spider_like(&CorpusSizes { num_databases: 24, train_n: 800, test_n: 40 }, 7);
    println!(
        "  {} databases, {} tables, {} columns",
        corpus.collection.num_databases(),
        corpus.collection.num_tables(),
        corpus.collection.num_columns()
    );

    println!("Training the copilot (schema graph → questioner → router) …");
    let mut cfg = PipelineConfig::default();
    cfg.router.epochs = 8;
    cfg.synth_pairs = 2500;
    let copilot = DbCopilot::fit(&corpus, cfg);

    // Persistence: the router is the product — save it once, serve forever.
    let bundle = router_to_vec(&copilot.router).unwrap();
    println!("\nPersistence: DBC1 bundle {} KiB", bundle.len() / 1024);
    let reloaded = load_router_slice(&bundle).expect("saved router must load");
    let probe = &corpus.test[0].question;
    assert_eq!(
        copilot.router.best_schema(probe).map(|s| s.to_string()),
        reloaded.best_schema(probe).map(|s| s.to_string()),
        "reloaded router must route identically"
    );
    println!("Reloaded router routes identically — serving needs no retraining.");

    // Ask with the full trace: top-3 candidate fallback + one
    // execution-feedback repair attempt per candidate.
    let opts = AskOptions::new().top_k(3).repair_attempts(1).trace(TraceLevel::Stages);
    println!("\nAsking the corpus' own test questions (top-3 fallback, 1 repair):\n");
    let mut answered = 0;
    let mut recovered = 0;
    for inst in corpus.test.iter().take(8) {
        println!("Q: {}", inst.question);
        match copilot.ask_with(&inst.question, &opts) {
            Ok(report) => {
                answered += 1;
                let ans = &report.answer;
                println!("  routed → {} (candidate #{})", ans.schema, report.chosen + 1);
                println!("  gold   → {}", inst.schema);
                println!("  SQL    → {}", ans.sql);
                let preview: Vec<String> = ans
                    .result
                    .rows
                    .iter()
                    .take(3)
                    .map(|r| r.iter().map(|v| v.to_string()).collect::<Vec<_>>().join(", "))
                    .collect();
                println!("  rows   → {} ({})", ans.result.rows.len(), preview.join(" | "));
                if report.recovered() {
                    recovered += 1;
                    for a in &report.attempts {
                        if let AttemptOutcome::ExecutionError(e) = &a.outcome {
                            println!(
                                "  recovered: candidate #{} repair {} failed with `{e}`",
                                a.candidate + 1,
                                a.repair
                            );
                        }
                    }
                }
            }
            Err(e) => println!("  ✗ failed at the {} stage: {e}", e.stage()),
        }
        println!();
    }
    println!(
        "{answered}/8 answered end to end ({recovered} needed the fallback/repair machinery)."
    );

    // The old single-candidate behavior remains one builder call away.
    let strict = AskOptions::first_candidate();
    let single: usize = corpus
        .test
        .iter()
        .take(8)
        .filter(|i| copilot.ask_with(&i.question, &strict).is_ok())
        .count();
    println!("Single-candidate (no fallback) answers the same questions: {single}/8.");
}
