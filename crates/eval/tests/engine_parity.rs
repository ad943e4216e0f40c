//! Workload-scale engine parity: every gold query the synthetic corpus
//! generator emits must produce identical results (or identical errors)
//! from the reference interpreter and the compiled engine on the prepared
//! database. Identical results imply identical EX and
//! answered% for any evaluation built on top, so this pins the end-to-end
//! numbers across the engine swap.

use dbcopilot_sqlengine::exec::interpret;
use dbcopilot_sqlengine::{execute, PreparedStore};
use dbcopilot_synth::{build_spider_like, CorpusSizes};

#[test]
fn gold_workload_is_strategy_invariant() {
    let corpus =
        build_spider_like(&CorpusSizes { num_databases: 12, train_n: 300, test_n: 150 }, 29);
    let prepared = PreparedStore::new(corpus.store.clone());
    let mut executed = 0usize;
    for inst in corpus.train.iter().chain(corpus.test.iter()) {
        let Some(db) = corpus.store.database(&inst.schema.database) else {
            continue;
        };
        let pdb = prepared.prepared(&inst.schema.database).expect("database is in the store");
        let interp = interpret(db, &inst.sql);
        let compiled = execute(pdb, &inst.sql);
        match (&interp, &compiled) {
            (Ok(a), Ok(b)) => {
                assert_eq!(
                    format!("{a:?}"),
                    format!("{b:?}"),
                    "results diverge on gold SQL: {}",
                    inst.sql
                );
                executed += 1;
            }
            (Err(a), Err(b)) => {
                assert_eq!(a.to_string(), b.to_string(), "errors diverge on: {}", inst.sql);
            }
            _ => panic!(
                "strategy disagreement on {}\n  interpreted: {interp:?}\n  compiled: {compiled:?}",
                inst.sql
            ),
        }
    }
    assert!(executed > 200, "workload should mostly execute, got {executed}");
}
