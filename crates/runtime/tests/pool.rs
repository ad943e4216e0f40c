//! Worker-pool behavior: graceful shutdown under pending work, panic
//! containment and propagation, and the determinism contract on the pooled
//! map variants.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

use dbcopilot_runtime::{pooled_map, pooled_map_chunks, with_thread_count, WorkerPool};

#[test]
fn drop_drains_pending_jobs_before_shutdown() {
    // One worker, many queued jobs: dropping the pool must run every job
    // already submitted (graceful drain), not abandon the queue.
    let ran = Arc::new(AtomicUsize::new(0));
    let pool = WorkerPool::new(1);
    for _ in 0..32 {
        let ran = Arc::clone(&ran);
        pool.execute(move || {
            std::thread::sleep(Duration::from_millis(1));
            ran.fetch_add(1, Ordering::SeqCst);
        });
    }
    drop(pool); // joins after the queue is drained
    assert_eq!(ran.load(Ordering::SeqCst), 32);
}

#[test]
fn map_panic_propagates_to_caller_and_pool_survives() {
    let pool = WorkerPool::new(2);
    let items: Vec<u32> = (0..64).collect();
    let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        with_thread_count(3, || {
            pool.map(&items, |_, &x| {
                if x == 17 {
                    panic!("bad item");
                }
                x
            })
        })
    }));
    let payload = result.expect_err("panic in mapped closure must reach the caller");
    let msg = payload.downcast_ref::<&str>().copied().unwrap_or_default();
    assert_eq!(msg, "bad item");

    // The workers caught the unwind and are still serving.
    let ok = with_thread_count(3, || pool.map(&items, |_, &x| x + 1));
    assert_eq!(ok[63], 64);
}

#[test]
fn execute_panics_are_contained_and_counted() {
    let pool = WorkerPool::new(1);
    let ran = Arc::new(AtomicUsize::new(0));
    pool.execute(|| panic!("contained"));
    let r = Arc::clone(&ran);
    pool.execute(move || {
        r.fetch_add(1, Ordering::SeqCst);
    });
    // Synchronize on the queue: a map call drains behind the two jobs.
    let _ = with_thread_count(2, || pool.map(&[1u8, 2], |_, &x| x));
    assert_eq!(ran.load(Ordering::SeqCst), 1, "worker must survive the earlier panic");
    assert_eq!(pool.panic_count(), 1);
}

#[test]
fn map_indices_and_chunk_boundaries_are_exact() {
    let pool = WorkerPool::new(3);
    let items: Vec<usize> = (0..10).collect();
    let got = with_thread_count(4, || pool.map_chunks(&items, 4, |ci, chunk| (ci, chunk.to_vec())));
    assert_eq!(got, vec![(0, vec![0, 1, 2, 3]), (1, vec![4, 5, 6, 7]), (2, vec![8, 9])]);
}

#[test]
fn nested_pooled_maps_run_serially_inside_workers() {
    // Workers pin their thread count to 1, so a nested pooled map inside a
    // mapped closure runs inline instead of deadlocking on pool capacity.
    let pool = WorkerPool::new(1);
    let items: Vec<u32> = (0..8).collect();
    let nested =
        with_thread_count(4, || pool.map(&items, |_, &x| pooled_map(&[x, x + 1], |_, &y| y * 2)));
    assert_eq!(nested[3], vec![6, 8]);
}

#[test]
fn execute_jobs_run_with_pinned_thread_count() {
    // Regression: execute() jobs must run with the thread count pinned to
    // 1, like map helpers. Otherwise a job calling a pooled map at
    // thread_count > 1 enqueues helpers behind the worker it occupies and
    // waits for them forever (deadlock once every worker does it).
    let pool = WorkerPool::new(2);
    let (tx, rx) = std::sync::mpsc::channel();
    pool.execute(move || {
        tx.send(dbcopilot_runtime::thread_count()).unwrap();
    });
    let seen = rx.recv_timeout(Duration::from_secs(10)).expect("execute job must run");
    assert_eq!(seen, 1, "execute jobs must see a pinned thread count");
}

#[test]
fn execute_jobs_that_map_on_the_same_pool_cannot_deadlock() {
    // End-to-end version of the pin: jobs on the (never-dropped) global
    // pool run pooled maps — which target the same pool — and must finish
    // within a deadline at any `DBC_THREADS`. Pre-pin, DBC_THREADS=2 (the
    // CI matrix leg) deadlocked here.
    let (tx, rx) = std::sync::mpsc::channel();
    for _ in 0..2 {
        let tx = tx.clone();
        dbcopilot_runtime::global_pool().execute(move || {
            let items: Vec<u64> = (0..32).collect();
            let out = pooled_map_chunks(&items, 4, |_, c| c.iter().sum::<u64>());
            tx.send(out.iter().sum::<u64>()).unwrap();
        });
    }
    let want: u64 = (0..32).sum();
    for _ in 0..2 {
        let got = rx
            .recv_timeout(Duration::from_secs(20))
            .expect("pool deadlocked: execute jobs mapping on their own pool never finished");
        assert_eq!(got, want);
    }
}

#[test]
fn concurrent_maps_on_one_pool_are_both_correct() {
    let pool = Arc::new(WorkerPool::new(2));
    let mut joins = Vec::new();
    for t in 0..4u64 {
        let pool = Arc::clone(&pool);
        joins.push(std::thread::spawn(move || {
            let items: Vec<u64> = (0..100).map(|i| i + t * 1000).collect();
            let got = with_thread_count(3, || pool.map(&items, |_, &x| x * 3));
            let want: Vec<u64> = items.iter().map(|&x| x * 3).collect();
            assert_eq!(got, want);
        }));
    }
    for j in joins {
        j.join().unwrap();
    }
}

#[test]
fn empty_and_tiny_inputs() {
    let pool = WorkerPool::new(2);
    let empty: Vec<u8> = Vec::new();
    assert!(pool.map(&empty, |_, &x| x).is_empty());
    assert_eq!(with_thread_count(8, || pool.map(&[9u8], |_, &x| x)), vec![9]);
}

#[test]
#[should_panic(expected = "chunk_size must be positive")]
fn zero_chunk_size_panics() {
    let pool = WorkerPool::new(1);
    let _ = pool.map_chunks(&[1, 2, 3], 0, |_, c: &[i32]| c.len());
}
