//! A persistent worker pool: long-lived threads fed by a channel work
//! queue, under the crate's determinism contract.
//!
//! [`WorkerPool`] keeps its threads alive across calls, so submitting a job
//! is one channel send instead of one `thread::spawn` — what makes mapping
//! a micro-batch of a handful of questions affordable on the serving path.
//!
//! Work is partitioned purely by chunk index, chunks are claimed
//! dynamically off an atomic counter, and results are reassembled in chunk
//! order — the output of [`WorkerPool::map_chunks`] never depends on the
//! pool size, the effective thread count, or scheduling order.
//!
//! # Shutdown
//!
//! Dropping the pool is graceful: the job channel is closed, workers drain
//! every job already queued, then exit, and `Drop` joins them. Jobs
//! submitted with [`WorkerPool::execute`] before the drop therefore always
//! run; see the shutdown tests in `tests/pool.rs`.
//!
//! # Panics
//!
//! A panic inside a mapped closure does not kill the worker thread: the
//! payload is captured and re-thrown on the *calling* thread once the batch
//! settles, so `pool.map(...)` panics exactly like the serial
//! `items.iter().map(...)` would. Panics in fire-and-forget
//! [`execute`](WorkerPool::execute) jobs are contained and counted
//! ([`WorkerPool::panic_count`]).

use std::any::Any;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Arc, Condvar, OnceLock};
use std::thread::JoinHandle;

use crate::ordered::{lock_rank, OrderedGuard, OrderedMutex};
use crate::{thread_count, with_thread_count, MIN_PARALLEL_ITEMS};

type Job = Box<dyn FnOnce() + Send + 'static>;

/// A fixed-size pool of long-lived worker threads.
///
/// ```
/// use dbcopilot_runtime::WorkerPool;
///
/// let pool = WorkerPool::new(4);
/// let squares = dbcopilot_runtime::with_thread_count(4, || {
///     pool.map(&[1u64, 2, 3, 4, 5], |_, &x| x * x)
/// });
/// assert_eq!(squares, vec![1, 4, 9, 16, 25]);
/// // drop(pool) closes the queue, drains pending jobs, joins the threads
/// ```
pub struct WorkerPool {
    sender: Option<Sender<Job>>,
    handles: Vec<JoinHandle<()>>,
    panics: Arc<AtomicUsize>,
}

impl WorkerPool {
    /// Spawn a pool of `size` worker threads (`size` is clamped to ≥ 1).
    pub fn new(size: usize) -> Self {
        let size = size.max(1);
        let (sender, receiver) = channel::<Job>();
        let receiver = Arc::new(OrderedMutex::new("receiver", lock_rank::RECEIVER, receiver));
        let panics = Arc::new(AtomicUsize::new(0));
        let handles = (0..size)
            .map(|i| {
                let receiver = Arc::clone(&receiver);
                let panics = Arc::clone(&panics);
                std::thread::Builder::new()
                    .name(format!("dbc-pool-{i}"))
                    .spawn(move || worker_loop(&receiver, &panics))
                    .expect("failed to spawn pool worker")
            })
            .collect();
        WorkerPool { sender: Some(sender), handles, panics }
    }

    /// Number of worker threads.
    pub fn size(&self) -> usize {
        self.handles.len()
    }

    /// Panics contained so far in fire-and-forget [`execute`] jobs.
    ///
    /// Map-style calls re-throw on the caller instead and are not counted
    /// here.
    ///
    /// [`execute`]: WorkerPool::execute
    pub fn panic_count(&self) -> usize {
        self.panics.load(Ordering::Relaxed)
    }

    /// Submit a fire-and-forget job to the queue.
    ///
    /// The job runs on some worker thread, after all jobs queued before it
    /// have been claimed. A panic inside the job is contained (the worker
    /// survives) and counted in [`WorkerPool::panic_count`].
    pub fn execute(&self, job: impl FnOnce() + Send + 'static) {
        self.sender
            .as_ref()
            .expect("pool sender alive until drop")
            .send(Box::new(job))
            .expect("pool workers alive until drop");
    }

    /// Map `f` over `items`, results **in item order** regardless of pool
    /// size or thread count. `f` receives `(index, &item)`.
    pub fn map<T, U, F>(&self, items: &[T], f: F) -> Vec<U>
    where
        T: Sync,
        U: Send,
        F: Fn(usize, &T) -> U + Sync,
    {
        self.map_chunks(items, 1, |i, chunk| f(i, &chunk[0]))
    }

    /// Map `f` over fixed-size chunks of `items`, results **in chunk
    /// order**. `f` receives `(chunk_index, chunk)`; every chunk has
    /// `chunk_size` items except possibly the last.
    ///
    /// The chunk boundaries depend only on `chunk_size` — never derive
    /// `chunk_size` from [`thread_count`], or the partition (and any
    /// float-accumulation order downstream) would change with the machine.
    ///
    /// Concurrency is `min(thread_count(), pool size + 1, chunks)` — the
    /// calling thread always participates, so progress never depends on
    /// pool workers being free (a call from inside another map, or while
    /// the queue is busy, degrades to running inline rather than waiting).
    /// The output is bit-for-bit identical to the serial map at any
    /// concurrency.
    ///
    /// # Panics
    /// Panics if `chunk_size == 0`, or re-throws the first panic raised by
    /// an invocation of `f` (after all in-flight chunks settle).
    pub fn map_chunks<T, U, F>(&self, items: &[T], chunk_size: usize, f: F) -> Vec<U>
    where
        T: Sync,
        U: Send,
        F: Fn(usize, &[T]) -> U + Sync,
    {
        assert!(chunk_size > 0, "chunk_size must be positive");
        let n_chunks = items.len().div_ceil(chunk_size);
        // The caller counts as one worker: helpers = extra pool jobs.
        let helpers = thread_count().min(n_chunks).saturating_sub(1).min(self.size());
        if helpers == 0 || items.len() < MIN_PARALLEL_ITEMS {
            return items.chunks(chunk_size).enumerate().map(|(i, c)| f(i, c)).collect();
        }

        let shared = MapShared {
            next: AtomicUsize::new(0),
            slots: OrderedMutex::new(
                "slots",
                lock_rank::SLOTS,
                (0..n_chunks).map(|_| None).collect(),
            ),
            panic: OrderedMutex::new("panic", lock_rank::PANIC, None),
            pending: OrderedMutex::new("pending", lock_rank::PENDING, helpers),
            settled: Condvar::new(),
        };
        let run = |shared: &MapShared<U>| {
            with_thread_count(1, || loop {
                let c = shared.next.fetch_add(1, Ordering::Relaxed);
                if c >= n_chunks {
                    break;
                }
                let lo = c * chunk_size;
                let hi = (lo + chunk_size).min(items.len());
                match catch_unwind(AssertUnwindSafe(|| f(c, &items[lo..hi]))) {
                    Ok(u) => shared.slots.lock()[c] = Some(u),
                    Err(payload) => {
                        let mut slot = shared.panic.lock();
                        if slot.is_none() {
                            *slot = Some(payload);
                        }
                        // Park the claim counter past the end so remaining
                        // workers stop claiming chunks.
                        shared.next.store(n_chunks, Ordering::Relaxed);
                        break;
                    }
                }
            })
        };

        for _ in 0..helpers {
            // SAFETY: the job borrows `shared`, `items` and `f` from this
            // stack frame. The frame cannot unwind or return before every
            // submitted job has finished: the only exits below are after
            // the `pending == 0` condvar wait, and `pending` is decremented
            // by each job strictly after its last use of the borrows (the
            // closure in `guarded` runs `run` to completion first, panics
            // included — `run` catches them).
            let job: Box<dyn FnOnce() + Send + '_> = Box::new(|| guarded(&shared, run));
            let job: Job = unsafe {
                std::mem::transmute::<Box<dyn FnOnce() + Send + '_>, Box<dyn FnOnce() + Send>>(job)
            };
            self.sender
                .as_ref()
                .expect("pool sender alive until drop")
                .send(job)
                .expect("pool workers alive until drop");
        }
        // The caller works through chunks too, then waits for the helpers.
        run(&shared);
        let mut pending = shared.pending.lock();
        while *pending > 0 {
            pending = OrderedGuard::wait(&shared.settled, pending);
        }
        drop(pending);

        if let Some(payload) = shared.panic.lock().take() {
            resume_unwind(payload);
        }
        let slots = std::mem::take(&mut *shared.slots.lock());
        slots.into_iter().map(|s| s.expect("all chunks computed when no worker panicked")).collect()
    }
}

/// A cloneable, sendable submission handle to a [`WorkerPool`]'s job
/// queue, for producer threads that cannot borrow the pool itself (e.g. an
/// accept loop running while another thread owns the pool).
///
/// A live handle keeps the job channel open: drop every handle before (or
/// while) dropping the pool, or the pool's drain-on-drop will wait for the
/// handles to go away. [`execute`](PoolHandle::execute) reports whether the
/// pool was still accepting work.
#[derive(Clone)]
pub struct PoolHandle {
    sender: Sender<Job>,
}

impl PoolHandle {
    /// Submit a fire-and-forget job; `false` if the pool has shut down.
    ///
    /// Panics inside the job are contained and counted exactly as in
    /// [`WorkerPool::execute`].
    pub fn execute(&self, job: impl FnOnce() + Send + 'static) -> bool {
        self.sender.send(Box::new(job)).is_ok()
    }
}

impl WorkerPool {
    /// A detached submission handle to this pool's queue.
    pub fn handle(&self) -> PoolHandle {
        PoolHandle { sender: self.sender.as_ref().expect("pool sender alive until drop").clone() }
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        // Closing the channel lets workers drain the remaining queue, then
        // exit on the disconnect error — graceful shutdown by construction.
        drop(self.sender.take());
        for handle in self.handles.drain(..) {
            let _ = handle.join();
        }
    }
}

/// Shared state of one `map_chunks` batch.
struct MapShared<U> {
    /// Next unclaimed chunk index (dynamic scheduling).
    next: AtomicUsize,
    /// One result slot per chunk, filled out of order, read in order.
    slots: OrderedMutex<Vec<Option<U>>>,
    /// First panic payload raised by the mapped closure, if any.
    panic: OrderedMutex<Option<Box<dyn Any + Send>>>,
    /// Helper jobs still running; the caller waits for this to hit zero.
    pending: OrderedMutex<usize>,
    settled: Condvar,
}

/// Run `body`, then signal completion — even though `body` itself never
/// unwinds (it catches closure panics), keeping the decrement in one place
/// makes the safety argument for the lifetime erasure local.
fn guarded<U>(shared: &MapShared<U>, body: impl Fn(&MapShared<U>)) {
    body(shared);
    let mut pending = shared.pending.lock();
    *pending -= 1;
    if *pending == 0 {
        shared.settled.notify_all();
    }
}

fn worker_loop(receiver: &OrderedMutex<Receiver<Job>>, panics: &AtomicUsize) {
    loop {
        // Hold the lock only while receiving, never while running a job.
        let job = match receiver.lock().recv() {
            Ok(job) => job,
            // Queue closed *and* drained: graceful exit.
            Err(_) => return,
        };
        // Pin the thread count for *every* job, not just map helpers: an
        // `execute` job that called a pooled map at thread_count > 1 would
        // enqueue helper jobs behind the very worker it occupies and then
        // block waiting for them — with the pin it runs the map inline.
        let contained = with_thread_count(1, || catch_unwind(AssertUnwindSafe(job)));
        if contained.is_err() {
            panics.fetch_add(1, Ordering::Relaxed);
        }
    }
}

/// The process-wide shared pool used by [`pooled_map`] /
/// [`pooled_map_chunks`]. Created on first use, sized like the default
/// thread count (`DBC_THREADS` or hardware parallelism), alive for the
/// process lifetime.
pub fn global_pool() -> &'static WorkerPool {
    static GLOBAL: OnceLock<WorkerPool> = OnceLock::new();
    GLOBAL.get_or_init(|| WorkerPool::new(crate::env_thread_count()))
}

/// [`WorkerPool::map`] on the process-wide pool.
pub fn pooled_map<T, U, F>(items: &[T], f: F) -> Vec<U>
where
    T: Sync,
    U: Send,
    F: Fn(usize, &T) -> U + Sync,
{
    global_pool().map(items, f)
}

/// [`WorkerPool::map_chunks`] on the process-wide pool.
pub fn pooled_map_chunks<T, U, F>(items: &[T], chunk_size: usize, f: F) -> Vec<U>
where
    T: Sync,
    U: Send,
    F: Fn(usize, &[T]) -> U + Sync,
{
    global_pool().map_chunks(items, chunk_size, f)
}
