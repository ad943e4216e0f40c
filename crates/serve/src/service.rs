//! The shared serving engine and [`RouterService`], its routing front.
//!
//! Three mechanisms stack, the first tuned through [`ServiceConfig`]:
//!
//! 1. **LRU cache** ([`crate::LruCache`]) keyed on
//!    [`crate::normalize_question`] — repeated and surface-variant
//!    questions are answered without touching the model;
//! 2. **micro-batching** — a dispatcher thread takes the queued cache
//!    misses (up to 16) and waits up to 1 ms for more only once company
//!    has been seen: two or more now or in the previous batch, or one
//!    queued when it finished (a clock-free `BatchPlanner` decides). A lone
//!    miss on an idle service is computed at once. Identical in-flight
//!    questions are deduplicated so one computation serves every waiter;
//! 3. **worker-pool dispatch** — each batch fans out over the process-wide
//!    [`global_pool`] from `dbcopilot-runtime` (no per-request thread
//!    spawns).
//!
//! The machinery is generic over a crate-internal `Backend` (question in, value out):
//! [`RouterService`] instantiates it with a schema router
//! (question → [`RoutingResult`]), and [`crate::AskService`] with a full
//! [`crate::QueryPipeline`] (question → answer report), so the cache
//! fronts *answers*, not just routes. Backends are pure functions of the
//! question, which is what keeps served results identical to direct calls
//! no matter how requests interleave.

use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::RecvTimeoutError::{self, Disconnected, Timeout};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use dbcopilot_retrieval::{RoutingResult, SchemaRouter, ShardCounters};
use dbcopilot_runtime::{global_pool, lock_rank, OrderedMutex};

use crate::cache::{normalize_question, LruCache};
use crate::handle::RouterHandle;

/// The largest batch the dispatcher runs, and `submit_many`'s window.
const MAX_BATCH: usize = 16;

/// How long a batch that has seen company waits for more after its drain.
const FLUSH_WAIT: Duration = Duration::from_millis(1);

/// The settings of a serving front ([`RouterService`] /
/// [`crate::AskService`]), builder-style; batching has none (module docs):
///
/// ```
/// use dbcopilot_serve::ServiceConfig;
/// let cfg = ServiceConfig::new().cache_capacity(1024).top_tables(10);
/// assert_eq!((cfg.cache_capacity, cfg.top_tables), (1024, 10));
/// ```
#[derive(Debug, Clone)]
#[non_exhaustive]
pub struct ServiceConfig {
    /// Cache entries (`0` disables caching).
    pub cache_capacity: usize,
    /// `top_tables` passed to the underlying router on every route
    /// (routing fronts only).
    pub top_tables: usize,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig { cache_capacity: 4096, top_tables: 100 }
    }
}

impl ServiceConfig {
    pub fn new() -> Self {
        Self::default()
    }

    pub fn cache_capacity(mut self, n: usize) -> Self {
        self.cache_capacity = n;
        self
    }

    pub fn top_tables(mut self, n: usize) -> Self {
        self.top_tables = n;
        self
    }
}

/// A snapshot of serving counters (see [`RouterService::stats`]).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ServiceStats {
    /// Cache lookups answered without computing.
    pub cache_hits: u64,
    /// Cache lookups that fell through to the backend.
    pub cache_misses: u64,
    /// Entries currently cached.
    pub cached: usize,
    /// Micro-batches executed by the dispatcher.
    pub batches: u64,
    /// Questions actually computed (after caching and deduplication).
    pub computed: u64,
    /// Largest micro-batch observed (distinct questions).
    pub max_batch_observed: u64,
    /// Requests accepted by the dispatcher queue and not yet computed
    /// (admission-control signal; `route_many`'s synchronous path bypasses
    /// the queue and never shows up here).
    pub queue_depth: u64,
    /// Router generation currently published (starts at 1, +1 per
    /// [`RouterService::publish`]; 0 for fronts without a swappable router,
    /// e.g. [`crate::AskService`]).
    pub generation: u64,
    /// Per-shard counters of the served router; empty for monolithic
    /// routers (see [`dbcopilot_retrieval::SchemaRouter::shard_counters`]).
    pub shards: Vec<ShardCounters>,
}

/// What the serving engine fronts: a pure, thread-safe map from question
/// text to a value. Crate-internal — services expose typed wrappers.
pub(crate) trait Backend: Send + Sync + 'static {
    type Out: Send + Sync + 'static;

    /// Compute the value for one question. Must be a pure function of the
    /// question (no interior mutation visible to callers), which is what
    /// makes caching and deduplication invisible to quality.
    fn compute(&self, question: &str) -> Self::Out;

    /// Dispatcher thread name.
    fn thread_label() -> &'static str;

    /// The backend's current generation. Cache entries are tagged with the
    /// generation that computed them and only served while it is current,
    /// so a hot-swapped backend can never serve a stale result. Backends
    /// without swappable state stay at the default 0 forever.
    fn generation(&self) -> u64 {
        0
    }

    /// Per-shard counters of the underlying router, if sharded.
    fn shard_counters(&self) -> Vec<ShardCounters> {
        Vec::new()
    }
}

/// A queued cache miss: normalized key, question text, where to reply.
type Request<T> = (String, String, Sender<Arc<T>>);

struct Shared<B: Backend> {
    backend: B,
    /// Values are tagged with the backend generation that computed them; a
    /// tag that is no longer current is treated as a miss.
    cache: OrderedMutex<LruCache<(u64, Arc<B::Out>)>>,
    batches: AtomicU64,
    computed: AtomicU64,
    max_batch_observed: AtomicU64,
    /// Requests accepted into the dispatcher queue and not yet computed.
    queue_depth: AtomicU64,
}

impl<B: Backend> Shared<B> {
    /// Compute a batch of distinct `(key, question)` pairs on the pool and
    /// publish the results to the cache. Returns results in input order.
    fn compute_unique(&self, unique: &[(String, String)]) -> Vec<Arc<B::Out>> {
        if unique.is_empty() {
            // all cache hits — no batch to run, no counters to bump
            return Vec::new();
        }
        // Tag with the generation observed *before* computing: if a publish
        // lands mid-batch, these results carry the retired tag and are
        // never served from the cache again.
        let generation = self.backend.generation();
        let results: Vec<Arc<B::Out>> =
            global_pool().map(unique, |_, (_, q)| Arc::new(self.backend.compute(q)));
        let mut cache = self.cache.lock();
        for ((key, _), result) in unique.iter().zip(&results) {
            cache.insert(key.clone(), (generation, Arc::clone(result)));
        }
        drop(cache);
        self.batches.fetch_add(1, Ordering::Relaxed);
        self.computed.fetch_add(unique.len() as u64, Ordering::Relaxed);
        self.max_batch_observed.fetch_max(unique.len() as u64, Ordering::Relaxed);
        results
    }
}

/// The generic serving core: cache fast path, dispatcher micro-batching,
/// pool fan-out, graceful drop. [`RouterService`] and
/// [`crate::AskService`] are thin typed fronts over one of these.
pub(crate) struct Engine<B: Backend> {
    shared: Arc<Shared<B>>,
    sender: Option<Sender<Request<B::Out>>>,
    dispatcher: Option<JoinHandle<()>>,
}

impl<B: Backend> Engine<B> {
    pub(crate) fn new(backend: B, cfg: ServiceConfig) -> Self {
        let shared = Arc::new(Shared {
            backend,
            cache: OrderedMutex::new("cache", lock_rank::CACHE, LruCache::new(cfg.cache_capacity)),
            batches: AtomicU64::new(0),
            computed: AtomicU64::new(0),
            max_batch_observed: AtomicU64::new(0),
            queue_depth: AtomicU64::new(0),
        });
        let (sender, receiver) = channel::<Request<B::Out>>();
        let dispatcher = {
            let shared = Arc::clone(&shared);
            std::thread::Builder::new()
                .name(B::thread_label().to_string())
                // dbc-lint: allow(no-raw-spawn): the dispatcher is a single
                // dedicated thread owning the micro-batch queue, joined by
                // Engine::drop — pool jobs must not block on each other.
                .spawn(move || dispatch_loop(&shared, &receiver))
                .ok()
        };
        // No dispatcher, no sender: `submit` then computes inline.
        Engine { shared, sender: dispatcher.is_some().then_some(sender), dispatcher }
    }

    pub(crate) fn backend(&self) -> &B {
        &self.shared.backend
    }

    /// Serve one question: answered from the cache when possible,
    /// otherwise enqueued, micro-batched with concurrent misses, computed
    /// on the pool, and cached. Blocks until the result is available.
    pub(crate) fn submit(&self, question: &str) -> Arc<B::Out> {
        let key = normalize_question(question);
        let generation = self.shared.backend.generation();
        if let Some((tag, hit)) = self.shared.cache.lock().get(&key) {
            // An entry computed by a retired generation is a miss: fall
            // through and recompute on the current backend.
            if *tag == generation {
                return Arc::clone(hit);
            }
        }
        let (reply, result) = channel();
        let request = (key, question.to_string(), reply);
        self.shared.queue_depth.fetch_add(1, Ordering::Relaxed);
        if self.sender.as_ref().is_none_or(|s| s.send(request).is_err()) {
            // The engine is mid-drop (or the dispatcher is gone): serve the
            // request inline instead of panicking the caller. Slower, never
            // wrong — the backend itself is still alive via `shared`.
            self.shared.queue_depth.fetch_sub(1, Ordering::Relaxed);
            return Arc::new(self.shared.backend.compute(question));
        }
        // A dropped reply sender means the backend panicked on this batch
        // (the dispatcher contained it and kept serving); re-raise on the
        // affected caller only — the HTTP edge catches it and maps to 500.
        result.recv().unwrap_or_else(|_| {
            // dbc-lint: allow(panic-free-serving): deliberate re-raise of a
            // contained backend panic; the serving edge's catch_unwind owns it.
            panic!("serving backend panicked on the batch containing {question:?}")
        })
    }

    /// Serve a slice of questions synchronously (no dispatcher, no flush
    /// wait): each 16-question window is cache-checked, deduplicated and
    /// computed on the pool. Results come back in question order, and the
    /// whole call is deterministic.
    pub(crate) fn submit_many(&self, questions: &[String]) -> Vec<Arc<B::Out>> {
        let mut out: Vec<Option<Arc<B::Out>>> = vec![None; questions.len()];
        for (window, slots) in questions.chunks(MAX_BATCH).zip(out.chunks_mut(MAX_BATCH)) {
            let mut misses = Vec::new();
            let generation = self.shared.backend.generation();
            {
                let mut cache = self.shared.cache.lock();
                for (q, slot) in window.iter().zip(slots) {
                    let key = normalize_question(q);
                    match cache.get(&key).filter(|(tag, _)| *tag == generation) {
                        Some((_, hit)) => *slot = Some(Arc::clone(hit)),
                        None => misses.push((key, q, slot)),
                    }
                }
            }
            let compute = |unique: &[(String, String)]| Some(self.shared.compute_unique(unique));
            compute_deduped(misses, compute, |slot, result| *slot = Some(result));
        }
        // Every slot was filled: by a cache hit, or as a waiter of its miss.
        out.into_iter().flatten().collect()
    }

    pub(crate) fn stats(&self) -> ServiceStats {
        let cache = self.shared.cache.lock();
        ServiceStats {
            cache_hits: cache.hits(),
            cache_misses: cache.misses(),
            cached: cache.len(),
            batches: self.shared.batches.load(Ordering::Relaxed),
            computed: self.shared.computed.load(Ordering::Relaxed),
            max_batch_observed: self.shared.max_batch_observed.load(Ordering::Relaxed),
            queue_depth: self.shared.queue_depth.load(Ordering::Relaxed),
            generation: self.shared.backend.generation(),
            shards: self.shared.backend.shard_counters(),
        }
    }

    /// Drop every cached entry (hot swap: results from the retired
    /// generation are tag-invalidated already; clearing reclaims their
    /// capacity immediately).
    pub(crate) fn clear_cache(&self) {
        self.shared.cache.lock().clear();
    }
}

impl<B: Backend> Drop for Engine<B> {
    fn drop(&mut self) {
        // Closing the channel lets the dispatcher answer everything still
        // queued, then exit; joining it completes the graceful shutdown.
        drop(self.sender.take());
        if let Some(handle) = self.dispatcher.take() {
            let _ = handle.join();
        }
    }
}

/// The dispatcher's next step: one of three receives, or a batch to run.
#[derive(Debug, PartialEq, Eq)]
enum Step<T> {
    /// Block until a request arrives or the channel closes.
    Block,
    /// Take a request only if one is already queued.
    Drain,
    /// Wait for a request until the deadline.
    Until(Instant),
    /// Run this batch, then report [`BatchPlanner::batch_done`].
    Run(Vec<T>),
    /// The channel closed and every request it carried has been run.
    Exit,
}

/// The dispatcher's batching rule with no clock and no channel: told what
/// each receive got and when, it answers with the next [`Step`].
struct BatchPlanner<T> {
    batch: Vec<T>,
    /// The last batch held two or more, or one was queued when it finished.
    company_seen: bool,
}

impl<T> BatchPlanner<T> {
    /// The step after the receive `step` got `got` (`Timeout`: nothing came) at `now`.
    fn next(&mut self, step: Step<T>, got: Result<T, RecvTimeoutError>, now: Instant) -> Step<T> {
        match (got, step) {
            (Ok(request), step) => {
                self.batch.push(request);
                match step {
                    _ if self.batch.len() >= MAX_BATCH => self.flush(),
                    Step::Until(deadline) if now >= deadline => self.flush(),
                    Step::Block => Step::Drain,
                    step => step,
                }
            }
            (Err(Timeout), Step::Drain) if self.batch.len() > 1 || self.company_seen => {
                Step::Until(now + FLUSH_WAIT)
            }
            (Err(_), _) if self.batch.is_empty() => Step::Exit,
            (Err(_), _) => self.flush(),
        }
    }

    /// Hand the batch over; two or more are company for the next one.
    fn flush(&mut self) -> Step<T> {
        self.company_seen = self.batch.len() > 1;
        Step::Run(std::mem::take(&mut self.batch))
    }

    /// The last batch is computed, with `still_queued` requests accepted
    /// behind it: any of them is company for the next batch.
    fn batch_done(&mut self, still_queued: u64) -> Step<T> {
        self.company_seen |= still_queued > 0;
        Step::Block
    }
}

/// Dispatcher: the planner decides; this loop receives and runs batches.
fn dispatch_loop<B: Backend>(shared: &Shared<B>, receiver: &Receiver<Request<B::Out>>) {
    let mut planner = BatchPlanner { batch: Vec::new(), company_seen: false };
    let mut step = Step::Block;
    loop {
        step = match step {
            Step::Run(batch) => planner.batch_done(run_batch(shared, batch)),
            Step::Exit => return,
            receive_step => {
                let (got, now) = receive(receiver, &receive_step);
                planner.next(receive_step, got, now)
            }
        };
    }
}

/// One receive as the planner asked for it, and when it returned. A drain
/// reports a closed channel as `Timeout`; the next receive sees the close.
fn receive<T>(receiver: &Receiver<T>, step: &Step<T>) -> (Result<T, RecvTimeoutError>, Instant) {
    let got = match step {
        Step::Block => receiver.recv().map_err(|_| Disconnected),
        Step::Until(d) => receiver.recv_timeout(d.saturating_duration_since(Instant::now())),
        _ => receiver.try_recv().map_err(|_| Timeout),
    };
    (got, Instant::now())
}

/// Compute one batch and answer its waiters; returns how many requests are
/// still queued behind it. The batch leaves `queue_depth` once computed and
/// before any answer; a contained backend panic fails only its own waiters.
fn run_batch<B: Backend>(shared: &Shared<B>, batch: Vec<Request<B::Out>>) -> u64 {
    let (size, mut still_queued) = (batch.len() as u64, 0);
    let compute = |unique: &[(String, String)]| {
        let results = catch_unwind(AssertUnwindSafe(|| shared.compute_unique(unique)));
        still_queued = shared.queue_depth.fetch_sub(size, Ordering::Relaxed).saturating_sub(size);
        if results.is_err() {
            eprintln!("dbcopilot-serve: backend panicked on a batch; service continues");
        }
        results.ok()
    };
    // A send error just means the client went away; nothing to do.
    compute_deduped(batch, compute, |reply, result| drop(reply.send(result)));
    still_queued
}

/// Serve cache misses `(key, question, waiter)`: deduplicate by normalized
/// key in first-seen order, `compute` each distinct question once, and hand
/// its result to everyone waiting on it (to no one, if `compute` yields none).
fn compute_deduped<T, Q: Into<String>, W>(
    misses: impl IntoIterator<Item = (String, Q, W)>,
    compute: impl FnOnce(&[(String, String)]) -> Option<Vec<Arc<T>>>,
    mut deliver: impl FnMut(W, Arc<T>),
) {
    let mut unique: Vec<(String, String)> = Vec::new();
    let mut waiting: Vec<Vec<W>> = Vec::new();
    let mut seen: HashMap<String, usize> = HashMap::new();
    for (key, question, waiter) in misses {
        match seen.get(&key).and_then(|&at| waiting.get_mut(at)) {
            Some(waiters) => waiters.push(waiter),
            None => {
                seen.insert(key.clone(), unique.len());
                unique.push((key, question.into()));
                waiting.push(vec![waiter]);
            }
        }
    }
    for (result, waiters) in compute(&unique).unwrap_or_default().into_iter().zip(waiting) {
        for waiter in waiters {
            deliver(waiter, Arc::clone(&result));
        }
    }
}

pub(crate) struct RouteBackend<R> {
    handle: RouterHandle<R>,
    top_tables: usize,
}

impl<R: SchemaRouter + Send + Sync + 'static> Backend for RouteBackend<R> {
    type Out = RoutingResult;

    fn compute(&self, question: &str) -> RoutingResult {
        // Lease per request: the generation the request started on serves
        // it to completion, even if a publish swaps the handle mid-route.
        let lease = self.handle.lease();
        lease.router().route(question, self.top_tables)
    }

    fn thread_label() -> &'static str {
        "dbc-serve-dispatch"
    }

    fn generation(&self) -> u64 {
        self.handle.generation()
    }

    fn shard_counters(&self) -> Vec<ShardCounters> {
        self.handle.current().shard_counters()
    }
}

/// A concurrent serving front over a shared read-only router.
///
/// Clients call [`route`](RouterService::route) from any number of
/// threads; cache misses are micro-batched by a dispatcher thread and
/// executed on a persistent worker pool. Dropping the service is a
/// graceful shutdown: queued requests are still answered, then the
/// dispatcher joins.
pub struct RouterService<R: SchemaRouter + Send + Sync + 'static> {
    engine: Engine<RouteBackend<R>>,
}

impl<R: SchemaRouter + Send + Sync + 'static> RouterService<R> {
    /// Serve an already-shared router (published as generation 1).
    pub fn new(router: Arc<R>, cfg: ServiceConfig) -> Self {
        let backend =
            RouteBackend { handle: RouterHandle::new(router), top_tables: cfg.top_tables };
        RouterService { engine: Engine::new(backend, cfg) }
    }

    /// Take ownership of a router and serve it.
    pub fn from_router(router: R, cfg: ServiceConfig) -> Self {
        Self::new(Arc::new(router), cfg)
    }

    /// The currently-published router. Returns an owned `Arc` (not a
    /// borrow) because a concurrent [`publish`](RouterService::publish) can
    /// retire the slot's contents at any moment.
    pub fn router(&self) -> Arc<R> {
        self.engine.backend().handle.current()
    }

    /// The current router generation (starts at 1, +1 per publish).
    pub fn generation(&self) -> u64 {
        self.engine.backend().handle.generation()
    }

    /// Hot-swap the served router with zero dropped requests: atomically
    /// publish `router` as the next generation, wait for every in-flight
    /// request on the old generation to finish on the router it started
    /// with, then clear the cache (whose old-generation entries are already
    /// tag-invalidated — clearing reclaims their space). Requests arriving
    /// during the swap are served by the new router. Before the swap the
    /// new router inherits what it shares with the current one (see
    /// [`SchemaRouter::inherit`]; a sharded tier keeps its unchanged
    /// shards decoded and their answers remembered). Returns the new
    /// generation number.
    pub fn publish(&self, router: Arc<R>) -> u64 {
        router.inherit(&*self.router());
        let generation = self.engine.backend().handle.publish(router);
        self.engine.clear_cache();
        generation
    }

    /// Route one question: answered from the cache when possible,
    /// otherwise enqueued, micro-batched with concurrent misses, routed on
    /// the pool, and cached. Blocks until the result is available.
    pub fn route(&self, question: &str) -> Arc<RoutingResult> {
        self.engine.submit(question)
    }

    /// Route a slice of questions synchronously (no dispatcher, no flush
    /// wait): each 16-question window is cache-checked, deduplicated and
    /// routed on the pool. Results come back in question order, and the
    /// whole call is deterministic — ideal for evaluation loops.
    pub fn route_many(&self, questions: &[String]) -> Vec<Arc<RoutingResult>> {
        self.engine.submit_many(questions)
    }

    /// Pre-seed the cache by routing `questions` (e.g. a known-popular
    /// workload) before traffic arrives.
    pub fn warm(&self, questions: &[String]) {
        let _ = self.route_many(questions);
    }

    /// Current serving counters.
    pub fn stats(&self) -> ServiceStats {
        self.engine.stats()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::BTreeSet;
    use std::ops::Range;

    fn us(n: u64) -> Duration {
        Duration::from_micros(n)
    }

    fn planner() -> BatchPlanner<usize> {
        BatchPlanner { batch: Vec::new(), company_seen: false }
    }

    /// Take `step` and the steps after it as the shell would, against a
    /// queue holding `queued`, until the planner asks for something that
    /// queue cannot answer at once. Returns that step: a flush, a wait for
    /// company, or a block once `queued` is empty.
    fn drain(
        planner: &mut BatchPlanner<usize>,
        mut step: Step<usize>,
        queued: &mut Range<usize>,
        now: Instant,
    ) -> Step<usize> {
        loop {
            step = match step {
                Step::Block | Step::Drain if queued.start < queued.end => {
                    let got = queued.next().ok_or(Timeout);
                    planner.next(step, got, now)
                }
                Step::Drain => planner.next(step, Err(Timeout), now),
                step => return step,
            };
        }
    }

    #[test]
    fn a_lone_arrival_into_an_idle_empty_queue_flushes_at_once() {
        let step = drain(&mut planner(), Step::Block, &mut (0..1), Instant::now());
        assert_eq!(step, Step::Run(vec![0]));
    }

    #[test]
    fn a_batch_of_two_rearms_the_wait() {
        let (mut planner, t0) = (planner(), Instant::now());
        let deadline = t0 + FLUSH_WAIT;
        let step = drain(&mut planner, Step::Block, &mut (0..2), t0);
        assert_eq!(step, Step::Until(deadline), "two queued together wait for a third");
        assert_eq!(planner.next(step, Err(Timeout), deadline), Step::Run(vec![0, 1]));
        let (step, t1) = (planner.batch_done(0), deadline + us(500));
        let step = drain(&mut planner, step, &mut (2..3), t1);
        assert_eq!(step, Step::Until(t1 + FLUSH_WAIT), "a lone arrival waits for its partner");
    }

    #[test]
    fn a_request_queued_when_a_batch_finishes_rearms_the_wait() {
        let (mut planner, t0) = (planner(), Instant::now());
        assert_eq!(drain(&mut planner, Step::Block, &mut (0..1), t0), Step::Run(vec![0]));
        let step = planner.batch_done(1);
        assert_eq!(drain(&mut planner, step, &mut (1..2), t0), Step::Until(t0 + FLUSH_WAIT));
    }

    #[test]
    fn one_lone_batch_with_an_empty_queue_disarms_the_wait() {
        let (mut planner, t0) = (planner(), Instant::now());
        let deadline = t0 + FLUSH_WAIT;
        let step = drain(&mut planner, Step::Block, &mut (0..2), t0);
        assert_eq!(planner.next(step, Err(Timeout), deadline), Step::Run(vec![0, 1]));
        // The pair's company carries over to one lone batch...
        let step = planner.batch_done(0);
        let step = drain(&mut planner, step, &mut (2..3), t0);
        assert_eq!(step, Step::Until(deadline));
        assert_eq!(planner.next(step, Err(Timeout), deadline), Step::Run(vec![2]));
        // ...and not past it.
        let step = planner.batch_done(0);
        assert_eq!(drain(&mut planner, step, &mut (3..4), t0), Step::Run(vec![3]));
    }

    #[test]
    fn max_batch_caps_the_drain_and_a_full_batch_never_waits() {
        let (mut planner, t0) = (planner(), Instant::now());
        assert_eq!(drain(&mut planner, Step::Block, &mut (0..1), t0), Step::Run(vec![0]));
        let (step, mut queued) = (planner.batch_done(17), 1..18);
        let step = drain(&mut planner, step, &mut queued, t0);
        let full = Step::Run((1..17).collect());
        assert_eq!(step, full, "a full batch flushes whatever was seen before");
        assert_eq!(queued, 17..18, "the rest stays queued for the next batch");
    }

    #[test]
    fn an_arrival_at_the_deadline_joins_the_batch_and_flushes_it() {
        let (mut planner, t0) = (planner(), Instant::now());
        let step = drain(&mut planner, Step::Block, &mut (0..2), t0);
        assert_eq!(planner.next(step, Ok(2), t0 + FLUSH_WAIT), Step::Run(vec![0, 1, 2]));
    }

    /// SplitMix64 draws for schedules.
    struct Gen(u64);

    impl Gen {
        fn below(&mut self, n: u64) -> u64 {
            proptest::next_state(&mut self.0) % n
        }
    }

    /// `dispatch_loop` in virtual time: the planner under test behind a
    /// scripted channel, and an oracle that checks every step it takes
    /// against the batching rules.
    struct Sim {
        seed: u64,
        planner: BatchPlanner<usize>,
        step: Step<usize>,
        t0: Instant,
        now: Duration,
        /// Sent and not yet received, earliest first: (send time, id).
        channel: BTreeSet<(Duration, usize)>,
        /// The last sender drops here; nothing is sent after it.
        closes_at: Duration,
        sent: Vec<(Duration, usize)>,
        /// The oracle's own copy of the company rule.
        company: bool,
        /// Received since the last flush, and when the first of them was.
        held: Vec<usize>,
        first_at: Duration,
        /// The drain came up empty.
        drained: bool,
        /// The end of the wait the rule allows the held batch, if any.
        deadline: Option<Duration>,
        closed: bool,
        /// Every flush: when, and what.
        flushed: Vec<(Duration, Vec<usize>)>,
    }

    impl Sim {
        fn new(seed: u64, closes_at: Duration) -> Self {
            Sim {
                seed,
                planner: planner(),
                step: Step::Block,
                t0: Instant::now(),
                now: Duration::ZERO,
                channel: BTreeSet::new(),
                closes_at,
                sent: Vec::new(),
                company: false,
                held: Vec::new(),
                first_at: Duration::ZERO,
                drained: false,
                deadline: None,
                closed: false,
                flushed: Vec::new(),
            }
        }

        fn send(&mut self, at: Duration, id: usize) {
            if at <= self.closes_at {
                self.channel.insert((at, id));
                self.sent.push((at, id));
            }
        }

        fn check(&self, ok: bool, rule: &str) {
            let (seed, now, held) = (self.seed, self.now, &self.held);
            assert!(ok, "{rule} (schedule {seed:#x}, t = {now:?}, holding {held:?})");
        }

        /// Take the planner's steps until it flushes a batch, or exits (`None`).
        fn next_batch(&mut self) -> Option<Vec<usize>> {
            for _ in 0..4 * MAX_BATCH {
                self.step = match std::mem::replace(&mut self.step, Step::Exit) {
                    Step::Run(batch) => {
                        self.flush(&batch);
                        return Some(batch);
                    }
                    Step::Exit => {
                        let done = self.closed && self.held.is_empty() && self.channel.is_empty();
                        self.check(done, "exited before the channel closed empty");
                        return None;
                    }
                    step => self.receive(step),
                };
            }
            panic!("the planner spins without flushing (schedule {:#x})", self.seed)
        }

        /// The receive `step` as `receive` performs it, in virtual time.
        fn receive(&mut self, step: Step<usize>) -> Step<usize> {
            let until = match step {
                Step::Block => {
                    self.check(self.held.is_empty(), "blocked while holding a batch");
                    None
                }
                Step::Drain => {
                    let draining = !self.held.is_empty() && !self.drained;
                    self.check(draining && self.held.len() < MAX_BATCH, "drained out of turn");
                    Some(self.now)
                }
                Step::Until(deadline) => {
                    let deadline = deadline - self.t0;
                    let allowed = self.drained && self.deadline == Some(deadline);
                    self.check(
                        allowed,
                        "waited without company, or not until 1 ms after the drain",
                    );
                    Some(deadline)
                }
                Step::Run(_) | Step::Exit => unreachable!("not a receive"),
            };
            let reaches = |at: Duration| until.is_none_or(|until| at <= until);
            let got = match self.channel.first().copied() {
                Some((at, id)) if reaches(at) => {
                    self.channel.remove(&(at, id));
                    self.now = self.now.max(at);
                    Ok(id)
                }
                None if step != Step::Drain && reaches(self.closes_at) => {
                    self.now = self.now.max(self.closes_at);
                    Err(Disconnected)
                }
                _ => {
                    self.now = until.unwrap_or(self.now);
                    Err(Timeout)
                }
            };
            match (got, &step) {
                (Ok(id), _) => {
                    if self.held.is_empty() {
                        self.first_at = self.now;
                    }
                    self.held.push(id);
                }
                (Err(Timeout), Step::Drain) => {
                    self.drained = true;
                    let n = self.held.len();
                    if n < MAX_BATCH && (n > 1 || self.company) {
                        self.deadline = Some(self.now + FLUSH_WAIT);
                    }
                }
                (Err(Disconnected), _) => self.closed = true,
                (Err(_), _) => {}
            }
            self.planner.next(step, got, self.t0 + self.now)
        }

        fn flush(&mut self, batch: &[usize]) {
            self.check(batch == self.held, "flushed other than what it received, in order");
            self.check((1..=MAX_BATCH).contains(&batch.len()), "a batch outside 1..=16");
            let (full, closed) = (batch.len() == MAX_BATCH, self.closed);
            match self.deadline {
                Some(deadline) => {
                    self.check(self.now <= deadline, "waited past its deadline");
                    self.check(full || closed || self.now == deadline, "stopped waiting early");
                }
                None => {
                    let at_drain_end = self.drained && self.now == self.first_at;
                    self.check(full || closed || at_drain_end, "flushed before its drain ended");
                }
            }
            if batch.len() == 1 && !self.company {
                self.check(self.now == self.first_at, "a lone arrival on an idle planner waited");
            }
            self.flushed.push((self.now, batch.to_vec()));
            self.held.clear();
            (self.drained, self.deadline) = (false, None);
        }

        /// The last flushed batch, of `size`, computed for `compute`.
        fn finish(&mut self, size: usize, compute: Duration) {
            self.now += compute;
            let still_queued = self.channel.iter().take_while(|(at, _)| *at <= self.now).count();
            self.company = size > 1 || still_queued > 0;
            self.step = self.planner.batch_done(still_queued as u64);
        }

        /// Every request sent was flushed exactly once, in send order.
        fn check_all_flushed(&mut self) {
            self.sent.sort();
            let sent: Vec<usize> = self.sent.iter().map(|&(_, id)| id).collect();
            let flushed: Vec<usize> = self.flushed.iter().flat_map(|(_, b)| b.clone()).collect();
            self.check(flushed == sent, "not every request was flushed exactly once");
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Seeded schedules — bursts, gaps around the flush wait, idle
        /// stretches, seeded compute times, and a close at a random point —
        /// hold every batching rule after every step the planner takes.
        #[test]
        fn simulated_schedules_keep_every_batching_rule(seed in 0u64..u64::MAX) {
            let mut g = Gen(seed);
            // The schedule's widest ordinary gap (µs): dense enough to fill
            // batches of 16, or sparse enough that most misses arrive alone.
            let tempo = [50, 400, 2_000, 6_000][g.below(4) as usize];
            let (mut at, mut arrivals) = (Duration::ZERO, Vec::new());
            for id in 0..1 + g.below(96) as usize {
                at += us(match g.below(16) {
                    0..=4 => 0,
                    5 => 700 + g.below(600),
                    _ => g.below(tempo),
                });
                arrivals.push((at, id));
            }
            let mut sim = Sim::new(seed, us(g.below(at.as_micros() as u64 + 2_000)));
            for (at, id) in arrivals {
                sim.send(at, id);
            }
            while let Some(batch) = sim.next_batch() {
                sim.finish(batch.len(), us(g.below(2_000)));
            }
            sim.check_all_flushed();
        }
    }

    /// `ask_cold`'s two closed-loop connections: both ask at once, and each
    /// asks again 20–200 µs after its answer. Every batch is a pair — the
    /// planner-level reason the workload's connections stay in lockstep.
    #[test]
    fn ask_cold_lockstep_pairs_batch_in_twos() {
        let (mut g, mut sim) = (Gen(1), Sim::new(1, Duration::from_secs(3600)));
        sim.send(Duration::ZERO, 0);
        sim.send(Duration::ZERO, 1);
        let mut next = 2;
        while let Some(batch) = sim.next_batch() {
            assert_eq!(batch.len(), 2, "batch {} split the pair", sim.flushed.len());
            sim.finish(2, us(380 + g.below(100)));
            if next < 2_000 {
                for _ in &batch {
                    let at = sim.now + us(20 + g.below(180));
                    sim.send(at, next);
                    next += 1;
                }
            }
        }
        sim.check_all_flushed();
        assert_eq!(sim.flushed.len(), 1_000);
    }

    /// `ask_mixed_open`'s arrivals: 400 asks/s on schedule, one in four a
    /// cache hit that never reaches the dispatcher, each miss computed in
    /// ~0.4 ms. The misses never meet, so each is flushed at its own
    /// arrival time: a lone miss waits 0, not the 1 ms flush wait.
    #[test]
    fn ask_mixed_open_lone_misses_wait_zero() {
        let (mut g, mut sim) = (Gen(2026), Sim::new(2026, Duration::from_secs(3600)));
        for slot in 0..4_000 {
            if g.below(4) != 0 {
                sim.send(us(slot * 2_500), slot as usize);
            }
        }
        while let Some(batch) = sim.next_batch() {
            sim.finish(batch.len(), us(350 + g.below(100)));
        }
        sim.check_all_flushed();
        for (at, batch) in &sim.flushed {
            assert_eq!(batch.len(), 1);
            assert_eq!(*at, us(batch[0] as u64 * 2_500), "miss {} waited", batch[0]);
        }
    }
}
