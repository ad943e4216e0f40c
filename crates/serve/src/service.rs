//! The shared serving engine and [`RouterService`], its routing front.
//!
//! Three mechanisms stack, the first two tuned through [`ServiceConfig`]:
//!
//! 1. **LRU cache** ([`crate::LruCache`]) keyed on
//!    [`crate::normalize_question`] — repeated and surface-variant
//!    questions are answered without touching the model;
//! 2. **micro-batching** — a dispatcher thread takes the queued cache
//!    misses (up to `max_batch`) and waits up to `flush_timeout` for more
//!    only once company has been seen: two or more now or in the previous
//!    batch, or one queued when it finished. A lone miss on an idle service
//!    is computed at once. Identical in-flight questions are deduplicated
//!    so one computation serves every waiter;
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
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{channel, Receiver, RecvTimeoutError, Sender};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use dbcopilot_retrieval::{RoutingResult, SchemaRouter, ShardCounters};
use dbcopilot_runtime::{global_pool, lock_rank, OrderedMutex};

use crate::cache::{normalize_question, LruCache};
use crate::handle::RouterHandle;

/// Tuning knobs for a serving front ([`RouterService`] /
/// [`crate::AskService`]). Builder-style so adding a knob is not a
/// breaking change:
///
/// ```
/// use dbcopilot_serve::ServiceConfig;
/// let cfg = ServiceConfig::new().max_batch(32).cache_capacity(1024);
/// assert_eq!(cfg.max_batch, 32);
/// ```
#[derive(Debug, Clone)]
#[non_exhaustive]
pub struct ServiceConfig {
    /// Flush a batch as soon as it holds this many requests.
    pub max_batch: usize,
    /// The longest a partial batch waits for company, and it waits only
    /// once company has been seen (see the module docs); a lone miss on an
    /// idle service never waits.
    pub flush_timeout: Duration,
    /// Cache entries (`0` disables caching).
    pub cache_capacity: usize,
    /// `top_tables` passed to the underlying router on every route
    /// (routing fronts only).
    pub top_tables: usize,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig {
            max_batch: 16,
            flush_timeout: Duration::from_millis(1),
            cache_capacity: 4096,
            top_tables: 100,
        }
    }
}

impl ServiceConfig {
    pub fn new() -> Self {
        Self::default()
    }

    pub fn max_batch(mut self, n: usize) -> Self {
        self.max_batch = n;
        self
    }

    pub fn flush_timeout(mut self, d: Duration) -> Self {
        self.flush_timeout = d;
        self
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
    /// Requests accepted by the dispatcher queue and not yet answered
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

/// One queued cache miss: the normalized key, the original question text,
/// and where to send the result.
struct Request<T> {
    key: String,
    question: String,
    reply: Sender<Arc<T>>,
}

struct Shared<B: Backend> {
    backend: B,
    cfg: ServiceConfig,
    /// Values are tagged with the backend generation that computed them; a
    /// tag that is no longer current is treated as a miss.
    cache: OrderedMutex<LruCache<(u64, Arc<B::Out>)>>,
    batches: AtomicU64,
    computed: AtomicU64,
    max_batch_observed: AtomicU64,
    /// Requests accepted into the dispatcher queue and not yet answered.
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
    pub(crate) fn new(backend: B, mut cfg: ServiceConfig) -> Self {
        cfg.max_batch = cfg.max_batch.max(1);
        let shared = Arc::new(Shared {
            backend,
            cache: OrderedMutex::new("cache", lock_rank::CACHE, LruCache::new(cfg.cache_capacity)),
            cfg,
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
                // dbc-lint: allow(panic-free-serving): runs once at engine
                // construction, never on the request path.
                .expect("failed to spawn service dispatcher")
        };
        Engine { shared, sender: Some(sender), dispatcher: Some(dispatcher) }
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
        self.shared.queue_depth.fetch_add(1, Ordering::Relaxed);
        let sent = self
            .sender
            .as_ref()
            .map(|s| s.send(Request { key, question: question.to_string(), reply }).is_ok())
            .unwrap_or(false);
        if !sent {
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
    /// timer): each `max_batch`-sized window is cache-checked,
    /// deduplicated and computed on the pool. Results come back in
    /// question order, and the whole call is deterministic.
    pub(crate) fn submit_many(&self, questions: &[String]) -> Vec<Arc<B::Out>> {
        let max_batch = self.shared.cfg.max_batch; // clamped to ≥ 1 by `new`
        let mut out: Vec<Option<Arc<B::Out>>> = vec![None; questions.len()];
        for (window, slots) in questions.chunks(max_batch).zip(out.chunks_mut(max_batch)) {
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
            compute_deduped(&self.shared, misses, |slot, result| *slot = Some(result));
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

/// The dispatcher's batching policy, without a clock or a channel: take
/// what is already queued, and wait for company only when the traffic has
/// just shown that company exists.
struct BatchPolicy {
    max_batch: usize,
    /// The previous batch held more than one request, or a request was
    /// queued when it finished.
    company_seen: bool,
}

impl BatchPolicy {
    /// Append what `queued` yields without blocking, up to `max_batch`.
    fn drain<T>(&self, batch: &mut Vec<T>, queued: impl FnMut() -> Option<T>) {
        batch.extend(std::iter::from_fn(queued).take(self.max_batch.saturating_sub(batch.len())));
    }

    /// Whether a drained batch of `size` waits up to `flush_timeout` for more.
    fn waits(&self, size: usize) -> bool {
        size < self.max_batch && (size > 1 || self.company_seen)
    }

    /// Record a finished batch of `size` and the requests still queued.
    fn batch_done(&mut self, size: u64, still_queued: u64) {
        self.company_seen = size > 1 || still_queued > 0;
    }
}

/// Dispatcher: collect requests into micro-batches, compute each batch
/// once per distinct question, fan results back out to every waiter.
fn dispatch_loop<B: Backend>(shared: &Shared<B>, receiver: &Receiver<Request<B::Out>>) {
    let mut policy = BatchPolicy { max_batch: shared.cfg.max_batch, company_seen: false };
    while let Ok(first) = receiver.recv() {
        let mut batch = vec![first];
        policy.drain(&mut batch, || receiver.try_recv().ok());
        if policy.waits(batch.len()) {
            let deadline = Instant::now() + shared.cfg.flush_timeout;
            while batch.len() < shared.cfg.max_batch {
                let now = Instant::now();
                if now >= deadline {
                    break;
                }
                match receiver.recv_timeout(deadline - now) {
                    Ok(req) => batch.push(req),
                    Err(RecvTimeoutError::Timeout) | Err(RecvTimeoutError::Disconnected) => break,
                }
            }
        }
        // Contain a panicking backend: dropping the batch drops its reply
        // senders, so only the affected waiters fail (their blocking call
        // re-raises) while the dispatcher survives to serve the next batch.
        let depth = batch.len() as u64;
        let contained = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            run_batch(shared, batch);
        }));
        // Answered or failed, these requests have left the queue — decrement
        // even when the batch panicked so the depth gauge can't drift up.
        let before = shared.queue_depth.fetch_sub(depth, Ordering::Relaxed);
        policy.batch_done(depth, before.saturating_sub(depth));
        if contained.is_err() {
            eprintln!("dbcopilot-serve: backend panicked on a batch; service continues");
        }
    }
    // Channel closed: `recv` already drained every queued request, so
    // nothing is left unanswered.
}

fn run_batch<B: Backend>(shared: &Shared<B>, batch: Vec<Request<B::Out>>) {
    let misses = batch.into_iter().map(|req| (req.key, req.question, req.reply));
    // A send error just means the client went away; nothing to do.
    compute_deduped(shared, misses, |reply, result| {
        let _ = reply.send(result);
    });
}

/// Serve one batch of cache misses `(key, question, waiter)`: deduplicate by
/// normalized key in first-seen order, compute each distinct question once,
/// and hand its result to everyone waiting on it.
fn compute_deduped<B: Backend, Q: Into<String>, W>(
    shared: &Shared<B>,
    misses: impl IntoIterator<Item = (String, Q, W)>,
    mut deliver: impl FnMut(W, Arc<B::Out>),
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
    let results = shared.compute_unique(&unique);
    for (result, waiters) in results.into_iter().zip(waiting) {
        for waiter in waiters {
            deliver(waiter, Arc::clone(&result));
        }
    }
}

// ---------------------------------------------------------------------
// the routing front
// ---------------------------------------------------------------------

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
    /// during the swap are served by the new router. Returns the new
    /// generation number.
    pub fn publish(&self, router: Arc<R>) -> u64 {
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
    /// timer): each `max_batch`-sized window is cache-checked, deduplicated
    /// and routed on the pool. Results come back in question order, and the
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

    /// A queue of `n` requests, numbered from 0, as the drain sees it.
    fn queued(n: usize) -> impl FnMut() -> Option<usize> {
        let mut queue = 0..n;
        move || queue.next()
    }

    #[test]
    fn a_lone_arrival_into_an_idle_empty_queue_flushes_at_once() {
        let policy = BatchPolicy { max_batch: 16, company_seen: false };
        let mut batch = vec![0];
        policy.drain(&mut batch, queued(0));
        assert_eq!(batch, [0]);
        assert!(!policy.waits(batch.len()));
    }

    #[test]
    fn a_batch_of_two_rearms_the_wait() {
        let mut policy = BatchPolicy { max_batch: 16, company_seen: false };
        let mut batch = vec![0];
        policy.drain(&mut batch, queued(1));
        assert!(policy.waits(batch.len()), "two already queued together wait for a third");
        policy.batch_done(batch.len() as u64, 0);
        assert!(policy.waits(1), "the next lone arrival waits for its partner");
    }

    #[test]
    fn a_request_queued_when_a_batch_finishes_rearms_the_wait() {
        let mut policy = BatchPolicy { max_batch: 16, company_seen: false };
        assert!(!policy.waits(1));
        policy.batch_done(1, 1);
        assert!(policy.waits(1));
    }

    #[test]
    fn one_lone_batch_with_an_empty_queue_disarms_the_wait() {
        let mut policy = BatchPolicy { max_batch: 16, company_seen: false };
        policy.batch_done(2, 0);
        assert!(policy.waits(1));
        policy.batch_done(1, 0);
        assert!(!policy.waits(1));
    }

    #[test]
    fn max_batch_caps_the_drain_and_a_full_batch_never_waits() {
        let mut policy = BatchPolicy { max_batch: 4, company_seen: false };
        policy.batch_done(4, 9);
        let mut queue = queued(10);
        let mut batch = vec![];
        policy.drain(&mut batch, &mut queue);
        assert_eq!(batch, [0, 1, 2, 3]);
        assert!(!policy.waits(batch.len()), "a full batch flushes whatever was seen before");
        assert_eq!(queue(), Some(4), "the rest stays queued for the next batch");
    }
}
