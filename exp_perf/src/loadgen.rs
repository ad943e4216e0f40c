//! The benchmark's own load driver: seeded request plans, pre-rendered
//! requests, a pipelining closed-loop connection and an open-loop one.
//!
//! `dbcopilot_http::run_load` is not used: it cannot pipeline, times open
//! loop requests from the write instead of the due time, reports bucketed
//! percentiles, and its client can only sleep on the socket (`client.rs`).

use std::collections::VecDeque;
use std::net::SocketAddr;
use std::ops::Range;
use std::time::{Duration, Instant};

use dbcopilot::http::wire::question_body;

use crate::client::Client;
use crate::deploy::Tier;
use crate::pool::{below, draw, stream, Pool, HEAD, POOL};
use crate::recorder::{open_loop_sample, sample_ns, slot_of, thread_cpu_ns, Schedule};

/// One request a connection makes, as an index into the pool.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Step {
    Ask(usize),
    Route(usize),
    Publish(Tier),
}

/// Which questions a workload asks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mix {
    /// Cyclic scan of the whole pool: twice the cache, so never a hit.
    Cold,
    /// Uniform draws from the head: always a hit once warm.
    Hot,
    /// By seeded coin, 1 in 4 a uniform draw from the front of the head and
    /// 3 in 4 the next question of a cyclic scan of the tail.
    Mixed,
    /// Uniform `/route` draws from the head, and a publish at fixed points.
    Swap,
}

/// Of `ask_mixed_open`'s requests, one in this many is a hit. Misses are the
/// majority so that the median request is one: a hit's latency on a
/// lightly loaded box is mostly the host waking the server's thread, which
/// drifts by tens of percent with nothing changed.
pub const MIXED_HIT_ONE_IN: usize = 4;
/// The hits are drawn from this many questions at the front of the head:
/// few enough that the misses arriving between two visits to one of them
/// never push it out of the LRU.
const MIXED_HOT: usize = HEAD / 4;

/// Of `route_swap`'s requests, one in this many should miss: each publish
/// empties the cache, the head then misses once per question, so its one
/// connection publishes every `SWAP_MISS_ONE_IN × HEAD`-th request.
pub const SWAP_MISS_ONE_IN: usize = 10;
const PUBLISH_EVERY: u64 = (SWAP_MISS_ONE_IN * HEAD) as u64;

/// The request sequence of one connection: a pure function of the
/// workload, the seed and the connection's index.
#[derive(Debug, Clone)]
pub struct Plan {
    mix: Mix,
    seed: u64,
    conn: usize,
    issued: u64,
    scan: usize,
    next_tier: Tier,
}

impl Plan {
    pub fn new(mix: Mix, seed: u64, conn: usize, conns: usize) -> Self {
        // Scans start evenly spread, so connections never ask the same
        // question at the same time.
        let scan = match mix {
            Mix::Cold => conn * POOL / conns,
            Mix::Mixed => conn * (POOL - HEAD) / conns,
            Mix::Hot | Mix::Swap => 0,
        };
        Plan { mix, seed, conn, issued: 0, scan, next_tier: Tier::B }
    }

    pub fn next_step(&mut self) -> Step {
        let i = self.issued;
        self.issued += 1;
        let lane = (self.conn as u64) << 8;
        let uniform = |s: u64, n: usize| below(draw(self.seed, s + lane, i), n);
        match self.mix {
            Mix::Cold => {
                let q = self.scan;
                self.scan = (self.scan + 1) % POOL;
                Step::Ask(q)
            }
            Mix::Hot => Step::Ask(uniform(stream::HOT_DRAW, HEAD)),
            Mix::Mixed => {
                if uniform(stream::MIXED_COIN, MIXED_HIT_ONE_IN) == 0 {
                    Step::Ask(uniform(stream::MIXED_DRAW, MIXED_HOT))
                } else {
                    let q = HEAD + self.scan;
                    self.scan = (self.scan + 1) % (POOL - HEAD);
                    Step::Ask(q)
                }
            }
            Mix::Swap => {
                if i % PUBLISH_EVERY == PUBLISH_EVERY - 1 {
                    let tier = self.next_tier;
                    self.next_tier = tier.other();
                    Step::Publish(tier)
                } else {
                    Step::Route(uniform(stream::ROUTE_DRAW, HEAD))
                }
            }
        }
    }
}

/// A `POST` with a JSON body, as `HttpClient::request` writes it.
pub fn http_post(path: &str, body: &str) -> Vec<u8> {
    format!(
        "POST {path} HTTP/1.1\r\nhost: dbcopilot\r\ncontent-type: application/json\r\n\
         content-length: {}\r\n\r\n{body}",
        body.len()
    )
    .into_bytes()
}

/// Every request of a run, rendered once so the generator spends its
/// timed CPU on the socket and the check, not on formatting.
pub struct Requests {
    ask: Vec<Vec<u8>>,
    route: Vec<Vec<u8>>,
    publish: [Vec<u8>; 2],
}

impl Requests {
    pub fn render(pool: &Pool) -> Self {
        let post = |path: &str, qs: &[String]| -> Vec<Vec<u8>> {
            qs.iter().map(|q| http_post(path, &question_body(q))).collect()
        };
        Requests {
            ask: post("/ask", &pool.questions),
            route: post("/route", pool.head()),
            publish: [Tier::A, Tier::B]
                .map(|t| http_post("/admin/publish", &format!("{{\"tier\":\"{}\"}}", t.name()))),
        }
    }

    fn bytes(&self, step: Step) -> &[u8] {
        match step {
            Step::Ask(q) => &self.ask[q],
            Step::Route(q) => &self.route[q],
            Step::Publish(tier) => &self.publish[tier as usize],
        }
    }
}

/// How long before a due time the open-loop generator stops sleeping and
/// spins: longer than a sleep overshoots, short enough to cost little CPU.
const SPIN: Duration = Duration::from_micros(150);

/// What one connection recorded in one slot of the run (warm-up or window).
#[derive(Debug, Default)]
pub struct SlotLog {
    /// Latency of every correct response, in nanoseconds.
    pub latency_ns: Vec<u32>,
    /// Open loop only: how late each request was written.
    pub late_ns: Vec<u32>,
    /// Latency of every publish (not counted as a request).
    pub publish_ns: Vec<u32>,
    /// Requests whose response was a transport error, a status or a body
    /// other than the oracle's.
    pub failed: u64,
    /// Correct responses that took longer than the workload's limit.
    pub slow: u64,
}

/// What every connection of a run shares.
pub struct RunContext<'a> {
    pub addr: SocketAddr,
    pub requests: &'a Requests,
    pub pool: &'a Pool,
    pub start: Instant,
    /// End of the warm-up, then of each window, since `start`.
    pub ends: &'a [Duration],
    pub limit: Duration,
    /// How long a generator polls its socket for a response before it
    /// sleeps on it.
    pub poll: Duration,
}

pub struct Connection {
    client: Client,
    plan: Plan,
    /// The tier this connection last published: `route_swap`'s one
    /// connection both routes and publishes, so it knows which tier must
    /// answer, and an answer from the other is a failure.
    serving: Tier,
    pub slots: Vec<SlotLog>,
    /// CPU time of the generator's thread at the start of each slot, and
    /// once more when the run ended.
    pub cpu_marks_ns: Vec<u64>,
}

impl Connection {
    /// `samples_per_slot` sizes the sample vectors up front, so recording
    /// never allocates inside a window.
    pub fn open(ctx: &RunContext, plan: Plan, samples_per_slot: usize) -> Self {
        let slots = (0..ctx.ends.len())
            .map(|_| SlotLog {
                latency_ns: Vec::with_capacity(samples_per_slot),
                late_ns: Vec::with_capacity(samples_per_slot),
                ..SlotLog::default()
            })
            .collect();
        let client = Client::connect(ctx.addr).expect("connect to the loopback server");
        let cpu_marks_ns = Vec::with_capacity(ctx.ends.len() + 1);
        Connection { client, plan, serving: Tier::A, slots, cpu_marks_ns }
    }

    fn correct(&self, step: Step, status: u16, body: &[u8], pool: &Pool) -> bool {
        let expected = match step {
            Step::Ask(q) => &pool.ask[q],
            Step::Route(q) => pool.route_expected(self.serving, q),
            Step::Publish(_) => return status == 200,
        };
        status == expected.status && body == expected.body.as_bytes()
    }

    fn record(
        &mut self,
        ctx: &RunContext,
        slot: usize,
        step: Step,
        response: std::io::Result<(u16, Range<usize>)>,
        latency: Duration,
    ) {
        let ok = response.is_ok_and(|(status, body)| {
            self.correct(step, status, self.client.bytes(body), ctx.pool)
        });
        let log = &mut self.slots[slot];
        match (ok, step) {
            (false, _) => log.failed += 1,
            (true, Step::Publish(tier)) => {
                log.publish_ns.push(sample_ns(latency));
                self.serving = tier;
            }
            (true, _) => {
                log.latency_ns.push(sample_ns(latency));
                log.slow += u64::from(latency > ctx.limit);
            }
        }
    }

    /// A connection is unusable after a transport error.
    fn reconnect(&mut self, ctx: &RunContext) {
        self.client = Client::connect(ctx.addr).expect("reconnect to the server");
    }

    /// Note this thread's CPU time at the start of every slot up to `slot`.
    fn mark_cpu(&mut self, slot: usize) {
        while self.cpu_marks_ns.len() <= slot {
            self.cpu_marks_ns.push(thread_cpu_ns());
        }
    }

    /// Closed loop with `depth` requests outstanding: the next request is
    /// written as soon as a response has been read, so at depth > 1 the
    /// server always has a request waiting. A request's latency runs from
    /// its own write, and it belongs to the slot in which it was written.
    pub fn run_closed(&mut self, ctx: &RunContext, depth: usize) {
        let mut outstanding: VecDeque<(Step, Duration, usize)> = VecDeque::with_capacity(depth);
        loop {
            let now = ctx.start.elapsed();
            let slot = slot_of(ctx.ends, now);
            self.mark_cpu(slot);
            let mut alive = true;
            while alive && slot < ctx.ends.len() && outstanding.len() < depth {
                let step = self.plan.next_step();
                alive = self.client.send(ctx.requests.bytes(step)).is_ok();
                outstanding.push_back((step, now, slot));
            }
            let Some((step, written, slot)) = outstanding.pop_front() else { return };
            let response = match alive {
                true => self.client.read_response(ctx.poll),
                false => Err(std::io::ErrorKind::ConnectionAborted.into()),
            };
            alive = response.is_ok();
            self.record(ctx, slot, step, response, ctx.start.elapsed() - written);
            if !alive {
                // Everything still outstanding died with the connection.
                for (step, _, slot) in outstanding.drain(..) {
                    self.record(
                        ctx,
                        slot,
                        step,
                        Err(std::io::ErrorKind::ConnectionAborted.into()),
                        Duration::ZERO,
                    );
                }
                self.reconnect(ctx);
            }
        }
    }

    /// Open loop: request `i` is written at its due time (or at once, if
    /// the connection is behind), and timed from its due time.
    pub fn run_open(&mut self, ctx: &RunContext, schedule: Schedule) {
        for i in 0.. {
            let due = schedule.due(i);
            let slot = slot_of(ctx.ends, due);
            self.mark_cpu(slot);
            if slot == ctx.ends.len() {
                return;
            }
            // Sleep to just before the due time, then spin: a sleep alone
            // overshoots by tens of microseconds, and the overshoot would
            // be charged to the server as latency.
            if let Some(wait) = due.checked_sub(ctx.start.elapsed() + SPIN) {
                std::thread::sleep(wait);
            }
            while ctx.start.elapsed() < due {
                std::hint::spin_loop();
            }
            let step = self.plan.next_step();
            let sent = ctx.start.elapsed();
            let response = self
                .client
                .send(ctx.requests.bytes(step))
                .and_then(|()| self.client.read_response(ctx.poll));
            let (latency, late) = open_loop_sample(due, sent, ctx.start.elapsed());
            self.slots[slot].late_ns.push(sample_ns(late));
            let alive = response.is_ok();
            self.record(ctx, slot, step, response, latency);
            if !alive {
                self.reconnect(ctx);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn first_steps(mix: Mix, seed: u64, conn: usize, n: usize) -> Vec<Step> {
        let mut plan = Plan::new(mix, seed, conn, 2);
        (0..n).map(|_| plan.next_step()).collect()
    }

    #[test]
    fn the_same_seed_replays_the_same_requests_and_another_does_not() {
        for mix in [Mix::Hot, Mix::Mixed, Mix::Swap] {
            for conn in 0..2 {
                assert_eq!(first_steps(mix, 41, conn, 2000), first_steps(mix, 41, conn, 2000));
                assert_ne!(first_steps(mix, 41, conn, 2000), first_steps(mix, 42, conn, 2000));
            }
            assert_ne!(first_steps(mix, 41, 0, 2000), first_steps(mix, 41, 1, 2000));
        }
        // The cold scan is fixed by the pool's order, which the seed shuffles.
        assert_eq!(first_steps(Mix::Cold, 1, 0, 10), first_steps(Mix::Cold, 2, 0, 10));
    }

    #[test]
    fn cold_scans_the_whole_pool_from_spread_offsets() {
        let a = first_steps(Mix::Cold, 1, 0, POOL + 1);
        let b = first_steps(Mix::Cold, 1, 1, POOL);
        assert_eq!(a[0], Step::Ask(0));
        assert_eq!(a[POOL], Step::Ask(0));
        assert_eq!(b[0], Step::Ask(POOL / 2));
        let distinct: std::collections::BTreeSet<_> =
            a[..POOL].iter().map(|s| format!("{s:?}")).collect();
        assert_eq!(distinct.len(), POOL);
    }

    #[test]
    fn mixed_is_one_quarter_head_and_the_rest_a_tail_scan() {
        let steps = first_steps(Mix::Mixed, 9, 0, 20_000);
        let (head, tail): (Vec<_>, Vec<_>) =
            steps.iter().partition(|s| matches!(s, Step::Ask(q) if *q < MIXED_HOT));
        let share = head.len() as f64 / steps.len() as f64;
        assert!((share - 0.25).abs() < 0.01, "head share {share}");
        // The tail is visited in order, wrapping at the pool's end.
        for pair in tail.windows(2) {
            let (Step::Ask(a), Step::Ask(b)) = (pair[0], pair[1]) else { unreachable!() };
            assert_eq!(b, HEAD + (a - HEAD + 1) % (POOL - HEAD));
        }
    }

    #[test]
    fn publishes_alternate_tiers_at_fixed_points() {
        let every = SWAP_MISS_ONE_IN * HEAD;
        let mut plan = Plan::new(Mix::Swap, 5, 0, 1);
        let publishes: Vec<(usize, Step)> = (0..3 * every)
            .map(|i| (i, plan.next_step()))
            .filter(|(_, s)| matches!(s, Step::Publish(_)))
            .collect();
        assert_eq!(
            publishes,
            vec![
                (every - 1, Step::Publish(Tier::B)),
                (2 * every - 1, Step::Publish(Tier::A)),
                (3 * every - 1, Step::Publish(Tier::B)),
            ]
        );
    }

    #[test]
    fn rendered_requests_are_what_the_client_would_write() {
        let bytes = http_post("/ask", "{\"question\":\"q\"}");
        let text = String::from_utf8(bytes).unwrap();
        assert!(text.starts_with("POST /ask HTTP/1.1\r\nhost: dbcopilot\r\n"));
        assert!(text.contains("content-length: 16\r\n\r\n{\"question\":\"q\"}"));
    }
}
