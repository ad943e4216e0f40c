//! Rank-ordered mutexes: the runtime half of the lock-order discipline.
//!
//! Every first-party lock in the workspace carries a rank from
//! [`lock_rank`], and a thread may only acquire locks in strictly
//! ascending rank order. The static half (`dbcopilot-lint`'s
//! `lock-order` rule) checks nesting it can see in the token stream; the
//! [`OrderedMutex`] wrapper here checks the same ranking *dynamically*
//! under `debug_assertions`, catching acquisition orders that only arise
//! at runtime (through closures, trait objects, or call chains the
//! linter cannot follow). Release builds compile the bookkeeping out:
//! an `OrderedMutex` is then exactly a `std::sync::Mutex` plus two
//! words of rank metadata.
//!
//! Poisoning is ignored throughout ([`PoisonError::into_inner`]): the
//! pool already contains and re-throws mapped-closure panics itself, and
//! every guarded region leaves the data structurally valid.

use std::sync::{Condvar, Mutex, MutexGuard, PoisonError};

/// The declared lock-order ranking for the whole workspace. Nested
/// acquisitions must follow strictly ascending ranks. The linter's
/// `LOCK_RANKS` table (crates/lint/src/rules.rs) mirrors this list by
/// field name — extend both together when adding a lock.
pub mod lock_rank {
    /// `WorkerPool`'s shared job-queue receiver.
    pub const RECEIVER: u16 = 10;
    /// `map_chunks` result slots.
    pub const SLOTS: u16 = 20;
    /// `map_chunks` first-panic payload.
    pub const PANIC: u16 = 21;
    /// `map_chunks` outstanding-helper count (condvar-paired).
    pub const PENDING: u16 = 22;
    /// The serving engine's response cache.
    pub const CACHE: u16 = 30;
    /// `RouterHandle`'s current router generation.
    pub const CURRENT: u16 = 31;
    /// One optimizer-epilogue job in training, taken by the thread that
    /// claims it.
    pub const JOB: u16 = 40;
    /// A routing shard's memo of its answers, held for one lookup or one
    /// insert and never around a search (a leaf: nothing nests inside).
    pub const MEMO: u16 = 50;
}

#[cfg(debug_assertions)]
mod held {
    use std::cell::RefCell;
    use std::sync::atomic::{AtomicU64, Ordering};

    thread_local! {
        /// Locks this thread currently holds: (rank, name, token).
        /// Guards can drop out of LIFO order, so release is by token,
        /// not by popping.
        static STACK: RefCell<Vec<(u16, &'static str, u64)>> =
            const { RefCell::new(Vec::new()) };
    }

    static NEXT_TOKEN: AtomicU64 = AtomicU64::new(1);

    /// Record an acquisition, panicking on a ranking violation.
    pub fn acquire(rank: u16, name: &'static str) -> u64 {
        let token = NEXT_TOKEN.fetch_add(1, Ordering::Relaxed);
        STACK.with(|stack| {
            let mut stack = stack.borrow_mut();
            if let Some(&(held_rank, held_name, _)) = stack.iter().max_by_key(|&&(r, _, _)| r) {
                assert!(
                    rank > held_rank,
                    "lock-order inversion: acquiring `{name}` (rank {rank}) while \
                     holding `{held_name}` (rank {held_rank}) — nested acquisitions \
                     must follow strictly ascending ranks (see \
                     dbcopilot_runtime::lock_rank)"
                );
            }
            stack.push((rank, name, token));
        });
        token
    }

    pub fn release(token: u64) {
        STACK.with(|stack| {
            let mut stack = stack.borrow_mut();
            if let Some(at) = stack.iter().position(|&(_, _, t)| t == token) {
                stack.remove(at);
            }
        });
    }
}

/// A `Mutex` that participates in the workspace lock-order ranking.
///
/// Under `debug_assertions` every acquisition is checked against the
/// locks the current thread already holds and panics on a rank
/// inversion — turning a potential deadlock into a deterministic test
/// failure. In release builds only the plain mutex remains.
pub struct OrderedMutex<T> {
    name: &'static str,
    rank: u16,
    inner: Mutex<T>,
}

impl<T> OrderedMutex<T> {
    /// Wrap `value` under `name` with rank `rank` (use the constants in
    /// [`lock_rank`]).
    pub fn new(name: &'static str, rank: u16, value: T) -> Self {
        OrderedMutex { name, rank, inner: Mutex::new(value) }
    }

    /// Acquire the lock, panicking (debug builds) on a rank inversion.
    /// Poisoning is ignored.
    pub fn lock(&self) -> OrderedGuard<'_, T> {
        #[cfg(debug_assertions)]
        let token = held::acquire(self.rank, self.name);
        // dbc-lint: allow(lock-order): this is the wrapper's own inner
        // acquisition — the rank check above *is* the discipline.
        let inner = self.inner.lock().unwrap_or_else(PoisonError::into_inner);
        OrderedGuard {
            inner: Some(inner),
            #[cfg(debug_assertions)]
            token,
        }
    }

    /// The declared rank of this lock.
    pub fn rank(&self) -> u16 {
        self.rank
    }

    /// The declared name of this lock.
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// Mutable access without locking (requires exclusive ownership, so
    /// no ordering concern arises).
    pub fn get_mut(&mut self) -> &mut T {
        self.inner.get_mut().unwrap_or_else(PoisonError::into_inner)
    }
}

impl<T: std::fmt::Debug> std::fmt::Debug for OrderedMutex<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("OrderedMutex")
            .field("name", &self.name)
            .field("rank", &self.rank)
            .field("inner", &self.inner)
            .finish()
    }
}

/// Guard returned by [`OrderedMutex::lock`]. Releases the rank
/// bookkeeping entry on drop.
pub struct OrderedGuard<'a, T> {
    /// `None` only transiently inside [`OrderedGuard::wait`].
    inner: Option<MutexGuard<'a, T>>,
    #[cfg(debug_assertions)]
    token: u64,
}

impl<'a, T> OrderedGuard<'a, T> {
    /// Block on `cv` until notified, releasing and re-acquiring the
    /// underlying mutex exactly like [`Condvar::wait`]. The rank
    /// bookkeeping entry stays in place across the wait: the thread is
    /// parked, and on wakeup it holds the same lock again.
    pub fn wait(cv: &Condvar, mut guard: Self) -> Self {
        let inner = guard.inner.take().expect("guard holds the lock outside wait()");
        let inner = cv.wait(inner).unwrap_or_else(PoisonError::into_inner);
        guard.inner = Some(inner);
        guard
    }
}

impl<T> std::ops::Deref for OrderedGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        self.inner.as_ref().expect("guard holds the lock outside wait()")
    }
}

impl<T> std::ops::DerefMut for OrderedGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        self.inner.as_mut().expect("guard holds the lock outside wait()")
    }
}

impl<T> Drop for OrderedGuard<'_, T> {
    fn drop(&mut self) {
        #[cfg(debug_assertions)]
        held::release(self.token);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ascending_acquisition_is_fine() {
        let low = OrderedMutex::new("low", 1, 10u32);
        let high = OrderedMutex::new("high", 2, 20u32);
        let a = low.lock();
        let b = high.lock();
        assert_eq!(*a + *b, 30);
    }

    #[test]
    fn reacquisition_after_release_is_fine() {
        let low = OrderedMutex::new("low", 1, 0u32);
        let high = OrderedMutex::new("high", 2, 0u32);
        {
            let mut g = high.lock();
            *g += 1;
        }
        let mut g = low.lock();
        *g += 1;
        drop(g);
        let g = high.lock();
        assert_eq!(*g, 1);
    }

    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "lock-order inversion")]
    fn descending_acquisition_panics() {
        let low = OrderedMutex::new("low", 1, ());
        let high = OrderedMutex::new("high", 2, ());
        let _g = high.lock();
        let _h = low.lock(); // rank 1 while holding rank 2: inversion
    }

    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "lock-order inversion")]
    fn equal_rank_reacquisition_panics() {
        // Same-rank nesting (e.g. the same mutex twice) would deadlock:
        // the ranking is *strictly* ascending.
        let a = OrderedMutex::new("a", 7, ());
        let b = OrderedMutex::new("b", 7, ());
        let _g = a.lock();
        let _h = b.lock();
    }

    #[test]
    fn condvar_wait_roundtrip() {
        use std::sync::Arc;
        let m = Arc::new(OrderedMutex::new("pending", 1, 1usize));
        let cv = Arc::new(Condvar::new());
        let (m2, cv2) = (Arc::clone(&m), Arc::clone(&cv));
        let t = std::thread::spawn(move || {
            let mut g = m2.lock();
            *g = 0;
            cv2.notify_all();
        });
        let mut g = m.lock();
        while *g > 0 {
            g = OrderedGuard::wait(&cv, g);
        }
        assert_eq!(*g, 0);
        drop(g);
        t.join().expect("notifier thread");
    }
}
