//! Generation-versioned router slot for zero-downtime hot swap.
//!
//! [`RouterHandle`] is a hand-rolled ArcSwap on std: a rank-ordered
//! mutex (`OrderedMutex<Arc<_>>`) slot
//! whose readers clone the `Arc` under the lock ([`RouterHandle::lease`] —
//! a few nanoseconds) and then route entirely outside it. Publishing a new
//! router ([`RouterHandle::publish`]) swaps the slot, bumps the generation
//! counter, and *drains*: it blocks until every request leased on the old
//! generation has finished. No request is ever dropped — in-flight requests
//! complete on the router they leased (the old `Arc` keeps it alive), and
//! requests arriving after the swap lease the new one.

use dbcopilot_runtime::{lock_rank, OrderedMutex};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// One published router generation: the router, its generation number, and
/// how many leased requests are still using it.
struct Generation<R> {
    router: Arc<R>,
    number: u64,
    in_flight: AtomicU64,
}

/// A shared, swappable slot holding the currently-published router.
pub(crate) struct RouterHandle<R> {
    current: OrderedMutex<Arc<Generation<R>>>,
}

/// A leased reference to one router generation. The lease counts toward the
/// generation's in-flight total until dropped, which is what lets
/// [`RouterHandle::publish`] know when the old generation has drained.
pub(crate) struct RouterLease<R> {
    generation: Arc<Generation<R>>,
}

impl<R> RouterLease<R> {
    /// The leased router.
    pub(crate) fn router(&self) -> &R {
        &self.generation.router
    }
}

impl<R> Drop for RouterLease<R> {
    fn drop(&mut self) {
        self.generation.in_flight.fetch_sub(1, Ordering::Release);
    }
}

impl<R> RouterHandle<R> {
    /// A handle starting at generation 1.
    pub(crate) fn new(router: Arc<R>) -> Self {
        RouterHandle {
            current: OrderedMutex::new(
                "current",
                lock_rank::CURRENT,
                Arc::new(Generation { router, number: 1, in_flight: AtomicU64::new(0) }),
            ),
        }
    }

    /// Lease the current router for one request. The in-flight count is
    /// bumped *under the slot lock*, so a concurrent [`publish`] either
    /// sees this lease in its drain or happens entirely before it — never
    /// in between.
    ///
    /// [`publish`]: RouterHandle::publish
    pub(crate) fn lease(&self) -> RouterLease<R> {
        let generation = Arc::clone(&self.current.lock());
        generation.in_flight.fetch_add(1, Ordering::Acquire);
        RouterLease { generation }
    }

    /// The currently-published router.
    pub(crate) fn current(&self) -> Arc<R> {
        Arc::clone(&self.current.lock().router)
    }

    /// The current generation number (starts at 1, +1 per publish).
    pub(crate) fn generation(&self) -> u64 {
        self.current.lock().number
    }

    /// Atomically publish `router` as the next generation, then block until
    /// every request leased on the *old* generation has finished. Returns
    /// the new generation number.
    ///
    /// Zero requests are dropped: old-generation requests complete on the
    /// router they leased, and every lease taken after the swap is on the
    /// new generation (so the drain terminates regardless of new traffic).
    pub(crate) fn publish(&self, router: Arc<R>) -> u64 {
        let old = {
            let mut current = self.current.lock();
            let next = Arc::new(Generation {
                router,
                number: current.number + 1,
                in_flight: AtomicU64::new(0),
            });
            std::mem::replace(&mut *current, next)
        };
        let published = old.number + 1;
        while old.in_flight.load(Ordering::Acquire) > 0 {
            std::thread::yield_now();
        }
        published
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    impl<R> RouterLease<R> {
        /// The generation number this lease pinned.
        fn generation(&self) -> u64 {
            self.generation.number
        }
    }

    #[test]
    fn lease_pins_a_generation_and_publish_advances_it() {
        let handle = RouterHandle::new(Arc::new(41));
        assert_eq!(handle.generation(), 1);
        let lease = handle.lease();
        assert_eq!(*lease.router(), 41);
        assert_eq!(lease.generation(), 1);
        drop(lease); // publish would otherwise drain forever
        assert_eq!(handle.publish(Arc::new(42)), 2);
        assert_eq!(*handle.current(), 42);
        assert_eq!(handle.generation(), 2);
    }

    #[test]
    fn publish_waits_for_old_leases_and_new_leases_do_not_block_it() {
        let handle = Arc::new(RouterHandle::new(Arc::new(1)));
        let lease = handle.lease();
        let publisher = {
            let handle = Arc::clone(&handle);
            std::thread::spawn(move || handle.publish(Arc::new(2)))
        };
        // The swap itself is immediate: new leases see the new router even
        // while the publisher is still draining the old generation.
        loop {
            let fresh = handle.lease();
            if fresh.generation() == 2 {
                assert_eq!(*fresh.router(), 2);
                break;
            }
            std::thread::yield_now();
        }
        // The drain cannot complete while the old-generation lease lives.
        assert!(!publisher.is_finished(), "publish returned with an old lease outstanding");
        drop(lease);
        assert_eq!(publisher.join().unwrap(), 2);
    }
}
