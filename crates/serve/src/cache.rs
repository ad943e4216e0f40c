//! A capacity-bounded LRU cache with hit/miss counters, plus the question
//! normalization that makes surface variants of a question share a cache
//! entry.
//!
//! Eviction is strict least-recently-used and fully deterministic: the
//! recency list is an intrusive doubly-linked list over a slab, the
//! `HashMap` is only ever probed by key (its iteration order is never
//! observed), so two processes performing the same sequence of operations
//! hold exactly the same entries.

use std::collections::HashMap;

/// Slab sentinel for "no neighbor".
const NIL: usize = usize::MAX;

/// Normalize a question into its cache key: lowercase, whitespace
/// collapsed, any trailing run of sentence punctuation and spaces dropped.
/// Normalizing a key again leaves it unchanged.
///
/// ```
/// use dbcopilot_serve::normalize_question;
/// assert_eq!(
///     normalize_question("  How many   SINGERS are there?? "),
///     "how many singers are there"
/// );
/// ```
pub fn normalize_question(question: &str) -> String {
    let mut out = String::with_capacity(question.len());
    for word in question.split_whitespace() {
        if !out.is_empty() {
            out.push(' ');
        }
        for ch in word.chars() {
            out.extend(ch.to_lowercase());
        }
    }
    while out.ends_with(['?', '.', '!', ' ']) {
        out.pop();
    }
    out
}

struct Entry<V> {
    key: String,
    value: V,
    prev: usize,
    next: usize,
}

/// A string-keyed LRU cache.
///
/// `capacity == 0` disables storage entirely: every [`LruCache::get`] is a
/// miss and [`LruCache::insert`] is a no-op — callers can keep one code
/// path and tune the capacity down to "off".
///
/// ```
/// use dbcopilot_serve::LruCache;
///
/// let mut cache: LruCache<u32> = LruCache::new(2);
/// cache.insert("a".into(), 1);
/// cache.insert("b".into(), 2);
/// assert_eq!(cache.get("a"), Some(&1)); // refreshes "a"
/// cache.insert("c".into(), 3);          // evicts "b", the LRU entry
/// assert_eq!(cache.get("b"), None);
/// assert_eq!((cache.hits(), cache.misses()), (1, 1));
/// ```
pub struct LruCache<V> {
    map: HashMap<String, usize>,
    slab: Vec<Entry<V>>,
    free: Vec<usize>,
    head: usize,
    tail: usize,
    capacity: usize,
    hits: u64,
    misses: u64,
}

impl<V> LruCache<V> {
    /// Slab access. Every index stored in `map`, `head`, `tail`, `free`,
    /// or an entry's link fields refers to a live slab slot — that is the
    /// intrusive-list invariant every mutation below preserves, which is
    /// what makes the two indexing sites here infallible.
    fn entry(&self, idx: usize) -> &Entry<V> {
        // dbc-lint: allow(panic-free-serving): see the invariant above.
        &self.slab[idx]
    }

    fn entry_mut(&mut self, idx: usize) -> &mut Entry<V> {
        // dbc-lint: allow(panic-free-serving): see the invariant above.
        &mut self.slab[idx]
    }

    /// An empty cache holding at most `capacity` entries.
    pub fn new(capacity: usize) -> Self {
        LruCache {
            map: HashMap::with_capacity(capacity.min(1 << 16)),
            slab: Vec::new(),
            free: Vec::new(),
            head: NIL,
            tail: NIL,
            capacity,
            hits: 0,
            misses: 0,
        }
    }

    pub fn capacity(&self) -> usize {
        self.capacity
    }

    pub fn len(&self) -> usize {
        self.map.len()
    }

    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Lookups that found an entry (each one also refreshed that entry).
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Lookups that found nothing.
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Look up `key`, refreshing it to most-recently-used on a hit.
    pub fn get(&mut self, key: &str) -> Option<&V> {
        match self.map.get(key).copied() {
            Some(idx) => {
                self.hits += 1;
                self.unlink(idx);
                self.push_front(idx);
                Some(&self.entry(idx).value)
            }
            None => {
                self.misses += 1;
                None
            }
        }
    }

    /// Insert (or overwrite) `key`, making it most-recently-used; evicts
    /// the least-recently-used entry when at capacity.
    pub fn insert(&mut self, key: String, value: V) {
        if self.capacity == 0 {
            return;
        }
        if let Some(&idx) = self.map.get(&key) {
            self.entry_mut(idx).value = value;
            self.unlink(idx);
            self.push_front(idx);
            return;
        }
        if self.map.len() == self.capacity {
            let lru = self.tail;
            self.unlink(lru);
            let evicted = std::mem::take(&mut self.entry_mut(lru).key);
            self.map.remove(&evicted);
            self.free.push(lru);
        }
        let idx = match self.free.pop() {
            Some(idx) => {
                *self.entry_mut(idx) = Entry { key: key.clone(), value, prev: NIL, next: NIL };
                idx
            }
            None => {
                self.slab.push(Entry { key: key.clone(), value, prev: NIL, next: NIL });
                self.slab.len() - 1
            }
        };
        self.map.insert(key, idx);
        self.push_front(idx);
    }

    /// Drop every entry, keeping capacity and the hit/miss counters. Used
    /// by router hot swap: results computed by a retired router generation
    /// must not be served under the new one.
    pub fn clear(&mut self) {
        self.map.clear();
        self.slab.clear();
        self.free.clear();
        self.head = NIL;
        self.tail = NIL;
    }

    fn unlink(&mut self, idx: usize) {
        let (prev, next) = {
            let e = self.entry(idx);
            (e.prev, e.next)
        };
        if prev != NIL {
            self.entry_mut(prev).next = next;
        } else if self.head == idx {
            self.head = next;
        }
        if next != NIL {
            self.entry_mut(next).prev = prev;
        } else if self.tail == idx {
            self.tail = prev;
        }
        let e = self.entry_mut(idx);
        e.prev = NIL;
        e.next = NIL;
    }

    fn push_front(&mut self, idx: usize) {
        let head = self.head;
        {
            let e = self.entry_mut(idx);
            e.prev = NIL;
            e.next = head;
        }
        if head != NIL {
            self.entry_mut(head).prev = idx;
        }
        self.head = idx;
        if self.tail == NIL {
            self.tail = idx;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    impl<V> LruCache<V> {
        /// Keys from most- to least-recently-used.
        fn keys_by_recency(&self) -> Vec<&str> {
            let mut out = Vec::with_capacity(self.map.len());
            let mut idx = self.head;
            while idx != NIL {
                out.push(self.entry(idx).key.as_str());
                idx = self.entry(idx).next;
            }
            out
        }
    }

    #[test]
    fn eviction_follows_lru_order() {
        let mut c: LruCache<u32> = LruCache::new(3);
        for (k, v) in [("a", 1), ("b", 2), ("c", 3)] {
            c.insert(k.into(), v);
        }
        assert_eq!(c.keys_by_recency(), vec!["c", "b", "a"]);
        assert!(c.get("a").is_some()); // refresh a → b is now LRU
        c.insert("d".into(), 4);
        assert_eq!(c.keys_by_recency(), vec!["d", "a", "c"]);
        assert_eq!(c.get("b"), None);
        c.insert("e".into(), 5); // evicts c
        assert_eq!(c.get("c"), None);
        assert_eq!(c.get("a"), Some(&1));
        assert_eq!(c.len(), 3);
    }

    #[test]
    fn capacity_zero_stores_nothing() {
        let mut c: LruCache<u32> = LruCache::new(0);
        c.insert("a".into(), 1);
        assert_eq!(c.get("a"), None);
        assert_eq!(c.len(), 0);
        assert_eq!((c.hits(), c.misses()), (0, 1));
    }

    #[test]
    fn capacity_one_always_holds_latest() {
        let mut c: LruCache<u32> = LruCache::new(1);
        c.insert("a".into(), 1);
        c.insert("b".into(), 2);
        assert_eq!(c.get("a"), None);
        assert_eq!(c.get("b"), Some(&2));
    }

    #[test]
    fn overwrite_refreshes_and_keeps_len() {
        let mut c: LruCache<u32> = LruCache::new(2);
        c.insert("a".into(), 1);
        c.insert("b".into(), 2);
        c.insert("a".into(), 10); // overwrite, a becomes MRU
        assert_eq!(c.len(), 2);
        c.insert("c".into(), 3); // evicts b
        assert_eq!(c.get("b"), None);
        assert_eq!(c.get("a"), Some(&10));
    }

    #[test]
    fn hit_miss_counters_track_lookups() {
        let mut c: LruCache<u32> = LruCache::new(2);
        assert_eq!(c.get("x"), None);
        c.insert("x".into(), 7);
        assert_eq!(c.get("x"), Some(&7));
        assert_eq!(c.get("x"), Some(&7));
        assert_eq!(c.get("y"), None);
        assert_eq!((c.hits(), c.misses()), (2, 2));
    }

    #[test]
    fn slab_slots_are_reused_after_eviction() {
        let mut c: LruCache<u32> = LruCache::new(2);
        for i in 0..100u32 {
            c.insert(format!("k{i}"), i);
        }
        assert!(c.slab.len() <= 3, "slab must recycle evicted slots, grew to {}", c.slab.len());
        assert_eq!(c.get("k99"), Some(&99));
        assert_eq!(c.get("k98"), Some(&98));
    }

    #[test]
    fn normalization_merges_surface_variants() {
        for q in [
            "How many singers are there?",
            "how  many singers are there",
            " HOW MANY SINGERS ARE THERE! ",
        ] {
            assert_eq!(normalize_question(q), "how many singers are there");
        }
        assert_eq!(normalize_question("???"), "");
        assert_eq!(normalize_question("What? ."), normalize_question("What?"));
        assert_eq!(normalize_question("how many singers ? !"), "how many singers");
    }

    /// A question drawn from letters of both cases, digits, punctuation
    /// and whitespace; characters that lowercase to more than one
    /// (`İ`) or come from outside ASCII (`É`) included.
    fn question(state: &mut u64, len: usize) -> String {
        const ALPHABET: [char; 16] =
            ['a', 'B', 'z', 'Q', '7', ' ', '\t', '\n', '?', '.', '!', ',', '\'', 'É', 'İ', 'ß'];
        (0..len).map(|_| ALPHABET[proptest::next_state(state) as usize % ALPHABET.len()]).collect()
    }

    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// A cache key is a fixed point of the normalization, and any
        /// trailing mixture of `?`, `.`, `!` and whitespace normalizes to
        /// the key of the question without it.
        #[test]
        fn normalization_is_idempotent_and_ignores_trailing_punctuation(seed in 0u64..1_000_000) {
            let mut state = seed;
            let len = (proptest::next_state(&mut state) % 24) as usize;
            let q = question(&mut state, len);
            let key = normalize_question(&q);
            prop_assert_eq!(normalize_question(&key), key.clone(), "{:?}", q);
            const TAIL: [char; 6] = ['?', '.', '!', ' ', '\t', '\n'];
            let tail_len = (proptest::next_state(&mut state) % 6) as usize;
            let tail: String = (0..tail_len)
                .map(|_| TAIL[proptest::next_state(&mut state) as usize % TAIL.len()])
                .collect();
            prop_assert_eq!(normalize_question(&format!("{q}{tail}")), key, "{:?} + {:?}", q, tail);
        }
    }
}
