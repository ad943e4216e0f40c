//! The question pool and the oracle: which questions the load asks, and
//! the exact bytes a correct server answers them with.
//!
//! The oracle is the library called directly (`DbCopilot::ask_with`,
//! `ShardedRouter::route`) and rendered with the same `wire` functions the
//! edge uses, once, after set-up. A served response is correct only if its
//! status and body equal the oracle's byte for byte.

use std::collections::BTreeSet;

use dbcopilot::http::wire;
use dbcopilot::retrieval::SchemaRouter;
use dbcopilot::runtime::{pooled_map, split_seed};
use dbcopilot::serve::normalize_question;

use crate::deploy::{ask_options, Deployment, Tier, TOP_TABLES};

/// Questions in the pool: twice the cache capacity, so a cyclic scan never
/// finds its question still cached.
pub const POOL: usize = 2 * crate::deploy::CACHE_CAPACITY;
/// The hot head of the pool. The tail (`POOL − HEAD`) is larger than the
/// cache space the head leaves free, so a cyclic scan of it always misses.
pub const HEAD: usize = POOL / 8;
const _: () = assert!(POOL - HEAD > crate::deploy::CACHE_CAPACITY - HEAD);

/// Seed streams: one per independent random choice the load makes.
pub mod stream {
    pub const POOL_SHUFFLE: u64 = 1;
    pub const HOT_DRAW: u64 = 2;
    pub const MIXED_COIN: u64 = 3;
    pub const MIXED_DRAW: u64 = 4;
    pub const ROUTE_DRAW: u64 = 5;
}

/// The `i`-th value of `stream` under `seed`.
pub fn draw(seed: u64, stream: u64, i: u64) -> u64 {
    split_seed(split_seed(seed, stream), i)
}

/// A uniform index below `n` from one drawn value (multiply-shift).
pub fn below(value: u64, n: usize) -> usize {
    ((value as u128 * n as u128) >> 64) as usize
}

/// The status and body a correct server sends.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Expected {
    pub status: u16,
    pub body: String,
}

impl From<(u16, String)> for Expected {
    fn from((status, body): (u16, String)) -> Self {
        Expected { status, body }
    }
}

pub struct Pool {
    /// `POOL` distinct questions whose direct ask succeeds; the first
    /// `HEAD` are the hot head.
    pub questions: Vec<String>,
    /// Oracle `/ask` response of each pool question.
    pub ask: Vec<Expected>,
    /// Oracle `/route` response of each head question under tier A and B.
    pub route: [Vec<Expected>; 2],
}

impl Pool {
    pub fn head(&self) -> &[String] {
        &self.questions[..HEAD]
    }

    pub fn route_expected(&self, tier: Tier, head_index: usize) -> &Expected {
        &self.route[tier as usize][head_index]
    }
}

/// Seeded Fisher–Yates over `items`.
pub fn shuffle<T>(items: &mut [T], seed: u64) {
    for i in (1..items.len()).rev() {
        let j = below(draw(seed, stream::POOL_SHUFFLE, i as u64), i + 1);
        items.swap(i, j);
    }
}

/// Choose the pool for `seed` and compute every oracle answer.
///
/// Candidates are the corpus's test questions, distinct under the cache's
/// own key (`normalize_question`), in a seeded order; they are asked
/// directly in that order until `POOL` of them have succeeded, so every
/// pooled request walks route → prompt → generate → execute.
pub fn build(deployment: &Deployment, seed: u64) -> Pool {
    let mut seen = BTreeSet::new();
    let mut candidates: Vec<&str> = deployment
        .corpus
        .test
        .iter()
        .map(|inst| inst.question.as_str())
        .filter(|q| seen.insert(normalize_question(q)))
        .collect();
    shuffle(&mut candidates, seed);

    let opts = ask_options();
    let mut questions = Vec::with_capacity(POOL);
    let mut ask = Vec::with_capacity(POOL);
    for chunk in candidates.chunks(256) {
        let outcomes = pooled_map(chunk, |_, q| deployment.copilot.ask_with(q, &opts));
        for (q, outcome) in chunk.iter().zip(outcomes) {
            if outcome.is_ok() && questions.len() < POOL {
                questions.push(q.to_string());
                ask.push(wire::ask_response(&outcome).into());
            }
        }
        if questions.len() == POOL {
            break;
        }
    }
    assert_eq!(
        questions.len(),
        POOL,
        "the fixed corpus must hold {POOL} answerable questions; it held {}",
        questions.len()
    );

    let route = [Tier::A, Tier::B].map(|tier| {
        let router = deployment.load_tier(tier);
        questions[..HEAD]
            .iter()
            .map(|q| wire::route_response(q, &router.route(q, TOP_TABLES)).into())
            .collect()
    });
    Pool { questions, ask, route }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn draws_depend_on_seed_stream_and_index_only() {
        assert_eq!(draw(7, 2, 9), draw(7, 2, 9));
        assert_ne!(draw(7, 2, 9), draw(8, 2, 9));
        assert_ne!(draw(7, 2, 9), draw(7, 3, 9));
        assert_ne!(draw(7, 2, 9), draw(7, 2, 10));
        for i in 0..1000 {
            assert!(below(draw(1, 1, i), 37) < 37);
        }
        assert_eq!(below(u64::MAX, 10), 9);
        assert_eq!(below(0, 10), 0);
    }

    #[test]
    fn shuffle_is_a_seeded_permutation() {
        let base: Vec<u32> = (0..200).collect();
        let (mut a, mut b, mut c) = (base.clone(), base.clone(), base.clone());
        shuffle(&mut a, 11);
        shuffle(&mut b, 11);
        shuffle(&mut c, 12);
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_ne!(a, base);
        let mut sorted = a.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, base);
    }
}
