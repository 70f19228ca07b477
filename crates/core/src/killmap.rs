//! The killed registry: a `WormId -> Cycle` map whose misses cost one
//! array load.
//!
//! The registry sits on the simulator's hottest path — every arriving
//! flit, every routing decision and every switch traversal asks "is
//! this worm killed?" — and almost every answer is *no*: the flit
//! belongs to a live worm, which is always a newer attempt than any
//! killed predecessor of its message. So the map proper (a plain
//! ordered `BTreeMap`) sits behind a dense **per-message high-water
//! mark**, indexed by the dense monotonic [`MessageId`](cr_sim::MessageId):
//!
//! ```text
//! mark[message] = 1 + the largest attempt ever inserted for message
//! contains(w)   = 1 + w.attempt <= mark[w.message] && map.contains_key(&w)
//! ```
//!
//! (`1 +` saturates, the same on both sides.) The filter is exact by
//! construction, not by protocol invariant: an attempt above every
//! attempt ever inserted cannot be in the map; anything else falls
//! through to the map, which alone decides. The mark never shrinks: a prune leaves it in place, and a
//! stale mark only sends more lookups to the map, never fewer.
//!
//! Semantics are *exactly* those of a `BTreeMap<WormId, Cycle>`
//! (verified against one by property test), so the registry cannot
//! change any simulation result.

use cr_router::WormId;
use cr_sim::Cycle;
use std::collections::BTreeMap;

/// The killed registry: a map from killed worm ids to their kill
/// cycle whose misses — the per-flit common case — cost one array
/// load. Public so the bench crate can price it; the network owns the
/// only instance that matters.
#[derive(Debug, Clone, Default)]
pub struct KilledMap {
    /// `mark[message]`: [`mark_of`] the largest attempt ever inserted,
    /// 0 = never inserted. Messages past the end were never inserted.
    mark: Vec<u32>,
    map: BTreeMap<WormId, Cycle>,
}

fn slot(key: WormId) -> usize {
    key.message.as_u64() as usize
}

/// `attempt + 1`. Both sides of the filter go through this, so the one
/// attempt whose successor does not fit compares equal to its own mark
/// and is left to the map like any other attempt at or below it.
fn mark_of(attempt: u32) -> u32 {
    attempt.saturating_add(1)
}

impl KilledMap {
    /// Creates an empty registry.
    pub fn new() -> Self {
        KilledMap::default()
    }

    #[cfg(test)]
    pub(crate) fn len(&self) -> usize {
        self.map.len()
    }

    /// Whether `key` is in the registry.
    pub fn contains(&self, key: WormId) -> bool {
        self.mark
            .get(slot(key))
            .is_some_and(|&mark| mark_of(key.attempt) <= mark)
            && self.map.contains_key(&key)
    }

    /// Inserts or updates, mirroring `BTreeMap::insert`.
    pub fn insert(&mut self, key: WormId, value: Cycle) {
        let slot = slot(key);
        if slot >= self.mark.len() {
            self.mark.resize(slot + 1, 0);
        }
        self.mark[slot] = self.mark[slot].max(mark_of(key.attempt));
        self.map.insert(key, value);
    }

    /// All live entries, ascending by raw worm id. Raw message ids
    /// depend on injection order, so callers that need a canonical
    /// view (the model checker's state encoding) sort by their own key.
    pub(crate) fn entries(&self) -> impl Iterator<Item = (WormId, Cycle)> + '_ {
        self.map.iter().map(|(&k, &v)| (k, v))
    }

    /// Keeps entries whose value satisfies `pred` — the periodic
    /// registry prune.
    pub fn retain(&mut self, mut pred: impl FnMut(Cycle) -> bool) {
        self.map.retain(|_, v| pred(*v));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cr_sim::check::{check, Config};
    use cr_sim::MessageId;

    fn worm(message: u64, attempt: u32) -> WormId {
        WormId::new(MessageId::new(message), attempt)
    }

    #[test]
    fn insert_contains_and_update() {
        let mut m = KilledMap::new();
        assert_eq!(m.len(), 0);
        assert!(!m.contains(worm(1, 0)));
        m.insert(worm(1, 0), Cycle::new(10));
        m.insert(worm(1, 1), Cycle::new(11));
        assert!(m.contains(worm(1, 0)));
        assert!(m.contains(worm(1, 1)));
        assert!(!m.contains(worm(2, 0)));
        assert_eq!(m.len(), 2);
        // Update in place: no growth, value replaced.
        m.insert(worm(1, 0), Cycle::new(99));
        assert_eq!(m.len(), 2);
        m.retain(|t| t.as_u64() < 50);
        assert!(!m.contains(worm(1, 0)), "updated value pruned");
        assert!(m.contains(worm(1, 1)));
    }

    #[test]
    fn grows_past_initial_capacity() {
        let mut m = KilledMap::new();
        for i in 0..10_000 {
            m.insert(worm(i, (i % 3) as u32), Cycle::new(i));
        }
        assert_eq!(m.len(), 10_000);
        for i in 0..10_000 {
            assert!(m.contains(worm(i, (i % 3) as u32)), "lost {i}");
            // One past the mark: answered without the map.
            assert!(!m.contains(worm(i, (i % 3) as u32 + 1)));
        }
        assert!(!m.contains(worm(10_000, 0)), "past the mark array");
    }

    #[test]
    fn prune_then_reinsert_under_a_stale_mark() {
        let mut m = KilledMap::new();
        for i in 0..1_000 {
            m.insert(worm(i, 2), Cycle::new(i));
        }
        // Prune the even half: their marks stay at 3, so lookups below
        // the mark reach the map, which says no.
        m.retain(|t| t.as_u64() % 2 == 1);
        assert_eq!(m.len(), 500);
        for i in 0..1_000 {
            assert_eq!(m.contains(worm(i, 2)), i % 2 == 1, "key {i}");
            assert!(!m.contains(worm(i, 1)), "below the mark, never inserted");
        }
        // Older attempts inserted after newer ones, under the old mark.
        for i in 0..1_000 {
            m.insert(worm(i, 0), Cycle::new(i + 1));
        }
        assert_eq!(m.len(), 1_500);
        assert!(m.contains(worm(4, 0)) && !m.contains(worm(4, 2)));
    }

    /// The registry's exact workload shape against a plain ordered
    /// map: attempts inserted out of order, re-inserts, lookups on
    /// both sides of the mark, message ids far apart and past the mark
    /// array, interleaved prunes — all agree with `BTreeMap` at every
    /// step.
    #[test]
    fn matches_btreemap_model() {
        check("killmap_matches_btreemap", Config::default(), |src| {
            let mut m = KilledMap::new();
            let mut model: BTreeMap<WormId, Cycle> = BTreeMap::new();
            // Two clusters of message ids far apart, attempts at both
            // ends of the range (the top one has no successor).
            let key = |src: &mut cr_sim::check::Source<'_>| {
                let message = src.u64_in(0..48) + [0, 100_000][src.usize_in(0..2)];
                let attempt = src.u32_in(0..5) + [0, 0, 0, u32::MAX - 4][src.usize_in(0..4)];
                worm(message, attempt)
            };
            let ops = src.usize_in(0..400);
            for _ in 0..ops {
                match src.weighted(&[5, 4, 1]) {
                    0 => {
                        let k = key(src);
                        let v = Cycle::new(src.u64_in(0..1_000));
                        m.insert(k, v);
                        model.insert(k, v);
                    }
                    1 => {
                        let k = key(src);
                        assert_eq!(m.contains(k), model.contains_key(&k), "{k}");
                    }
                    _ => {
                        let horizon = src.u64_in(0..1_000);
                        m.retain(|t| t.as_u64() >= horizon);
                        model.retain(|_, t| t.as_u64() >= horizon);
                    }
                }
                assert_eq!(m.len(), model.len());
            }
            assert!(m.entries().eq(model.iter().map(|(&k, &v)| (k, v))));
            for &k in model.keys() {
                assert!(m.contains(k));
            }
        });
    }
}
