//! An open-addressed `WormId -> Cycle` map for the killed registry.
//!
//! The killed registry sits on the simulator's hottest path: every
//! arriving flit, every routing decision and every switch traversal
//! probes it. `std::collections::HashMap` answers those probes through
//! SipHash and a pointer-chasing control-byte walk; this map instead
//! exploits what we know about the key — a [`WormId`] is a dense
//! message id plus a small attempt counter — and uses one multiply-mix
//! hash with linear probing over a flat slot array. Semantics are
//! *exactly* those of a `HashMap<WormId, Cycle>` (verified against the
//! std map by property test), so swapping it in cannot change any
//! simulation result; iteration order is never observable because the
//! registry is only probed by key and pruned by a pure predicate.
//!
//! Deletions (the periodic [`KilledMap::retain`] prune) leave
//! tombstones so probe chains stay intact; tombstones are dropped
//! wholesale whenever the table rehashes.

use cr_router::WormId;
use cr_sim::Cycle;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Slot {
    Empty,
    Tombstone,
    Full(WormId, Cycle),
}

/// An open-addressed hash map from worm ids to their kill cycle.
#[derive(Debug, Clone)]
pub(crate) struct KilledMap {
    /// Power-of-two slot array.
    slots: Vec<Slot>,
    /// Live entries.
    len: usize,
    /// Tombstones (deleted entries still occupying a probe slot).
    tombstones: usize,
}

const MIN_CAPACITY: usize = 16;

/// splitmix64 finalizer — deterministic, seedless, and well-mixed for
/// the sequential message ids that dominate the key distribution.
fn mix(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn hash(key: WormId) -> u64 {
    mix(key.message.as_u64() ^ u64::from(key.attempt).rotate_left(32))
}

impl KilledMap {
    pub(crate) fn new() -> Self {
        KilledMap {
            slots: vec![Slot::Empty; MIN_CAPACITY],
            len: 0,
            tombstones: 0,
        }
    }

    #[cfg(test)]
    pub(crate) fn len(&self) -> usize {
        self.len
    }

    pub(crate) fn contains(&self, key: WormId) -> bool {
        // Most of most runs no worm is dead: answer the per-flit
        // probes without hashing.
        self.len != 0 && self.find(key).is_some()
    }

    /// Index of the slot holding `key`, if present.
    fn find(&self, key: WormId) -> Option<usize> {
        let mask = self.slots.len() - 1;
        let mut i = (hash(key) as usize) & mask;
        loop {
            match self.slots[i] {
                Slot::Empty => return None,
                Slot::Full(k, _) if k == key => return Some(i),
                _ => i = (i + 1) & mask,
            }
        }
    }

    /// Inserts or updates, mirroring `HashMap::insert`.
    pub(crate) fn insert(&mut self, key: WormId, value: Cycle) {
        // Keep occupancy (live + tombstones) under 7/8 so probe chains
        // stay short and the scan below always terminates.
        if (self.len + self.tombstones + 1) * 8 > self.slots.len() * 7 {
            self.grow();
        }
        let mask = self.slots.len() - 1;
        let mut i = (hash(key) as usize) & mask;
        let mut first_tombstone = None;
        loop {
            match self.slots[i] {
                Slot::Empty => {
                    let target = first_tombstone.unwrap_or(i);
                    if matches!(self.slots[target], Slot::Tombstone) {
                        self.tombstones -= 1;
                    }
                    self.slots[target] = Slot::Full(key, value);
                    self.len += 1;
                    return;
                }
                Slot::Tombstone => {
                    first_tombstone.get_or_insert(i);
                    i = (i + 1) & mask;
                }
                Slot::Full(k, _) => {
                    if k == key {
                        self.slots[i] = Slot::Full(key, value);
                        return;
                    }
                    i = (i + 1) & mask;
                }
            }
        }
    }

    /// All live entries, in storage order. Storage order depends on
    /// insertion history, so callers that need a canonical view (the
    /// model checker's state encoding) must sort by their own key.
    pub(crate) fn entries(&self) -> Vec<(WormId, Cycle)> {
        self.slots
            .iter()
            .filter_map(|s| match *s {
                Slot::Full(k, v) => Some((k, v)),
                _ => None,
            })
            .collect()
    }

    /// Keeps entries whose value satisfies `pred` — the periodic
    /// registry prune. Equivalent to `HashMap::retain` with a
    /// value-only predicate (the registry's predicate never looks at
    /// the key, so retention order cannot matter).
    pub(crate) fn retain(&mut self, mut pred: impl FnMut(Cycle) -> bool) {
        for slot in &mut self.slots {
            if let Slot::Full(_, v) = *slot {
                if !pred(v) {
                    *slot = Slot::Tombstone;
                    self.len -= 1;
                    self.tombstones += 1;
                }
            }
        }
    }

    /// Rehashes into a table sized for the live entries, dropping
    /// tombstones. Grows only on live load; a prune-heavy interval
    /// (many tombstones, few live) rebuilds at the same size.
    fn grow(&mut self) {
        let needed = (self.len + 1) * 8 / 7 + 1;
        let mut capacity = MIN_CAPACITY;
        while capacity < needed {
            capacity *= 2;
        }
        let old = std::mem::replace(&mut self.slots, vec![Slot::Empty; capacity]);
        self.tombstones = 0;
        let mask = capacity - 1;
        for slot in old {
            if let Slot::Full(k, v) = slot {
                let mut i = (hash(k) as usize) & mask;
                while !matches!(self.slots[i], Slot::Empty) {
                    i = (i + 1) & mask;
                }
                self.slots[i] = Slot::Full(k, v);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cr_sim::check::{check, Config};
    use cr_sim::MessageId;
    use std::collections::HashMap;

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
        }
    }

    #[test]
    fn tombstones_do_not_break_probe_chains() {
        let mut m = KilledMap::new();
        for i in 0..1_000 {
            m.insert(worm(i, 0), Cycle::new(i));
        }
        // Prune the even half; the odd half must stay findable even
        // where its probe chains crossed now-deleted slots.
        m.retain(|t| t.as_u64() % 2 == 1);
        assert_eq!(m.len(), 500);
        for i in 0..1_000 {
            assert_eq!(m.contains(worm(i, 0)), i % 2 == 1, "key {i}");
        }
        // Reinserting over tombstones reclaims them.
        for i in 0..1_000 {
            m.insert(worm(i, 0), Cycle::new(i + 1));
        }
        assert_eq!(m.len(), 1_000);
    }

    /// The registry's exact workload shape against the std map:
    /// interleaved inserts, lookups and value-predicate prunes agree
    /// with `HashMap` at every step.
    #[test]
    fn matches_std_hashmap_model() {
        check("killmap_matches_hashmap", Config::default(), |src| {
            let mut m = KilledMap::new();
            let mut model: HashMap<WormId, Cycle> = HashMap::new();
            let ops = src.usize_in(0..400);
            for _ in 0..ops {
                match src.weighted(&[5, 3, 1]) {
                    0 => {
                        let k = worm(src.u64_in(0..64), src.u32_in(0..4));
                        let v = Cycle::new(src.u64_in(0..1_000));
                        m.insert(k, v);
                        model.insert(k, v);
                    }
                    1 => {
                        let k = worm(src.u64_in(0..64), src.u32_in(0..4));
                        assert_eq!(m.contains(k), model.contains_key(&k));
                    }
                    _ => {
                        let horizon = src.u64_in(0..1_000);
                        m.retain(|t| t.as_u64() >= horizon);
                        model.retain(|_, t| t.as_u64() >= horizon);
                    }
                }
                assert_eq!(m.len(), model.len());
            }
            for (&k, _) in &model {
                assert!(m.contains(k));
            }
        });
    }
}
