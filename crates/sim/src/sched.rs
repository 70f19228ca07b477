//! Bitset active sets for the simulator's cycle scheduler.
//!
//! The network's active-set stepper (DESIGN.md §10) keeps one
//! [`ActiveSet`] per component class — links, routers, injectors — so
//! each cycle phase walks only the components that can possibly do
//! work. The representation is a **two-level bitset**:
//!
//! * one membership bit per id, packed into 64-bit **words**, and
//! * one **summary** bit per word, set exactly while the word is
//!   non-zero, so a walk skips 4 096 absent ids per summary word.
//!
//! No hashing and no sorting anywhere (the cr-lint `hash-collections`
//! rule bans `HashMap`/`HashSet` on result paths): insertion is O(1)
//! and duplicate-free, and a walk — summary words ascending, set bits
//! by `trailing_zeros` — meets the members in **ascending id order**
//! for free, in `O(capacity / 4096 + members)`. That is exactly the
//! order the dense reference stepper visits components in, which is
//! what keeps shared-RNG draw order, and therefore every simulation
//! result, byte-identical.
//!
//! The intended per-cycle usage is *drain-and-rebuild*: the phase that
//! owns a set drains it into a scratch list, processes each member,
//! and re-inserts the ones that remain active. A phase that only reads
//! a set walks it in place with [`ActiveSet::iter`].
//!
//! # Examples
//!
//! ```
//! use cr_sim::sched::ActiveSet;
//!
//! let mut set = ActiveSet::new(8);
//! set.insert(5);
//! set.insert(2);
//! assert!(set.insert(5) == false, "already a member");
//! assert!(set.contains(2));
//! assert_eq!(set.iter().collect::<Vec<_>>(), [2, 5]);
//!
//! let mut scratch = Vec::new();
//! set.drain_sorted_into(&mut scratch);
//! assert_eq!(scratch, [2, 5]);
//! assert!(set.is_empty());
//! ```

/// A dense set of component ids in `0..capacity`, with O(1) insert
/// and membership test and ascending walks. See the module docs.
#[derive(Debug, Clone)]
pub struct ActiveSet {
    /// Bit `id % 64` of `words[id / 64]` marks membership.
    words: Vec<u64>,
    /// Bit `w % 64` of `summary[w / 64]` is set iff `words[w] != 0`.
    summary: Vec<u64>,
    /// Number of members.
    len: usize,
    /// Ids are `0..capacity`.
    capacity: usize,
}

/// The set bit positions of a word, ascending.
struct Bits(u64);

impl Iterator for Bits {
    type Item = u32;

    fn next(&mut self) -> Option<u32> {
        if self.0 == 0 {
            return None;
        }
        let bit = self.0.trailing_zeros();
        self.0 &= self.0 - 1;
        Some(bit)
    }
}

impl ActiveSet {
    /// Creates an empty set over ids `0..capacity`.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` does not fit in `u32`.
    pub fn new(capacity: usize) -> ActiveSet {
        assert!(
            u32::try_from(capacity).is_ok(),
            "active-set ids must fit in u32"
        );
        let words = capacity.div_ceil(64);
        ActiveSet {
            words: vec![0; words],
            summary: vec![0; words.div_ceil(64)],
            len: 0,
            capacity,
        }
    }

    /// Number of members.
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` when no component is active.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Membership test.
    ///
    /// # Panics
    ///
    /// Panics if `id` is not below the capacity.
    #[inline]
    pub fn contains(&self, id: u32) -> bool {
        assert!((id as usize) < self.capacity, "id out of range");
        self.words[id as usize / 64] & (1 << (id % 64)) != 0
    }

    /// Inserts `id`; returns `true` if it was not already a member.
    ///
    /// # Panics
    ///
    /// Panics if `id` is not below the capacity — also where the id
    /// would land in the padding of the last word.
    #[inline]
    pub fn insert(&mut self, id: u32) -> bool {
        assert!((id as usize) < self.capacity, "id out of range");
        let w = id as usize / 64;
        let bit = 1 << (id % 64);
        if self.words[w] & bit != 0 {
            return false;
        }
        self.words[w] |= bit;
        self.summary[w / 64] |= 1 << (w % 64);
        self.len += 1;
        true
    }

    /// Removes `id`; returns `true` if it was a member.
    ///
    /// # Panics
    ///
    /// Panics if `id` is not below the capacity.
    #[inline]
    pub fn remove(&mut self, id: u32) -> bool {
        assert!((id as usize) < self.capacity, "id out of range");
        let w = id as usize / 64;
        let bit = 1 << (id % 64);
        if self.words[w] & bit == 0 {
            return false;
        }
        self.words[w] &= !bit;
        if self.words[w] == 0 {
            self.summary[w / 64] &= !(1 << (w % 64));
        }
        self.len -= 1;
        true
    }

    /// The members in ascending id order (the set is left as is).
    ///
    /// Word indices and ids are computed in `u32`: the constructor
    /// bounds `capacity`, and so every index, by `u32::MAX`.
    pub fn iter(&self) -> impl Iterator<Item = u32> + '_ {
        (0u32..).zip(&self.summary).flat_map(move |(s, &summary)| {
            Bits(summary).flat_map(move |b| {
                let w = s * 64 + b;
                Bits(self.words[w as usize]).map(move |bit| w * 64 + bit)
            })
        })
    }

    /// Empties the set, appending its members to `out` in ascending id
    /// order: `O(capacity / 4096 + len)`, and every word and summary
    /// bit visited is left zero.
    pub fn drain_sorted_into(&mut self, out: &mut Vec<u32>) {
        out.reserve(self.len);
        for (s, summary) in (0u32..).zip(&mut self.summary) {
            for b in Bits(std::mem::take(summary)) {
                let w = s * 64 + b;
                let word = std::mem::take(&mut self.words[w as usize]);
                out.extend(Bits(word).map(|bit| w * 64 + bit));
            }
        }
        self.len = 0;
    }

    /// Removes every member.
    pub fn clear(&mut self) {
        for (s, summary) in self.summary.iter_mut().enumerate() {
            for b in Bits(std::mem::take(summary)) {
                self.words[s * 64 + b as usize] = 0;
            }
        }
        self.len = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::check::{check, Config};
    use std::collections::BTreeSet;

    #[test]
    fn insert_contains_drain_roundtrip() {
        let mut s = ActiveSet::new(10);
        assert!(s.is_empty());
        assert!(s.insert(7));
        assert!(s.insert(3));
        assert!(s.insert(7) == false);
        assert_eq!(s.len(), 2);
        assert!(s.contains(3) && s.contains(7) && !s.contains(4));
        let mut out = Vec::new();
        s.drain_sorted_into(&mut out);
        assert_eq!(out, [3, 7]);
        assert!(s.is_empty() && !s.contains(3));
        // Reusable after a drain.
        assert!(s.insert(3));
        assert_eq!(s.len(), 1);
    }

    #[test]
    fn iter_exposes_ascending_members() {
        let mut s = ActiveSet::new(100);
        for id in [42, 9, 77, 9, 0, 64, 63] {
            s.insert(id);
        }
        assert_eq!(s.iter().collect::<Vec<_>>(), [0, 9, 42, 63, 64, 77]);
        assert_eq!(s.len(), 6, "iter leaves the set as is");
    }

    #[test]
    fn clear_resets_membership() {
        let mut s = ActiveSet::new(4);
        s.insert(1);
        s.insert(2);
        s.clear();
        assert!(s.is_empty());
        assert!(!s.contains(1));
        assert!(s.insert(1));
    }

    #[test]
    fn empty_capacity_is_a_valid_empty_set() {
        let mut s = ActiveSet::new(0);
        assert!(s.is_empty() && s.iter().next().is_none());
        let mut out = Vec::new();
        s.drain_sorted_into(&mut out);
        s.clear();
        assert!(out.is_empty());
    }

    #[test]
    #[should_panic(expected = "id out of range")]
    fn insert_at_capacity_panics_inside_the_last_word() {
        ActiveSet::new(70).insert(70);
    }

    #[test]
    #[should_panic(expected = "id out of range")]
    fn contains_at_capacity_panics_inside_the_last_word() {
        ActiveSet::new(70).contains(70);
    }

    /// Model check against `BTreeSet`, over capacities on both sides of
    /// the word (64) and summary-word (4 096) boundaries: arbitrary
    /// interleavings of insert / remove / contains / iter / drain / clear agree
    /// with the reference set, walks come out ascending and exact, and
    /// a drain or clear leaves no stale word or summary bit behind
    /// (every later walk still equals the model).
    #[test]
    fn matches_reference_set_semantics() {
        const CAPS: [usize; 12] = [
            1, 2, 63, 64, 65, 127, 129, 4_095, 4_096, 4_097, 8_193, 70_000,
        ];
        check("active_set_model", Config::cases(200), |src| {
            let cap = CAPS[src.usize_in(0..CAPS.len())];
            let mut sut = ActiveSet::new(cap);
            let mut model: BTreeSet<u32> = BTreeSet::new();
            // Ids cluster at the low end, at the high end and around
            // the 64 / 4 096 boundaries, where the off-by-ones live.
            let id = |src: &mut crate::check::Source<'_>| {
                let near = [0, cap - 1, 64, 4_096, cap / 2][src.usize_in(0..5)];
                let jitter = src.usize_in(0..5);
                ((near + jitter).saturating_sub(2)).min(cap - 1) as u32
            };
            let steps = src.usize_in(0..81);
            for _ in 0..steps {
                match src.usize_in(0..12) {
                    0..=3 => {
                        let id = id(src);
                        assert_eq!(sut.insert(id), model.insert(id));
                    }
                    4..=5 => {
                        let id = id(src);
                        assert_eq!(sut.remove(id), model.remove(&id));
                    }
                    6..=7 => {
                        let id = id(src);
                        assert_eq!(sut.contains(id), model.contains(&id));
                    }
                    8..=9 => {
                        assert!(
                            sut.iter().eq(model.iter().copied()),
                            "iter is ascending + exact"
                        );
                    }
                    10 => {
                        let mut out = Vec::new();
                        sut.drain_sorted_into(&mut out);
                        let expect: Vec<u32> = std::mem::take(&mut model).into_iter().collect();
                        assert_eq!(out, expect, "drain is ascending + exact");
                    }
                    _ => {
                        sut.clear();
                        model.clear();
                    }
                }
                assert_eq!(sut.len(), model.len());
                assert_eq!(sut.is_empty(), model.is_empty());
            }
            assert!(sut.iter().eq(model.iter().copied()));
        });
    }
}
