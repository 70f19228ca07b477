//! Pointer-free building blocks for per-component state: a FIFO
//! cursor over caller-owned slots, a small array that lives inline in
//! its owner, and a small set built on it.
//!
//! A queue that owns its storage is one heap block per queue. A router
//! has a queue per input VC and a link one per lane, and a streaming
//! visit touches one or two of them — so with one block each, every
//! visit would chase a pointer per queue. [`Ring`] is only the cursor:
//! the slots are a segment of one slab the owner holds for *all* its
//! queues, found by arithmetic on the queue's index. [`InlineArr`] is the
//! matching home for the handful of per-lane or per-VC records beside
//! it, and [`BitSet`] for the worklists that say which of them have
//! work.

use std::ops::{Deref, DerefMut};

/// The cursor of a bounded FIFO whose slots are a caller-owned slice:
/// every operation takes the queue's segment, whose length is the
/// capacity. One segment must always be paired with the same cursor.
///
/// # Examples
///
/// ```
/// use cr_sim::Ring;
///
/// let mut slab = [0u8; 4]; // two queues of two slots
/// let (mut a, mut b) = (Ring::default(), Ring::default());
/// a.push(&mut slab[..2], 1).unwrap();
/// b.push(&mut slab[2..], 9).unwrap();
/// a.push(&mut slab[..2], 2).unwrap();
/// assert_eq!(a.push(&mut slab[..2], 3), Err(3), "full: item handed back");
/// assert_eq!(a.pop(&slab[..2]), Some(1));
/// assert_eq!(b.front(&slab[2..]), Some(&9));
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Ring {
    /// Slot of the front element.
    head: u32,
    len: u32,
}

impl Ring {
    /// Number of queued elements.
    #[inline]
    pub fn len(&self) -> usize {
        self.len as usize
    }

    /// Returns `true` if nothing is queued.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Slot of queue position `i` in a segment of `cap` slots.
    #[inline]
    fn slot(&self, cap: usize, i: usize) -> usize {
        let at = self.head as usize + i;
        if at < cap {
            at
        } else {
            at - cap
        }
    }

    /// Appends `item` at the back, handing it back if all of `seg` is
    /// in use.
    #[inline]
    pub fn push<T>(&mut self, seg: &mut [T], item: T) -> Result<(), T> {
        if self.len() == seg.len() {
            return Err(item);
        }
        seg[self.slot(seg.len(), self.len())] = item;
        self.len += 1;
        Ok(())
    }

    /// Removes and returns the front element.
    #[inline]
    pub fn pop<T: Copy>(&mut self, seg: &[T]) -> Option<T> {
        let item = *self.front(seg)?;
        self.head += 1;
        if self.head as usize == seg.len() {
            self.head = 0;
        }
        self.len -= 1;
        Some(item)
    }

    /// The front element.
    #[inline]
    pub fn front<'a, T>(&self, seg: &'a [T]) -> Option<&'a T> {
        (self.len > 0).then(|| &seg[self.head as usize])
    }

    /// The front element, mutably.
    #[inline]
    pub fn front_mut<'a, T>(&self, seg: &'a mut [T]) -> Option<&'a mut T> {
        (self.len > 0).then(|| &mut seg[self.head as usize])
    }

    /// The element at queue position `i` (0 = front).
    #[inline]
    pub fn get<'a, T>(&self, seg: &'a [T], i: usize) -> Option<&'a T> {
        (i < self.len()).then(|| &seg[self.slot(seg.len(), i)])
    }

    /// The queued elements, front to back.
    pub fn iter<'a, T>(&self, seg: &'a [T]) -> impl ExactSizeIterator<Item = &'a T> {
        let ring = *self;
        (0..ring.len()).map(move |i| &seg[ring.slot(seg.len(), i)])
    }

    /// The queued elements, front to back, mutably.
    pub fn iter_mut<'a, T>(&self, seg: &'a mut [T]) -> impl Iterator<Item = &'a mut T> {
        // The queue is the run `head..` of the segment, wrapping to
        // its start past the end.
        let (wrapped, from_head) = seg.split_at_mut(self.head as usize);
        let first = self.len().min(from_head.len());
        let rest = self.len() - first;
        from_head[..first]
            .iter_mut()
            .chain(wrapped[..rest].iter_mut())
    }

    /// Removes the elements for which `keep` returns `false`,
    /// preserving the order of the rest; returns how many went.
    pub fn retain<T: Copy>(&mut self, seg: &mut [T], mut keep: impl FnMut(&T) -> bool) -> usize {
        let before = self.len();
        self.len = 0;
        for i in 0..before {
            let item = seg[self.slot(seg.len(), i)];
            if keep(&item) {
                // Writes trail reads, so nothing unread is overwritten.
                seg[self.slot(seg.len(), self.len())] = item;
                self.len += 1;
            }
        }
        before - self.len()
    }
}

/// A fixed-length array stored inside its owner while it has at most
/// `N` elements, in one heap block beyond — for per-VC and per-lane
/// records whose count is almost always tiny (one to three VCs) but
/// bounded only by the configuration. Dereferences to a slice of
/// exactly the length it was built with.
///
/// # Examples
///
/// ```
/// use cr_sim::InlineArr;
///
/// let mut small: InlineArr<u8, 4> = InlineArr::new(3, 7);
/// small[1] = 9;
/// assert_eq!(*small, [7, 9, 7]);
/// let big: InlineArr<u8, 4> = InlineArr::new(6, 0);
/// assert_eq!(big.len(), 6);
/// ```
#[derive(Debug, Clone)]
#[repr(C)] // the length and the first elements share a cache line
pub struct InlineArr<T, const N: usize> {
    len: usize,
    inline: [T; N],
    /// The elements when there are more than `N`; else empty (and
    /// unallocated).
    spill: Box<[T]>,
}

impl<T: Copy, const N: usize> InlineArr<T, N> {
    /// `len` copies of `fill`.
    pub fn new(len: usize, fill: T) -> Self {
        InlineArr {
            len,
            inline: [fill; N],
            spill: vec![fill; if len > N { len } else { 0 }].into(),
        }
    }
}

impl<T, const N: usize> Deref for InlineArr<T, N> {
    type Target = [T];

    #[inline]
    fn deref(&self) -> &[T] {
        // One test serves as the variant choice and the slice bound.
        if self.len <= N {
            &self.inline[..self.len]
        } else {
            &self.spill
        }
    }
}

impl<T, const N: usize> DerefMut for InlineArr<T, N> {
    #[inline]
    fn deref_mut(&mut self) -> &mut [T] {
        if self.len <= N {
            &mut self.inline[..self.len]
        } else {
            &mut self.spill
        }
    }
}

/// A set over a small fixed universe `0..n`, one bit per member — the
/// shape of a router's worklists. Membership changes are O(1), the
/// size is kept incrementally, and [`BitSet::next_in`] walks the
/// members of a range in ascending order a word at a time, so a stage
/// that visits only members costs `O(n / 64 + members)`, not `O(n)`.
/// The words sit inside the set while the universe has at most 64
/// members.
///
/// # Examples
///
/// ```
/// use cr_sim::BitSet;
///
/// let mut set = BitSet::new(100);
/// set.set(3, true);
/// set.set(70, true);
/// assert_eq!((set.len(), set.contains(70)), (2, true));
/// assert_eq!(set.next_in(4, 100), Some(70));
/// assert_eq!(set.next_in(4, 70), None);
/// ```
#[derive(Debug, Clone)]
pub struct BitSet {
    words: InlineArr<u64, 1>,
    len: usize,
}

impl BitSet {
    /// The empty set over `0..universe`.
    pub fn new(universe: usize) -> Self {
        BitSet {
            words: InlineArr::new(universe.div_ceil(64), 0),
            len: 0,
        }
    }

    /// Number of members.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Returns `true` if the set has no member.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Membership of `i`.
    #[inline]
    pub fn contains(&self, i: usize) -> bool {
        self.words[i / 64] >> (i % 64) & 1 != 0
    }

    /// Makes `i` a member (`on`) or not.
    #[inline]
    pub fn set(&mut self, i: usize, on: bool) {
        let bit = 1u64 << (i % 64);
        let word = &mut self.words[i / 64];
        if on != (*word & bit != 0) {
            *word ^= bit;
            if on {
                self.len += 1;
            } else {
                self.len -= 1;
            }
        }
    }

    /// The smallest member in `from..to`, if any.
    #[inline]
    pub fn next_in(&self, from: usize, to: usize) -> Option<usize> {
        let mut i = from;
        while i < to {
            let rest = self.words[i / 64] >> (i % 64);
            if rest != 0 {
                let member = i + rest.trailing_zeros() as usize;
                return (member < to).then_some(member);
            }
            i = (i / 64 + 1) * 64;
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::check::{check, Config};
    use std::collections::{BTreeSet, VecDeque};

    /// Against a `BTreeSet`, over universes on both sides of the 64
    /// members a set keeps inline (and of every further word edge).
    #[test]
    fn bit_set_matches_a_btree_set_model() {
        check(
            "bit_set_matches_a_btree_set_model",
            Config::cases(128),
            |src| {
                let universe = match src.weighted(&[3, 1]) {
                    0 => [1, 63, 64, 65, 127, 128, 129, 255][src.usize_in(0..8)],
                    _ => src.usize_in(1..300),
                };
                let (mut set, mut model) = (BitSet::new(universe), BTreeSet::new());
                for (i, on) in src.vec_with(0..200, |s| (s.usize_in(0..1 << 16), s.bool_any())) {
                    let i = i % universe;
                    set.set(i, on);
                    if on {
                        model.insert(i);
                    } else {
                        model.remove(&i);
                    }
                    assert_eq!((set.len(), set.is_empty()), (model.len(), model.is_empty()));
                    assert_eq!(set.contains(i), on);
                    let (from, to) = (i / 2, (i + universe).div_ceil(2));
                    assert_eq!(set.next_in(from, to), model.range(from..to).next().copied());
                }
                let mut members = Vec::new();
                let mut at = 0;
                while let Some(m) = set.next_in(at, universe) {
                    members.push(m);
                    at = m + 1;
                }
                assert!(members.iter().eq(model.iter()), "ascending walk");
            },
        );
    }

    /// Several rings over one slab against a `VecDeque` each, under
    /// random operation sequences: every call returns what the model
    /// returns, `retain` keeps order, `iter_mut` reaches every queued
    /// element in order and nothing else, contents read back equal through
    /// `get` and `iter` after every call (so wrap-around is exercised
    /// at every head position), a full ring refuses the push and hands
    /// the item back, and no ring ever writes outside its segment.
    #[test]
    fn ring_matches_a_vecdeque_model() {
        check("ring_matches_a_vecdeque_model", Config::cases(128), |src| {
            let queues = src.usize_in(1..4);
            let cap = src.usize_in(1..6); // capacity 1 included
            let mut slab = vec![0u32; queues * cap];
            let mut rings = vec![Ring::default(); queues];
            let mut models = vec![VecDeque::new(); queues];
            let ops = src.vec_with(1..200, |s| {
                (s.weighted(&[5, 4, 1, 1]), s.usize_in(0..1 << 16))
            });
            for (n, (op, a)) in ops.into_iter().enumerate() {
                let q = a % queues;
                let (ring, model) = (&mut rings[q], &mut models[q]);
                let seg = &mut slab[q * cap..(q + 1) * cap];
                let item = n as u32 + 1;
                match op {
                    0 if model.len() == cap => assert_eq!(ring.push(seg, item), Err(item)),
                    0 => {
                        model.push_back(item);
                        assert_eq!(ring.push(seg, item), Ok(()));
                    }
                    1 => assert_eq!(ring.pop(seg), model.pop_front()),
                    2 if a % 2 == 0 => {
                        let keep = |x: &u32| !(*x as usize + a).is_multiple_of(3);
                        let before = model.len();
                        model.retain(keep);
                        assert_eq!(ring.retain(seg, keep), before - model.len());
                    }
                    2 => {
                        for x in ring.iter_mut(seg) {
                            *x += 1 << 24;
                        }
                        for x in model.iter_mut() {
                            *x += 1 << 24;
                        }
                    }
                    _ => {
                        if let Some(front) = ring.front_mut(seg) {
                            *front += 1 << 20;
                        }
                        if let Some(front) = model.front_mut() {
                            *front += 1 << 20;
                        }
                    }
                }
                for (q, (ring, model)) in rings.iter().zip(&models).enumerate() {
                    let seg = &slab[q * cap..(q + 1) * cap];
                    assert_eq!(ring.len(), model.len());
                    assert_eq!(ring.is_empty(), model.is_empty());
                    assert_eq!(ring.front(seg), model.front());
                    assert!(ring.iter(seg).eq(model.iter()), "iteration order");
                    for i in 0..=model.len() {
                        assert_eq!(ring.get(seg, i), model.get(i));
                    }
                }
            }
        });
    }

    #[test]
    fn an_unallocated_segment_reads_empty_and_refuses_pushes() {
        let mut ring = Ring::default();
        let none: &mut [u8] = &mut [];
        assert_eq!(ring.front(none), None);
        assert_eq!(ring.pop(none), None);
        assert_eq!(ring.retain(none, |_| true), 0);
        assert_eq!(ring.iter_mut(none).count(), 0);
        assert_eq!(ring.push(none, 1), Err(1));
    }

    #[test]
    fn inline_arr_is_a_slice_of_its_length_on_both_sides_of_n() {
        for len in 0..=9 {
            let mut arr: InlineArr<usize, 4> = InlineArr::new(len, 0);
            assert_eq!(arr.spill.is_empty(), len <= 4);
            for (i, x) in arr.iter_mut().enumerate() {
                *x = i;
            }
            assert_eq!(*arr, (0..len).collect::<Vec<_>>()[..]);
            assert_eq!(*arr.clone(), *arr);
        }
    }
}
