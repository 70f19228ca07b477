//! A bounded FIFO ring buffer.
//!
//! [`Fifo`] is a finite buffer that owns its storage. Its capacity is
//! fixed at construction — wormhole flow control is entirely about
//! *finite* buffering, so an unbounded queue would silently break the
//! model. The simulator's own flit buffers (router input virtual
//! channels, injection FIFOs, link lanes) have the same contract but
//! are [`Ring`](crate::Ring) cursors over one slab per component; no
//! shipping code uses `Fifo` since PR 16.

use std::collections::VecDeque;
use std::fmt;

/// Error returned by [`Fifo::push`] when the buffer is full.
///
/// The rejected element is handed back so the caller can retry later
/// without cloning ([C-INTERMEDIATE]).
///
/// [C-INTERMEDIATE]: https://rust-lang.github.io/api-guidelines/flexibility.html
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FifoFullError<T>(pub T);

impl<T> fmt::Display for FifoFullError<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "fifo is full")
    }
}

impl<T: fmt::Debug> std::error::Error for FifoFullError<T> {}

/// A bounded first-in first-out queue.
///
/// # Examples
///
/// ```
/// use cr_sim::Fifo;
///
/// let mut f: Fifo<&str> = Fifo::with_capacity(2);
/// f.push("head").unwrap();
/// f.push("tail").unwrap();
/// assert!(f.push("overflow").is_err());
/// assert_eq!(f.pop(), Some("head"));
/// assert_eq!(f.free(), 1);
/// ```
#[derive(Debug, Clone)]
pub struct Fifo<T> {
    items: VecDeque<T>,
    capacity: usize,
}

impl<T> Fifo<T> {
    /// Creates an empty FIFO holding at most `capacity` elements.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero — a zero-capacity buffer cannot
    /// carry flits and always indicates a configuration bug.
    pub fn with_capacity(capacity: usize) -> Self {
        assert!(capacity > 0, "fifo capacity must be positive");
        Fifo {
            items: VecDeque::with_capacity(capacity),
            capacity,
        }
    }

    /// Maximum number of elements the FIFO can hold.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Current number of queued elements.
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// Returns `true` if no elements are queued.
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// Returns `true` if [`Fifo::push`] would fail.
    pub fn is_full(&self) -> bool {
        self.items.len() == self.capacity
    }

    /// Number of free slots.
    pub fn free(&self) -> usize {
        self.capacity - self.items.len()
    }

    /// Appends an element at the back.
    ///
    /// # Errors
    ///
    /// Returns [`FifoFullError`] carrying `item` back if the FIFO is at
    /// capacity.
    pub fn push(&mut self, item: T) -> Result<(), FifoFullError<T>> {
        if self.is_full() {
            Err(FifoFullError(item))
        } else {
            self.items.push_back(item);
            Ok(())
        }
    }

    /// Removes and returns the front element, or `None` if empty.
    pub fn pop(&mut self) -> Option<T> {
        self.items.pop_front()
    }

    /// Returns a reference to the front element without removing it.
    pub fn front(&self) -> Option<&T> {
        self.items.front()
    }

    /// Returns a mutable reference to the front element.
    pub fn front_mut(&mut self) -> Option<&mut T> {
        self.items.front_mut()
    }

    /// Removes all elements, returning how many were dropped.
    ///
    /// Used when a kill signal flushes a virtual-channel buffer.
    pub fn clear(&mut self) -> usize {
        let n = self.items.len();
        self.items.clear();
        n
    }

    /// Removes the elements for which `keep` returns `false`, preserving
    /// the order of the remainder; returns how many were removed.
    pub fn retain<F: FnMut(&T) -> bool>(&mut self, mut keep: F) -> usize {
        let before = self.items.len();
        self.items.retain(|x| keep(x));
        before - self.items.len()
    }

    /// Returns the element at queue position `i` (0 = front), or
    /// `None` past the back.
    pub fn get(&self, i: usize) -> Option<&T> {
        self.items.get(i)
    }

    /// Iterates over queued elements from front to back.
    pub fn iter(&self) -> impl Iterator<Item = &T> {
        self.items.iter()
    }
}

impl<T> Extend<T> for Fifo<T> {
    /// Extends the FIFO from an iterator.
    ///
    /// # Panics
    ///
    /// Panics if the iterator yields more elements than there are free
    /// slots; use [`Fifo::push`] for fallible insertion.
    fn extend<I: IntoIterator<Item = T>>(&mut self, iter: I) {
        for item in iter {
            if self.push(item).is_err() {
                // cr-lint: allow(panic-discipline, reason = "documented contract of the std Extend trait impl, which cannot return an error; callers wanting fallible insertion are pointed at Fifo::push")
                panic!("extend overflowed fifo capacity {}", self.capacity);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn basic_order() {
        let mut f = Fifo::with_capacity(3);
        f.push(1).unwrap();
        f.push(2).unwrap();
        f.push(3).unwrap();
        assert_eq!(f.pop(), Some(1));
        assert_eq!(f.pop(), Some(2));
        assert_eq!(f.pop(), Some(3));
        assert_eq!(f.pop(), None);
    }

    #[test]
    fn capacity_enforced_and_item_returned() {
        let mut f = Fifo::with_capacity(1);
        f.push("a").unwrap();
        let err = f.push("b").unwrap_err();
        assert_eq!(err.0, "b");
        assert!(f.is_full());
        assert_eq!(f.free(), 0);
    }

    #[test]
    fn clear_reports_count() {
        let mut f = Fifo::with_capacity(4);
        f.extend([1, 2, 3]);
        assert_eq!(f.clear(), 3);
        assert!(f.is_empty());
    }

    #[test]
    fn retain_filters_in_order() {
        let mut f = Fifo::with_capacity(8);
        f.extend(0..8);
        let removed = f.retain(|x| x % 2 == 0);
        assert_eq!(removed, 4);
        let left: Vec<i32> = f.iter().copied().collect();
        assert_eq!(left, vec![0, 2, 4, 6]);
    }

    #[test]
    fn front_access() {
        let mut f = Fifo::with_capacity(2);
        assert!(f.front().is_none());
        f.push(10).unwrap();
        assert_eq!(f.front(), Some(&10));
        *f.front_mut().unwrap() = 11;
        assert_eq!(f.pop(), Some(11));
    }

    #[test]
    #[should_panic]
    fn zero_capacity_rejected() {
        let _ = Fifo::<u8>::with_capacity(0);
    }

    #[test]
    #[should_panic]
    fn extend_overflow_panics() {
        let mut f = Fifo::with_capacity(1);
        f.extend([1, 2]);
    }

    #[test]
    fn wraparound_reuse() {
        // Exercise ring-buffer behaviour across many push/pop cycles.
        let mut f = Fifo::with_capacity(2);
        for i in 0..100 {
            f.push(i).unwrap();
            assert_eq!(f.pop(), Some(i));
        }
        assert!(f.is_empty());
    }
}
