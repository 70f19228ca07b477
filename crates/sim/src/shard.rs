//! Deterministic spatial partitioning for intra-simulation sharding.
//!
//! The sharded network stepper (DESIGN.md §12) splits one simulation
//! into `N` **spatial shards** — contiguous node-id ranges — and steps
//! them in parallel between phase barriers. This module owns the
//! partition itself:
//!
//! * [`Plan`] — a validated list of shard boundaries over
//!   `0..num_nodes`. Every node belongs to exactly one shard; shards
//!   are contiguous and ordered, so concatenating per-shard sorted
//!   work-lists reproduces the global ascending order the serial
//!   stepper uses. Empty shards are legal (a plan may have more
//!   shards than nodes).
//! * [`even_bounds`] — the default boundary layout: `num_nodes`
//!   divided as evenly as possible, earlier shards taking the
//!   remainder. Topologies may override this with a fabric-aware
//!   hint (`Topology::partition_hint`), which a [`Plan`] then
//!   sanitizes.
//! * [`effective_shards`] — resolves the shard count for a run the
//!   same way `pool::effective_jobs` resolves the thread count:
//!   explicit request first, then the `CR_SHARDS` environment
//!   variable, then 1 (serial). Sharding never switches on
//!   implicitly: results are byte-identical at any shard count, but
//!   the knob stays an explicit opt-in.
//!
//! The plan is pure arithmetic over ids — no RNG, no topology access
//! — so two runs of the same configuration always partition
//! identically, which is the first link in the sharded stepper's
//! determinism chain.
//!
//! # Examples
//!
//! ```
//! use cr_sim::shard::Plan;
//!
//! let plan = Plan::contiguous(10, 3);
//! assert_eq!(plan.num_shards(), 3);
//! assert_eq!(plan.range(0), 0..4); // earlier shards take the slack
//! assert_eq!(plan.range(1), 4..7);
//! assert_eq!(plan.range(2), 7..10);
//! assert_eq!(plan.shard_of(6), 1);
//! ```

/// Evenly split `num_nodes` ids into `shards` contiguous ranges,
/// returned as `shards + 1` boundary values (`bounds[s]..bounds[s+1]`
/// is shard `s`). Earlier shards absorb the remainder, so sizes
/// differ by at most one. A zero shard request is bumped to one.
pub fn even_bounds(num_nodes: usize, shards: usize) -> Vec<u32> {
    let shards = shards.max(1);
    let base = num_nodes / shards;
    let extra = num_nodes % shards;
    let mut bounds = Vec::with_capacity(shards + 1);
    let mut at = 0usize;
    bounds.push(0);
    for s in 0..shards {
        at += base + usize::from(s < extra);
        // cr-lint: allow(integer-narrowing, reason = "at never exceeds num_nodes, and node counts are u32-dense")
        bounds.push(at as u32);
    }
    bounds
}

/// Resolves how many spatial shards a network should step with.
///
/// Priority: `request` (if `Some` and non-zero) → the `CR_SHARDS`
/// environment variable (if set and parseable as a non-zero integer)
/// → 1 (the serial stepper). Mirrors
/// [`pool::effective_jobs`](crate::pool::effective_jobs), except the
/// default is serial: sharding is byte-identical but still an
/// explicit opt-in.
pub fn effective_shards(request: Option<usize>) -> usize {
    if let Some(n) = request {
        if n > 0 {
            return n;
        }
    }
    std::env::var("CR_SHARDS")
        .ok()
        .and_then(|v| v.parse::<usize>().ok())
        .filter(|&n| n > 0)
        .unwrap_or(1)
}

/// A validated spatial partition: `num_shards` contiguous node-id
/// ranges exactly covering `0..num_nodes`. See the module docs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Plan {
    /// `num_shards + 1` nondecreasing boundaries; first 0, last
    /// `num_nodes`.
    bounds: Vec<u32>,
}

impl Plan {
    /// The default plan: [`even_bounds`] over `num_nodes`.
    pub fn contiguous(num_nodes: usize, shards: usize) -> Plan {
        Plan {
            bounds: even_bounds(num_nodes, shards),
        }
    }

    /// Builds a plan from a topology-provided boundary hint,
    /// sanitizing it into a valid partition: boundaries are clamped
    /// to `0..=num_nodes` and forced nondecreasing (each boundary is
    /// raised to at least its predecessor), the endpoints are pinned
    /// to `0` and `num_nodes`, and a hint with the wrong boundary
    /// count falls back to [`even_bounds`]. The result always has
    /// exactly `shards` shards covering every node once.
    pub fn from_hint(hint: Vec<u32>, num_nodes: usize, shards: usize) -> Plan {
        let shards = shards.max(1);
        let mut bounds = if hint.len() == shards + 1 {
            hint
        } else {
            even_bounds(num_nodes, shards)
        };
        // cr-lint: allow(integer-narrowing, reason = "node counts are u32-dense (NodeId is u32-backed)")
        let n = num_nodes as u32;
        bounds[0] = 0;
        for i in 1..bounds.len() {
            bounds[i] = bounds[i].min(n).max(bounds[i - 1]);
        }
        bounds[shards] = n;
        // Pinning the last boundary can break monotonicity only if a
        // middle boundary exceeded `n`; the clamp above rules that
        // out.
        debug_assert!(bounds.windows(2).all(|w| w[0] <= w[1]));
        Plan { bounds }
    }

    /// Number of shards (≥ 1; some may be empty).
    pub fn num_shards(&self) -> usize {
        self.bounds.len() - 1
    }

    /// Number of nodes covered.
    pub fn num_nodes(&self) -> usize {
        *self.bounds.last().unwrap_or(&0) as usize
    }

    /// `true` when the plan is a single shard — the serial stepper.
    pub fn is_serial(&self) -> bool {
        self.num_shards() == 1
    }

    /// The contiguous node-id range owned by shard `s`.
    ///
    /// # Panics
    ///
    /// Panics if `s >= num_shards()`.
    pub fn range(&self, s: usize) -> std::ops::Range<usize> {
        self.bounds[s] as usize..self.bounds[s + 1] as usize
    }

    /// The shard owning `node`. For a boundary between an empty and a
    /// non-empty shard, the owning (non-empty) shard is returned.
    ///
    /// # Panics
    ///
    /// Panics if `node >= num_nodes()`.
    pub fn shard_of(&self, node: u32) -> usize {
        assert!((node as usize) < self.num_nodes(), "node out of range");
        // The last boundary <= node, skipping boundary 0: the number
        // of interior boundaries at or below `node`.
        self.bounds[1..self.bounds.len() - 1].partition_point(|&b| b <= node)
    }

    /// Per-node shard-owner table (`table[node] == shard_of(node)`),
    /// the O(1) lookup the hot stepper paths use.
    pub fn owner_table(&self) -> Vec<u16> {
        let mut table = Vec::with_capacity(self.num_nodes());
        for s in 0..self.num_shards() {
            for _ in self.range(s) {
                // cr-lint: allow(integer-narrowing, reason = "shard counts are tiny (bounded by the host's core count)")
                table.push(s as u16);
            }
        }
        table
    }

    /// The boundary list (`num_shards() + 1` values).
    pub fn bounds(&self) -> &[u32] {
        &self.bounds
    }
}

/// Per-shard chunked storage with flat global indexing.
///
/// The persistent-team stepper (DESIGN.md §12) hands each worker
/// *ownership* of its shard's state for the duration of a phase — safe
/// Rust cannot lend `&mut` slices of one `Vec` to long-lived threads.
/// `Sharded<T>` stores the elements as one `Vec` per shard so a whole
/// chunk moves in and out by `O(1)` [`Sharded::take_chunk`] /
/// [`Sharded::put_chunk`], while [`std::ops::Index`] by the original
/// flat index keeps every serial call site unchanged (a single-chunk
/// `Sharded` — the serial steppers — indexes with no extra cost beyond
/// one pointer hop).
///
/// Iteration order is always ascending flat order: chunk 0 first, in
/// order, then chunk 1, and so on — identical to iterating the
/// original flat `Vec`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Sharded<T> {
    chunks: Vec<Vec<T>>,
    /// `chunks.len() + 1` prefix sums: chunk `c` holds flat indices
    /// `offsets[c]..offsets[c + 1]`.
    offsets: Vec<usize>,
}

impl<T> Sharded<T> {
    /// Splits `items` into chunks of the given `sizes` (which must sum
    /// to `items.len()`), preserving order.
    pub fn from_flat(mut items: Vec<T>, sizes: &[usize]) -> Sharded<T> {
        let total: usize = sizes.iter().sum();
        assert_eq!(total, items.len(), "chunk sizes must cover all items");
        let mut offsets = Vec::with_capacity(sizes.len() + 1);
        let mut chunks = Vec::with_capacity(sizes.len().max(1));
        offsets.push(0);
        let mut at = 0usize;
        // Split back-to-front so each chunk is a cheap split_off tail.
        let mut cut_points = Vec::with_capacity(sizes.len());
        for &size in sizes {
            cut_points.push(at);
            at += size;
            offsets.push(at);
        }
        for &cut in cut_points.iter().skip(1).rev() {
            chunks.push(items.split_off(cut));
        }
        // What is left is the first chunk, in the buffer it was built
        // in: `split_off(0)` would copy every element, and a one-shard
        // plan is all first chunk. (With no chunks requested it is the
        // one empty chunk the single-chunk fast path needs.)
        items.shrink_to_fit();
        chunks.push(items);
        chunks.reverse();
        if sizes.is_empty() {
            offsets = vec![0, 0];
        }
        Sharded { chunks, offsets }
    }

    /// All elements in one chunk — the layout every serial stepper
    /// uses.
    pub fn single(items: Vec<T>) -> Sharded<T> {
        let offsets = vec![0, items.len()];
        Sharded {
            chunks: vec![items],
            offsets,
        }
    }

    /// Total element count across all chunks.
    pub fn len(&self) -> usize {
        *self.offsets.last().unwrap_or(&0)
    }

    /// `true` when no chunk holds any element.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of chunks (≥ 1).
    pub fn num_chunks(&self) -> usize {
        self.chunks.len()
    }

    /// Maps a flat index to `(chunk, local)` — `O(1)` for single-chunk
    /// layouts, `O(log chunks)` otherwise.
    fn locate(&self, index: usize) -> (usize, usize) {
        if self.chunks.len() == 1 {
            return (0, index);
        }
        let interior = &self.offsets[1..self.offsets.len() - 1];
        let c = interior.partition_point(|&b| b <= index);
        (c, index - self.offsets[c])
    }

    /// Chunk `c` as a mutable slice: the in-place counterpart of
    /// [`Sharded::take_chunk`], for callers that work on the chunk
    /// without moving it.
    pub fn chunk_mut(&mut self, c: usize) -> &mut [T] {
        &mut self.chunks[c]
    }

    /// Moves chunk `c` out, leaving it empty. Pair with
    /// [`Sharded::put_chunk`] before the next flat access to that
    /// range.
    pub fn take_chunk(&mut self, c: usize) -> Vec<T> {
        std::mem::take(&mut self.chunks[c])
    }

    /// Restores chunk `c` after a [`Sharded::take_chunk`]; the length
    /// must match the chunk's flat range.
    pub fn put_chunk(&mut self, c: usize, chunk: Vec<T>) {
        debug_assert_eq!(
            chunk.len(),
            self.offsets[c + 1] - self.offsets[c],
            "restored chunk changed size"
        );
        self.chunks[c] = chunk;
    }

    /// Iterates all elements in ascending flat order.
    pub fn iter(&self) -> impl Iterator<Item = &T> {
        self.chunks.iter().flatten()
    }

    /// Mutably iterates all elements in ascending flat order.
    pub fn iter_mut(&mut self) -> impl Iterator<Item = &mut T> {
        self.chunks.iter_mut().flatten()
    }
}

impl<T> std::ops::Index<usize> for Sharded<T> {
    type Output = T;
    fn index(&self, index: usize) -> &T {
        let (c, local) = self.locate(index);
        &self.chunks[c][local]
    }
}

impl<T> std::ops::IndexMut<usize> for Sharded<T> {
    fn index_mut(&mut self, index: usize) -> &mut T {
        let (c, local) = self.locate(index);
        &mut self.chunks[c][local]
    }
}

impl<'a, T> IntoIterator for &'a Sharded<T> {
    type Item = &'a T;
    type IntoIter = std::iter::Flatten<std::slice::Iter<'a, Vec<T>>>;
    fn into_iter(self) -> Self::IntoIter {
        self.chunks.iter().flatten()
    }
}

impl<'a, T> IntoIterator for &'a mut Sharded<T> {
    type Item = &'a mut T;
    type IntoIter = std::iter::Flatten<std::slice::IterMut<'a, Vec<T>>>;
    fn into_iter(self) -> Self::IntoIter {
        self.chunks.iter_mut().flatten()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::check::{check, Config};

    #[test]
    fn even_bounds_cover_exactly() {
        assert_eq!(even_bounds(10, 3), vec![0, 4, 7, 10]);
        assert_eq!(even_bounds(4, 1), vec![0, 4]);
        assert_eq!(even_bounds(0, 3), vec![0, 0, 0, 0]);
        assert_eq!(even_bounds(2, 5), vec![0, 1, 2, 2, 2, 2]);
        assert_eq!(even_bounds(6, 0), vec![0, 6], "zero shards bumped to one");
    }

    #[test]
    fn shard_of_matches_ranges() {
        let plan = Plan::contiguous(10, 3);
        for s in 0..plan.num_shards() {
            for node in plan.range(s) {
                assert_eq!(plan.shard_of(node as u32), s, "node {node}");
            }
        }
        assert_eq!(plan.owner_table(), vec![0, 0, 0, 0, 1, 1, 1, 2, 2, 2]);
    }

    #[test]
    fn more_shards_than_nodes_leaves_empty_tails() {
        let plan = Plan::contiguous(2, 5);
        assert_eq!(plan.num_shards(), 5);
        assert_eq!(plan.range(0), 0..1);
        assert_eq!(plan.range(1), 1..2);
        for s in 2..5 {
            assert!(plan.range(s).is_empty());
        }
        assert_eq!(plan.shard_of(1), 1);
    }

    #[test]
    fn from_hint_sanitizes_bad_hints() {
        // Wrong boundary count: falls back to even.
        let p = Plan::from_hint(vec![0, 10], 10, 3);
        assert_eq!(p, Plan::contiguous(10, 3));
        // Non-monotone and out-of-range boundaries are repaired.
        let p = Plan::from_hint(vec![3, 9, 2, 99], 10, 3);
        assert_eq!(p.bounds(), &[0, 9, 9, 10]);
        assert_eq!(p.num_nodes(), 10);
        // A good hint passes through unchanged.
        let p = Plan::from_hint(vec![0, 6, 8, 10], 10, 3);
        assert_eq!(p.bounds(), &[0, 6, 8, 10]);
    }

    #[test]
    fn effective_shards_explicit_request_wins() {
        assert_eq!(effective_shards(Some(4)), 4);
        // Zero request falls through to env/default; without CR_SHARDS
        // in the test environment the default is serial.
        assert!(effective_shards(Some(0)) >= 1);
        assert!(effective_shards(None) >= 1);
    }

    #[test]
    fn sharded_from_flat_indexes_like_the_flat_vec() {
        let flat: Vec<u64> = (0..10).collect();
        let sharded = Sharded::from_flat(flat.clone(), &[4, 3, 3]);
        assert_eq!(sharded.len(), 10);
        assert_eq!(sharded.num_chunks(), 3);
        for (i, &v) in flat.iter().enumerate() {
            assert_eq!(sharded[i], v, "flat index {i}");
        }
        assert_eq!(sharded.iter().copied().collect::<Vec<_>>(), flat);
        assert_eq!((&sharded).into_iter().count(), 10);
    }

    #[test]
    fn sharded_single_chunk_fast_path() {
        let mut s = Sharded::single((0..6u32).collect());
        assert_eq!(s.num_chunks(), 1);
        s[3] = 99;
        assert_eq!(s[3], 99);
        assert_eq!(s.len(), 6);
    }

    #[test]
    fn sharded_take_put_roundtrip() {
        let mut s = Sharded::from_flat((0..10u32).collect(), &[4, 3, 3]);
        let mid = s.take_chunk(1);
        assert_eq!(mid, vec![4, 5, 6]);
        // Other chunks stay addressable while one is out.
        assert_eq!(s[0], 0);
        assert_eq!(s[9], 9);
        s.put_chunk(1, mid);
        assert_eq!(s.iter().copied().collect::<Vec<_>>(), (0..10).collect::<Vec<_>>());
        s.chunk_mut(2)[0] = 70;
        assert_eq!(s.chunk_mut(1), [4, 5, 6]);
        assert_eq!(s[7], 70);
    }

    #[test]
    fn sharded_empty_chunks_and_zero_sizes() {
        let s = Sharded::from_flat(vec![1u8, 2], &[0, 2, 0]);
        assert_eq!(s.num_chunks(), 3);
        assert_eq!(s[0], 1);
        assert_eq!(s[1], 2);
        let empty: Sharded<u8> = Sharded::from_flat(Vec::new(), &[]);
        assert!(empty.is_empty());
        assert_eq!(empty.num_chunks(), 1);
    }

    /// Property: splitting a random flat vec by any plan's shard sizes
    /// preserves flat indexing, iteration order, and mutation through
    /// `IndexMut`.
    #[test]
    fn prop_sharded_matches_flat() {
        check("shard_sharded_matches_flat", Config::cases(100), |src| {
            let n = src.usize_in(0..200);
            let shards = src.usize_in(1..9);
            let plan = Plan::contiguous(n, shards);
            let sizes: Vec<usize> = (0..plan.num_shards()).map(|s| plan.range(s).len()).collect();
            let mut flat: Vec<u64> = (0..n as u64).map(|i| i * 31).collect();
            let mut sharded = Sharded::from_flat(flat.clone(), &sizes);
            assert_eq!(sharded.len(), n);
            for i in 0..n {
                assert_eq!(sharded[i], flat[i]);
            }
            if n > 0 {
                let at = src.usize_in(0..n);
                sharded[at] += 7;
                flat[at] += 7;
            }
            assert_eq!(sharded.iter().copied().collect::<Vec<_>>(), flat);
            assert_eq!(
                (&mut sharded).into_iter().map(|v| *v).collect::<Vec<_>>(),
                flat
            );
        });
    }

    /// Property: any plan (from even splits or arbitrary hints, any
    /// shard count including 0, 1 and more shards than nodes) is a
    /// disjoint exact cover of `0..num_nodes`, and `shard_of` agrees
    /// with `range` and `owner_table` everywhere.
    #[test]
    fn plans_are_disjoint_exact_covers() {
        check("shard_plan_cover", Config::cases(200), |src| {
            let num_nodes = src.usize_in(0..300);
            let shards = src.usize_in(0..12);
            let plan = if src.bool_any() {
                Plan::contiguous(num_nodes, shards)
            } else {
                let hint = src.vec_with(0..14, |s| s.u32_in(0..400));
                Plan::from_hint(hint, num_nodes, shards)
            };
            assert_eq!(plan.num_shards(), shards.max(1));
            assert_eq!(plan.num_nodes(), num_nodes);
            // Exact cover: ranges tile 0..num_nodes in order.
            let mut at = 0usize;
            for s in 0..plan.num_shards() {
                let r = plan.range(s);
                assert_eq!(r.start, at, "shard {s} not contiguous");
                assert!(r.end >= r.start);
                at = r.end;
            }
            assert_eq!(at, num_nodes, "ranges must cover every node");
            // Disjoint ownership: every node names exactly one shard,
            // consistent with the O(1) table.
            let table = plan.owner_table();
            assert_eq!(table.len(), num_nodes);
            for node in 0..num_nodes {
                let s = plan.shard_of(node as u32);
                assert!(plan.range(s).contains(&node));
                assert_eq!(table[node], s as u16);
            }
        });
    }
}
