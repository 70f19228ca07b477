//! k-ary n-cube meshes and tori — the paper's evaluation topologies.

use crate::topology::Topology;
use cr_sim::{LinkId, NodeId, PortId};

/// A k-ary n-cube: `dims` dimensions of radix `radix`, with or without
/// wraparound channels.
///
/// With wraparound this is a **torus** (the paper's main topology); the
/// torus channel-dependency cycle is exactly why dimension-order routing
/// needs two virtual channels there while Compressionless Routing needs
/// none. Without wraparound it is a **mesh**.
///
/// Node `i` has coordinates obtained by writing `i` in base `radix`,
/// least-significant digit = dimension 0. Dimension `d` uses output port
/// `2d` toward increasing coordinate and `2d + 1` toward decreasing
/// coordinate.
///
/// # Examples
///
/// ```
/// use cr_topology::{KAryNCube, Topology};
///
/// let t = KAryNCube::torus(8, 2);
/// assert_eq!(t.num_nodes(), 64);
/// assert_eq!(t.num_links(), 64 * 4);
///
/// let m = KAryNCube::mesh(4, 3);
/// assert_eq!(m.num_nodes(), 64);
/// assert_eq!(m.label(), "4-ary 3-cube mesh");
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct KAryNCube {
    radix: usize,
    dims: usize,
    wrap: bool,
}

impl KAryNCube {
    /// Creates a torus (wraparound channels present).
    ///
    /// # Panics
    ///
    /// Panics if `radix < 2` or `dims == 0`.
    pub fn torus(radix: usize, dims: usize) -> Self {
        Self::new(radix, dims, true)
    }

    /// Creates a mesh (no wraparound channels).
    ///
    /// # Panics
    ///
    /// Panics if `radix < 2` or `dims == 0`.
    pub fn mesh(radix: usize, dims: usize) -> Self {
        Self::new(radix, dims, false)
    }

    fn new(radix: usize, dims: usize, wrap: bool) -> Self {
        assert!(radix >= 2, "radix must be at least 2, got {radix}");
        assert!(dims >= 1, "dims must be at least 1, got {dims}");
        // checked_pow so an absurd shape fails loudly instead of
        // wrapping in release builds before the size check fires.
        let nodes = u32::try_from(dims)
            .ok()
            .and_then(|d| radix.checked_pow(d))
            .filter(|&n| n <= u32::MAX as usize);
        assert!(
            nodes.is_some(),
            "{radix}-ary {dims}-cube exceeds the u32 node-id space"
        );
        KAryNCube { radix, dims, wrap }
    }

    /// The radix `k` (nodes per dimension).
    pub fn radix(&self) -> usize {
        self.radix
    }

    /// The number of dimensions `n`.
    pub fn dims(&self) -> usize {
        self.dims
    }

    /// Returns `true` for a torus, `false` for a mesh.
    pub fn is_torus(&self) -> bool {
        self.wrap
    }

    /// Coordinate of `node` in dimension `dim`.
    ///
    /// # Panics
    ///
    /// Panics if `dim >= self.dims()` or the node is out of range.
    pub fn coord(&self, node: NodeId, dim: usize) -> usize {
        assert!(dim < self.dims, "dimension {dim} out of range");
        assert!(node.index() < self.num_nodes(), "node out of range");
        (node.index() / self.radix.pow(dim as u32)) % self.radix
    }

    /// The node at the given coordinates (one per dimension).
    ///
    /// # Panics
    ///
    /// Panics if the number of coordinates differs from
    /// [`KAryNCube::dims`] or any coordinate is `>= radix`.
    pub fn node_at(&self, coords: &[usize]) -> NodeId {
        assert_eq!(coords.len(), self.dims, "wrong coordinate count");
        let mut idx = 0usize;
        for (d, &c) in coords.iter().enumerate() {
            assert!(c < self.radix, "coordinate {c} out of range");
            idx += c * self.radix.pow(d as u32);
        }
        NodeId::new(idx as u32)
    }

    /// Signed minimal offset from coordinate `from` to `to` in one
    /// dimension: positive means travel in the `+` direction.
    ///
    /// On a torus, ties (`|offset| == radix/2` with even radix) resolve
    /// to the positive direction; minimal-adaptive routing treats both
    /// directions as minimal in that case (see
    /// [`KAryNCube::minimal_dirs`]).
    fn offset(&self, from: usize, to: usize) -> isize {
        let k = self.radix as isize;
        let d = to as isize - from as isize;
        if !self.wrap {
            return d;
        }
        // Wrap into (-k/2, k/2].
        let mut d = d % k;
        if d > k / 2 {
            d -= k;
        } else if d < -(k - 1) / 2 {
            d += k;
        }
        d
    }

    /// Which directions are minimal from coordinate `from` to a
    /// *different* coordinate `to` of one dimension, as `(+, -)`. Both
    /// on a torus tie (even radix, exactly `k/2` apart). Agrees with
    /// the sign of [`KAryNCube::offset`], without its division.
    fn minimal_dirs(&self, from: u32, to: u32) -> (bool, bool) {
        if !self.wrap {
            return (to > from, to < from);
        }
        let k = self.radix as u32;
        // Hops to `to` going in the + direction; `k - fwd` going in -.
        let fwd = if to > from {
            to - from
        } else {
            k - (from - to)
        };
        (fwd <= k - fwd, fwd >= k - fwd)
    }

    fn port_dir(port: PortId) -> (usize, bool) {
        // (dimension, positive?)
        (port.index() / 2, port.index().is_multiple_of(2))
    }
}

impl Topology for KAryNCube {
    fn num_nodes(&self) -> usize {
        self.radix.pow(self.dims as u32)
    }

    fn num_ports(&self, node: NodeId) -> usize {
        assert!(node.index() < self.num_nodes(), "node out of range");
        2 * self.dims
    }

    fn neighbor(&self, node: NodeId, port: PortId) -> Option<NodeId> {
        if port.index() >= 2 * self.dims || node.index() >= self.num_nodes() {
            return None;
        }
        let (dim, plus) = Self::port_dir(port);
        let c = self.coord(node, dim);
        let k = self.radix;
        let nc = if plus {
            if c + 1 == k {
                if self.wrap {
                    0
                } else {
                    return None;
                }
            } else {
                c + 1
            }
        } else if c == 0 {
            if self.wrap {
                k - 1
            } else {
                return None;
            }
        } else {
            c - 1
        };
        let stride = k.pow(dim as u32);
        let base = node.index() - c * stride;
        Some(NodeId::new((base + nc * stride) as u32))
    }

    fn arrival_port(&self, node: NodeId, port: PortId) -> Option<PortId> {
        self.neighbor(node, port)?;
        let (dim, plus) = Self::port_dir(port);
        // A flit moving in the + direction arrives on the neighbor's
        // input port facing the - direction, and vice versa. Input port
        // numbering mirrors output numbering, so arrival port is the
        // opposite-direction port of the same dimension.
        Some(PortId::new((2 * dim + usize::from(plus)) as u16))
    }

    fn link(&self, node: NodeId, port: PortId) -> Option<LinkId> {
        self.neighbor(node, port)?;
        Some(LinkId::new(
            (node.index() * 2 * self.dims + port.index()) as u32,
        ))
    }

    fn num_links(&self) -> usize {
        if self.wrap {
            self.num_nodes() * 2 * self.dims
        } else {
            // Each dimension has (k-1) bidirectional links per line,
            // and num_nodes()/k lines per dimension.
            2 * self.dims * (self.radix - 1) * (self.num_nodes() / self.radix)
        }
    }

    fn distance(&self, src: NodeId, dst: NodeId) -> usize {
        (0..self.dims)
            .map(|d| self.offset(self.coord(src, d), self.coord(dst, d)).unsigned_abs())
            .sum()
    }

    fn for_each_minimal_port(&self, node: NodeId, dst: NodeId, sink: &mut dyn FnMut(PortId)) {
        // Peel both ids one base-`radix` digit per dimension: one
        // 32-bit div/mod pair each instead of a `radix.pow(d)` (and a
        // `num_nodes()` power for the range check) per coordinate.
        let k = self.radix as u32; // the node count fits u32, so k does
        let (mut a, mut b) = (node.as_u32(), dst.as_u32());
        for d in 0..self.dims {
            let (from, to) = (a % k, b % k);
            a /= k;
            b /= k;
            if from == to {
                continue;
            }
            let (plus, minus) = self.minimal_dirs(from, to);
            if plus {
                sink(PortId::new((2 * d) as u16));
            }
            if minus {
                sink(PortId::new((2 * d + 1) as u16));
            }
        }
        assert!(a == 0 && b == 0, "node out of range");
    }

    fn is_wraparound(&self, node: NodeId, port: PortId) -> bool {
        if !self.wrap || port.index() >= 2 * self.dims {
            return false;
        }
        let (dim, plus) = Self::port_dir(port);
        let c = self.coord(node, dim);
        (plus && c == self.radix - 1) || (!plus && c == 0)
    }

    fn diameter(&self) -> usize {
        if self.wrap {
            self.dims * (self.radix / 2)
        } else {
            self.dims * (self.radix - 1)
        }
    }

    /// Shard boundaries snapped to whole rows of the lowest
    /// dimension: node ids increment fastest along dimension 0, so a
    /// boundary at a multiple of `radix` keeps every dim-0 channel
    /// (including its wraparound) inside one shard and only the
    /// higher-dimension channels cross shards.
    fn partition_hint(&self, shards: usize) -> Vec<u32> {
        let row = self.radix as u32;
        let mut bounds = cr_sim::shard::even_bounds(self.num_nodes(), shards);
        let last = bounds.len() - 1;
        for b in &mut bounds[1..last] {
            // Round to the nearest row boundary; `Plan::from_hint`
            // re-establishes monotonicity if rounding collides.
            *b = (*b + row / 2) / row * row;
        }
        bounds
    }

    fn label(&self) -> String {
        format!(
            "{}-ary {}-cube {}",
            self.radix,
            self.dims,
            if self.wrap { "torus" } else { "mesh" }
        )
    }

    fn clone_box(&self) -> Box<dyn Topology> {
        Box::new(self.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn coords_roundtrip() {
        let t = KAryNCube::torus(5, 3);
        for i in 0..t.num_nodes() {
            let n = NodeId::new(i as u32);
            let coords: Vec<usize> = (0..3).map(|d| t.coord(n, d)).collect();
            assert_eq!(t.node_at(&coords), n);
        }
    }

    #[test]
    fn mesh_edges_have_no_wraparound_neighbors() {
        let m = KAryNCube::mesh(4, 2);
        let corner = m.node_at(&[0, 0]);
        assert_eq!(m.neighbor(corner, PortId::new(1)), None); // -x
        assert_eq!(m.neighbor(corner, PortId::new(3)), None); // -y
        assert!(m.neighbor(corner, PortId::new(0)).is_some()); // +x
        assert!(m.neighbor(corner, PortId::new(2)).is_some()); // +y
    }

    #[test]
    fn torus_wraps() {
        let t = KAryNCube::torus(4, 2);
        let corner = t.node_at(&[0, 0]);
        assert_eq!(t.neighbor(corner, PortId::new(1)), Some(t.node_at(&[3, 0])));
        assert!(t.is_wraparound(corner, PortId::new(1)));
        assert!(!t.is_wraparound(corner, PortId::new(0)));
    }

    #[test]
    fn torus_distance_uses_short_way_around() {
        let t = KAryNCube::torus(8, 1);
        let a = t.node_at(&[0]);
        let b = t.node_at(&[7]);
        assert_eq!(t.distance(a, b), 1);
        let c = t.node_at(&[4]);
        assert_eq!(t.distance(a, c), 4);
    }

    #[test]
    fn mesh_distance_is_manhattan() {
        let m = KAryNCube::mesh(8, 2);
        let a = m.node_at(&[0, 0]);
        let b = m.node_at(&[7, 7]);
        assert_eq!(m.distance(a, b), 14);
    }

    #[test]
    fn tie_case_offers_both_directions() {
        let t = KAryNCube::torus(4, 1);
        let a = t.node_at(&[0]);
        let b = t.node_at(&[2]); // exactly k/2 away
        let ports = t.minimal_ports(a, b);
        assert_eq!(ports, vec![PortId::new(0), PortId::new(1)]);
    }

    #[test]
    fn minimal_ports_sorted_and_distance_reducing() {
        let t = KAryNCube::torus(5, 2);
        for a in 0..t.num_nodes() {
            for b in 0..t.num_nodes() {
                let (a, b) = (NodeId::new(a as u32), NodeId::new(b as u32));
                let ports = t.minimal_ports(a, b);
                if a == b {
                    assert!(ports.is_empty());
                    continue;
                }
                assert!(!ports.is_empty());
                assert!(ports.windows(2).all(|w| w[0] < w[1]), "unsorted");
                for p in ports {
                    let n = t.neighbor(a, p).unwrap();
                    assert_eq!(t.distance(n, b), t.distance(a, b) - 1);
                }
            }
        }
    }

    #[test]
    fn mesh_link_count_matches_enumeration() {
        for (k, n) in [(2, 1), (3, 2), (4, 2), (2, 4)] {
            let m = KAryNCube::mesh(k, n);
            assert_eq!(m.links().len(), m.num_links(), "mesh k={k} n={n}");
            let t = KAryNCube::torus(k, n);
            assert_eq!(t.links().len(), t.num_links(), "torus k={k} n={n}");
        }
    }

    #[test]
    fn arrival_port_is_reverse_direction() {
        let t = KAryNCube::torus(4, 2);
        let links = t.links();
        for l in links {
            // The reverse channel exists and comes back.
            let back = t.neighbor(l.dst, l.dst_port).unwrap();
            assert_eq!(back, l.src, "reverse of {l:?}");
        }
    }

    #[test]
    #[should_panic]
    fn radix_one_rejected() {
        let _ = KAryNCube::torus(1, 2);
    }

    #[test]
    #[should_panic]
    fn overflowing_shape_rejected() {
        // 4096^8 wraps usize arithmetic; must panic, not wrap.
        let _ = KAryNCube::torus(4096, 8);
    }

    /// Spot-checks at the 64x64..256x256 scale the large-topology
    /// benches run at; full O(n^2) invariants are far too slow here,
    /// so exercise the rim and center where the arithmetic can break.
    #[test]
    fn large_tori_are_consistent() {
        for radix in [64usize, 256] {
            let t = KAryNCube::torus(radix, 2);
            assert_eq!(t.num_nodes(), radix * radix);
            assert_eq!(t.num_links(), radix * radix * 4);
            assert_eq!(t.diameter(), radix); // radix/2 per dimension
            let corner = t.node_at(&[0, 0]);
            let far = t.node_at(&[radix / 2, radix / 2]);
            assert_eq!(t.distance(corner, far), radix);
            // Wraparound puts the opposite corner only 2 hops away.
            let opposite = t.node_at(&[radix - 1, radix - 1]);
            assert_eq!(t.distance(corner, opposite), 2);
            assert_eq!(
                t.minimal_ports(corner, opposite),
                vec![PortId::new(1), PortId::new(3)]
            );
            assert!(t.is_wraparound(corner, PortId::new(1)));
            // Link ids stay dense and in range at the top node.
            let last = NodeId::new((t.num_nodes() - 1) as u32);
            let max_link = t.link(last, PortId::new(3)).unwrap();
            assert_eq!(max_link.index(), t.num_links() - 1);
        }
    }

    #[test]
    fn large_mesh_rim_has_no_wraparound() {
        let m = KAryNCube::mesh(256, 2);
        assert_eq!(m.num_links(), 2 * 2 * 255 * 256);
        assert_eq!(m.diameter(), 2 * 255);
        let corner = m.node_at(&[0, 0]);
        assert_eq!(m.neighbor(corner, PortId::new(1)), None);
        assert!(!m.is_wraparound(corner, PortId::new(1)));
        let far = m.node_at(&[255, 255]);
        assert_eq!(m.distance(corner, far), 510);
    }

    #[test]
    #[should_panic]
    fn bad_coord_rejected() {
        let t = KAryNCube::torus(4, 2);
        let _ = t.node_at(&[4, 0]);
    }
}
