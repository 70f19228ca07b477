//! Fully connected (complete-graph) topology: every node has a direct
//! channel to every other node.

use crate::topology::Topology;
use cr_sim::{LinkId, NodeId, PortId};

/// A full mesh of `n` nodes — the complete graph `K_n`, with one
/// unidirectional channel per ordered node pair.
///
/// Diameter 1, so every minimal path is the single direct channel;
/// adaptivity on a full mesh therefore means *non-minimal* one-hop
/// detours through an intermediate node, which is exactly the shape of
/// the zero-VC ordered-detour scheme compared against CR in the
/// `showdown` experiment.
///
/// # Port numbering
///
/// Node `i` has `n - 1` ports in destination order with `i` itself
/// skipped: port `p` reaches node `p` when `p < i`, node `p + 1`
/// otherwise. A channel from `i` arrives at `j` on the port `j` uses
/// to reach `i` — the pairing is symmetric.
///
/// # Examples
///
/// ```
/// use cr_topology::{FullMesh, Topology};
/// use cr_sim::{NodeId, PortId};
///
/// let t = FullMesh::new(16);
/// assert_eq!(t.num_nodes(), 16);
/// assert_eq!(t.num_links(), 16 * 15);
/// assert_eq!(t.diameter(), 1);
/// // Node 3's port 7 skips over node 3 itself: it reaches node 8.
/// assert_eq!(t.neighbor(NodeId::new(3), PortId::new(7)), Some(NodeId::new(8)));
/// // Exactly one minimal port toward any destination — the direct one.
/// assert_eq!(t.minimal_ports(NodeId::new(3), NodeId::new(8)), vec![PortId::new(7)]);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FullMesh {
    nodes: usize,
}

impl FullMesh {
    /// Creates a full mesh over `nodes` nodes.
    ///
    /// # Panics
    ///
    /// Panics unless `nodes` is in `2..=4096` (beyond that the O(n²)
    /// link count dwarfs anything the simulator can usefully run).
    pub fn new(nodes: usize) -> Self {
        assert!(
            (2..=4096).contains(&nodes),
            "full-mesh size {nodes} out of range 2..=4096"
        );
        FullMesh { nodes }
    }

    /// The port on `node` whose channel reaches `dst` directly.
    ///
    /// # Panics
    ///
    /// Panics if `node == dst` or either id is out of range.
    pub fn port_toward(&self, node: NodeId, dst: NodeId) -> PortId {
        let (i, j) = (node.index(), dst.index());
        assert!(i < self.nodes && j < self.nodes && i != j, "bad pair {i} -> {j}");
        PortId::new(if j < i { j } else { j - 1 } as u16)
    }
}

impl Topology for FullMesh {
    fn num_nodes(&self) -> usize {
        self.nodes
    }

    fn num_ports(&self, node: NodeId) -> usize {
        assert!(node.index() < self.nodes, "node {} out of range", node.index());
        self.nodes - 1
    }

    fn neighbor(&self, node: NodeId, port: PortId) -> Option<NodeId> {
        let (i, p) = (node.index(), port.index());
        if i >= self.nodes || p >= self.nodes - 1 {
            return None;
        }
        Some(NodeId::new(if p < i { p } else { p + 1 } as u32))
    }

    fn arrival_port(&self, node: NodeId, port: PortId) -> Option<PortId> {
        let j = self.neighbor(node, port)?;
        Some(self.port_toward(j, node))
    }

    fn link(&self, node: NodeId, port: PortId) -> Option<LinkId> {
        self.neighbor(node, port)?;
        Some(LinkId::new((node.index() * (self.nodes - 1) + port.index()) as u32))
    }

    fn num_links(&self) -> usize {
        self.nodes * (self.nodes - 1)
    }

    fn distance(&self, src: NodeId, dst: NodeId) -> usize {
        assert!(
            src.index() < self.nodes && dst.index() < self.nodes,
            "node out of range"
        );
        usize::from(src != dst)
    }

    fn for_each_minimal_port(&self, node: NodeId, dst: NodeId, sink: &mut dyn FnMut(PortId)) {
        if node != dst {
            sink(self.port_toward(node, dst));
        }
    }

    fn supports_dimension_order(&self) -> bool {
        false
    }

    fn diameter(&self) -> usize {
        1
    }

    fn label(&self) -> String {
        format!("{}-node full mesh", self.nodes)
    }

    fn clone_box(&self) -> Box<dyn Topology> {
        Box::new(self.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn port_map_is_a_bijection() {
        let t = FullMesh::new(9);
        for i in 0..9u32 {
            let node = NodeId::new(i);
            let mut seen: Vec<NodeId> = (0..t.num_ports(node))
                .map(|p| t.neighbor(node, PortId::new(p as u16)).unwrap())
                .collect();
            seen.sort();
            let expect: Vec<NodeId> =
                (0..9).filter(|&j| j != i).map(NodeId::new).collect();
            assert_eq!(seen, expect);
        }
    }

    #[test]
    fn arrival_ports_are_symmetric() {
        let t = FullMesh::new(7);
        for l in t.links() {
            assert_eq!(t.neighbor(l.dst, l.dst_port), Some(l.src));
            assert_eq!(t.arrival_port(l.dst, l.dst_port), Some(l.src_port));
        }
    }

    #[test]
    fn single_minimal_port_everywhere() {
        let t = FullMesh::new(12);
        for i in 0..12u32 {
            for j in 0..12u32 {
                let (a, b) = (NodeId::new(i), NodeId::new(j));
                let ports = t.minimal_ports(a, b);
                if i == j {
                    assert!(ports.is_empty());
                } else {
                    assert_eq!(ports, vec![t.port_toward(a, b)]);
                    assert_eq!(t.neighbor(a, ports[0]), Some(b));
                }
            }
        }
    }

    #[test]
    fn counts_and_diameter() {
        for n in [2usize, 3, 16, 64] {
            let t = FullMesh::new(n);
            assert_eq!(t.num_links(), n * (n - 1));
            assert_eq!(t.links().len(), t.num_links());
            assert_eq!(t.diameter(), 1);
        }
        assert_eq!(FullMesh::new(16).label(), "16-node full mesh");
    }

    #[test]
    #[should_panic]
    fn degenerate_mesh_rejected() {
        let _ = FullMesh::new(1);
    }
}
