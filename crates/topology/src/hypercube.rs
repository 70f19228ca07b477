//! Binary n-cube (hypercube) topology.

use crate::topology::Topology;
use cr_sim::{LinkId, NodeId, PortId};

/// A binary hypercube with `2^n` nodes.
///
/// Port `d` connects a node to the neighbor whose address differs in bit
/// `d`. Hypercubes appear in the paper's related-work discussion (most
/// prior fault-tolerant routing targeted packet-switched hypercubes);
/// including them exercises CR's topology-independence claim.
///
/// # Examples
///
/// ```
/// use cr_topology::{Hypercube, Topology};
/// use cr_sim::NodeId;
///
/// let h = Hypercube::new(4);
/// assert_eq!(h.num_nodes(), 16);
/// assert_eq!(h.distance(NodeId::new(0b0000), NodeId::new(0b1011)), 3);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Hypercube {
    dims: usize,
}

impl Hypercube {
    /// Creates an `n`-dimensional hypercube.
    ///
    /// # Panics
    ///
    /// Panics if `dims` is zero or greater than 20 (over a million
    /// nodes is beyond simulation scale).
    pub fn new(dims: usize) -> Self {
        assert!((1..=20).contains(&dims), "dims {dims} out of range 1..=20");
        Hypercube { dims }
    }

    /// The number of dimensions `n`.
    pub fn dims(&self) -> usize {
        self.dims
    }
}

impl Topology for Hypercube {
    fn num_nodes(&self) -> usize {
        1 << self.dims
    }

    fn num_ports(&self, node: NodeId) -> usize {
        assert!(node.index() < self.num_nodes(), "node out of range");
        self.dims
    }

    fn neighbor(&self, node: NodeId, port: PortId) -> Option<NodeId> {
        if port.index() >= self.dims || node.index() >= self.num_nodes() {
            return None;
        }
        Some(NodeId::new((node.index() ^ (1 << port.index())) as u32))
    }

    fn arrival_port(&self, node: NodeId, port: PortId) -> Option<PortId> {
        self.neighbor(node, port)?;
        // The reverse channel flips the same bit.
        Some(port)
    }

    fn link(&self, node: NodeId, port: PortId) -> Option<LinkId> {
        self.neighbor(node, port)?;
        Some(LinkId::new((node.index() * self.dims + port.index()) as u32))
    }

    fn num_links(&self) -> usize {
        self.num_nodes() * self.dims
    }

    fn distance(&self, src: NodeId, dst: NodeId) -> usize {
        (src.index() ^ dst.index()).count_ones() as usize
    }

    fn for_each_minimal_port(&self, node: NodeId, dst: NodeId, sink: &mut dyn FnMut(PortId)) {
        let diff = node.index() ^ dst.index();
        for d in 0..self.dims {
            if diff & (1 << d) != 0 {
                sink(PortId::new(d as u16));
            }
        }
    }

    fn diameter(&self) -> usize {
        self.dims
    }

    fn label(&self) -> String {
        format!("{}-dimensional hypercube", self.dims)
    }

    fn clone_box(&self) -> Box<dyn Topology> {
        Box::new(self.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn neighbors_flip_single_bits() {
        let h = Hypercube::new(3);
        let n = NodeId::new(0b101);
        assert_eq!(h.neighbor(n, PortId::new(0)), Some(NodeId::new(0b100)));
        assert_eq!(h.neighbor(n, PortId::new(1)), Some(NodeId::new(0b111)));
        assert_eq!(h.neighbor(n, PortId::new(2)), Some(NodeId::new(0b001)));
        assert_eq!(h.neighbor(n, PortId::new(3)), None);
    }

    #[test]
    fn minimal_ports_are_differing_bits() {
        let h = Hypercube::new(4);
        let ports = h.minimal_ports(NodeId::new(0b0000), NodeId::new(0b1010));
        assert_eq!(ports, vec![PortId::new(1), PortId::new(3)]);
    }

    #[test]
    fn minimal_ports_reduce_distance_everywhere() {
        let h = Hypercube::new(4);
        for a in 0..16u32 {
            for b in 0..16u32 {
                let (a, b) = (NodeId::new(a), NodeId::new(b));
                for p in h.minimal_ports(a, b) {
                    let n = h.neighbor(a, p).unwrap();
                    assert_eq!(h.distance(n, b) + 1, h.distance(a, b));
                }
            }
        }
    }

    #[test]
    fn link_count_and_diameter() {
        let h = Hypercube::new(5);
        assert_eq!(h.num_links(), 32 * 5);
        assert_eq!(h.links().len(), h.num_links());
        assert_eq!(h.diameter(), 5);
        assert_eq!(h.label(), "5-dimensional hypercube");
    }

    #[test]
    #[should_panic]
    fn zero_dims_rejected() {
        let _ = Hypercube::new(0);
    }
}
