//! The [`Topology`] trait: the contract every network shape satisfies.

use cr_sim::{LinkId, NodeId, PortId};

/// Description of one unidirectional physical channel.
///
/// A flit sent by node `src` on output port `src_port` arrives at node
/// `dst` on input port `dst_port` (ports are symmetric: output port `p`
/// of a node and input port `p` of the same node face the same
/// neighbor).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct LinkDesc {
    /// Dense identifier of this channel.
    pub id: LinkId,
    /// Sending node.
    pub src: NodeId,
    /// Output port at the sending node.
    pub src_port: PortId,
    /// Receiving node.
    pub dst: NodeId,
    /// Input port at the receiving node on which flits arrive.
    pub dst_port: PortId,
}

/// A network topology: nodes, ports, links and minimal-path structure.
///
/// Implementations must describe a *strongly connected* directed graph;
/// routing layers rely on `distance` being finite for every pair.
///
/// # Port conventions
///
/// Ports `0..num_ports(node)` are *neighbor* ports. Injection and
/// ejection interfaces are not part of the topology; the network
/// assembly adds them past the neighbor ports.
///
/// For [`KAryNCube`](crate::KAryNCube), dimension `d` uses port `2d` for
/// the positive direction and `2d + 1` for the negative direction, which
/// makes "lowest minimal port" identical to dimension-order routing.
/// Implementations are plain connectivity data, and the sharded
/// stepper shares one topology object across its phase workers, so
/// the trait requires `Send + Sync` (trivially satisfied by every
/// value type here).
pub trait Topology: std::fmt::Debug + Send + Sync {
    /// Total number of nodes.
    fn num_nodes(&self) -> usize;

    /// Number of neighbor ports at `node`.
    fn num_ports(&self, node: NodeId) -> usize;

    /// The neighbor reached from `node` via output port `port`, or
    /// `None` if the port is not connected.
    fn neighbor(&self, node: NodeId, port: PortId) -> Option<NodeId>;

    /// The input port at [`Topology::neighbor`]`(node, port)` on which a
    /// flit sent from `(node, port)` arrives.
    fn arrival_port(&self, node: NodeId, port: PortId) -> Option<PortId>;

    /// Dense identifier of the channel leaving `node` via `port`.
    fn link(&self, node: NodeId, port: PortId) -> Option<LinkId>;

    /// Total number of unidirectional channels.
    fn num_links(&self) -> usize;

    /// Length (in hops) of a shortest path from `src` to `dst`.
    fn distance(&self, src: NodeId, dst: NodeId) -> usize;

    /// Calls `sink` with every output port at `node` that lies on some
    /// minimal path toward `dst`; never calls it when `node == dst`.
    ///
    /// Ports must be yielded in ascending port order, so that the
    /// first one is the dimension-order choice on cube topologies.
    /// Implementations must not allocate: the routing functions call
    /// this once per unrouted header per cycle.
    fn for_each_minimal_port(&self, node: NodeId, dst: NodeId, sink: &mut dyn FnMut(PortId));

    /// Appends the ports of [`Topology::for_each_minimal_port`] to
    /// `out`.
    fn minimal_ports_into(&self, node: NodeId, dst: NodeId, out: &mut Vec<PortId>) {
        self.for_each_minimal_port(node, dst, &mut |p| out.push(p));
    }

    /// Convenience wrapper around [`Topology::minimal_ports_into`]
    /// returning a fresh vector.
    fn minimal_ports(&self, node: NodeId, dst: NodeId) -> Vec<PortId> {
        let mut v = Vec::new();
        self.minimal_ports_into(node, dst, &mut v);
        v
    }

    /// Returns `true` if the channel `(node, port)` is a wraparound
    /// (dateline-crossing) channel.
    ///
    /// Dimension-order routing on tori breaks the cyclic channel
    /// dependency at these channels by switching virtual-channel class,
    /// as in the torus routing chip (Dally & Seitz, reference \[28\] of
    /// the paper). Non-toroidal topologies return `false` everywhere.
    fn is_wraparound(&self, node: NodeId, port: PortId) -> bool {
        let _ = (node, port);
        false
    }

    /// Returns `true` if deterministic dimension-order routing is
    /// defined for this topology (cubes yes, arbitrary graphs no).
    fn supports_dimension_order(&self) -> bool {
        true
    }

    /// Returns `true` if any channel of the topology is a wraparound
    /// channel (i.e. [`Topology::is_wraparound`] holds somewhere).
    ///
    /// Routing functions that split virtual-channel classes at the
    /// dateline use this to decide whether the torus discipline is
    /// needed at all.
    fn has_wraparound(&self) -> bool {
        (0..self.num_nodes()).any(|i| {
            let node = NodeId::new(i as u32);
            (0..self.num_ports(node)).any(|p| self.is_wraparound(node, PortId::new(p as u16)))
        })
    }

    /// Longest shortest-path distance over all node pairs.
    fn diameter(&self) -> usize {
        let n = self.num_nodes();
        let mut best = 0;
        for a in 0..n {
            for b in 0..n {
                if a != b {
                    best = best.max(self.distance(NodeId::new(a as u32), NodeId::new(b as u32)));
                }
            }
        }
        best
    }

    /// Largest `num_ports` over all nodes, used to size router tables.
    fn max_ports(&self) -> usize {
        (0..self.num_nodes())
            .map(|i| self.num_ports(NodeId::new(i as u32)))
            .max()
            .unwrap_or(0)
    }

    /// Boundary hint for splitting this fabric into `shards`
    /// contiguous node-id ranges (`shards + 1` nondecreasing values,
    /// first 0 and last `num_nodes`) — the spatial partition the
    /// sharded stepper uses (DESIGN.md §12).
    ///
    /// The default splits node ids as evenly as possible. Topologies
    /// with known locality structure may override it to align shard
    /// boundaries with the fabric (e.g. whole torus rows) and cut
    /// fewer links; any valid partition produces byte-identical
    /// results, so the hint only affects cross-shard traffic volume.
    /// Malformed hints are sanitized by `cr_sim::shard::Plan`, never
    /// trusted.
    fn partition_hint(&self, shards: usize) -> Vec<u32> {
        cr_sim::shard::even_bounds(self.num_nodes(), shards)
    }

    /// Enumerates every unidirectional channel.
    fn links(&self) -> Vec<LinkDesc> {
        let mut out = Vec::with_capacity(self.num_links());
        for i in 0..self.num_nodes() {
            let node = NodeId::new(i as u32);
            for p in 0..self.num_ports(node) {
                let port = PortId::new(p as u16);
                if let (Some(dst), Some(dst_port), Some(id)) = (
                    self.neighbor(node, port),
                    self.arrival_port(node, port),
                    self.link(node, port),
                ) {
                    out.push(LinkDesc {
                        id,
                        src: node,
                        src_port: port,
                        dst,
                        dst_port,
                    });
                }
            }
        }
        out
    }

    /// A short human-readable description, e.g. `"8-ary 2-cube torus"`.
    fn label(&self) -> String;

    /// Clones this topology behind a fresh `Box` (the standard
    /// object-safe clone idiom; implement as
    /// `Box::new(self.clone())`).
    fn clone_box(&self) -> Box<dyn Topology>;
}

impl Clone for Box<dyn Topology> {
    fn clone(&self) -> Self {
        self.clone_box()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::KAryNCube;

    #[test]
    fn links_enumeration_is_dense_and_consistent() {
        let t = KAryNCube::torus(4, 2);
        let links = t.links();
        assert_eq!(links.len(), t.num_links());
        let mut seen = std::collections::HashSet::new();
        for l in &links {
            assert!(seen.insert(l.id), "duplicate link id {:?}", l.id);
            // The reverse lookup agrees.
            assert_eq!(t.neighbor(l.src, l.src_port), Some(l.dst));
            assert_eq!(t.arrival_port(l.src, l.src_port), Some(l.dst_port));
        }
    }

    #[test]
    fn diameter_of_small_torus() {
        let t = KAryNCube::torus(4, 2);
        assert_eq!(t.diameter(), 4); // 2 per dimension with wraparound
        let m = KAryNCube::mesh(4, 2);
        assert_eq!(m.diameter(), 6); // 3 per dimension without
    }
}
