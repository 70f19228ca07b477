//! Arbitrary-graph topologies.
//!
//! CR's deadlock-recovery argument never inspects the channel dependency
//! graph, so it applies to *any* strongly-connected network. This module
//! lets the test-suite and examples exercise that claim on irregular
//! graphs where cycle-free routing restrictions would be hard to derive.

use crate::topology::Topology;
use cr_sim::{LinkId, NodeId, PortId};
use std::collections::VecDeque;

/// An arbitrary directed network built from an adjacency list, with
/// minimal-path structure precomputed by breadth-first search.
///
/// # Examples
///
/// Build a 4-node ring with an extra chord:
///
/// ```
/// use cr_topology::{GraphTopology, Topology};
/// use cr_sim::NodeId;
///
/// let g = GraphTopology::from_edges(4, &[
///     (0, 1), (1, 2), (2, 3), (3, 0),
///     (1, 0), (2, 1), (3, 2), (0, 3),
///     (0, 2), (2, 0),
/// ]).unwrap();
/// assert_eq!(g.distance(NodeId::new(0), NodeId::new(2)), 1);
/// assert!(!g.supports_dimension_order());
/// ```
#[derive(Debug, Clone)]
pub struct GraphTopology {
    /// adjacency[node] = list of neighbor node ids, index = output port.
    adjacency: Vec<Vec<NodeId>>,
    /// arrival[node][port] = input port at the neighbor.
    arrival: Vec<Vec<PortId>>,
    /// link_base[node] + port = dense link id.
    link_base: Vec<u32>,
    num_links: usize,
    /// dist[src][dst], by BFS.
    dist: Vec<Vec<u32>>,
}

/// Error building a [`GraphTopology`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GraphError {
    /// An edge referenced a node `>= num_nodes`.
    NodeOutOfRange {
        /// The offending node index.
        node: usize,
    },
    /// The same directed edge was listed twice.
    DuplicateEdge {
        /// Source of the duplicated edge.
        from: usize,
        /// Destination of the duplicated edge.
        to: usize,
    },
    /// Some node cannot reach some other node.
    NotStronglyConnected {
        /// A node from which `to` is unreachable.
        from: usize,
        /// The unreachable node.
        to: usize,
    },
}

impl std::fmt::Display for GraphError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            GraphError::NodeOutOfRange { node } => write!(f, "node {node} out of range"),
            GraphError::DuplicateEdge { from, to } => {
                write!(f, "duplicate edge {from} -> {to}")
            }
            GraphError::NotStronglyConnected { from, to } => {
                write!(f, "graph not strongly connected: {to} unreachable from {from}")
            }
        }
    }
}

impl std::error::Error for GraphError {}

impl GraphTopology {
    /// Builds a topology from directed edges `(from, to)`.
    ///
    /// Output port numbers at each node follow the order in which that
    /// node's outgoing edges appear in `edges`.
    ///
    /// # Errors
    ///
    /// Returns [`GraphError`] if an edge references a node out of
    /// range, an edge is duplicated, or the graph is not strongly
    /// connected (wormhole routing requires every pair to be mutually
    /// reachable).
    pub fn from_edges(num_nodes: usize, edges: &[(usize, usize)]) -> Result<Self, GraphError> {
        assert!(num_nodes > 0, "graph must have at least one node");
        let mut adjacency: Vec<Vec<NodeId>> = vec![Vec::new(); num_nodes];
        let mut seen = std::collections::HashSet::new();
        for &(from, to) in edges {
            if from >= num_nodes {
                return Err(GraphError::NodeOutOfRange { node: from });
            }
            if to >= num_nodes {
                return Err(GraphError::NodeOutOfRange { node: to });
            }
            if !seen.insert((from, to)) {
                return Err(GraphError::DuplicateEdge { from, to });
            }
            adjacency[from].push(NodeId::new(to as u32));
        }

        // Input port numbering: at each node, incoming edges get input
        // ports starting after the node's output ports, in edge order.
        // (Distinct numbering avoids aliasing input and output port
        // tables in the router.)
        let mut next_input: Vec<usize> = adjacency.iter().map(|a| a.len()).collect();
        let mut arrival: Vec<Vec<PortId>> = vec![Vec::new(); num_nodes];
        for from in 0..num_nodes {
            for &to in &adjacency[from] {
                let slot = next_input[to.index()];
                next_input[to.index()] += 1;
                arrival[from].push(PortId::new(slot as u16));
            }
        }

        let mut link_base = Vec::with_capacity(num_nodes);
        let mut acc = 0u32;
        for a in &adjacency {
            link_base.push(acc);
            acc += a.len() as u32;
        }
        let num_links = acc as usize;

        // All-pairs BFS distances.
        let mut dist = vec![vec![u32::MAX; num_nodes]; num_nodes];
        for (src, row) in dist.iter_mut().enumerate() {
            row[src] = 0;
            let mut q = VecDeque::new();
            q.push_back(src);
            while let Some(u) = q.pop_front() {
                for &v in &adjacency[u] {
                    let v = v.index();
                    if row[v] == u32::MAX {
                        row[v] = row[u] + 1;
                        q.push_back(v);
                    }
                }
            }
        }
        for (src, row) in dist.iter().enumerate() {
            if let Some(to) = row.iter().position(|&d| d == u32::MAX) {
                return Err(GraphError::NotStronglyConnected { from: src, to });
            }
        }

        Ok(GraphTopology {
            adjacency,
            arrival,
            link_base,
            num_links,
            dist,
        })
    }

    /// Builds a bidirectional topology: every undirected edge `{a, b}`
    /// becomes the two directed channels `a -> b` and `b -> a`.
    ///
    /// # Errors
    ///
    /// Same as [`GraphTopology::from_edges`].
    pub fn from_undirected_edges(
        num_nodes: usize,
        edges: &[(usize, usize)],
    ) -> Result<Self, GraphError> {
        let mut directed = Vec::with_capacity(edges.len() * 2);
        for &(a, b) in edges {
            directed.push((a, b));
            directed.push((b, a));
        }
        Self::from_edges(num_nodes, &directed)
    }
}

impl Topology for GraphTopology {
    fn num_nodes(&self) -> usize {
        self.adjacency.len()
    }

    fn num_ports(&self, node: NodeId) -> usize {
        // Output ports are 0..out_degree; input ports were numbered
        // starting at out_degree, so the full port span at this node is
        // out_degree + in_degree. Ports past the outputs have no
        // neighbor (they are input-only) and `neighbor` returns `None`
        // for them.
        self.adjacency[node.index()].len() + self.in_degree(node)
    }

    fn neighbor(&self, node: NodeId, port: PortId) -> Option<NodeId> {
        self.adjacency
            .get(node.index())?
            .get(port.index())
            .copied()
    }

    fn arrival_port(&self, node: NodeId, port: PortId) -> Option<PortId> {
        self.arrival.get(node.index())?.get(port.index()).copied()
    }

    fn link(&self, node: NodeId, port: PortId) -> Option<LinkId> {
        self.neighbor(node, port)?;
        Some(LinkId::new(
            self.link_base[node.index()] + port.index() as u32,
        ))
    }

    fn num_links(&self) -> usize {
        self.num_links
    }

    fn distance(&self, src: NodeId, dst: NodeId) -> usize {
        self.dist[src.index()][dst.index()] as usize
    }

    fn for_each_minimal_port(&self, node: NodeId, dst: NodeId, sink: &mut dyn FnMut(PortId)) {
        if node == dst {
            return;
        }
        let d = self.dist[node.index()][dst.index()];
        for (p, &n) in self.adjacency[node.index()].iter().enumerate() {
            if self.dist[n.index()][dst.index()] + 1 == d {
                sink(PortId::new(p as u16));
            }
        }
    }

    fn supports_dimension_order(&self) -> bool {
        false
    }

    fn label(&self) -> String {
        format!(
            "irregular graph ({} nodes, {} links)",
            self.num_nodes(),
            self.num_links
        )
    }

    fn clone_box(&self) -> Box<dyn Topology> {
        Box::new(self.clone())
    }
}

impl GraphTopology {
    fn in_degree(&self, node: NodeId) -> usize {
        self.adjacency
            .iter()
            .flatten()
            .filter(|&&n| n == node)
            .count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ring(n: usize) -> GraphTopology {
        let edges: Vec<(usize, usize)> = (0..n).map(|i| (i, (i + 1) % n)).collect();
        GraphTopology::from_undirected_edges(n, &edges).unwrap()
    }

    #[test]
    fn ring_distances() {
        let g = ring(6);
        assert_eq!(g.distance(NodeId::new(0), NodeId::new(3)), 3);
        assert_eq!(g.distance(NodeId::new(0), NodeId::new(5)), 1);
        assert_eq!(g.diameter(), 3);
    }

    #[test]
    fn minimal_ports_reduce_distance() {
        let g = ring(7);
        for a in 0..7u32 {
            for b in 0..7u32 {
                let (a, b) = (NodeId::new(a), NodeId::new(b));
                let ports = g.minimal_ports(a, b);
                if a == b {
                    assert!(ports.is_empty());
                    continue;
                }
                assert!(!ports.is_empty());
                for p in ports {
                    let n = g.neighbor(a, p).unwrap();
                    assert_eq!(g.distance(n, b) + 1, g.distance(a, b));
                }
            }
        }
    }

    #[test]
    fn disconnected_rejected() {
        let err = GraphTopology::from_edges(3, &[(0, 1), (1, 0)]).unwrap_err();
        assert!(matches!(err, GraphError::NotStronglyConnected { .. }));
    }

    #[test]
    fn one_way_reachability_rejected() {
        // 0 -> 1 -> 2 but no way back.
        let err = GraphTopology::from_edges(3, &[(0, 1), (1, 2), (2, 1)]).unwrap_err();
        assert!(matches!(
            err,
            GraphError::NotStronglyConnected { to: 0, .. }
        ));
    }

    #[test]
    fn duplicate_edge_rejected() {
        let err = GraphTopology::from_edges(2, &[(0, 1), (0, 1), (1, 0)]).unwrap_err();
        assert_eq!(err, GraphError::DuplicateEdge { from: 0, to: 1 });
    }

    #[test]
    fn out_of_range_rejected() {
        let err = GraphTopology::from_edges(2, &[(0, 2)]).unwrap_err();
        assert_eq!(err, GraphError::NodeOutOfRange { node: 2 });
    }

    #[test]
    fn link_ids_dense_and_unique() {
        let g = ring(5);
        let links = g.links();
        assert_eq!(links.len(), g.num_links());
        let mut ids: Vec<u32> = links.iter().map(|l| l.id.as_u32()).collect();
        ids.sort_unstable();
        let expect: Vec<u32> = (0..g.num_links() as u32).collect();
        assert_eq!(ids, expect);
    }

    #[test]
    fn arrival_ports_unique_per_node() {
        // No two incoming channels may share an input port.
        let g = ring(5);
        let mut seen = std::collections::HashSet::new();
        for l in g.links() {
            assert!(
                seen.insert((l.dst, l.dst_port)),
                "input port collision at {:?}",
                l.dst
            );
        }
    }

    #[test]
    fn error_messages_are_informative() {
        let e = GraphError::NotStronglyConnected { from: 1, to: 2 };
        assert!(e.to_string().contains("unreachable"));
    }
}
