//! k-ary fat-tree (folded Clos) topology — the canonical commodity
//! datacenter fabric, after Al-Fares et al., SIGCOMM'08.

use crate::topology::Topology;
use cr_sim::{LinkId, NodeId, PortId};

/// Which layer of the fat-tree a switch sits in.
///
/// Minimal paths in a fat-tree are *up\*/down\** paths over these
/// levels: up from an edge switch through aggregation toward the core,
/// then back down — the level of a node is the metadata routing layers
/// use to reason about path shape.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FatTreeLevel {
    /// Bottom layer: the pod's leaf switches.
    Edge,
    /// Middle layer: pod-local aggregation switches.
    Aggregation,
    /// Top layer: the pod-spanning core switches.
    Core,
}

/// A k-ary fat-tree of switches: `k` pods of `k/2` edge and `k/2`
/// aggregation switches each, plus `(k/2)^2` core switches —
/// `5k^2/4` nodes and `k^3` unidirectional channels in total.
///
/// The Al-Fares construction: every edge switch connects to every
/// aggregation switch in its pod; aggregation switch `a` of each pod
/// connects to the `k/2` core switches of *core group* `a`; core group
/// `a` therefore reaches every pod through that pod's aggregation
/// switch `a`. (Host-facing edge ports are not modeled — in this
/// simulator every switch carries its own injection/ejection
/// interface, the node = router + processing-element convention used
/// by all other topologies.)
///
/// # Node numbering
///
/// Edge switches first (`pod * k/2 + position`), then aggregation
/// switches, then core switches (`group * k/2 + member`).
///
/// # Port numbering
///
/// * Edge switch: ports `0..k/2` go up to the pod's aggregation
///   switches in index order.
/// * Aggregation switch `a`: ports `0..k/2` go down to the pod's edge
///   switches, ports `k/2..k` go up to core group `a`.
/// * Core switch: port `p` goes down to pod `p`'s aggregation switch
///   of this core's group.
///
/// # Examples
///
/// ```
/// use cr_topology::{FatTree, FatTreeLevel, Topology};
///
/// let t = FatTree::new(4);
/// assert_eq!(t.num_nodes(), 20);      // 16 pod switches + 4 core
/// assert_eq!(t.num_links(), 64);      // k^3
/// assert_eq!(t.diameter(), 4);        // edge -> agg -> core -> agg -> edge
/// assert_eq!(t.level(t.edge(0, 0)), FatTreeLevel::Edge);
/// // Same-pod edge switches are 2 hops apart, cross-pod 4:
/// assert_eq!(t.distance(t.edge(0, 0), t.edge(0, 1)), 2);
/// assert_eq!(t.distance(t.edge(0, 0), t.edge(3, 1)), 4);
/// // Cross-pod traffic can climb through *any* of the k/2 up-ports:
/// assert_eq!(t.minimal_ports(t.edge(0, 0), t.edge(3, 1)).len(), 2);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FatTree {
    k: usize,
}

/// Where a node sits: its level plus pod/group coordinates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Place {
    /// Edge switch `pos` of pod `pod`.
    Edge { pod: usize, pos: usize },
    /// Aggregation switch `pos` of pod `pod`.
    Agg { pod: usize, pos: usize },
    /// Core switch `member` of core group `group`.
    Core { group: usize, member: usize },
}

impl FatTree {
    /// Creates a `k`-ary fat-tree.
    ///
    /// # Panics
    ///
    /// Panics unless `k` is even and in `2..=64` (a 64-ary fat-tree is
    /// already 5 120 switches — beyond that lies no simulation we can
    /// afford).
    pub fn new(k: usize) -> Self {
        assert!(k >= 2 && k <= 64, "k {k} out of range 2..=64");
        assert!(k % 2 == 0, "fat-tree arity k must be even, got {k}");
        FatTree { k }
    }

    /// The arity `k` (ports per switch; also the number of pods).
    pub fn k(&self) -> usize {
        self.k
    }

    /// Switches per layer per pod (`k/2`).
    fn half(&self) -> usize {
        self.k / 2
    }

    /// Number of edge switches (= number of aggregation switches).
    fn num_edge(&self) -> usize {
        self.k * self.half()
    }

    /// The edge switch at `pos` within `pod`.
    ///
    /// # Panics
    ///
    /// Panics if `pod >= k` or `pos >= k/2`.
    pub fn edge(&self, pod: usize, pos: usize) -> NodeId {
        assert!(pod < self.k && pos < self.half(), "edge ({pod},{pos}) out of range");
        NodeId::new((pod * self.half() + pos) as u32)
    }

    /// The aggregation switch at `pos` within `pod`.
    ///
    /// # Panics
    ///
    /// Panics if `pod >= k` or `pos >= k/2`.
    pub fn aggregation(&self, pod: usize, pos: usize) -> NodeId {
        assert!(pod < self.k && pos < self.half(), "agg ({pod},{pos}) out of range");
        NodeId::new((self.num_edge() + pod * self.half() + pos) as u32)
    }

    /// Core switch `member` of core `group` (groups are indexed by the
    /// aggregation position they connect to).
    ///
    /// # Panics
    ///
    /// Panics if `group >= k/2` or `member >= k/2`.
    pub fn core(&self, group: usize, member: usize) -> NodeId {
        assert!(
            group < self.half() && member < self.half(),
            "core ({group},{member}) out of range"
        );
        NodeId::new((2 * self.num_edge() + group * self.half() + member) as u32)
    }

    /// The layer `node` sits in.
    ///
    /// # Panics
    ///
    /// Panics if the node is out of range.
    pub fn level(&self, node: NodeId) -> FatTreeLevel {
        match self.place(node) {
            Place::Edge { .. } => FatTreeLevel::Edge,
            Place::Agg { .. } => FatTreeLevel::Aggregation,
            Place::Core { .. } => FatTreeLevel::Core,
        }
    }

    /// The pod `node` belongs to, or `None` for core switches (which
    /// span all pods).
    ///
    /// # Panics
    ///
    /// Panics if the node is out of range.
    pub fn pod(&self, node: NodeId) -> Option<usize> {
        match self.place(node) {
            Place::Edge { pod, .. } | Place::Agg { pod, .. } => Some(pod),
            Place::Core { .. } => None,
        }
    }

    fn place(&self, node: NodeId) -> Place {
        let i = node.index();
        let e = self.num_edge();
        assert!(i < self.num_nodes(), "node {i} out of range");
        if i < e {
            Place::Edge { pod: i / self.half(), pos: i % self.half() }
        } else if i < 2 * e {
            let j = i - e;
            Place::Agg { pod: j / self.half(), pos: j % self.half() }
        } else {
            let j = i - 2 * e;
            Place::Core { group: j / self.half(), member: j % self.half() }
        }
    }
}

impl Topology for FatTree {
    fn num_nodes(&self) -> usize {
        // k^2 pod switches plus (k/2)^2 core switches = 5k^2/4.
        2 * self.num_edge() + self.half() * self.half()
    }

    fn num_ports(&self, node: NodeId) -> usize {
        match self.place(node) {
            Place::Edge { .. } => self.half(),
            Place::Agg { .. } | Place::Core { .. } => self.k,
        }
    }

    fn neighbor(&self, node: NodeId, port: PortId) -> Option<NodeId> {
        if node.index() >= self.num_nodes() || port.index() >= self.num_ports(node) {
            return None;
        }
        let p = port.index();
        Some(match self.place(node) {
            Place::Edge { pod, .. } => self.aggregation(pod, p),
            Place::Agg { pod, pos } => {
                if p < self.half() {
                    self.edge(pod, p)
                } else {
                    self.core(pos, p - self.half())
                }
            }
            Place::Core { group, .. } => self.aggregation(p, group),
        })
    }

    fn arrival_port(&self, node: NodeId, port: PortId) -> Option<PortId> {
        self.neighbor(node, port)?;
        let p = port.index();
        Some(PortId::new(match self.place(node) {
            // edge(pod, pos) --port a--> agg(pod, a): lands on the
            // aggregation switch's down-port `pos`.
            Place::Edge { pos, .. } => pos as u16,
            Place::Agg { pod, pos } => {
                if p < self.half() {
                    // down to edge(pod, p): lands on its up-port `pos`.
                    pos as u16
                } else {
                    // up to core(pos, p - k/2): lands on its port `pod`.
                    let _ = pod;
                    pod as u16
                }
            }
            // core(group, member) --port pod--> agg(pod, group): lands
            // on the aggregation switch's up-port for `member`.
            Place::Core { member, .. } => (self.half() + member) as u16,
        }))
    }

    fn link(&self, node: NodeId, port: PortId) -> Option<LinkId> {
        self.neighbor(node, port)?;
        let i = node.index();
        let e = self.num_edge();
        // Edge switches have k/2 ports, everything above has k; the
        // dense id is a per-level base plus the node's port offset.
        let base = if i < e {
            i * self.half()
        } else {
            e * self.half() + (i - e) * self.k
        };
        Some(LinkId::new((base + port.index()) as u32))
    }

    fn num_links(&self) -> usize {
        // k/2 per edge switch, k per aggregation and core switch: k^3.
        self.k * self.k * self.k
    }

    fn distance(&self, src: NodeId, dst: NodeId) -> usize {
        if src == dst {
            return 0;
        }
        use self::Place::*;
        // Every path alternates levels, so distances follow from which
        // neighbors (if any) the endpoints share; the cases below are
        // exhaustively cross-checked against BFS in the test suite.
        match (self.place(src), self.place(dst)) {
            (Edge { pod: p, .. }, Edge { pod: q, .. }) => {
                if p == q { 2 } else { 4 }
            }
            (Edge { pod: p, .. }, Agg { pod: q, .. })
            | (Agg { pod: q, .. }, Edge { pod: p, .. }) => {
                if p == q { 1 } else { 3 }
            }
            // Any core is two hops from any edge switch: climb to the
            // pod's aggregation switch of the core's group.
            (Edge { .. }, Core { .. }) | (Core { .. }, Edge { .. }) => 2,
            (Agg { pod: p, pos: a }, Agg { pod: q, pos: b }) => {
                // Same pod: via any shared edge switch. Different pods:
                // only same-position switches share a core group.
                if p == q || a == b { 2 } else { 4 }
            }
            (Agg { pos: a, .. }, Core { group: g, .. })
            | (Core { group: g, .. }, Agg { pos: a, .. }) => {
                if a == g { 1 } else { 3 }
            }
            (Core { group: g, .. }, Core { group: h, .. }) => {
                if g == h { 2 } else { 4 }
            }
        }
    }

    fn for_each_minimal_port(&self, node: NodeId, dst: NodeId, sink: &mut dyn FnMut(PortId)) {
        if node == dst {
            return;
        }
        let d = self.distance(node, dst);
        for p in 0..self.num_ports(node) {
            let port = PortId::new(p as u16);
            if let Some(n) = self.neighbor(node, port) {
                if self.distance(n, dst) + 1 == d {
                    sink(port);
                }
            }
        }
    }

    fn supports_dimension_order(&self) -> bool {
        false
    }

    fn diameter(&self) -> usize {
        // Worst case is always a cross-pod down-level pair:
        // edge -> agg -> core -> agg -> edge.
        4
    }

    fn label(&self) -> String {
        format!("{}-ary fat-tree", self.k)
    }

    fn clone_box(&self) -> Box<dyn Topology> {
        Box::new(self.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// BFS distances over the generated adjacency — ground truth for
    /// the analytic `distance`.
    fn bfs_dist(t: &FatTree, src: NodeId) -> Vec<usize> {
        let n = t.num_nodes();
        let mut dist = vec![usize::MAX; n];
        dist[src.index()] = 0;
        let mut q = std::collections::VecDeque::from([src]);
        while let Some(u) = q.pop_front() {
            for p in 0..t.num_ports(u) {
                let v = t.neighbor(u, PortId::new(p as u16)).unwrap();
                if dist[v.index()] == usize::MAX {
                    dist[v.index()] = dist[u.index()] + 1;
                    q.push_back(v);
                }
            }
        }
        dist
    }

    #[test]
    fn analytic_distance_matches_bfs() {
        for k in [2, 4, 6, 8] {
            let t = FatTree::new(k);
            for s in 0..t.num_nodes() {
                let src = NodeId::new(s as u32);
                let dist = bfs_dist(&t, src);
                for d in 0..t.num_nodes() {
                    assert_eq!(
                        t.distance(src, NodeId::new(d as u32)),
                        dist[d],
                        "k={k} {s}->{d}"
                    );
                }
            }
        }
    }

    #[test]
    fn counts_match_the_construction() {
        for k in [2usize, 4, 8, 16] {
            let t = FatTree::new(k);
            assert_eq!(t.num_nodes(), 5 * k * k / 4, "k={k}");
            assert_eq!(t.num_links(), k * k * k, "k={k}");
            assert_eq!(t.links().len(), t.num_links(), "k={k}");
        }
    }

    #[test]
    fn links_pair_up_bidirectionally() {
        let t = FatTree::new(4);
        for l in t.links() {
            // The reverse channel exists and points back.
            assert_eq!(t.neighbor(l.dst, l.dst_port), Some(l.src), "reverse of {l:?}");
            assert_eq!(t.arrival_port(l.dst, l.dst_port), Some(l.src_port));
        }
    }

    #[test]
    fn core_switches_span_pods() {
        let t = FatTree::new(4);
        let c = t.core(1, 0);
        let mut pods = Vec::new();
        for p in 0..t.num_ports(c) {
            let agg = t.neighbor(c, PortId::new(p as u16)).unwrap();
            assert_eq!(t.level(agg), FatTreeLevel::Aggregation);
            pods.push(t.pod(agg).unwrap());
        }
        assert_eq!(pods, vec![0, 1, 2, 3]);
    }

    #[test]
    fn cross_pod_traffic_sees_all_up_ports() {
        let t = FatTree::new(8);
        let src = t.edge(0, 0);
        let dst = t.edge(5, 3);
        let ports = t.minimal_ports(src, dst);
        assert_eq!(ports.len(), 4, "all k/2 up-ports are minimal");
        for p in ports {
            let agg = t.neighbor(src, p).unwrap();
            assert_eq!(t.pod(agg), Some(0));
        }
    }

    #[test]
    fn levels_and_pods() {
        let t = FatTree::new(4);
        assert_eq!(t.level(t.edge(2, 1)), FatTreeLevel::Edge);
        assert_eq!(t.level(t.aggregation(2, 1)), FatTreeLevel::Aggregation);
        assert_eq!(t.level(t.core(1, 1)), FatTreeLevel::Core);
        assert_eq!(t.pod(t.edge(2, 1)), Some(2));
        assert_eq!(t.pod(t.aggregation(3, 0)), Some(3));
        assert_eq!(t.pod(t.core(0, 0)), None);
        assert_eq!(t.label(), "4-ary fat-tree");
    }

    #[test]
    #[should_panic]
    fn odd_arity_rejected() {
        let _ = FatTree::new(5);
    }

    #[test]
    #[should_panic]
    fn oversized_arity_rejected() {
        let _ = FatTree::new(66);
    }
}
