//! Deterministic dimension-order routing (DOR) — the paper's baseline.

use super::{Candidate, RouteCtx, RoutingFunction};
use cr_sim::{PortId, VcId};

/// Dimension-order routing with dateline virtual-channel classes.
///
/// Routes each message through the dimensions in ascending order,
/// always taking the (unique) minimal direction. On a **torus** the
/// wraparound channels close a cyclic channel dependency, so the
/// classic two-class scheme of the torus routing chip (paper reference
/// \[28\]) is used: within the ring of dimension `d`, a hop is class 0
/// when it cannot cross the wraparound before reaching the
/// destination's coordinate, class 1 when it will — comparing current
/// and destination coordinates decides, no per-worm state needed.
///
/// Each class may be widened into several *virtual lanes* (paper
/// reference \[29\]); a header may take any free lane of its class,
/// which is how the Fig. 14(c)/(d) experiments give DOR extra virtual
/// channels.
///
/// # Examples
///
/// ```
/// use cr_router::routing::DimensionOrder;
/// use cr_router::RoutingFunction;
///
/// let dor = DimensionOrder::torus(1);
/// assert_eq!(dor.num_vcs(), 2); // two dateline classes, one lane each
/// let wide = DimensionOrder::torus(4);
/// assert_eq!(wide.num_vcs(), 8);
/// let mesh = DimensionOrder::mesh(3);
/// assert_eq!(mesh.num_vcs(), 3); // no dateline needed
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DimensionOrder {
    lanes: usize,
    torus: bool,
    /// Offset of the first VC this function may use (lets Duato's
    /// protocol embed a DOR escape network after its adaptive VCs).
    vc_base: usize,
}

impl DimensionOrder {
    /// DOR for a torus: two dateline classes of `lanes` lanes each.
    ///
    /// # Panics
    ///
    /// Panics if `lanes` is zero.
    pub fn torus(lanes: usize) -> Self {
        assert!(lanes > 0, "need at least one lane");
        DimensionOrder {
            lanes,
            torus: true,
            vc_base: 0,
        }
    }

    /// DOR for a mesh (or other wrap-free cube): a single class of
    /// `lanes` lanes.
    ///
    /// # Panics
    ///
    /// Panics if `lanes` is zero.
    pub fn mesh(lanes: usize) -> Self {
        assert!(lanes > 0, "need at least one lane");
        DimensionOrder {
            lanes,
            torus: false,
            vc_base: 0,
        }
    }

    /// Same algorithm, but using virtual channels starting at
    /// `vc_base` (for embedding as an escape network).
    pub fn with_vc_base(mut self, vc_base: usize) -> Self {
        self.vc_base = vc_base;
        self
    }

    /// Number of lanes per dateline class.
    pub fn lanes(&self) -> usize {
        self.lanes
    }

    /// The dimension-order output port and dateline class for the
    /// header in `ctx`, or `None` if the DOR port's link is dead
    /// (DOR cannot route around faults).
    pub(crate) fn dor_choice(&self, ctx: &RouteCtx<'_>) -> Option<(PortId, usize)> {
        // Lowest port = lowest dimension, positive direction preferred
        // on ties: deterministic dimension order.
        let mut first = None;
        ctx.topo
            .for_each_minimal_port(ctx.node, ctx.flit.dst, &mut |p| {
                first.get_or_insert(p);
            });
        let port = first?;
        if ctx.is_dead(port) {
            return None;
        }
        let class = if self.torus && will_wrap(ctx, port) {
            1
        } else {
            0
        };
        Some((port, class))
    }
}

/// Does the remaining travel in `port`'s dimension cross a wraparound
/// channel? True exactly when walking from the current node in the
/// port's direction hits the torus rim before the destination
/// coordinate.
///
/// This is computed structurally (via [`cr_topology::Topology`]'s
/// `is_wraparound`) rather than from coordinates, so it works for any
/// cube radix and needs no per-worm state: walk the ports of this
/// dimension from the current node; if the wraparound channel appears
/// before the destination's ring position, the hop chain is class 1.
fn will_wrap(ctx: &RouteCtx<'_>, port: PortId) -> bool {
    // Walk node-by-node in the chosen direction until reaching the
    // destination's coordinate in this dimension; report whether a
    // wraparound channel is crossed. Rings are at most `radix` long, so
    // this is O(k) — negligible next to simulation work, and keeps the
    // dateline rule exactly aligned with the topology's own wraparound
    // notion.
    let mut node = ctx.node;
    let dst = ctx.flit.dst;
    let topo = ctx.topo;
    let start_dist = topo.distance(node, dst);
    let mut crossed = false;
    let mut steps = 0usize;
    loop {
        // Keep going while the original port — same dimension, same
        // direction — is still minimal; otherwise this dimension is
        // resolved.
        let mut still_minimal = false;
        topo.for_each_minimal_port(node, dst, &mut |p| still_minimal |= p == port);
        if !still_minimal {
            return crossed;
        }
        if topo.is_wraparound(node, port) {
            crossed = true;
        }
        node = match topo.neighbor(node, port) {
            Some(n) => n,
            None => return crossed,
        };
        steps += 1;
        if steps > start_dist {
            // Defensive: minimal walking must terminate within the
            // original distance.
            return crossed;
        }
    }
}

impl RoutingFunction for DimensionOrder {
    fn candidates(&self, ctx: &mut RouteCtx<'_>, out: &mut Vec<Candidate>) {
        let Some((port, class)) = self.dor_choice(ctx) else {
            return;
        };
        // Any free lane of the class will do; rotate for load balance.
        let base = self.vc_base + class * self.lanes;
        let start = ctx.rng.pick_index(self.lanes).unwrap_or(0);
        for i in 0..self.lanes {
            let lane = (start + i) % self.lanes;
            out.push(Candidate {
                port,
                vc: VcId::new((base + lane) as u8),
                escape: false,
            });
        }
    }

    fn num_vcs(&self) -> usize {
        self.vc_base + if self.torus { 2 * self.lanes } else { self.lanes }
    }

    fn name(&self) -> &'static str {
        "dimension-order"
    }
}

#[cfg(test)]
mod tests {
    use super::super::testutil::{candidates_at, header};
    use super::*;
    use cr_sim::NodeId;
    use cr_topology::{KAryNCube, Topology};

    #[test]
    fn routes_lowest_dimension_first() {
        let t = KAryNCube::torus(8, 2);
        let dor = DimensionOrder::torus(1);
        // (0,0) -> (3,5): must move in x (dimension 0) first.
        let src = t.node_at(&[0, 0]);
        let dst = t.node_at(&[3, 5]);
        let h = header(src, dst);
        let c = candidates_at(&dor, &t, src, &h);
        assert_eq!(c.len(), 1);
        assert_eq!(c[0].port, cr_sim::PortId::new(0)); // +x
    }

    #[test]
    fn single_port_offered_per_hop() {
        let t = KAryNCube::torus(4, 2);
        let dor = DimensionOrder::torus(1);
        for s in 0..16u32 {
            for d in 0..16u32 {
                if s == d {
                    continue;
                }
                let h = header(NodeId::new(s), NodeId::new(d));
                let c = candidates_at(&dor, &t, NodeId::new(s), &h);
                assert_eq!(c.len(), 1, "{s}->{d}");
                let ports: std::collections::HashSet<_> = c.iter().map(|x| x.port).collect();
                assert_eq!(ports.len(), 1);
            }
        }
    }

    #[test]
    fn non_wrapping_route_uses_class_zero() {
        let t = KAryNCube::torus(8, 1);
        let dor = DimensionOrder::torus(1);
        let h = header(NodeId::new(1), NodeId::new(3));
        let c = candidates_at(&dor, &t, NodeId::new(1), &h);
        assert_eq!(c[0].vc, VcId::new(0));
    }

    #[test]
    fn wrapping_route_uses_class_one_until_dateline() {
        let t = KAryNCube::torus(8, 1);
        let dor = DimensionOrder::torus(1);
        // 6 -> 1 minimal goes 6,7,0,1 crossing the wrap channel 7->0.
        let h = header(NodeId::new(6), NodeId::new(1));
        let at6 = candidates_at(&dor, &t, NodeId::new(6), &h);
        assert_eq!(at6[0].vc, VcId::new(1), "before the dateline: class 1");
        let at7 = candidates_at(&dor, &t, NodeId::new(7), &h);
        assert_eq!(at7[0].vc, VcId::new(1), "the wrap hop itself: class 1");
        let at0 = candidates_at(&dor, &t, NodeId::new(0), &h);
        assert_eq!(at0[0].vc, VcId::new(0), "after the dateline: class 0");
    }

    #[test]
    fn mesh_uses_single_class() {
        let m = KAryNCube::mesh(8, 2);
        let dor = DimensionOrder::mesh(2);
        assert_eq!(dor.num_vcs(), 2);
        let src = m.node_at(&[7, 0]);
        let dst = m.node_at(&[0, 3]);
        let h = header(src, dst);
        let c = candidates_at(&dor, &m, src, &h);
        assert_eq!(c.len(), 2); // both lanes of the one class
        assert_eq!(c[0].port, cr_sim::PortId::new(1)); // -x
        let vcs: std::collections::HashSet<_> = c.iter().map(|x| x.vc.index()).collect();
        assert_eq!(vcs, [0usize, 1].into_iter().collect());
    }

    #[test]
    fn lanes_cover_all_class_vcs() {
        let t = KAryNCube::torus(8, 2);
        let dor = DimensionOrder::torus(4);
        assert_eq!(dor.num_vcs(), 8);
        let h = header(NodeId::new(0), NodeId::new(2));
        let c = candidates_at(&dor, &t, NodeId::new(0), &h);
        assert_eq!(c.len(), 4);
        // Class 0 lanes are VCs 0..4.
        assert!(c.iter().all(|x| x.vc.index() < 4));
    }

    #[test]
    fn dead_dor_port_yields_no_candidates() {
        let t = KAryNCube::torus(4, 2);
        let dor = DimensionOrder::torus(1);
        let h = header(NodeId::new(0), NodeId::new(1));
        let mut dead = vec![false; t.max_ports()];
        dead[0] = true; // +x is the DOR port for 0 -> 1
        let mut rng = cr_sim::SimRng::from_seed(1);
        let mut ctx = RouteCtx {
            topo: &t,
            node: NodeId::new(0),
            flit: &h,
            dead_out: &dead,
            rng: &mut rng,
        };
        let mut out = Vec::new();
        dor.candidates(&mut ctx, &mut out);
        assert!(out.is_empty(), "DOR cannot route around faults");
    }

    #[test]
    fn vc_base_shifts_channels() {
        let t = KAryNCube::torus(8, 1);
        let dor = DimensionOrder::torus(1).with_vc_base(3);
        assert_eq!(dor.num_vcs(), 5);
        let h = header(NodeId::new(1), NodeId::new(3));
        let c = candidates_at(&dor, &t, NodeId::new(1), &h);
        assert_eq!(c[0].vc, VcId::new(3));
    }

    #[test]
    fn dimension_order_never_revisits_dimension() {
        // Follow DOR hop by hop; the dimension index must be
        // non-decreasing along the path.
        let t = KAryNCube::torus(8, 3);
        let dor = DimensionOrder::torus(1);
        let src = t.node_at(&[6, 2, 7]);
        let dst = t.node_at(&[1, 5, 0]);
        let h = header(src, dst);
        let mut node = src;
        let mut last_dim = 0usize;
        while node != dst {
            let c = candidates_at(&dor, &t, node, &h);
            assert_eq!(c.len(), 1);
            let dim = c[0].port.index() / 2;
            assert!(dim >= last_dim, "dimension went backwards");
            last_dim = dim;
            node = t.neighbor(node, c[0].port).unwrap();
        }
    }
}
