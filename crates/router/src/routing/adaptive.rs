//! Minimal fully-adaptive routing — the routing freedom that
//! Compressionless Routing makes deadlock-free *without* virtual
//! channels.

use super::{rotate_by_rng, spread_over_vcs, Candidate, RouteCtx, RoutingFunction};

/// Minimal fully-adaptive routing with optional misrouting.
///
/// At every hop the header may take **any** output port that lies on a
/// minimal path to its destination, on **any** virtual channel. This
/// routing relation is riddled with channel-dependency cycles — which is
/// fine, because the CR protocol recovers from any deadlock by killing
/// and retransmitting the stalled worm, rather than preventing cycles
/// with virtual-channel structure.
///
/// For Fault-tolerant CR, `with_misrouting(extra)` additionally allows
/// non-minimal hops when every minimal port is dead, up to `extra`
/// extra hops per attempt (the header's hop counter bounds it, so a
/// retransmitted attempt gets a fresh budget; kills-and-retries replace
/// livelock).
///
/// # Examples
///
/// ```
/// use cr_router::routing::MinimalAdaptive;
/// use cr_router::RoutingFunction;
///
/// let adaptive = MinimalAdaptive::new(1);
/// assert_eq!(adaptive.num_vcs(), 1); // zero *extra* VCs needed
/// let ft = MinimalAdaptive::new(2).with_misrouting(4);
/// assert_eq!(ft.num_vcs(), 2);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MinimalAdaptive {
    vcs: usize,
    misroute_budget: Option<u16>,
}

impl MinimalAdaptive {
    /// Minimal-adaptive routing over `vcs` virtual channels per port
    /// (CR needs only 1; more act as virtual lanes for throughput).
    ///
    /// # Panics
    ///
    /// Panics if `vcs` is zero.
    pub fn new(vcs: usize) -> Self {
        assert!(vcs > 0, "need at least one virtual channel");
        MinimalAdaptive {
            vcs,
            misroute_budget: None,
        }
    }

    /// Allows up to `extra_hops` non-minimal hops per attempt when no
    /// live minimal port exists (fault tolerance).
    pub fn with_misrouting(mut self, extra_hops: u16) -> Self {
        self.misroute_budget = Some(extra_hops);
        self
    }

    /// Returns the misrouting hop budget, if enabled.
    pub fn misroute_budget(&self) -> Option<u16> {
        self.misroute_budget
    }
}

impl RoutingFunction for MinimalAdaptive {
    fn candidates(&self, ctx: &mut RouteCtx<'_>, out: &mut Vec<Candidate>) {
        let base = out.len();
        if ctx.push_live_minimal(out) == 0 {
            // Misroute: any live port, if the budget allows.
            let budget = match self.misroute_budget {
                Some(b) => b,
                None => return,
            };
            let min_dist = ctx.topo.distance(ctx.node, ctx.flit.dst) as u32;
            let straight_line = ctx.topo.distance(ctx.flit.src, ctx.flit.dst) as u32;
            // Hop budget: minimal distance plus the extra allowance.
            // The remaining distance from here also counts against it.
            if u32::from(ctx.flit.hops) + min_dist > straight_line + u32::from(budget) {
                return;
            }
            for p in 0..ctx.topo.num_ports(ctx.node) {
                let port = cr_sim::PortId::new(p as u16);
                if ctx.topo.neighbor(ctx.node, port).is_some() && !ctx.is_dead(port) {
                    out.push(Candidate::on_vc0(port));
                }
            }
            if out.len() == base {
                return;
            }
        }
        rotate_by_rng(&mut out[base..], ctx.rng);
        // Offer every (port, vc) pair; rotate the VC start per port so
        // load spreads across lanes.
        spread_over_vcs(out, base, self.vcs, ctx.rng);
    }

    fn num_vcs(&self) -> usize {
        self.vcs
    }

    fn name(&self) -> &'static str {
        if self.misroute_budget.is_some() {
            "minimal-adaptive+misroute"
        } else {
            "minimal-adaptive"
        }
    }
}

#[cfg(test)]
mod tests {
    use super::super::testutil::{candidates_at, header};
    use super::super::RouteCtx;
    use super::*;
    use cr_sim::{NodeId, PortId, SimRng};
    use cr_topology::{KAryNCube, Topology};

    #[test]
    fn offers_every_minimal_direction() {
        let t = KAryNCube::torus(8, 2);
        let src = t.node_at(&[0, 0]);
        let dst = t.node_at(&[2, 3]);
        let h = header(src, dst);
        let c = candidates_at(&MinimalAdaptive::new(1), &t, src, &h);
        let ports: std::collections::HashSet<_> = c.iter().map(|x| x.port).collect();
        assert_eq!(
            ports,
            [PortId::new(0), PortId::new(2)].into_iter().collect(),
            "+x and +y are both minimal"
        );
        assert!(c.iter().all(|x| !x.escape));
    }

    #[test]
    fn multiplies_ports_by_vcs() {
        let t = KAryNCube::torus(8, 2);
        let src = t.node_at(&[0, 0]);
        let dst = t.node_at(&[2, 3]);
        let h = header(src, dst);
        let c = candidates_at(&MinimalAdaptive::new(3), &t, src, &h);
        assert_eq!(c.len(), 2 * 3);
    }

    #[test]
    fn no_misrouting_by_default() {
        let t = KAryNCube::torus(4, 1);
        let h = header(NodeId::new(0), NodeId::new(1));
        // Kill the only minimal port (+x from 0 to 1).
        let mut dead = vec![false; t.max_ports()];
        dead[0] = true;
        let mut rng = SimRng::from_seed(0);
        let mut ctx = RouteCtx {
            topo: &t,
            node: NodeId::new(0),
            flit: &h,
            dead_out: &dead,
            rng: &mut rng,
        };
        let mut out = Vec::new();
        MinimalAdaptive::new(1).candidates(&mut ctx, &mut out);
        assert!(out.is_empty());
    }

    #[test]
    fn misroutes_around_dead_minimal_port() {
        let t = KAryNCube::torus(4, 1);
        let h = header(NodeId::new(0), NodeId::new(1));
        let mut dead = vec![false; t.max_ports()];
        dead[0] = true;
        let mut rng = SimRng::from_seed(0);
        let mut ctx = RouteCtx {
            topo: &t,
            node: NodeId::new(0),
            flit: &h,
            dead_out: &dead,
            rng: &mut rng,
        };
        let mut out = Vec::new();
        MinimalAdaptive::new(1)
            .with_misrouting(4)
            .candidates(&mut ctx, &mut out);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].port, PortId::new(1), "the long way around");
    }

    #[test]
    fn misroute_budget_exhausts() {
        let t = KAryNCube::torus(4, 1);
        let mut h = header(NodeId::new(0), NodeId::new(1));
        h.hops = 40; // way past any budget
        let mut dead = vec![false; t.max_ports()];
        dead[0] = true;
        let mut rng = SimRng::from_seed(0);
        let mut ctx = RouteCtx {
            topo: &t,
            node: NodeId::new(0),
            flit: &h,
            dead_out: &dead,
            rng: &mut rng,
        };
        let mut out = Vec::new();
        MinimalAdaptive::new(1)
            .with_misrouting(4)
            .candidates(&mut ctx, &mut out);
        assert!(out.is_empty(), "budget spent: wait (and let CR kill us)");
    }

    #[test]
    fn candidate_order_varies_with_rng() {
        // Adaptivity: different RNG streams produce different
        // priority orders over the same candidates.
        let t = KAryNCube::torus(8, 2);
        let src = t.node_at(&[0, 0]);
        let dst = t.node_at(&[3, 3]);
        let h = header(src, dst);
        let rf = MinimalAdaptive::new(1);
        let dead = vec![false; t.max_ports()];
        let mut firsts = std::collections::HashSet::new();
        for seed in 0..16 {
            let mut rng = SimRng::from_seed(seed);
            let mut ctx = RouteCtx {
                topo: &t,
                node: src,
                flit: &h,
                dead_out: &dead,
                rng: &mut rng,
            };
            let mut out = Vec::new();
            rf.candidates(&mut ctx, &mut out);
            firsts.insert(out[0].port);
        }
        assert_eq!(firsts.len(), 2, "both minimal ports appear first");
    }
}
