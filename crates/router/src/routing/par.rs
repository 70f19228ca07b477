//! Planar-Adaptive Routing — the paper authors' own earlier algorithm
//! (Chien & Kim, ISCA 1992; evaluated in reference [31]), included as
//! the third routing baseline: partially adaptive, deadlock-free by
//! *structure* (like DOR) but with some of CR's routing freedom.

use super::{rotate_by_rng, Candidate, RouteCtx, RoutingFunction};
use cr_sim::{PortId, VcId};

/// Planar-Adaptive Routing for 2-dimensional **meshes**.
///
/// Adaptivity is restricted to a plane at a time; in two dimensions
/// there is a single plane, split into two virtual subnetworks by the
/// sign of the remaining Y offset:
///
/// * the **increasing** network (`ΔY > 0`) owns virtual channel 0 on
///   every X channel and on the `+Y` channels;
/// * the **decreasing** network (`ΔY < 0`) owns virtual channel 1 on
///   every X channel and on the `-Y` channels;
/// * `ΔY = 0` messages ride the X channels of the increasing network
///   and never turn again.
///
/// Within a subnetwork a message moves its X coordinate monotonically
/// toward the destination (one fixed direction) and its Y coordinate
/// in one fixed direction, so the channel dependency graph is acyclic
/// per subnetwork — **deadlock-free with two virtual channels**, no
/// kills, no padding, while still offering two minimal ports at most
/// hops. (The general n-dimensional construction needs three VCs; two
/// suffice for the 2-D case simulated here.)
///
/// Only valid on wrap-free topologies (the mesh); wraparound channels
/// would close the per-row/per-column dependency chains back into
/// cycles.
///
/// # Examples
///
/// ```
/// use cr_router::routing::PlanarAdaptive;
/// use cr_router::RoutingFunction;
///
/// let par = PlanarAdaptive::new();
/// assert_eq!(par.num_vcs(), 2);
/// assert_eq!(par.name(), "planar-adaptive");
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PlanarAdaptive {
    _private: (),
}

impl PlanarAdaptive {
    /// Creates the 2-D mesh planar-adaptive routing function.
    pub fn new() -> Self {
        PlanarAdaptive { _private: () }
    }
}

impl RoutingFunction for PlanarAdaptive {
    fn candidates(&self, ctx: &mut RouteCtx<'_>, out: &mut Vec<Candidate>) {
        // Minimal ports, in ascending order: X ports (0 = +x, 1 = -x)
        // come before Y ports (2 = +y, 3 = -y) by the cube convention.
        let base = out.len();
        if ctx.push_live_minimal(out) == 0 {
            return;
        }
        // Which subnetwork? +y minimal => increasing; -y minimal =>
        // decreasing; no y offset => increasing (x only).
        let offers = |p: u16| out[base..].iter().any(|c| c.port == PortId::new(p));
        let minus_y = offers(3);
        debug_assert!(
            !(offers(2) && minus_y),
            "a mesh offers one minimal Y direction"
        );
        let vc = VcId::new(u8::from(minus_y));
        // Only the plane's four ports are ever offered; minimal ports
        // ascend, so anything past them is a tail.
        let in_plane = |c: &&Candidate| c.port.index() < 4;
        let plane = out[base..].iter().take_while(in_plane).count();
        out.truncate(base + plane);
        for c in &mut out[base..] {
            c.vc = vc;
        }
        rotate_by_rng(&mut out[base..], ctx.rng);
    }

    fn num_vcs(&self) -> usize {
        2
    }

    fn name(&self) -> &'static str {
        "planar-adaptive"
    }
}

#[cfg(test)]
mod tests {
    use super::super::testutil::{candidates_at, header};
    use super::*;
    use cr_topology::{KAryNCube, Topology};

    #[test]
    fn increasing_traffic_uses_vc0_and_both_minimal_ports() {
        let m = KAryNCube::mesh(8, 2);
        let src = m.node_at(&[1, 1]);
        let dst = m.node_at(&[4, 5]); // +x, +y
        let c = candidates_at(&PlanarAdaptive::new(), &m, src, &header(src, dst));
        assert_eq!(c.len(), 2);
        assert!(c.iter().all(|x| x.vc == VcId::new(0)));
        let ports: std::collections::HashSet<_> = c.iter().map(|x| x.port).collect();
        assert_eq!(
            ports,
            [PortId::new(0), PortId::new(2)].into_iter().collect()
        );
    }

    #[test]
    fn decreasing_traffic_uses_vc1() {
        let m = KAryNCube::mesh(8, 2);
        let src = m.node_at(&[4, 5]);
        let dst = m.node_at(&[1, 1]); // -x, -y
        let c = candidates_at(&PlanarAdaptive::new(), &m, src, &header(src, dst));
        assert_eq!(c.len(), 2);
        assert!(c.iter().all(|x| x.vc == VcId::new(1)));
    }

    #[test]
    fn pure_x_traffic_rides_the_increasing_network() {
        let m = KAryNCube::mesh(8, 2);
        let src = m.node_at(&[0, 3]);
        let dst = m.node_at(&[6, 3]);
        let c = candidates_at(&PlanarAdaptive::new(), &m, src, &header(src, dst));
        assert_eq!(c.len(), 1);
        assert_eq!(c[0].port, PortId::new(0));
        assert_eq!(c[0].vc, VcId::new(0));
    }

    #[test]
    fn pure_y_traffic_has_one_candidate() {
        let m = KAryNCube::mesh(8, 2);
        let src = m.node_at(&[3, 0]);
        let dst = m.node_at(&[3, 6]);
        let c = candidates_at(&PlanarAdaptive::new(), &m, src, &header(src, dst));
        assert_eq!(c.len(), 1);
        assert_eq!(c[0].port, PortId::new(2));
        assert_eq!(c[0].vc, VcId::new(0));
    }

    #[test]
    fn every_hop_reduces_distance() {
        // Walk PAR choices greedily; must reach the destination in
        // exactly `distance` hops from every pair.
        let m = KAryNCube::mesh(5, 2);
        let par = PlanarAdaptive::new();
        for s in 0..25u32 {
            for d in 0..25u32 {
                if s == d {
                    continue;
                }
                let (src, dst) = (cr_sim::NodeId::new(s), cr_sim::NodeId::new(d));
                let mut cur = src;
                let mut hops = 0;
                while cur != dst {
                    let c = candidates_at(&par, &m, cur, &header(src, dst));
                    assert!(!c.is_empty(), "stuck {s}->{d} at {cur}");
                    cur = m.neighbor(cur, c[0].port).unwrap();
                    hops += 1;
                    assert!(hops <= m.distance(src, dst), "non-minimal hop");
                }
            }
        }
    }
}
