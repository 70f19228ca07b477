//! Zero-virtual-channel ordered-detour routing for diameter-1
//! topologies, after "Deadlock-free routing for Full-mesh networks
//! without using Virtual Channels" (Cano, Camarero, Martínez, Beivide;
//! HOTI'25).

use super::{rotate_by_rng, Candidate, RouteCtx, RoutingFunction};

/// Ordered-detour routing on a full mesh: one virtual channel, no
/// deadlock, no kills.
///
/// At the source the function offers the direct channel first, then —
/// as congestion fallbacks — the channels toward every intermediate
/// node whose index is **greater than both** the current node and the
/// destination; after one hop only the direct channel remains. The
/// ordering restriction is what buys deadlock freedom without virtual
/// channels: a channel entering node `v` waits only on channels leaving
/// `v`, and a detour through `v` requires `v` to be a strict local
/// maximum (`v > u` and `v > w`), so two waits can never chain —
/// channel `(u, v)` depends on `(v, w)` only if `v > u` and `v > w`,
/// and `(v, w)` depends on some `(w, x)` only if `w > v`, a
/// contradiction. Every dependency path in the channel-dependency graph
/// has length ≤ 1, hence no cycles.
///
/// This is the modern zero-VC competitor to Compressionless Routing's
/// "no virtual channels needed" claim, and the scheme the `showdown`
/// experiment pits CR against on [`cr_topology::FullMesh`]. It is
/// meaningful only on diameter-1 topologies (the builder enforces
/// that); misrouting adds at most one hop, so protocol padding must
/// budget for 2-hop paths.
#[derive(Debug, Clone, Default)]
pub struct FullMeshOrdered;

impl FullMeshOrdered {
    /// Creates the ordered-detour routing function.
    pub fn new() -> Self {
        FullMeshOrdered
    }
}

impl RoutingFunction for FullMeshOrdered {
    fn candidates(&self, ctx: &mut RouteCtx<'_>, out: &mut Vec<Candidate>) {
        // The (unique) minimal port is the direct channel to dst.
        ctx.push_live_minimal(out);
        if ctx.flit.hops > 0 {
            // Already detoured (or just not at the source any more):
            // only the direct channel is legal.
            return;
        }
        // Detour candidates: intermediates ranked above both endpoints.
        let floor = ctx.node.index().max(ctx.flit.dst.index());
        let start = out.len();
        for p in 0..ctx.topo.num_ports(ctx.node) {
            let port = cr_sim::PortId::new(p as u16);
            if ctx.is_dead(port) {
                continue;
            }
            let Some(mid) = ctx.topo.neighbor(ctx.node, port) else {
                continue;
            };
            if mid.index() > floor {
                out.push(Candidate::on_vc0(port));
            }
        }
        // Spread detour load evenly; the direct channel keeps priority.
        rotate_by_rng(&mut out[start..], ctx.rng);
    }

    fn num_vcs(&self) -> usize {
        1
    }

    fn name(&self) -> &'static str {
        "ordered detour (0 VC)"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::routing::testutil::{candidates_at, header};
    use cr_sim::NodeId;
    use cr_topology::{FullMesh, Topology};

    #[test]
    fn direct_channel_always_first() {
        let t = FullMesh::new(8);
        let rf = FullMeshOrdered::new();
        for s in 0..8u32 {
            for d in 0..8u32 {
                if s == d {
                    continue;
                }
                let (src, dst) = (NodeId::new(s), NodeId::new(d));
                let cands = candidates_at(&rf, &t, src, &header(src, dst));
                assert!(!cands.is_empty());
                assert_eq!(t.neighbor(src, cands[0].port), Some(dst), "{s}->{d}");
            }
        }
    }

    #[test]
    fn detours_only_through_higher_indexed_nodes() {
        let t = FullMesh::new(8);
        let rf = FullMeshOrdered::new();
        for s in 0..8u32 {
            for d in 0..8u32 {
                if s == d {
                    continue;
                }
                let (src, dst) = (NodeId::new(s), NodeId::new(d));
                let cands = candidates_at(&rf, &t, src, &header(src, dst));
                let floor = (s.max(d)) as usize;
                // Everything after the direct channel is a strict local max.
                for c in &cands[1..] {
                    let mid = t.neighbor(src, c.port).unwrap();
                    assert!(mid.index() > floor, "{s}->{d} via {}", mid.index());
                    assert_eq!(c.vc.index(), 0);
                    assert!(!c.escape);
                }
                // And every legal intermediate is offered.
                assert_eq!(cands.len() - 1, 7 - floor, "{s}->{d}");
            }
        }
    }

    #[test]
    fn after_one_hop_only_direct_remains() {
        let t = FullMesh::new(8);
        let rf = FullMeshOrdered::new();
        let (src, dst) = (NodeId::new(7), NodeId::new(1));
        let mut h = header(src, dst);
        h.hops = 1;
        // Routed at the intermediate (node 7 was the local max for 0->1).
        let cands = candidates_at(&rf, &t, src, &h);
        assert_eq!(cands.len(), 1);
        assert_eq!(t.neighbor(src, cands[0].port), Some(dst));
    }

    #[test]
    fn top_node_pair_has_no_detours() {
        let t = FullMesh::new(8);
        let rf = FullMeshOrdered::new();
        let (src, dst) = (NodeId::new(7), NodeId::new(6));
        let cands = candidates_at(&rf, &t, src, &header(src, dst));
        assert_eq!(cands.len(), 1, "nothing ranks above node 7");
    }

    #[test]
    fn single_vc() {
        assert_eq!(FullMeshOrdered::new().num_vcs(), 1);
    }
}
