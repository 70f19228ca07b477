//! Duato's protocol: adaptive channels backed by a dimension-order
//! escape network.
//!
//! The paper uses a Duato-style network to *estimate how often potential
//! deadlock situations (PDS) occur*: every time a message has to fall
//! back to the escape (dimension-order) virtual channels, a potential
//! deadlock was brewing. This crate reproduces that methodology: the
//! router counts escape-channel allocations, and the `tab_pds`
//! experiment sweeps load and reports the escape frequency.

use super::{rotate_by_rng, spread_over_vcs, Candidate, DimensionOrder, RouteCtx, RoutingFunction};

/// Duato's deadlock-free adaptive routing (paper reference \[5\]).
///
/// Virtual channels `0..adaptive_vcs` form the fully-adaptive class
/// (any minimal port); the remaining channels form a dimension-order
/// escape network (two dateline classes on a torus). A header first
/// tries every adaptive channel; only if all are busy does it accept an
/// escape channel. Once a worm takes an escape channel it stays on the
/// escape network for the rest of its path (the conservative wormhole
/// variant of Duato's condition, which keeps the extended channel
/// dependency graph acyclic).
///
/// # Examples
///
/// ```
/// use cr_router::routing::DuatoProtocol;
/// use cr_router::RoutingFunction;
///
/// let duato = DuatoProtocol::torus(1);
/// assert_eq!(duato.num_vcs(), 3); // 1 adaptive + 2 escape classes
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DuatoProtocol {
    adaptive_vcs: usize,
    escape: DimensionOrder,
}

impl DuatoProtocol {
    /// Duato's protocol on a torus: `adaptive_vcs` adaptive channels
    /// plus a two-class dimension-order escape network.
    ///
    /// # Panics
    ///
    /// Panics if `adaptive_vcs` is zero.
    pub fn torus(adaptive_vcs: usize) -> Self {
        assert!(adaptive_vcs > 0, "need at least one adaptive channel");
        DuatoProtocol {
            adaptive_vcs,
            escape: DimensionOrder::torus(1).with_vc_base(adaptive_vcs),
        }
    }

    /// Duato's protocol on a mesh: `adaptive_vcs` adaptive channels
    /// plus a single-class dimension-order escape network.
    ///
    /// # Panics
    ///
    /// Panics if `adaptive_vcs` is zero.
    pub fn mesh(adaptive_vcs: usize) -> Self {
        assert!(adaptive_vcs > 0, "need at least one adaptive channel");
        DuatoProtocol {
            adaptive_vcs,
            escape: DimensionOrder::mesh(1).with_vc_base(adaptive_vcs),
        }
    }

    /// Number of adaptive (non-escape) virtual channels.
    pub fn adaptive_vcs(&self) -> usize {
        self.adaptive_vcs
    }
}

impl RoutingFunction for DuatoProtocol {
    fn candidates(&self, ctx: &mut RouteCtx<'_>, out: &mut Vec<Candidate>) {
        // A worm that entered the escape network stays there.
        if !ctx.flit.escaped {
            let base = out.len();
            ctx.push_live_minimal(out);
            rotate_by_rng(&mut out[base..], ctx.rng);
            spread_over_vcs(out, base, self.adaptive_vcs, ctx.rng);
        }
        // Escape candidates last: taking one is a "potential deadlock
        // situation" in the paper's methodology.
        let before = out.len();
        self.escape.candidates(ctx, out);
        for c in &mut out[before..] {
            c.escape = true;
        }
    }

    fn num_vcs(&self) -> usize {
        self.escape.num_vcs() // includes the adaptive base offset
    }

    fn name(&self) -> &'static str {
        "duato"
    }
}

#[cfg(test)]
mod tests {
    use super::super::testutil::{candidates_at, header};
    use super::*;
    use cr_topology::KAryNCube;

    #[test]
    fn adaptive_candidates_precede_escape() {
        let t = KAryNCube::torus(8, 2);
        let duato = DuatoProtocol::torus(2);
        let src = t.node_at(&[0, 0]);
        let dst = t.node_at(&[2, 3]);
        let h = header(src, dst);
        let c = candidates_at(&duato, &t, src, &h);
        // 2 minimal ports x 2 adaptive VCs + 1 escape candidate.
        assert_eq!(c.len(), 5);
        assert!(c[..4].iter().all(|x| !x.escape));
        assert!(c[4].escape);
        assert!(c[4].vc.index() >= 2, "escape VCs sit past adaptive ones");
    }

    #[test]
    fn escaped_worms_get_only_escape_candidates() {
        let t = KAryNCube::torus(8, 2);
        let duato = DuatoProtocol::torus(2);
        let src = t.node_at(&[0, 0]);
        let dst = t.node_at(&[2, 3]);
        let mut h = header(src, dst);
        h.escaped = true;
        let c = candidates_at(&duato, &t, src, &h);
        assert_eq!(c.len(), 1);
        assert!(c[0].escape);
    }

    #[test]
    fn vc_count_includes_both_networks() {
        assert_eq!(DuatoProtocol::torus(1).num_vcs(), 3);
        assert_eq!(DuatoProtocol::torus(2).num_vcs(), 4);
        assert_eq!(DuatoProtocol::mesh(2).num_vcs(), 3);
    }

    #[test]
    fn escape_follows_dimension_order() {
        let t = KAryNCube::torus(8, 2);
        let duato = DuatoProtocol::torus(1);
        let src = t.node_at(&[0, 0]);
        let dst = t.node_at(&[3, 5]);
        let mut h = header(src, dst);
        h.escaped = true;
        let c = candidates_at(&duato, &t, src, &h);
        assert_eq!(c.len(), 1);
        assert_eq!(c[0].port, cr_sim::PortId::new(0), "+x first");
    }
}
