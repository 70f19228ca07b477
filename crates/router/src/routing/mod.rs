//! Routing functions: given a header flit at a node, produce the
//! prioritized list of output (port, virtual-channel) candidates.
//!
//! The router allocates the *first free* candidate, so the routing
//! function controls policy purely through candidate order: adaptive
//! functions shuffle equivalent choices, Duato's protocol lists escape
//! channels last, and dimension-order routing offers exactly one port.

mod adaptive;
mod dor;
mod duato;
mod fullmesh;
mod par;

pub use adaptive::MinimalAdaptive;
pub use dor::DimensionOrder;
pub use duato::DuatoProtocol;
pub use fullmesh::FullMeshOrdered;
pub use par::PlanarAdaptive;

use crate::flit::Flit;
use cr_sim::{NodeId, PortId, SimRng, VcId};
use cr_topology::Topology;

/// One routing candidate: an output virtual channel, with a marker for
/// escape channels (used to count the paper's "potential deadlock
/// situations").
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Candidate {
    /// Output port.
    pub port: PortId,
    /// Virtual channel on that port.
    pub vc: VcId,
    /// `true` if this is a deadlock-escape channel (Duato's protocol).
    pub escape: bool,
}

/// Everything a routing function may consult when routing one header.
pub struct RouteCtx<'a> {
    /// The network topology.
    pub topo: &'a dyn Topology,
    /// The node doing the routing.
    pub node: NodeId,
    /// The header flit being routed (destination, hop count, escape
    /// status).
    pub flit: &'a Flit,
    /// `dead_out[p]` is `true` if the outgoing link on port `p` is
    /// known dead; routing functions must not offer such ports.
    pub dead_out: &'a [bool],
    /// Deterministic tie-breaking randomness.
    pub rng: &'a mut SimRng,
}

impl<'a> RouteCtx<'a> {
    /// Returns `true` if the outgoing link on `port` is known dead.
    pub fn is_dead(&self, port: PortId) -> bool {
        self.dead_out.get(port.index()).copied().unwrap_or(false)
    }

    /// Calls `sink` with every minimal output port toward the
    /// destination that is still alive, in ascending port order.
    /// Allocation-free.
    pub fn for_each_live_minimal_port(&self, mut sink: impl FnMut(PortId)) {
        self.topo
            .for_each_minimal_port(self.node, self.flit.dst, &mut |p| {
                if !self.is_dead(p) {
                    sink(p);
                }
            });
    }

    /// The ports of [`RouteCtx::for_each_live_minimal_port`] in a
    /// fresh vector — for tests and tools; routing functions on the
    /// cycle path use the allocation-free form.
    pub fn live_minimal_ports(&self) -> Vec<PortId> {
        let mut ports = Vec::new();
        self.for_each_live_minimal_port(|p| ports.push(p));
        ports
    }

    /// Appends one candidate per live minimal port (ascending port
    /// order, virtual channel 0, not escape) and returns how many.
    pub(crate) fn push_live_minimal(&self, out: &mut Vec<Candidate>) -> usize {
        let before = out.len();
        self.for_each_live_minimal_port(|port| out.push(Candidate::on_vc0(port)));
        out.len() - before
    }
}

/// A routing algorithm.
///
/// Implementations must be memoryless across calls: all per-worm state
/// lives in the header flit (`hops`, `escaped`), so that killing and
/// retransmitting a message fully resets its routing state — a property
/// Compressionless Routing relies on.
///
/// Implementations must not allocate in
/// [`RoutingFunction::candidates`]: a blocked header is re-routed
/// every cycle, so the call sits on the simulator's hottest path. The
/// caller-owned `out` vector (whose capacity amortizes) is the only
/// scratch space — see `spread_over_vcs` for how the adaptive
/// functions expand a port list inside it (DESIGN.md §11).
///
/// Implementations are stateless decision tables (all randomness comes
/// through the caller-supplied `RouteCtx` RNG), and the sharded
/// stepper routes on several shards concurrently against one shared
/// routing object — hence the `Send + Sync` bound.
pub trait RoutingFunction: std::fmt::Debug + Send + Sync {
    /// Appends candidates for the header `ctx.flit` at `ctx.node`, in
    /// priority order (the router takes the first free one).
    ///
    /// Called only when `ctx.node != ctx.flit.dst` (ejection is the
    /// router's job) and never with an empty destination. May append
    /// nothing, in which case the header simply waits (e.g. all minimal
    /// ports dead and misrouting disabled).
    fn candidates(&self, ctx: &mut RouteCtx<'_>, out: &mut Vec<Candidate>);

    /// Number of virtual channels per physical port this algorithm
    /// requires the network to provision.
    fn num_vcs(&self) -> usize;

    /// Short human-readable name for tables and logs.
    fn name(&self) -> &'static str;
}

impl Candidate {
    /// A non-escape candidate on virtual channel 0 of `port`.
    pub(crate) fn on_vc0(port: PortId) -> Self {
        Candidate {
            port,
            vc: VcId::new(0),
            escape: false,
        }
    }
}

/// Expands `out[base..]` — one candidate per port, already in offer
/// order — into `vcs` candidates per port, in place: port `i` offers
/// lanes `start_i, start_i + 1, …` (mod `vcs`) with `start_i` drawn
/// from `rng`, so load spreads across lanes.
///
/// The draws happen in port order before anything moves (the draw
/// order is observable), each parked in its port's `vc` field; the
/// expansion then runs back to front, where slot `i * vcs + j` never
/// lands on a port entry `< i` that is still to be read.
pub(crate) fn spread_over_vcs(out: &mut Vec<Candidate>, base: usize, vcs: usize, rng: &mut SimRng) {
    let ports = out.len() - base;
    for c in &mut out[base..] {
        c.vc = VcId::new(rng.pick_index(vcs).unwrap_or(0) as u8);
    }
    out.resize(base + ports * vcs, Candidate::on_vc0(PortId::new(0)));
    for i in (0..ports).rev() {
        let (port, start) = (out[base + i].port, out[base + i].vc.index());
        for j in 0..vcs {
            out[base + i * vcs + j] = Candidate {
                port,
                vc: VcId::new(((start + j) % vcs) as u8),
                escape: false,
            };
        }
    }
}

/// Rotates `items` left by a pseudo-random amount drawn from `rng` —
/// the cheap deterministic "pick uniformly among equivalent choices"
/// used by the adaptive functions.
pub(crate) fn rotate_by_rng<T>(items: &mut [T], rng: &mut SimRng) {
    let n = items.len();
    if n > 1 {
        let k = rng.pick_index(n).unwrap_or(0);
        items.rotate_left(k);
    }
}

#[cfg(test)]
pub(crate) mod testutil {
    //! Helpers shared by routing-algorithm tests.

    use super::*;
    use crate::flit::{FlitKind, WormId};
    use cr_sim::{Cycle, MessageId};

    /// Builds a header flit from `src` to `dst`.
    pub fn header(src: NodeId, dst: NodeId) -> Flit {
        Flit::new(
            WormId::new(MessageId::new(1), 0),
            FlitKind::Head,
            src,
            dst,
            0,
            0,
            8,
            8,
            Cycle::ZERO,
        )
    }

    /// Collects candidates for `flit` at `node` with no dead links.
    pub fn candidates_at(
        rf: &dyn RoutingFunction,
        topo: &dyn Topology,
        node: NodeId,
        flit: &Flit,
    ) -> Vec<Candidate> {
        let dead = vec![false; topo.max_ports()];
        let mut rng = SimRng::from_seed(99);
        let mut ctx = RouteCtx {
            topo,
            node,
            flit,
            dead_out: &dead,
            rng: &mut rng,
        };
        let mut out = Vec::new();
        rf.candidates(&mut ctx, &mut out);
        out
    }
}
