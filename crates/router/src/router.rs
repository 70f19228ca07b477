//! The input-buffered wormhole router.
//!
//! A [`Router`] owns, for one node:
//!
//! * **input units** — one per neighbor port plus one per injection
//!   channel; each neighbor input holds `num_vcs` virtual channels with
//!   `buffer_depth`-flit FIFOs, each injection input holds a single
//!   FIFO of `inject_depth` flits;
//! * **output state** — per (neighbor port, VC): which input VC holds
//!   the channel, and a credit counter mirroring the downstream buffer
//!   space; plus ejection ports with allocation but no credits
//!   (the receiver always sinks one flit per ejection port per cycle);
//! * the **routing/allocation** and **switch-traversal** pipeline
//!   stages, invoked once per cycle by the network.
//!
//! Both stages walk *worklists*, not the whole router: the input VCs
//! that are non-empty with no route, and the output ports with an
//! allocated VC or an open stall streak. A worm padded to span its
//! path keeps most visited routers streaming one body flit through
//! one output, so almost everything else is idle almost always
//! (DESIGN.md §10, "Inside the router").
//!
//! That streaming visit reads the router record and three blocks
//! reached from it by arithmetic — the input-VC headers, one slab
//! holding every VC's flits, one record per output port — and follows
//! no second pointer: worklist words, ejection owners and a port's
//! VCs are inline, and the flits of a VC sit at offsets its header
//! names (DESIGN.md §10, "Memory layout").
//!
//! The router is deliberately protocol-agnostic: it neither times out
//! nor kills. The CR/FCR machinery drives it through
//! [`Router::flush_worm`] (teardown) and the counters it exposes.

use crate::flit::{Flit, WormId};
use crate::routing::{Candidate, RouteCtx, RoutingFunction};
use cr_sim::trace::StallCause;
use cr_sim::{BitSet, Cycle, InlineArr, NodeId, PortId, Ring, SimRng, VcId};
use cr_topology::Topology;
use std::iter::repeat_n;
use std::ops::Range;

/// Where an allocated worm is headed from this router.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RouteTarget {
    /// Out a neighbor port on a specific virtual channel.
    Link {
        /// Output port.
        port: PortId,
        /// Virtual channel on the output port.
        vc: VcId,
    },
    /// Into the node's receiver via an ejection port.
    Eject {
        /// Ejection-port index (`0..num_eject`).
        port: usize,
    },
}

/// What kind of input unit a port index refers to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PortKind {
    /// A neighbor (topology) port.
    Node,
    /// An injection interface port.
    Inject,
}

/// Static configuration of one router.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RouterConfig {
    /// Number of neighbor ports (the topology's port span at this
    /// node).
    pub num_node_ports: usize,
    /// Virtual channels per neighbor port.
    pub num_vcs: usize,
    /// Flit-buffer depth per neighbor input VC.
    pub buffer_depth: usize,
    /// Number of injection channels (paper Fig. 14(e)/(f): "multiple
    /// source channels").
    pub num_inject: usize,
    /// Flit-buffer depth of each injection channel.
    pub inject_depth: usize,
    /// Number of ejection channels ("sink channels").
    pub num_eject: usize,
    /// Flits the outgoing channel pipeline latches can hold when
    /// stalled (the channel depth `d_chan`). Wormhole handshake
    /// channels store one flit per pipeline stage when blocked, so
    /// output credits cover `buffer_depth + link_depth`.
    pub link_depth: usize,
}

impl RouterConfig {
    /// Validates the configuration.
    ///
    /// # Panics
    ///
    /// Panics on zero-sized resources.
    pub fn validate(&self) {
        assert!(self.num_vcs > 0, "need at least one virtual channel");
        assert!(self.buffer_depth > 0, "need at least one buffer slot");
        assert!(self.num_inject > 0, "need at least one injection channel");
        assert!(self.inject_depth > 0, "injection FIFO needs a slot");
        assert!(self.num_eject > 0, "need at least one ejection channel");
    }
}

/// Counters exposed for the experiments.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RouterCounters {
    /// Headers granted an output (or ejection) channel.
    pub headers_routed: u64,
    /// Flits moved through the crossbar.
    pub flits_forwarded: u64,
    /// Escape-channel allocations under Duato's protocol — the paper's
    /// "potential deadlock situation" events.
    pub escape_allocations: u64,
    /// Defensive count of flits dropped because their worm state was
    /// gone (should stay zero; teardown catches worms via the killed
    /// registry first).
    pub orphan_flits_dropped: u64,
    /// Flits flushed out of buffers by worm teardown.
    pub flits_flushed: u64,
    /// Headers that were offered no candidate (blocked by faults).
    pub unroutable_headers: u64,
}

/// Per-output-port utilization and stall-attribution counters.
///
/// Maintained by [`Router::traverse_each`] for every neighbor output
/// port, every cycle, whether or not tracing is on (plain counter
/// adds on the already-slow blocked path). A port is *stalled* on a
/// cycle when some allocated output VC had a flit ready to forward
/// but none crossed; the cause attribution follows
/// [`StallCause`]: a dead output link wins, then zero credits
/// (backpressure), then input-port contention or a frozen killed
/// owner (busy channel).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LinkStats {
    /// Flits forwarded out this port.
    pub flits_forwarded: u64,
    /// Stalled cycles attributed to crossbar-input contention or a
    /// frozen (killed) channel owner.
    pub stall_busy: u64,
    /// Stalled cycles on a port whose outgoing link is dead.
    pub stall_dead_link: u64,
    /// Stalled cycles attributed to exhausted downstream credits.
    pub stall_backpressure: u64,
}

impl LinkStats {
    /// Total stalled cycles of any cause.
    pub fn stall_total(&self) -> u64 {
        self.stall_busy + self.stall_dead_link + self.stall_backpressure
    }

    /// Accumulates `other` into `self` field by field. All fields are
    /// plain `u64` sums, so folding per-router stats into one
    /// `SimReport` gives the same totals in any order.
    pub fn merge(&mut self, other: &LinkStats) {
        self.flits_forwarded += other.flits_forwarded;
        self.stall_busy += other.stall_busy;
        self.stall_dead_link += other.stall_dead_link;
        self.stall_backpressure += other.stall_backpressure;
    }

    /// The stalled-cycle count attributed to `cause`.
    pub fn stall_for(&self, cause: StallCause) -> u64 {
        match cause {
            StallCause::BusyChannel => self.stall_busy,
            StallCause::DeadLink => self.stall_dead_link,
            StallCause::Backpressure => self.stall_backpressure,
        }
    }
}

/// A finished run of consecutive stalled cycles on one output port,
/// with a constant attributed cause. Produced only while streak
/// recording is on (see [`Router::set_record_streaks`]); the network
/// converts these to `LinkStall` trace events.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LinkStallStreak {
    /// The stalled output port.
    pub port: PortId,
    /// The attributed cause (constant across the streak).
    pub cause: StallCause,
    /// Cycle the streak started.
    pub since: Cycle,
    /// Streak length in cycles.
    pub cycles: u64,
}

/// One flit leaving the router this cycle.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Traversal {
    /// The departing flit (header mutations — escape marking — already
    /// applied).
    pub flit: Flit,
    /// Input port it came from (for upstream credit return).
    pub from_port: PortId,
    /// Input virtual channel it came from.
    pub from_vc: VcId,
    /// Where it is going.
    pub target: RouteTarget,
}

/// One worm streaming out of an input VC on a channel of its own, as
/// [`Router::channel_stream`] finds it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LoneStream {
    /// Where the worm is headed from this router.
    pub target: RouteTarget,
    /// Sequence numbers of its buffered flits, front to back (empty
    /// when none is buffered).
    pub seqs: Range<u32>,
}

/// Why [`Router::channel_stream`] found no stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NoStream {
    /// The worm is not moving one flit per cycle here: its VC is full,
    /// its output has no credit, a dead link or an open stall streak,
    /// or the VC holds something other than a consecutive run of its
    /// body or pad flits.
    NotStreaming,
    /// Another worm holds the VC or a sibling VC of its output.
    Shared,
}

/// Result of flushing one worm out of one input VC.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FlushResult {
    /// Flits removed from the FIFO.
    pub flushed: usize,
    /// The downstream hop the worm had allocated, if any — the next
    /// stop for a teardown token.
    pub released: Option<RouteTarget>,
}

#[derive(Debug, Default)]
struct InputVc {
    /// Cursor of this VC's FIFO; the flits sit in the router's slab
    /// at `lo..hi`.
    buf: Ring,
    lo: u32,
    hi: u32,
    route: Option<RouteTarget>,
    worm: Option<WormId>,
    /// Last cycle a flit was forwarded out of this VC (or arrived into
    /// an empty VC); drives path-wide stall detection.
    last_progress: Cycle,
}

impl InputVc {
    /// Non-empty with no route: the allocation stage has something to
    /// do here (route a header, drop an orphan, or wait out a kill).
    #[inline]
    fn is_unrouted(&self) -> bool {
        self.route.is_none() && !self.buf.is_empty()
    }

    /// This VC's slots in the slab; as many as its capacity.
    #[inline]
    fn seg(&self) -> Range<usize> {
        self.lo as usize..self.hi as usize
    }
}

/// Checked narrowing of a size that is fixed at construction.
fn size32(n: usize) -> u32 {
    // cr-lint: allow(panic-discipline, reason = "a router whose buffers or credits exceed u32::MAX flits cannot be simulated; refuse it at construction")
    u32::try_from(n).expect("router geometry fits u32")
}

#[derive(Debug, Clone, Copy)]
struct OutputVc {
    /// The input VC currently holding this output channel.
    owner: Option<(PortId, VcId)>,
    /// A worm train holds the owner's stream ([`Router::hold_stream`]):
    /// the traversal stage leaves this VC to the train.
    held: bool,
    /// Free buffer slots at the downstream input VC.
    credits: u32,
}

/// One ejection port: which input VC holds it, and whether a worm
/// train holds that VC's stream.
#[derive(Debug, Clone, Copy, Default)]
struct EjectPort {
    owner: Option<(PortId, VcId)>,
    held: bool,
}

/// Everything the traversal stage keeps about one neighbor output
/// port, in one record: a port's visit reads its VCs, counts its flit
/// and checks its streak without leaving it.
#[derive(Debug)]
struct OutPort {
    vcs: InlineArr<OutputVc, 4>,
    stats: LinkStats,
    /// The open stall streak: `(cause, start, length)`.
    open: Option<(StallCause, Cycle, u64)>,
}

/// The wormhole router for one node. See the module docs for the
/// microarchitecture.
#[derive(Debug)]
#[repr(C)] // memory order is declaration order: what every visit reads first, together
pub struct Router {
    /// Every input VC in one flat array (see [`Router::in_idx`]):
    /// neighbor port `p`'s VC `v` at `p * num_vcs + v`, then one
    /// single-VC entry per injection port.
    inputs: Vec<InputVc>,
    /// The flits of every input VC, one ring per VC at
    /// [`InputVc::seg`] — `buffer_depth` slots per neighbor VC, then
    /// `inject_depth` per injection channel — allocated whole when the
    /// router's first flit arrives, so a router no worm ever crosses
    /// owns no flit storage.
    slab: Vec<Flit>,
    /// One record per neighbor output port.
    ports: Vec<OutPort>,
    /// Allocation worklist: exactly the flat input indices whose VC
    /// [`InputVc::is_unrouted`]. Every other VC is one
    /// [`Router::route_and_allocate`] would step over untouched, so
    /// the stage walks this set only (DESIGN.md §10).
    unrouted: BitSet,
    /// Traversal worklist: exactly the neighbor output ports with an
    /// allocated VC or an open stall streak. For any other port the
    /// traversal stage forwards nothing and `note_link_cycle` has
    /// nothing to count or close, so it walks this set only.
    busy_out: BitSet,
    /// Flits buffered across all input VCs, maintained incrementally
    /// so [`Router::total_occupancy`] is O(1) — the active-set
    /// scheduler and the quiescence check probe it every cycle.
    occupancy: usize,
    /// How many ports have a stall streak open — O(1) answer to
    /// [`Router::has_open_streaks`].
    open_streaks: u32,
    /// How many of the `occupancy` flits sit in input VCs whose
    /// streams worm trains hold: no visit moves them.
    held_flits: u32,
    cfg: RouterConfig,
    /// Which input VC holds each ejection port.
    ejects: InlineArr<EjectPort, 4>,
    counters: RouterCounters,
    node: NodeId,
    /// Whether finished stall streaks are kept for the trace layer.
    record_streaks: bool,
    // From here on: read by a header's routing or a stalled port only.
    rng: SimRng,
    /// A `bool` slice because that is what [`RouteCtx`] hands the
    /// routing functions.
    dead_out: Vec<bool>,
    /// (port, vc) pairs whose orphan drop needs an upstream credit.
    orphan_credits: Vec<(PortId, VcId)>,
    /// Routing-candidate scratch, reused across headers and cycles.
    candidates: Vec<Candidate>,
    /// Finished streaks awaiting [`Router::drain_streaks_into`]; only
    /// populated while `record_streaks` is on.
    finished_streaks: Vec<LinkStallStreak>,
}

impl Router {
    /// Builds the router for `node` with the given configuration.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid (see
    /// [`RouterConfig::validate`]).
    pub fn new(node: NodeId, cfg: RouterConfig, rng: SimRng) -> Self {
        cfg.validate();
        let node_inputs = cfg.num_node_ports * cfg.num_vcs;
        let mut inputs = Vec::with_capacity(node_inputs + cfg.num_inject);
        let depths = repeat_n(cfg.buffer_depth, node_inputs);
        for depth in depths.chain(repeat_n(cfg.inject_depth, cfg.num_inject)) {
            let mut ivc = InputVc::default();
            ivc.lo = inputs.last().map_or(0, |prev: &InputVc| prev.hi);
            ivc.hi = ivc.lo + size32(depth);
            inputs.push(ivc);
        }
        let out = OutputVc {
            owner: None,
            held: false,
            credits: size32(cfg.buffer_depth + cfg.link_depth),
        };
        let port = || OutPort {
            vcs: InlineArr::new(cfg.num_vcs, out),
            stats: LinkStats::default(),
            open: None,
        };
        Router {
            unrouted: BitSet::new(inputs.len()),
            inputs,
            slab: Vec::new(),
            ports: (0..cfg.num_node_ports).map(|_| port()).collect(),
            busy_out: BitSet::new(cfg.num_node_ports),
            occupancy: 0,
            open_streaks: 0,
            held_flits: 0,
            cfg,
            ejects: InlineArr::new(cfg.num_eject, EjectPort::default()),
            counters: RouterCounters::default(),
            node,
            record_streaks: false,
            rng,
            dead_out: vec![false; cfg.num_node_ports],
            orphan_credits: Vec::new(),
            candidates: Vec::new(),
            finished_streaks: Vec::new(),
        }
    }

    /// Flat index of input VC `(port, vc)` in `inputs`.
    ///
    /// # Panics
    ///
    /// Panics if the pair names no input VC of this router (a flat
    /// index computed from it would alias another VC).
    #[inline]
    fn in_idx(&self, port: PortId, vc: VcId) -> usize {
        let (p, v) = (port.index(), vc.index());
        let ports = self.cfg.num_node_ports;
        if p < ports {
            assert!(v < self.cfg.num_vcs, "no {vc} on {port} at {}", self.node);
            p * self.cfg.num_vcs + v
        } else {
            assert!(
                p < ports + self.cfg.num_inject && v == 0,
                "no input {port} {vc} at {}",
                self.node
            );
            ports * self.cfg.num_vcs + (p - ports)
        }
    }

    /// The `(port, vc)` of flat input `k` — [`Router::in_idx`]'s
    /// inverse.
    #[inline]
    fn in_pv(&self, k: usize) -> (PortId, VcId) {
        let (ports, vcs) = (self.cfg.num_node_ports, self.cfg.num_vcs);
        match k.checked_sub(ports * vcs) {
            None => (PortId::from_index(k / vcs), VcId::from_index(k % vcs)),
            Some(inject) => (PortId::from_index(ports + inject), VcId::new(0)),
        }
    }

    /// Flat input `k`'s slots (none before the router's first flit).
    #[inline]
    fn slots(&self, k: usize) -> &[Flit] {
        self.slab.get(self.inputs[k].seg()).unwrap_or_default()
    }

    /// Indices of output VC `(port, vc)` in `ports` and `OutPort::vcs`.
    ///
    /// # Panics
    ///
    /// Panics if the pair names no neighbor output VC.
    #[inline]
    fn out_idx(&self, port: PortId, vc: VcId) -> (usize, usize) {
        assert!(
            port.index() < self.cfg.num_node_ports && vc.index() < self.cfg.num_vcs,
            "no output {port} {vc} at {}",
            self.node
        );
        (port.index(), vc.index())
    }

    #[inline]
    fn output(&self, port: PortId, vc: VcId) -> &OutputVc {
        let (p, v) = self.out_idx(port, vc);
        &self.ports[p].vcs[v]
    }

    #[inline]
    fn input(&self, port: PortId, vc: VcId) -> &InputVc {
        &self.inputs[self.in_idx(port, vc)]
    }

    /// Whether neighbor output `port` belongs on the traversal
    /// worklist: some VC of it is allocated to a stream no worm train
    /// holds, or a stall streak is open.
    #[inline]
    fn port_is_busy(&self, port: usize) -> bool {
        let port = &self.ports[port];
        port.open.is_some() || port.vcs.iter().any(|o| o.owner.is_some() && !o.held)
    }

    /// Re-derives `port`'s membership in the traversal worklist.
    #[inline]
    fn refresh_busy(&mut self, port: usize) {
        let busy = self.port_is_busy(port);
        self.busy_out.set(port, busy);
    }

    /// Dense recount of both worklists against the state they
    /// summarize — the `debug_assert` cross-check, like the ones on
    /// `occupancy` and `open_streaks`.
    fn worklists_exact(&self) -> bool {
        let unrouted = |k: usize| self.inputs[k].is_unrouted();
        let busy = |port: usize| self.port_is_busy(port);
        let (inputs, ports) = (0..self.inputs.len(), 0..self.cfg.num_node_ports);
        inputs
            .clone()
            .all(|k| unrouted(k) == self.unrouted.contains(k))
            && inputs.filter(|&k| unrouted(k)).count() == self.unrouted.len()
            && ports.clone().all(|p| busy(p) == self.busy_out.contains(p))
            && ports.filter(|&p| busy(p)).count() == self.busy_out.len()
    }

    /// The node this router serves.
    pub fn node(&self) -> NodeId {
        self.node
    }

    /// The router's configuration.
    pub fn config(&self) -> &RouterConfig {
        &self.cfg
    }

    /// The experiment counters.
    pub fn counters(&self) -> &RouterCounters {
        &self.counters
    }

    /// The input-port index of injection channel `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= num_inject`.
    pub fn inject_port(&self, i: usize) -> PortId {
        assert!(i < self.cfg.num_inject, "injection channel out of range");
        PortId::from_index(self.cfg.num_node_ports + i)
    }

    /// What kind of input unit `port` is.
    pub fn port_kind(&self, port: PortId) -> PortKind {
        if port.index() < self.cfg.num_node_ports {
            PortKind::Node
        } else {
            PortKind::Inject
        }
    }

    /// Marks the outgoing link on `port` as dead; routing functions
    /// will no longer be offered it.
    pub fn set_dead_out(&mut self, port: PortId) {
        self.dead_out[port.index()] = true;
    }

    /// Clears the dead marking on `port`'s outgoing link — the link
    /// was revived and routing functions may use it again. Worms that
    /// were stalled waiting for an alternative resume on their next
    /// allocation attempt.
    pub fn clear_dead_out(&mut self, port: PortId) {
        self.dead_out[port.index()] = false;
    }

    /// Returns `true` if the outgoing link on `port` is marked dead.
    pub fn is_dead_out(&self, port: PortId) -> bool {
        self.dead_out
            .get(port.index())
            .copied()
            .unwrap_or(false)
    }

    /// Pushes `flit` into flat input `k`, handing it back when the
    /// FIFO is full. The one place a VC can go from empty to
    /// non-empty, hence one of the worklist's mutation sites.
    #[inline]
    fn push_input(&mut self, now: Cycle, k: usize, flit: Flit) -> Result<(), Flit> {
        if self.slab.is_empty() {
            self.slab = vec![flit; self.inputs.last().map_or(0, |last| last.hi as usize)];
        }
        let ivc = &mut self.inputs[k];
        if ivc.buf.is_empty() {
            ivc.last_progress = now;
        }
        ivc.buf.push(&mut self.slab[ivc.seg()], flit)?;
        self.occupancy += 1;
        if ivc.route.is_none() {
            self.unrouted.set(k, true);
        }
        Ok(())
    }

    /// Accepts a flit arriving on a neighbor input channel.
    ///
    /// # Panics
    ///
    /// Panics if the buffer is full — that would mean the upstream
    /// router violated credit flow control, which is a simulator bug,
    /// never a legal network state.
    #[inline]
    pub fn accept(&mut self, now: Cycle, port: PortId, vc: VcId, flit: Flit) {
        let k = self.in_idx(port, vc);
        if self.push_input(now, k, flit).is_err() {
            // cr-lint: allow(panic-discipline, reason = "documented invariant: a full buffer here means upstream violated credit flow control, which is a simulator bug and must abort loudly, never a recoverable network state")
            panic!("credit violation at {} {port} {vc}", self.node);
        }
    }

    /// Free space in injection channel `i`'s FIFO.
    pub fn injection_free(&self, i: usize) -> usize {
        self.cfg.inject_depth - self.occupancy(self.inject_port(i), VcId::new(0))
    }

    /// Pushes a flit into injection channel `i`; returns `false`
    /// (leaving the flit with the caller) when the FIFO is full —
    /// which is exactly the back-pressure the CR injector watches.
    pub fn try_inject(&mut self, now: Cycle, i: usize, flit: Flit) -> bool {
        let k = self.in_idx(self.inject_port(i), VcId::new(0));
        self.push_input(now, k, flit).is_ok()
    }

    /// Routing and virtual-channel allocation stage: every input VC
    /// whose head-of-line flit is an unrouted header tries to acquire
    /// an output VC (or an ejection port, at the destination).
    ///
    /// Only the allocation worklist is walked — VCs that are empty or
    /// already hold a route have nothing to allocate — in input order
    /// rotated with `now` for fairness. A router whose worklist is
    /// empty returns at once, having drawn no randomness.
    ///
    /// Returns the number of orphan flits dropped this call (the
    /// network subtracts them from its in-flight flit counter;
    /// inject-port orphans produce no `orphan_credits` entry, so the
    /// credit list cannot stand in for this count).
    pub fn route_and_allocate<F: Fn(WormId) -> bool + ?Sized>(
        &mut self,
        now: Cycle,
        routing: &dyn RoutingFunction,
        topo: &dyn Topology,
        is_killed: &F,
    ) -> usize {
        if self.unrouted_inputs() == 0 {
            return 0;
        }
        let n = self.inputs.len();
        let offset = (now.as_u64() as usize) % n;
        let mut orphans_dropped = 0;
        // The candidate scratch has to leave `self` for the loop body
        // to borrow the router mutably alongside it.
        let mut candidates = std::mem::take(&mut self.candidates);
        // Visiting a VC only ever changes that VC's own membership, so
        // walking the live set never skips or repeats a member.
        for (lo, hi) in [(offset, n), (0, offset)] {
            let mut at = lo;
            while let Some(k) = self.unrouted.next_in(at, hi) {
                at = k + 1;
                orphans_dropped += self.route_one(k, routing, topo, is_killed, &mut candidates);
            }
        }
        self.candidates = candidates;
        orphans_dropped
    }

    /// One worklist member's turn in the allocation stage; returns the
    /// number of orphan flits dropped (0 or 1).
    fn route_one<F: Fn(WormId) -> bool + ?Sized>(
        &mut self,
        k: usize,
        routing: &dyn RoutingFunction,
        topo: &dyn Topology,
        is_killed: &F,
        candidates: &mut Vec<Candidate>,
    ) -> usize {
        debug_assert!(self.inputs[k].is_unrouted());
        let seg = self.inputs[k].seg();
        // Borrowed, not copied: most calls end at the next two tests.
        let Some(front) = self.inputs[k].buf.front(&self.slab[seg.clone()]) else {
            return 0; // unreachable: members are non-empty
        };
        if is_killed(front.worm) {
            // Teardown in progress: the kill token will flush this.
            return 0;
        }
        if !front.is_head() {
            // A non-head flit with no route: its worm was torn down
            // while this flit was in flight and it slipped past the
            // killed registry. Drop defensively.
            let ivc = &mut self.inputs[k];
            let popped = ivc.buf.pop(&self.slab[seg]);
            debug_assert!(popped.is_some_and(|f| !f.is_head()));
            if ivc.buf.is_empty() {
                self.unrouted.set(k, false);
            }
            self.occupancy -= 1;
            self.counters.orphan_flits_dropped += 1;
            let (port, vc) = self.in_pv(k);
            if self.port_kind(port) == PortKind::Node {
                self.orphan_credits.push((port, vc));
            }
            return 1;
        }
        let worm = front.worm;
        // Ejection?
        if front.dst == self.node {
            if let Some(e) = self.ejects.iter().position(|e| e.owner.is_none()) {
                self.ejects[e].owner = Some(self.in_pv(k));
                self.grant(k, RouteTarget::Eject { port: e }, worm);
            }
            return 0;
        }
        // Network routing.
        candidates.clear();
        let mut ctx = RouteCtx {
            topo,
            node: self.node,
            flit: front,
            dead_out: &self.dead_out,
            rng: &mut self.rng,
        };
        routing.candidates(&mut ctx, candidates);
        if candidates.is_empty() {
            self.counters.unroutable_headers += 1;
            return 0;
        }
        let free = |c: &Candidate| self.output(c.port, c.vc).owner.is_none();
        if let Some(c) = candidates.iter().copied().find(free) {
            let (p, v) = self.out_idx(c.port, c.vc);
            self.ports[p].vcs[v].owner = Some(self.in_pv(k));
            self.busy_out.set(p, true);
            self.grant(
                k,
                RouteTarget::Link {
                    port: c.port,
                    vc: c.vc,
                },
                worm,
            );
            if c.escape {
                self.counters.escape_allocations += 1;
                if let Some(front) = self.inputs[k].buf.front_mut(&mut self.slab[seg]) {
                    front.escaped = true;
                }
            }
        }
        0
    }

    /// Records that the header of `worm` at the front of flat input
    /// `k` won `target`; the VC leaves the allocation worklist.
    #[inline]
    fn grant(&mut self, k: usize, target: RouteTarget, worm: WormId) {
        let ivc = &mut self.inputs[k];
        ivc.route = Some(target);
        ivc.worm = Some(worm);
        self.unrouted.set(k, false);
        self.counters.headers_routed += 1;
    }

    /// Switch-traversal stage: each output port and each ejection port
    /// forwards at most one flit; each input port supplies at most one.
    ///
    /// `is_killed` freezes worms undergoing teardown: their flits stop
    /// moving (and in particular their tails stop releasing channels),
    /// so that kill tokens are the only thing that releases a killed
    /// worm's resources — otherwise a draining worm's tail races the
    /// token and hands channels to new worms before the teardown has
    /// cleaned the downstream endpoint.
    ///
    /// Returns the departing flits; the caller moves them onto links or
    /// into receivers and returns credits upstream.
    pub fn traverse<F: Fn(WormId) -> bool + ?Sized>(
        &mut self,
        now: Cycle,
        is_killed: &F,
    ) -> Vec<Traversal> {
        let mut out = Vec::new();
        self.traverse_into(now, is_killed, &mut out);
        out
    }

    /// Pops the front flit of flat input `k` for `owner`'s allocated
    /// target, if it may move this cycle: the input port has not
    /// already supplied a flit, the owner is not being torn down, and
    /// the front flit is the owner's. A tail releases the VC's route
    /// (the caller releases the output side), which may put the VC
    /// back on the allocation worklist.
    ///
    /// `Err(frozen)` means nothing moved; `frozen` is `true` when a
    /// killed owner is holding buffered flits in place.
    fn pop_for_traversal<F: Fn(WormId) -> bool + ?Sized>(
        &mut self,
        now: Cycle,
        k: usize,
        is_killed: &F,
    ) -> Result<Flit, bool> {
        let ivc = &mut self.inputs[k];
        let slots = self.slab.get(ivc.seg()).unwrap_or_default();
        let Some(owner) = ivc.worm else {
            return Err(false);
        };
        // Frozen: the owner is being torn down; only its kill token
        // may release this channel. (The front flit may even belong to
        // a live successor worm whose tailward predecessor flits were
        // swallowed by the killed registry — it waits here until the
        // token clears the stale route.)
        if is_killed(owner) {
            return Err(!ivc.buf.is_empty());
        }
        let Some(front) = ivc.buf.front(slots) else {
            return Err(false);
        };
        debug_assert_eq!(
            front.worm, owner,
            "channel owner and buffered worm diverged at {}",
            self.node
        );
        if front.worm != owner {
            return Err(false); // defensive in release builds
        }
        let Some(flit) = ivc.buf.pop(slots) else {
            return Err(false); // unreachable: front() just succeeded
        };
        ivc.last_progress = now;
        if flit.is_tail() {
            ivc.route = None;
            ivc.worm = None;
            if !ivc.buf.is_empty() {
                self.unrouted.set(k, true);
            }
        }
        self.occupancy -= 1;
        self.counters.flits_forwarded += 1;
        Ok(flit)
    }

    /// [`Router::traverse`] into a caller-owned buffer (appended, not
    /// cleared): [`Router::traverse_each`] collecting what it emits.
    pub fn traverse_into<F: Fn(WormId) -> bool + ?Sized>(
        &mut self,
        now: Cycle,
        is_killed: &F,
        out: &mut Vec<Traversal>,
    ) {
        self.traverse_each(now, is_killed, |t| out.push(t));
    }

    /// The switch-traversal stage itself (see [`Router::traverse`]),
    /// handing each departing flit to `emit` as it leaves — neighbor
    /// output ports ascending, then ejection ports — so the per-cycle
    /// network loop moves it straight to its link, receiver and
    /// upstream credit with no intermediate list.
    ///
    /// Only the traversal worklist is walked: a neighbor output port
    /// with no allocated VC and no open stall streak forwards nothing
    /// and has no link-stats cycle to attribute. A visited port that
    /// *streams* — it sent, no sibling VC was ready but blocked, and
    /// no stall streak is open — has nothing to attribute or close
    /// either, so it only counts its flit; its worklist membership is
    /// re-derived only if that flit was a tail (DESIGN.md §10).
    pub fn traverse_each<F: Fn(WormId) -> bool + ?Sized>(
        &mut self,
        now: Cycle,
        is_killed: &F,
        mut emit: impl FnMut(Traversal),
    ) {
        debug_assert!(self.worklists_exact(), "worklists diverged");
        // One bit per input port that has supplied its flit this
        // cycle, on the stack unless the router has over 256 of them.
        let in_ports = self.cfg.num_node_ports + self.cfg.num_inject;
        let (mut small, mut big) = ([0u64; 4], None);
        let used: &mut [u64] = match in_ports {
            ..=256 => &mut small,
            _ => big.insert(vec![0; in_ports.div_ceil(64)]),
        };
        let bit_of = |port: PortId| (port.index() / 64, 1u64 << (port.index() % 64));

        // Neighbor outputs: one flit per physical port per cycle,
        // round-robin over that port's VCs. Alongside the forwarding
        // decision, attribute the port's cycle for the link-stats
        // layer: `sent` when a flit crossed, else the first
        // ready-but-blocked VC's stall cause (if any).
        let nvcs = self.cfg.num_vcs;
        let start = (now.as_u64() as usize) % nvcs;
        let mut at = 0;
        while let Some(port) = self.busy_out.next_in(at, self.cfg.num_node_ports) {
            at = port + 1;
            let mut sent = false;
            let mut released = false;
            let mut blocked: Option<StallCause> = None;
            for i in 0..nvcs {
                // `(start + i) % nvcs` without the division.
                let wrap = if start + i < nvcs { 0 } else { nvcs };
                let vc = start + i - wrap;
                let out = self.ports[port].vcs[vc];
                let Some((ip, iv)) = out.owner else {
                    continue;
                };
                debug_assert!(!out.held, "a busy port carries a held stream");
                let (k, (word, bit)) = (self.in_idx(ip, iv), bit_of(ip));
                if used[word] & bit != 0 || out.credits == 0 {
                    if blocked.is_none() {
                        let ivc = &self.inputs[k];
                        let front = ivc.buf.front(self.slots(k));
                        if ivc.worm.is_some() && front.map(|f| f.worm) == ivc.worm {
                            blocked = Some(if out.credits == 0 {
                                StallCause::Backpressure
                            } else {
                                StallCause::BusyChannel
                            });
                        }
                    }
                    continue;
                }
                let flit = match self.pop_for_traversal(now, k, is_killed) {
                    Ok(flit) => flit,
                    Err(frozen) => {
                        if frozen && blocked.is_none() {
                            blocked = Some(StallCause::BusyChannel);
                        }
                        continue;
                    }
                };
                used[word] |= bit;
                let out = &mut self.ports[port].vcs[vc];
                out.credits -= 1;
                if flit.is_tail() {
                    out.owner = None;
                    released = true;
                }
                emit(Traversal {
                    flit,
                    from_port: ip,
                    from_vc: iv,
                    target: RouteTarget::Link {
                        port: PortId::from_index(port),
                        vc: VcId::from_index(vc),
                    },
                });
                sent = true;
                break; // this physical port is used this cycle
            }
            let out = &mut self.ports[port];
            if sent && blocked.is_none() && out.open.is_none() {
                // Streaming: `note_link_cycle` would count the flit
                // and find no stall to attribute and no streak to
                // close, and only a tail's release can take the port
                // off the worklist.
                out.stats.flits_forwarded += 1;
                if released {
                    self.refresh_busy(port);
                }
                continue;
            }
            Self::note_link_cycle(
                out,
                &mut self.open_streaks,
                &mut self.finished_streaks,
                self.record_streaks,
                self.dead_out[port],
                PortId::from_index(port),
                now,
                sent,
                blocked,
            );
            self.refresh_busy(port);
        }

        // Ejection ports: one flit each per cycle.
        for e in 0..self.ejects.len() {
            let EjectPort {
                owner: Some((ip, iv)),
                held: false,
            } = self.ejects[e]
            else {
                continue;
            };
            let (word, bit) = bit_of(ip);
            if used[word] & bit != 0 {
                continue;
            }
            let Ok(flit) = self.pop_for_traversal(now, self.in_idx(ip, iv), is_killed) else {
                continue;
            };
            used[word] |= bit;
            if flit.is_tail() {
                self.ejects[e].owner = None;
            }
            emit(Traversal {
                flit,
                from_port: ip,
                from_vc: iv,
                target: RouteTarget::Eject { port: e },
            });
        }
    }

    /// Folds one cycle's outcome for a neighbor output port into its
    /// [`LinkStats`] and streak state. Associated function (not a
    /// method) so `traverse_each` can call it under its outstanding
    /// disjoint field borrows.
    #[allow(clippy::too_many_arguments)]
    #[inline]
    fn note_link_cycle(
        OutPort { stats, open, .. }: &mut OutPort,
        open_count: &mut u32,
        finished: &mut Vec<LinkStallStreak>,
        record: bool,
        dead: bool,
        port: PortId,
        now: Cycle,
        sent: bool,
        blocked: Option<StallCause>,
    ) {
        if sent {
            stats.flits_forwarded += 1;
        }
        // A dead output link dominates any other attribution: the flit
        // is never leaving this way, whatever the credits say.
        let cause = match blocked {
            Some(_) if dead => Some(StallCause::DeadLink),
            c => c,
        };
        match cause {
            Some(StallCause::BusyChannel) => stats.stall_busy += 1,
            Some(StallCause::DeadLink) => stats.stall_dead_link += 1,
            Some(StallCause::Backpressure) => stats.stall_backpressure += 1,
            None => {}
        }
        match open {
            Some((c, _, cycles)) if Some(*c) == cause => *cycles += 1,
            _ => {
                // Forwarded, idle, or stalled for another cause: an
                // open streak is finished, and a stall opens the next.
                if let Some((c, since, cycles)) = open.take() {
                    *open_count -= 1;
                    if record {
                        finished.push(LinkStallStreak {
                            port,
                            cause: c,
                            since,
                            cycles,
                        });
                    }
                }
                if let Some(cause) = cause {
                    *open = Some((cause, now, 1));
                    *open_count += 1;
                }
            }
        }
    }

    /// Per-neighbor-output-port utilization/stall counters, indexed by
    /// port. Always maintained (tracing on or off).
    pub fn link_stats(&self) -> Vec<LinkStats> {
        self.port_stats().copied().collect()
    }

    /// [`Router::link_stats`] without collecting them, port by port.
    pub fn port_stats(&self) -> impl ExactSizeIterator<Item = &LinkStats> + '_ {
        self.ports.iter().map(|p| &p.stats)
    }

    /// If input VC `(port, vc)` streams `worm` on a channel of its
    /// own — the VC holds a consecutive run of the worm's body or pad
    /// flits (see [`crate::flit::stream_run`]) with room for the next
    /// one in, and its output has a credit, a live link, no open stall
    /// streak and no sibling VC allocated — returns where the worm goes
    /// and which of its flits the VC holds. Nothing else in the router
    /// is looked at: other ports keep stepping beside the stream. The
    /// worm-train formation walk asks this of every hop of a path.
    pub fn channel_stream(
        &self,
        port: PortId,
        vc: VcId,
        worm: WormId,
    ) -> Result<LoneStream, NoStream> {
        let k = self.in_idx(port, vc);
        let ivc = &self.inputs[k];
        let target = ivc.route.filter(|_| ivc.worm == Some(worm));
        let target = target.ok_or(NoStream::Shared)?;
        let seqs = crate::flit::stream_run(ivc.buf.iter(self.slots(k)), worm);
        let seqs = seqs.ok_or(NoStream::NotStreaming)?;
        if ivc.buf.len() == ivc.seg().len() {
            return Err(NoStream::NotStreaming);
        }
        if let RouteTarget::Link { port: op, vc: ov } = target {
            let out = &self.ports[op.index()];
            let sibling = |(v, o): (usize, &OutputVc)| v != ov.index() && o.owner.is_some();
            if out.vcs.iter().enumerate().any(sibling) {
                return Err(NoStream::Shared);
            }
            if out.open.is_some() || out.vcs[ov.index()].credits == 0 || self.dead_out[op.index()] {
                return Err(NoStream::NotStreaming);
            }
        }
        Ok(LoneStream { target, seqs })
    }

    /// Whether input VC `(port, vc)` holds the router's only work: every
    /// buffered flit is in it, no input is unrouted, no stall streak is
    /// open and no output VC or ejection port is allocated but its own
    /// route. A stream out of a multi-VC physical channel is held with
    /// the whole router, because a header routed here could win a
    /// sibling VC and share the channel's bandwidth.
    pub fn alone_with(&self, port: PortId, vc: VcId) -> bool {
        let k = self.in_idx(port, vc);
        let ivc = &self.inputs[k];
        let ours = Some((port, vc));
        let route = ivc.route;
        let only = |o: Option<(PortId, VcId)>, target: RouteTarget| {
            o.is_none() || (o == ours && route == Some(target))
        };
        self.occupancy == ivc.buf.len()
            && self.unrouted.is_empty()
            && self.open_streaks == 0
            && self.ports.iter().enumerate().all(|(p, out)| {
                out.vcs.iter().enumerate().all(|(v, o)| {
                    let target = RouteTarget::Link {
                        port: PortId::from_index(p),
                        vc: VcId::from_index(v),
                    };
                    only(o.owner, target)
                })
            })
            && (self.ejects.iter().enumerate())
                .all(|(e, o)| only(o.owner, RouteTarget::Eject { port: e }))
    }

    /// Hands the stream [`Router::channel_stream`] found at input VC
    /// `(port, vc)` to a worm train: its output VC (or ejection port)
    /// leaves the traversal stage and its flits stop counting as work
    /// for [`Router::needs_visit`], until [`Router::release_stream`].
    /// Every other port keeps stepping.
    pub fn hold_stream(&mut self, port: PortId, vc: VcId) {
        self.set_held(port, vc, true);
    }

    /// Gives a held stream back to the traversal stage.
    pub fn release_stream(&mut self, port: PortId, vc: VcId) {
        self.set_held(port, vc, false);
    }

    fn set_held(&mut self, port: PortId, vc: VcId, held: bool) {
        let k = self.in_idx(port, vc);
        let len = size32(self.inputs[k].buf.len());
        if held {
            self.held_flits += len;
        } else {
            self.held_flits -= len;
        }
        match self.inputs[k].route {
            Some(RouteTarget::Link { port: op, vc: ov }) => {
                let (p, v) = self.out_idx(op, ov);
                self.ports[p].vcs[v].held = held;
                self.refresh_busy(p);
            }
            Some(RouteTarget::Eject { port: e }) => self.ejects[e].held = held,
            None => debug_assert!(false, "held a stream with no route"),
        }
    }

    /// Advances the stream [`Router::channel_stream`] found at input VC
    /// `(port, vc)` by `d` cycles in closed form: each buffered flit
    /// becomes the flit `d` places further down the worm in the same
    /// slot, `d` more flits count as forwarded (out of the output port,
    /// for a link route), and the VC last moved at `upto`.
    pub fn advance_stream(&mut self, port: PortId, vc: VcId, d: u32, upto: Cycle) {
        if d == 0 {
            return;
        }
        let k = self.in_idx(port, vc);
        let ivc = &mut self.inputs[k];
        let slots = self.slab.get_mut(ivc.seg()).unwrap_or_default();
        for f in ivc.buf.iter_mut(slots) {
            *f = f.advanced(d);
        }
        ivc.last_progress = upto;
        self.counters.flits_forwarded += u64::from(d);
        if let Some(RouteTarget::Link { port: op, .. }) = ivc.route {
            self.ports[op.index()].stats.flits_forwarded += u64::from(d);
        }
    }

    /// Turns finished-stall-streak recording on or off. Off (the
    /// default), streaks are tracked but discarded as they finish, so
    /// nothing accumulates; on, the network drains them into
    /// `LinkStall` trace events via [`Router::drain_streaks_into`].
    pub fn set_record_streaks(&mut self, record: bool) {
        self.record_streaks = record;
        if !record {
            self.finished_streaks.clear();
        }
    }

    /// Moves all finished stall streaks into `out` (appended, not
    /// cleared), oldest first. Streaks still open when the run ends
    /// are not reported as streaks — their cycles are already in
    /// [`Router::link_stats`].
    pub fn drain_streaks_into(&mut self, out: &mut Vec<LinkStallStreak>) {
        out.append(&mut self.finished_streaks);
    }

    /// Adds one credit to output `(port, vc)` — the downstream input
    /// VC freed a buffer slot.
    ///
    /// # Panics
    ///
    /// Panics if credits would exceed the downstream buffer depth
    /// (double-return bug).
    #[inline]
    pub fn add_credit(&mut self, port: PortId, vc: VcId) {
        let (p, v) = self.out_idx(port, vc);
        let out = &mut self.ports[p].vcs[v];
        assert!(
            (out.credits as usize) < self.cfg.buffer_depth + self.cfg.link_depth,
            "credit overflow on {} {port} {vc}",
            self.node
        );
        out.credits += 1;
    }

    /// Removes every flit of `worm` from input VC `(port, vc)` and
    /// releases the worm's allocated output, if it owned one.
    ///
    /// This is the teardown primitive used by CR kill tokens: the
    /// caller (the network) walks the returned [`RouteTarget`] to the
    /// next router and repeats, and returns `flushed` credits to the
    /// upstream router.
    pub fn flush_worm(&mut self, port: PortId, vc: VcId, worm: WormId) -> FlushResult {
        let k = self.in_idx(port, vc);
        let ivc = &mut self.inputs[k];
        let slots = self.slab.get_mut(ivc.seg()).unwrap_or_default();
        let flushed = ivc.buf.retain(slots, |f| f.worm != worm);
        self.occupancy -= flushed;
        self.counters.flits_flushed += flushed as u64;
        let mut released = None;
        if ivc.worm == Some(worm) {
            released = ivc.route.take();
            ivc.worm = None;
        }
        // Both the flush and the release can move the VC on or off
        // the allocation worklist.
        self.unrouted.set(k, ivc.is_unrouted());
        match released {
            Some(RouteTarget::Link { port: op, vc: ov }) => {
                let (p, v) = self.out_idx(op, ov);
                debug_assert!(!self.ports[p].vcs[v].held, "flushed a held stream");
                self.ports[p].vcs[v].owner = None;
                self.refresh_busy(p);
            }
            Some(RouteTarget::Eject { port: ep }) => {
                debug_assert!(!self.ejects[ep].held, "flushed a held stream");
                self.ejects[ep].owner = None;
            }
            None => {}
        }
        FlushResult { flushed, released }
    }

    /// The route target currently allocated to input VC `(port, vc)`,
    /// if any.
    pub fn route_of(&self, port: PortId, vc: VcId) -> Option<RouteTarget> {
        self.input(port, vc).route
    }

    /// The worm currently owning input VC `(port, vc)`, if any.
    pub fn worm_of(&self, port: PortId, vc: VcId) -> Option<WormId> {
        self.input(port, vc).worm
    }

    /// Which input VC holds output `(port, vc)`, if any.
    pub fn output_owner(&self, port: PortId, vc: VcId) -> Option<(PortId, VcId)> {
        self.output(port, vc).owner
    }

    /// Current credit count of output `(port, vc)`.
    pub fn credits(&self, port: PortId, vc: VcId) -> usize {
        self.output(port, vc).credits as usize
    }

    /// Returns `true` if input VC `(port, vc)` has no free buffer
    /// slot (the arriving flit must wait in the channel latches).
    #[inline]
    pub fn vc_is_full(&self, port: PortId, vc: VcId) -> bool {
        let ivc = self.input(port, vc);
        ivc.buf.len() == ivc.seg().len()
    }

    /// Number of flits buffered in input VC `(port, vc)`.
    pub fn occupancy(&self, port: PortId, vc: VcId) -> usize {
        self.input(port, vc).buf.len()
    }

    /// The head-of-line flit of input VC `(port, vc)`, if any.
    pub fn front_flit(&self, port: PortId, vc: VcId) -> Option<&Flit> {
        let k = self.in_idx(port, vc);
        self.inputs[k].buf.front(self.slots(k))
    }

    /// The flit at queue position `i` (0 = front) of input VC
    /// `(port, vc)`, or `None` past the back. The model checker walks
    /// whole buffers with this when encoding a canonical state.
    pub fn flit_at(&self, port: PortId, vc: VcId, i: usize) -> Option<&Flit> {
        let k = self.in_idx(port, vc);
        self.inputs[k].buf.get(self.slots(k), i)
    }

    /// Which input VC holds ejection port `e`, if any.
    pub fn eject_owner(&self, e: usize) -> Option<(PortId, VcId)> {
        self.ejects[e].owner
    }

    /// Position of this router's adaptive tie-break RNG, in 32-bit
    /// keystream words consumed. Part of the checker's canonical state:
    /// the stream itself is fixed by the seed, so the position pins all
    /// future draws.
    pub fn rng_words_consumed(&self) -> u64 {
        self.rng.words_consumed()
    }

    /// Total flits buffered anywhere in this router. O(1): maintained
    /// incrementally at every push/pop/flush site.
    pub fn total_occupancy(&self) -> usize {
        debug_assert_eq!(
            self.occupancy,
            self.inputs.iter().map(|ivc| ivc.buf.len()).sum::<usize>(),
            "incremental occupancy diverged at {}",
            self.node
        );
        self.occupancy
    }

    /// `true` while any neighbor output port has an open (unfinished)
    /// stall streak. The active-set scheduler must keep stepping such
    /// a router — only [`Router::traverse_each`] can close the streak,
    /// and closing it late would reorder `LinkStall` trace events.
    pub fn has_open_streaks(&self) -> bool {
        debug_assert_eq!(
            self.open_streaks as usize,
            self.ports.iter().filter(|p| p.open.is_some()).count(),
            "incremental open-streak count diverged at {}",
            self.node
        );
        self.open_streaks > 0
    }

    /// Whether a visit has anything to do: a flit outside the streams
    /// worm trains hold, or an open stall streak. The active-set
    /// scheduler keeps exactly these routers armed; a router whose only
    /// flits are held is a no-op to visit (its held outputs are off the
    /// traversal worklist, its held ejection ports skipped, its held
    /// VCs routed).
    pub fn needs_visit(&self) -> bool {
        self.total_occupancy() > self.held_flits as usize || self.has_open_streaks()
    }

    /// Size of the allocation worklist: input VCs that are non-empty
    /// with no route. [`Router::route_and_allocate`] is a no-op that
    /// draws no randomness while this is zero. O(1): maintained at
    /// every site that fills, drains, routes or releases a VC.
    pub fn unrouted_inputs(&self) -> usize {
        debug_assert!(self.worklists_exact(), "worklists diverged");
        self.unrouted.len()
    }

    /// Size of the traversal worklist: neighbor output ports with an
    /// allocated VC or an open stall streak. While this is zero,
    /// [`Router::traverse_each`] touches no neighbor output port.
    /// O(1): maintained at every grant, release and streak change.
    pub fn busy_outputs(&self) -> usize {
        debug_assert!(self.worklists_exact(), "worklists diverged");
        self.busy_out.len()
    }

    /// Input VCs that hold a worm but have not forwarded a flit for at
    /// least `threshold` cycles — the path-wide stall detector of the
    /// alternative kill scheme the paper compares against.
    pub fn stalled_worms(&self, now: Cycle, threshold: u64) -> Vec<(PortId, VcId, WormId)> {
        let mut out = Vec::new();
        self.stalled_worms_into(now, threshold, &mut out);
        out
    }

    /// [`Router::stalled_worms`] into a caller-owned buffer (appended,
    /// not cleared) — the path-wide detector polls every router every
    /// cycle and reuses one list.
    pub fn stalled_worms_into(
        &self,
        now: Cycle,
        threshold: u64,
        out: &mut Vec<(PortId, VcId, WormId)>,
    ) {
        for (k, ivc) in self.inputs.iter().enumerate() {
            let Some(front) = ivc.buf.front(self.slots(k)) else {
                continue;
            };
            if now.saturating_since(ivc.last_progress) >= threshold {
                let (port, vc) = self.in_pv(k);
                out.push((port, vc, ivc.worm.unwrap_or(front.worm)));
            }
        }
    }

    /// Drains the pending upstream-credit notices for orphan drops
    /// (see [`RouterCounters::orphan_flits_dropped`]).
    pub fn take_orphan_credits(&mut self) -> Vec<(PortId, VcId)> {
        std::mem::take(&mut self.orphan_credits)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flit::worm_flits;
    use crate::routing::MinimalAdaptive;
    use cr_sim::MessageId;
    use cr_topology::KAryNCube;

    fn cfg() -> RouterConfig {
        RouterConfig {
            num_node_ports: 2, // 1-D torus
            num_vcs: 1,
            buffer_depth: 2,
            num_inject: 1,
            inject_depth: 2,
            num_eject: 1,
            link_depth: 0,
        }
    }

    fn router(node: u32) -> Router {
        Router::new(NodeId::new(node), cfg(), SimRng::from_seed(1))
    }

    fn worm(src: u32, dst: u32, len: u32, msg: u64) -> Vec<Flit> {
        worm_flits(
            WormId::new(MessageId::new(msg), 0),
            NodeId::new(src),
            NodeId::new(dst),
            len,
            0,
            0,
            Cycle::ZERO,
        )
        .collect()
    }

    #[test]
    fn header_gets_routed_and_flits_flow() {
        let topo = KAryNCube::torus(4, 1);
        let rf = MinimalAdaptive::new(1);
        let mut r = router(0);
        let flits = worm(3, 1, 3, 1); // passing through node 0 toward 1
        // Header arrives on input port 1 (-x input faces node 3... the
        // exact port does not matter to the router).
        let now = Cycle::ZERO;
        r.accept(now, PortId::new(1), VcId::new(0), flits[0]);
        r.route_and_allocate(now, &rf, &topo, &|_| false);
        assert!(r.route_of(PortId::new(1), VcId::new(0)).is_some());
        let t = r.traverse(now, &|_| false);
        assert_eq!(t.len(), 1);
        assert!(t[0].flit.is_head());
        match t[0].target {
            RouteTarget::Link { port, .. } => assert_eq!(port, PortId::new(0)),
            _ => panic!("expected link target"),
        }
        // Body and tail follow without re-routing.
        r.accept(now, PortId::new(1), VcId::new(0), flits[1]);
        r.accept(now, PortId::new(1), VcId::new(0), flits[2]);
        let t = r.traverse(now + 1, &|_| false);
        assert_eq!(t.len(), 1);
        assert!(!t[0].flit.is_head());
        // Two credits are spent; the downstream router must free a slot
        // before the tail can move.
        r.add_credit(PortId::new(0), VcId::new(0));
        let t = r.traverse(now + 2, &|_| false);
        assert_eq!(t.len(), 1);
        assert!(t[0].flit.is_tail());
        // Tail released the channel.
        assert!(r.route_of(PortId::new(1), VcId::new(0)).is_none());
        assert!(r.output_owner(PortId::new(0), VcId::new(0)).is_none());
    }

    #[test]
    fn ejection_at_destination() {
        let topo = KAryNCube::torus(4, 1);
        let rf = MinimalAdaptive::new(1);
        let mut r = router(2);
        let flits = worm(0, 2, 2, 1);
        let now = Cycle::ZERO;
        r.accept(now, PortId::new(1), VcId::new(0), flits[0]);
        r.accept(now, PortId::new(1), VcId::new(0), flits[1]);
        r.route_and_allocate(now, &rf, &topo, &|_| false);
        assert_eq!(
            r.route_of(PortId::new(1), VcId::new(0)),
            Some(RouteTarget::Eject { port: 0 })
        );
        let t = r.traverse(now, &|_| false);
        assert_eq!(t.len(), 1);
        assert!(matches!(t[0].target, RouteTarget::Eject { port: 0 }));
        let t = r.traverse(now + 1, &|_| false);
        assert!(t[0].flit.is_tail());
        // Eject port released.
        r.accept(now + 2, PortId::new(0), VcId::new(0), worm(1, 2, 2, 2)[0]);
        r.route_and_allocate(now + 2, &rf, &topo, &|_| false);
        assert!(r.route_of(PortId::new(0), VcId::new(0)).is_some());
    }

    #[test]
    fn credits_block_traversal() {
        let topo = KAryNCube::torus(4, 1);
        let rf = MinimalAdaptive::new(1);
        let mut r = router(0);
        // Destination 1 is one hop away: port 0 is the unique minimal
        // direction, so the credit observations below are well-defined.
        let flits = worm(3, 1, 6, 1);
        let now = Cycle::ZERO;
        for f in &flits[..2] {
            r.accept(now, PortId::new(1), VcId::new(0), *f);
        }
        r.route_and_allocate(now, &rf, &topo, &|_| false);
        // Drain the 2 credits.
        assert_eq!(r.traverse(now, &|_| false).len(), 1);
        assert_eq!(r.traverse(now + 1, &|_| false).len(), 1);
        assert_eq!(r.credits(PortId::new(0), VcId::new(0)), 0);
        // More flits buffered but no credits: stall.
        r.accept(now + 2, PortId::new(1), VcId::new(0), flits[2]);
        assert!(r.traverse(now + 2, &|_| false).is_empty());
        // Credit return unblocks.
        r.add_credit(PortId::new(0), VcId::new(0));
        assert_eq!(r.traverse(now + 3, &|_| false).len(), 1);
    }

    #[test]
    fn one_flit_per_output_port_per_cycle() {
        let topo = KAryNCube::torus(4, 1);
        let rf = MinimalAdaptive::new(2);
        let mut r = Router::new(
            NodeId::new(0),
            RouterConfig {
                num_vcs: 2,
                ..cfg()
            },
            SimRng::from_seed(2),
        );
        // Two worms on different VCs, both heading out port 0.
        let w1 = worm(3, 1, 2, 1);
        let w2 = worm(3, 1, 2, 2);
        let now = Cycle::ZERO;
        r.accept(now, PortId::new(1), VcId::new(0), w1[0]);
        r.accept(now, PortId::new(1), VcId::new(1), w2[0]);
        r.route_and_allocate(now, &rf, &topo, &|_| false);
        // Both allocated (different output VCs of port 0)...
        assert!(r.route_of(PortId::new(1), VcId::new(0)).is_some());
        assert!(r.route_of(PortId::new(1), VcId::new(1)).is_some());
        // ...but only one flit crosses per cycle (also input-port
        // bandwidth: both share input port 1).
        assert_eq!(r.traverse(now, &|_| false).len(), 1);
        assert_eq!(r.traverse(now + 1, &|_| false).len(), 1);
    }

    #[test]
    fn injection_backpressure_visible() {
        let mut r = router(0);
        let flits = worm(0, 2, 6, 1);
        let now = Cycle::ZERO;
        assert_eq!(r.injection_free(0), 2);
        assert!(r.try_inject(now, 0, flits[0]));
        assert!(r.try_inject(now, 0, flits[1]));
        assert!(!r.try_inject(now, 0, flits[2]), "FIFO full: back-pressure");
        assert_eq!(r.injection_free(0), 0);
    }

    #[test]
    fn flush_worm_releases_everything() {
        let topo = KAryNCube::torus(4, 1);
        let rf = MinimalAdaptive::new(1);
        let mut r = router(0);
        let flits = worm(3, 2, 6, 1);
        let now = Cycle::ZERO;
        r.accept(now, PortId::new(1), VcId::new(0), flits[0]);
        r.accept(now, PortId::new(1), VcId::new(0), flits[1]);
        r.route_and_allocate(now, &rf, &topo, &|_| false);
        let w = flits[0].worm;
        let res = r.flush_worm(PortId::new(1), VcId::new(0), w);
        assert_eq!(res.flushed, 2);
        assert!(matches!(res.released, Some(RouteTarget::Link { .. })));
        assert!(r.route_of(PortId::new(1), VcId::new(0)).is_none());
        assert!(r.output_owner(PortId::new(0), VcId::new(0)).is_none());
        assert_eq!(r.occupancy(PortId::new(1), VcId::new(0)), 0);
        // Flushing again is a no-op.
        let res2 = r.flush_worm(PortId::new(1), VcId::new(0), w);
        assert_eq!(res2.flushed, 0);
        assert_eq!(res2.released, None);
    }

    #[test]
    fn flush_preserves_other_worms_flits() {
        let mut r = router(0);
        let w1 = worm(3, 2, 2, 1);
        let w2 = worm(3, 1, 2, 2);
        let now = Cycle::ZERO;
        // Tail of w1 then header of w2 share the FIFO.
        r.accept(now, PortId::new(1), VcId::new(0), w1[1]);
        r.accept(now, PortId::new(1), VcId::new(0), w2[0]);
        let res = r.flush_worm(PortId::new(1), VcId::new(0), w2[0].worm);
        assert_eq!(res.flushed, 1);
        assert_eq!(r.occupancy(PortId::new(1), VcId::new(0)), 1);
        assert_eq!(
            r.front_flit(PortId::new(1), VcId::new(0)).unwrap().worm,
            w1[0].worm
        );
    }

    #[test]
    fn stalled_worm_detection() {
        let topo = KAryNCube::torus(4, 1);
        let rf = MinimalAdaptive::new(1);
        let mut r = router(0);
        let flits = worm(3, 2, 6, 1);
        r.accept(Cycle::ZERO, PortId::new(1), VcId::new(0), flits[0]);
        r.route_and_allocate(Cycle::ZERO, &rf, &topo, &|_| false);
        // Drain credits so the worm jams.
        let _ = r.traverse(Cycle::ZERO, &|_| false);
        r.accept(Cycle::new(1), PortId::new(1), VcId::new(0), flits[1]);
        let _ = r.traverse(Cycle::new(1), &|_| false);
        r.accept(Cycle::new(2), PortId::new(1), VcId::new(0), flits[2]);
        assert!(r.traverse(Cycle::new(2), &|_| false).is_empty(), "out of credits");
        assert!(r.stalled_worms(Cycle::new(10), 20).is_empty());
        let stalled = r.stalled_worms(Cycle::new(40), 20);
        assert_eq!(stalled.len(), 1);
        assert_eq!(stalled[0].2, flits[0].worm);
    }

    #[test]
    fn dead_port_blocks_routing() {
        let topo = KAryNCube::torus(4, 1);
        let rf = MinimalAdaptive::new(1);
        let mut r = router(0);
        r.set_dead_out(PortId::new(0));
        let flits = worm(3, 1, 2, 1); // must leave via +x = port 0
        r.accept(Cycle::ZERO, PortId::new(1), VcId::new(0), flits[0]);
        r.route_and_allocate(Cycle::ZERO, &rf, &topo, &|_| false);
        assert!(r.route_of(PortId::new(1), VcId::new(0)).is_none());
        assert_eq!(r.counters().unroutable_headers, 1);
    }

    #[test]
    #[should_panic]
    fn credit_overflow_is_a_bug() {
        let mut r = router(0);
        r.add_credit(PortId::new(0), VcId::new(0)); // already at depth
    }

    #[test]
    fn stall_attribution_backpressure() {
        let topo = KAryNCube::torus(4, 1);
        let rf = MinimalAdaptive::new(1);
        let mut r = router(0);
        let flits = worm(3, 1, 6, 1);
        let now = Cycle::ZERO;
        for f in &flits[..2] {
            r.accept(now, PortId::new(1), VcId::new(0), *f);
        }
        r.route_and_allocate(now, &rf, &topo, &|_| false);
        // Two forwards drain the credits; later cycles stall on
        // backpressure with a flit still buffered.
        assert_eq!(r.traverse(now, &|_| false).len(), 1);
        assert_eq!(r.traverse(now + 1, &|_| false).len(), 1);
        r.accept(now + 2, PortId::new(1), VcId::new(0), flits[2]);
        assert!(r.traverse(now + 2, &|_| false).is_empty());
        assert!(r.traverse(now + 3, &|_| false).is_empty());
        let s = r.link_stats()[0];
        assert_eq!(s.flits_forwarded, 2);
        assert_eq!(s.stall_backpressure, 2);
        assert_eq!(s.stall_busy, 0);
        assert_eq!(s.stall_dead_link, 0);
        assert_eq!(s.stall_total(), 2);
    }

    #[test]
    fn stall_attribution_busy_channel() {
        let topo = KAryNCube::torus(4, 1);
        let rf = MinimalAdaptive::new(2);
        let mut r = Router::new(
            NodeId::new(0),
            RouterConfig {
                num_vcs: 2,
                ..cfg()
            },
            SimRng::from_seed(2),
        );
        // Two worms sharing input port 1 but bound for different
        // output ports: whichever port loses the shared input that
        // cycle records a busy-channel stall.
        let w1 = worm(3, 1, 2, 1); // out port 0
        let w2 = worm(3, 3, 2, 2); // out port 1 (wraps -x)
        let now = Cycle::ZERO;
        r.accept(now, PortId::new(1), VcId::new(0), w1[0]);
        r.accept(now, PortId::new(1), VcId::new(1), w2[0]);
        r.route_and_allocate(now, &rf, &topo, &|_| false);
        assert!(r.route_of(PortId::new(1), VcId::new(0)).is_some());
        assert!(r.route_of(PortId::new(1), VcId::new(1)).is_some());
        assert_eq!(r.traverse(now, &|_| false).len(), 1);
        let stats = r.link_stats();
        assert_eq!(
            stats[0].flits_forwarded + stats[1].flits_forwarded,
            1,
            "one flit crossed"
        );
        assert_eq!(
            stats[0].stall_busy + stats[1].stall_busy,
            1,
            "the loser of the shared input port stalls busy"
        );
    }

    #[test]
    fn stall_attribution_dead_link_dominates() {
        let topo = KAryNCube::torus(4, 1);
        let rf = MinimalAdaptive::new(1);
        let mut r = router(0);
        let flits = worm(3, 1, 6, 1);
        let now = Cycle::ZERO;
        for f in &flits[..2] {
            r.accept(now, PortId::new(1), VcId::new(0), *f);
        }
        r.route_and_allocate(now, &rf, &topo, &|_| false);
        assert_eq!(r.traverse(now, &|_| false).len(), 1);
        assert_eq!(r.traverse(now + 1, &|_| false).len(), 1);
        // The link dies mid-worm: the credit stall is re-attributed.
        r.set_dead_out(PortId::new(0));
        r.accept(now + 2, PortId::new(1), VcId::new(0), flits[2]);
        assert!(r.traverse(now + 2, &|_| false).is_empty());
        let s = r.link_stats()[0];
        assert_eq!(s.stall_dead_link, 1);
        assert_eq!(s.stall_backpressure, 0);
        assert_eq!(s.stall_for(StallCause::DeadLink), 1);
    }

    #[test]
    fn stall_streaks_recorded_only_when_enabled() {
        let topo = KAryNCube::torus(4, 1);
        let rf = MinimalAdaptive::new(1);
        let mut r = router(0);
        let flits = worm(3, 1, 6, 1);
        let now = Cycle::ZERO;
        for f in &flits[..2] {
            r.accept(now, PortId::new(1), VcId::new(0), *f);
        }
        r.route_and_allocate(now, &rf, &topo, &|_| false);
        assert_eq!(r.traverse(now, &|_| false).len(), 1);
        assert_eq!(r.traverse(now + 1, &|_| false).len(), 1);
        // Two stalled cycles with recording off leave nothing behind.
        r.accept(now + 2, PortId::new(1), VcId::new(0), flits[2]);
        assert!(r.traverse(now + 2, &|_| false).is_empty());
        assert!(r.traverse(now + 3, &|_| false).is_empty());
        let mut streaks = Vec::new();
        r.add_credit(PortId::new(0), VcId::new(0));
        assert_eq!(r.traverse(now + 4, &|_| false).len(), 1);
        r.drain_streaks_into(&mut streaks);
        assert!(streaks.is_empty(), "recording was off");
        // Again with recording on: stall twice, then forward to close
        // the streak.
        r.set_record_streaks(true);
        r.accept(now + 5, PortId::new(1), VcId::new(0), flits[3]);
        r.accept(now + 5, PortId::new(1), VcId::new(0), flits[4]);
        assert!(r.traverse(now + 5, &|_| false).is_empty());
        assert!(r.traverse(now + 6, &|_| false).is_empty());
        r.add_credit(PortId::new(0), VcId::new(0));
        assert_eq!(r.traverse(now + 7, &|_| false).len(), 1);
        r.drain_streaks_into(&mut streaks);
        assert_eq!(streaks.len(), 1);
        assert_eq!(streaks[0].port, PortId::new(0));
        assert_eq!(streaks[0].cause, StallCause::Backpressure);
        assert_eq!(streaks[0].since, now + 5);
        assert_eq!(streaks[0].cycles, 2);
    }

    #[test]
    fn orphan_body_flit_dropped_with_credit_notice() {
        let topo = KAryNCube::torus(4, 1);
        let rf = MinimalAdaptive::new(1);
        let mut r = router(0);
        let flits = worm(3, 1, 3, 1);
        // A body flit arrives with no preceding header (worm was torn
        // down upstream).
        r.accept(Cycle::ZERO, PortId::new(1), VcId::new(0), flits[1]);
        r.route_and_allocate(Cycle::ZERO, &rf, &topo, &|_| false);
        assert_eq!(r.counters().orphan_flits_dropped, 1);
        assert_eq!(r.occupancy(PortId::new(1), VcId::new(0)), 0);
        let credits = r.take_orphan_credits();
        assert_eq!(credits, vec![(PortId::new(1), VcId::new(0))]);
        assert!(r.take_orphan_credits().is_empty(), "drained");
    }

    /// A tripwire, not a law: these records are what a flit hop reads,
    /// and every byte is paid once per router or per port of a
    /// 16 384-node fabric. Re-record on purpose, with the reason.
    #[test]
    fn record_sizes_stay_within_budget() {
        use std::mem::{offset_of, size_of};
        assert_eq!(size_of::<Router>(), 560, "Router bytes");
        assert_eq!(size_of::<OutPort>(), 128, "OutPort bytes");
        assert_eq!(size_of::<InputVc>(), 64, "InputVc bytes");
        // Everything a streaming visit reads of the router record
        // itself sits in front of the RNG, in its first six lines.
        assert_eq!(offset_of!(Router, rng), 336, "hot prefix of Router");
    }
}
