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
//! The router is deliberately protocol-agnostic: it neither times out
//! nor kills. The CR/FCR machinery drives it through
//! [`Router::flush_worm`] (teardown) and the counters it exposes.

use crate::flit::{Flit, WormId};
use crate::routing::{Candidate, RouteCtx, RoutingFunction};
use cr_sim::trace::StallCause;
use cr_sim::{Cycle, Fifo, NodeId, PortId, SimRng, VcId};
use cr_topology::Topology;

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
    /// plain `u64` sums, so merging per-shard accumulators in any
    /// order yields the same totals the serial stepper counts — this
    /// is what lets the sharded stepper fold per-router stats into
    /// one `SimReport` deterministically.
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

/// Result of flushing one worm out of one input VC.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FlushResult {
    /// Flits removed from the FIFO.
    pub flushed: usize,
    /// The downstream hop the worm had allocated, if any — the next
    /// stop for a teardown token.
    pub released: Option<RouteTarget>,
}

#[derive(Debug)]
struct InputVc {
    buf: Fifo<Flit>,
    route: Option<RouteTarget>,
    worm: Option<WormId>,
    /// Last cycle a flit was forwarded out of this VC (or arrived into
    /// an empty VC); drives path-wide stall detection.
    last_progress: Cycle,
}

impl InputVc {
    fn new(depth: usize) -> Self {
        InputVc {
            buf: Fifo::with_capacity(depth),
            route: None,
            worm: None,
            last_progress: Cycle::ZERO,
        }
    }

    /// Non-empty with no route: the allocation stage has something to
    /// do here (route a header, drop an orphan, or wait out a kill).
    fn is_unrouted(&self) -> bool {
        self.route.is_none() && !self.buf.is_empty()
    }
}

#[derive(Debug, Clone, Copy)]
struct OutputVc {
    /// Flat index of the input VC currently holding this output
    /// channel.
    allocated_to: Option<usize>,
    /// Free buffer slots at the downstream input VC.
    credits: usize,
}

#[derive(Debug, Clone, Copy, Default)]
struct EjectPort {
    /// Flat index of the input VC holding this ejection port.
    allocated_to: Option<usize>,
}

/// A set over a small fixed universe `0..n`, one bit per member — the
/// shape of the router's two worklists. Membership changes are O(1),
/// the size is kept incrementally, and [`BitSet::next_in`] walks the
/// members of a range in ascending order a word at a time, so a stage
/// that visits only members costs `O(n / 64 + members)`, not `O(n)`.
#[derive(Debug)]
struct BitSet {
    words: Vec<u64>,
    len: usize,
}

impl BitSet {
    fn new(universe: usize) -> Self {
        BitSet {
            words: vec![0; universe.div_ceil(64)],
            len: 0,
        }
    }

    fn contains(&self, i: usize) -> bool {
        self.words[i / 64] >> (i % 64) & 1 != 0
    }

    fn set(&mut self, i: usize, on: bool) {
        let bit = 1u64 << (i % 64);
        let word = &mut self.words[i / 64];
        if on != (*word & bit != 0) {
            *word ^= bit;
            if on {
                self.len += 1;
            } else {
                self.len -= 1;
            }
        }
    }

    /// The smallest member in `from..to`, if any.
    fn next_in(&self, from: usize, to: usize) -> Option<usize> {
        let mut i = from;
        while i < to {
            let rest = self.words[i / 64] >> (i % 64);
            if rest != 0 {
                let member = i + rest.trailing_zeros() as usize;
                return (member < to).then_some(member);
            }
            i = (i / 64 + 1) * 64;
        }
        None
    }
}

/// The wormhole router for one node. See the module docs for the
/// microarchitecture.
#[derive(Debug)]
pub struct Router {
    node: NodeId,
    cfg: RouterConfig,
    /// Every input VC in one flat array (see [`Router::in_idx`]):
    /// neighbor port `p`'s VC `v` at `p * num_vcs + v`, then one
    /// single-VC entry per injection port.
    inputs: Vec<InputVc>,
    /// `outputs[port * num_vcs + vc]` for neighbor ports only.
    outputs: Vec<OutputVc>,
    ejects: Vec<EjectPort>,
    dead_out: Vec<bool>,
    counters: RouterCounters,
    rng: SimRng,
    /// (port, vc) pairs whose orphan drop needs an upstream credit.
    orphan_credits: Vec<(PortId, VcId)>,
    /// Flat input index -> `(port, vc)`; the input geometry never
    /// changes after construction.
    input_list: Vec<(PortId, VcId)>,
    /// Routing-candidate scratch, reused across headers and cycles.
    candidates: Vec<Candidate>,
    /// Per-cycle "input port already supplied a flit" flags, reused
    /// across cycles.
    input_used: Vec<bool>,
    /// Per-neighbor-output-port utilization/stall counters.
    link_stats: Vec<LinkStats>,
    /// Open stall streak per neighbor output port: `(cause, start,
    /// length)`.
    stall_open: Vec<Option<(StallCause, Cycle, u64)>>,
    /// Finished streaks awaiting [`Router::drain_streaks_into`]; only
    /// populated while `record_streaks` is on.
    finished_streaks: Vec<LinkStallStreak>,
    /// Whether finished stall streaks are kept for the trace layer.
    record_streaks: bool,
    /// Flits buffered across all input VCs, maintained incrementally
    /// so [`Router::total_occupancy`] is O(1) — the active-set
    /// scheduler and the quiescence check probe it every cycle.
    occupancy: usize,
    /// How many entries of `stall_open` are `Some` — O(1) answer to
    /// [`Router::has_open_streaks`].
    open_streaks: usize,
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
        let mut inputs = Vec::with_capacity(cfg.num_node_ports * cfg.num_vcs + cfg.num_inject);
        let mut input_list = Vec::with_capacity(inputs.capacity());
        for p in 0..cfg.num_node_ports {
            for v in 0..cfg.num_vcs {
                inputs.push(InputVc::new(cfg.buffer_depth));
                input_list.push((PortId::from_index(p), VcId::from_index(v)));
            }
        }
        for i in 0..cfg.num_inject {
            inputs.push(InputVc::new(cfg.inject_depth));
            input_list.push((
                PortId::from_index(cfg.num_node_ports + i),
                VcId::from_index(0),
            ));
        }
        let outputs = vec![
            OutputVc {
                allocated_to: None,
                credits: cfg.buffer_depth + cfg.link_depth,
            };
            cfg.num_node_ports * cfg.num_vcs
        ];
        Router {
            node,
            cfg,
            unrouted: BitSet::new(inputs.len()),
            busy_out: BitSet::new(cfg.num_node_ports),
            inputs,
            outputs,
            ejects: vec![EjectPort::default(); cfg.num_eject],
            dead_out: vec![false; cfg.num_node_ports],
            counters: RouterCounters::default(),
            rng,
            orphan_credits: Vec::new(),
            input_list,
            candidates: Vec::new(),
            input_used: vec![false; cfg.num_node_ports + cfg.num_inject],
            link_stats: vec![LinkStats::default(); cfg.num_node_ports],
            stall_open: vec![None; cfg.num_node_ports],
            finished_streaks: Vec::new(),
            record_streaks: false,
            occupancy: 0,
            open_streaks: 0,
        }
    }

    /// Flat index of input VC `(port, vc)` in `inputs`.
    ///
    /// # Panics
    ///
    /// Panics if the pair names no input VC of this router (a flat
    /// index computed from it would alias another VC).
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

    /// Flat index of output VC `(port, vc)` in `outputs`.
    ///
    /// # Panics
    ///
    /// Panics if the pair names no neighbor output VC.
    fn out_idx(&self, port: PortId, vc: VcId) -> usize {
        assert!(
            port.index() < self.cfg.num_node_ports && vc.index() < self.cfg.num_vcs,
            "no output {port} {vc} at {}",
            self.node
        );
        port.index() * self.cfg.num_vcs + vc.index()
    }

    fn input(&self, port: PortId, vc: VcId) -> &InputVc {
        &self.inputs[self.in_idx(port, vc)]
    }

    /// Whether neighbor output `port` belongs on the traversal
    /// worklist: some VC of it is allocated, or a stall streak is open.
    fn port_is_busy(&self, port: usize) -> bool {
        let vcs = self.cfg.num_vcs;
        self.stall_open[port].is_some()
            || self.outputs[port * vcs..(port + 1) * vcs]
                .iter()
                .any(|o| o.allocated_to.is_some())
    }

    /// Re-derives `port`'s membership in the traversal worklist.
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
            && inputs.filter(|&k| unrouted(k)).count() == self.unrouted.len
            && ports.clone().all(|p| busy(p) == self.busy_out.contains(p))
            && ports.filter(|&p| busy(p)).count() == self.busy_out.len
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
    fn push_input(&mut self, now: Cycle, k: usize, flit: Flit) -> Result<(), Flit> {
        let ivc = &mut self.inputs[k];
        if ivc.buf.is_empty() {
            ivc.last_progress = now;
        }
        ivc.buf.push(flit).map_err(|full| full.0)?;
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
    pub fn accept(&mut self, now: Cycle, port: PortId, vc: VcId, flit: Flit) {
        let k = self.in_idx(port, vc);
        if self.push_input(now, k, flit).is_err() {
            // cr-lint: allow(panic-discipline, reason = "documented invariant: a full buffer here means upstream violated credit flow control, which is a simulator bug and must abort loudly, never a recoverable network state")
            panic!("credit violation at {} {port} {vc}", self.node);
        }
    }

    /// Free space in injection channel `i`'s FIFO.
    pub fn injection_free(&self, i: usize) -> usize {
        self.input(self.inject_port(i), VcId::new(0)).buf.free()
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
        let Some(front) = self.inputs[k].buf.front().copied() else {
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
            let popped = ivc.buf.pop();
            debug_assert!(popped.is_some_and(|f| !f.is_head()));
            if ivc.buf.is_empty() {
                self.unrouted.set(k, false);
            }
            self.occupancy -= 1;
            self.counters.orphan_flits_dropped += 1;
            let (port, vc) = self.input_list[k];
            if self.port_kind(port) == PortKind::Node {
                self.orphan_credits.push((port, vc));
            }
            return 1;
        }
        // Ejection?
        if front.dst == self.node {
            if let Some(e) = self.ejects.iter().position(|ej| ej.allocated_to.is_none()) {
                self.ejects[e].allocated_to = Some(k);
                self.grant(k, RouteTarget::Eject { port: e }, front.worm);
            }
            return 0;
        }
        // Network routing.
        candidates.clear();
        let mut ctx = RouteCtx {
            topo,
            node: self.node,
            flit: &front,
            dead_out: &self.dead_out,
            rng: &mut self.rng,
        };
        routing.candidates(&mut ctx, candidates);
        if candidates.is_empty() {
            self.counters.unroutable_headers += 1;
            return 0;
        }
        let free = |c: &Candidate| {
            let owner = self.outputs[self.out_idx(c.port, c.vc)].allocated_to;
            owner.is_none()
        };
        if let Some(c) = candidates.iter().copied().find(free) {
            let o = self.out_idx(c.port, c.vc);
            self.outputs[o].allocated_to = Some(k);
            self.busy_out.set(c.port.index(), true);
            self.grant(
                k,
                RouteTarget::Link {
                    port: c.port,
                    vc: c.vc,
                },
                front.worm,
            );
            if c.escape {
                self.counters.escape_allocations += 1;
                if let Some(front) = self.inputs[k].buf.front_mut() {
                    front.escaped = true;
                }
            }
        }
        0
    }

    /// Records that the header of `worm` at the front of flat input
    /// `k` won `target`; the VC leaves the allocation worklist.
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
        let Some(front) = ivc.buf.front() else {
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
        let Some(flit) = ivc.buf.pop() else {
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
        self.input_used.fill(false);

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
                let o = port * nvcs + vc;
                let Some(k) = self.outputs[o].allocated_to else {
                    continue;
                };
                let (ip, iv) = self.input_list[k];
                let credits = self.outputs[o].credits;
                if self.input_used[ip.index()] || credits == 0 {
                    if blocked.is_none() {
                        let ivc = &self.inputs[k];
                        let ready = ivc
                            .worm
                            .is_some_and(|w| ivc.buf.front().is_some_and(|f| f.worm == w));
                        if ready {
                            blocked = Some(if credits == 0 {
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
                self.input_used[ip.index()] = true;
                self.outputs[o].credits -= 1;
                if flit.is_tail() {
                    self.outputs[o].allocated_to = None;
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
            if sent && blocked.is_none() && self.stall_open[port].is_none() {
                // Streaming: `note_link_cycle` would count the flit
                // and find no stall to attribute and no streak to
                // close, and only a tail's release can take the port
                // off the worklist.
                self.link_stats[port].flits_forwarded += 1;
                if released {
                    self.refresh_busy(port);
                }
                continue;
            }
            Self::note_link_cycle(
                &mut self.link_stats[port],
                &mut self.stall_open[port],
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
            let Some(k) = self.ejects[e].allocated_to else {
                continue;
            };
            let (ip, iv) = self.input_list[k];
            if self.input_used[ip.index()] {
                continue;
            }
            let Ok(flit) = self.pop_for_traversal(now, k, is_killed) else {
                continue;
            };
            self.input_used[ip.index()] = true;
            if flit.is_tail() {
                self.ejects[e].allocated_to = None;
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
    fn note_link_cycle(
        stats: &mut LinkStats,
        open: &mut Option<(StallCause, Cycle, u64)>,
        open_count: &mut usize,
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
        let Some(cause) = cause else {
            // Forwarded or idle: any open streak is finished.
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
            return;
        };
        match cause {
            StallCause::BusyChannel => stats.stall_busy += 1,
            StallCause::DeadLink => stats.stall_dead_link += 1,
            StallCause::Backpressure => stats.stall_backpressure += 1,
        }
        match open {
            Some((c, _, cycles)) if *c == cause => *cycles += 1,
            _ => {
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
                *open = Some((cause, now, 1));
                *open_count += 1;
            }
        }
    }

    /// Per-neighbor-output-port utilization/stall counters, indexed by
    /// port. Always maintained (tracing on or off).
    pub fn link_stats(&self) -> &[LinkStats] {
        &self.link_stats
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
    pub fn add_credit(&mut self, port: PortId, vc: VcId) {
        let o = self.out_idx(port, vc);
        assert!(
            self.outputs[o].credits < self.cfg.buffer_depth + self.cfg.link_depth,
            "credit overflow on {} {port} {vc}",
            self.node
        );
        self.outputs[o].credits += 1;
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
        let flushed = ivc.buf.retain(|f| f.worm != worm);
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
                let o = self.out_idx(op, ov);
                self.outputs[o].allocated_to = None;
                self.refresh_busy(op.index());
            }
            Some(RouteTarget::Eject { port: ep }) => {
                self.ejects[ep].allocated_to = None;
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
        let k = self.outputs[self.out_idx(port, vc)].allocated_to?;
        Some(self.input_list[k])
    }

    /// Current credit count of output `(port, vc)`.
    pub fn credits(&self, port: PortId, vc: VcId) -> usize {
        self.outputs[self.out_idx(port, vc)].credits
    }

    /// Returns `true` if input VC `(port, vc)` has no free buffer
    /// slot (the arriving flit must wait in the channel latches).
    pub fn vc_is_full(&self, port: PortId, vc: VcId) -> bool {
        self.input(port, vc).buf.is_full()
    }

    /// Number of flits buffered in input VC `(port, vc)`.
    pub fn occupancy(&self, port: PortId, vc: VcId) -> usize {
        self.input(port, vc).buf.len()
    }

    /// The head-of-line flit of input VC `(port, vc)`, if any.
    pub fn front_flit(&self, port: PortId, vc: VcId) -> Option<&Flit> {
        self.input(port, vc).buf.front()
    }

    /// The flit at queue position `i` (0 = front) of input VC
    /// `(port, vc)`, or `None` past the back. The model checker walks
    /// whole buffers with this when encoding a canonical state.
    pub fn flit_at(&self, port: PortId, vc: VcId, i: usize) -> Option<&Flit> {
        self.input(port, vc).buf.get(i)
    }

    /// Which input VC holds ejection port `e`, if any.
    pub fn eject_owner(&self, e: usize) -> Option<(PortId, VcId)> {
        Some(self.input_list[self.ejects[e].allocated_to?])
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
            self.open_streaks,
            self.stall_open.iter().filter(|s| s.is_some()).count(),
            "incremental open-streak count diverged at {}",
            self.node
        );
        self.open_streaks > 0
    }

    /// Size of the allocation worklist: input VCs that are non-empty
    /// with no route. [`Router::route_and_allocate`] is a no-op that
    /// draws no randomness while this is zero. O(1): maintained at
    /// every site that fills, drains, routes or releases a VC.
    pub fn unrouted_inputs(&self) -> usize {
        debug_assert!(self.worklists_exact(), "worklists diverged");
        self.unrouted.len
    }

    /// Size of the traversal worklist: neighbor output ports with an
    /// allocated VC or an open stall streak. While this is zero,
    /// [`Router::traverse_each`] touches no neighbor output port.
    /// O(1): maintained at every grant, release and streak change.
    pub fn busy_outputs(&self) -> usize {
        debug_assert!(self.worklists_exact(), "worklists diverged");
        self.busy_out.len
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
        for (ivc, &(port, vc)) in self.inputs.iter().zip(&self.input_list) {
            if ivc.buf.is_empty() {
                continue;
            }
            let worm = match ivc.worm.or_else(|| ivc.buf.front().map(|f| f.worm)) {
                Some(w) => w,
                None => continue,
            };
            if now.saturating_since(ivc.last_progress) >= threshold {
                out.push((port, vc, worm));
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
}
