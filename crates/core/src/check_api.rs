//! The model checker's view of the protocol: a thin transition API
//! over the *real* [`Network`] (no re-model), plus a canonical state
//! encoding and the safety invariants `cr-check` evaluates at every
//! state.
//!
//! # Why a child module of `network`
//!
//! The encoder must read router buffers, link lanes, teardown tokens
//! and the killed registry — private simulation state that must stay
//! private (tests and tools should not be able to mutate or depend on
//! it). Declaring this module inside `network.rs` (the same trick the
//! sharded stepper uses) grants field access without widening any
//! visibility.
//!
//! # Canonical encoding
//!
//! Exhaustive search lives or dies on state merging: two interleavings
//! reaching "the same" protocol state must hash identically. Raw
//! simulator state does not cooperate — message ids grow monotonically,
//! cycle counters advance, and the killed registry iterates by raw
//! message id. The encoder therefore normalizes:
//!
//! * **Identity**: every [`MessageId`] is replaced by its *flow label*
//!   `(src, dst, msg_seq)`, which names the same logical message in
//!   every interleaving. Worm instances add the retry `attempt`.
//! * **Time**: absolute cycles never enter the encoding. Deadlines and
//!   ages are encoded relative to `now`; the only absolute residue is
//!   `now % 256`, the phase of the registry-prune cadence
//!   (`phase_bookkeeping` prunes on multiples of 256, so two states
//!   differing only in that phase can genuinely diverge).
//! * **Storage**: the killed registry's raw-id iteration order is
//!   re-sorted by flow label; everything else is walked in fixed
//!   structural order.
//!
//! Excluded on purpose: metrics, counters, trace state, per-link
//! utilization, churn report trackers (all observers), and the dense
//! id/sequence allocators (`next_message_id`, `seq_counters`) which
//! are a function of the set of injections already fired — a fact the
//! checker already keys on.
//!
//! # Example
//!
//! ```
//! use cr_core::check_api::{CheckNet, ProtocolStep};
//! use cr_core::{NetworkBuilder, ProtocolKind, RoutingKind};
//! use cr_sim::NodeId;
//! use cr_topology::KAryNCube;
//!
//! let net = NetworkBuilder::new(KAryNCube::mesh(2, 1))
//!     .routing(RoutingKind::Adaptive { vcs: 1 })
//!     .protocol(ProtocolKind::Cr)
//!     .shards(1)
//!     .build();
//! let mut cn = CheckNet::new(net);
//! cn.inject(NodeId::new(0), NodeId::new(1), 2);
//! for _ in 0..500 {
//!     if cn.is_quiescent() {
//!         break;
//!     }
//!     cn.tick();
//! }
//! cn.check_invariants().expect("protocol invariant");
//! assert_eq!(cn.deliveries().values().map(|d| d.delivered).sum::<u64>(), 1);
//! ```

use std::collections::BTreeMap;

use crate::config::NetworkConfig;
use crate::report::SimReport;
use cr_faults::FaultModel;
use cr_router::{Flit, FlitKind, RouteTarget, RoutingFunction};
use cr_sim::trace::Event;
use cr_sim::{Cycle, LinkId, MessageId, NodeId, PortId, VcId};
use cr_topology::Topology;

use super::{Network, SOURCE_GONE};

/// Interleaving-independent name of a logical message: `(src, dst,
/// per-flow sequence number)`. Unlike [`MessageId`] (dense, assigned
/// in injection order) the flow label of a given injection is the same
/// in every interleaving, so canonical encodings built on it merge.
pub type FlowKey = (u32, u32, u64);

/// How often (and how badly) one logical message was delivered.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DeliveryCount {
    /// Completed deliveries to the destination's processor interface.
    /// Exactly-once means this never exceeds 1.
    pub delivered: u64,
    /// Deliveries whose payload carried undetected corruption. Must
    /// stay 0 under FCR (which detects and kills corrupt worms).
    pub corrupt: u64,
}

/// One transition step of the protocol, as the model checker drives
/// it: environment actions (inject, kill, revive) that do not advance
/// time, one-cycle ticks, and the predicates/encodings the search
/// needs. Implemented by [`CheckNet`] over the real simulator;
/// conformance tests may implement it over other backends.
pub trait ProtocolStep {
    /// Current simulation time.
    fn now(&self) -> Cycle;

    /// Advances the network exactly one cycle.
    fn tick(&mut self);

    /// Queues a message for transmission (an environment action: takes
    /// effect this cycle, consumes no time itself) and returns its
    /// flow label.
    fn inject(&mut self, src: NodeId, dst: NodeId, payload_len: u32) -> FlowKey;

    /// Kills `link` effective immediately — equivalent to a
    /// [`cr_faults::ChurnSchedule`] kill firing at the top of the next
    /// [`ProtocolStep::tick`], since in-flight flits are judged at
    /// arrival time against the live fault model either way.
    fn kill_link_now(&mut self, link: LinkId);

    /// Revives `link` effective immediately (see
    /// [`ProtocolStep::kill_link_now`]).
    fn revive_link_now(&mut self, link: LinkId);

    /// All traffic drained: nothing buffered, in flight, or pending in
    /// any injector.
    fn is_quiescent(&self) -> bool;

    /// `true` once the deadlock watchdog has fired.
    fn is_deadlocked(&self) -> bool;

    /// Appends the canonical state encoding (see the module docs) to
    /// `out`.
    fn encode_state(&self, out: &mut Vec<u8>);

    /// Evaluates every safety invariant; `Err` describes the first
    /// violation found.
    fn check_invariants(&self) -> Result<(), String>;

    /// Per-message delivery outcomes observed so far.
    fn deliveries(&self) -> &BTreeMap<FlowKey, DeliveryCount>;
}

/// A [`Network`] wrapped for model checking: deliveries recorded, and
/// every [`MessageId`] the checker injects tracked under its
/// interleaving-independent [`FlowKey`]. The network is taken as
/// built — whichever driver and shard count it was given is what the
/// checker drives; the canonical encoding reads protocol state only,
/// so every driver must reach the same states.
pub struct CheckNet {
    net: Network,
    /// Flow label of every message injected through
    /// [`ProtocolStep::inject`], mirroring `send_message`'s
    /// deterministic `(flow, seq)` assignment.
    labels: BTreeMap<MessageId, FlowKey>,
    /// Delivery outcomes, accumulated from the network's delivery log
    /// after every tick.
    delivered: BTreeMap<FlowKey, DeliveryCount>,
}

/// Assembles a [`Network`] from explicit parts — the entry point for
/// checker configurations whose routing function is *not* one of the
/// [`RoutingKind`](crate::RoutingKind) presets (the `--mutate` knobs
/// plant deliberately unsound routing functions here). No traffic
/// sources are attached and the plan is one shard; `cfg` still
/// describes the protocol, buffering and (for padding budgets)
/// the nominal routing kind.
pub fn assemble_with_routing(
    topo: Box<dyn Topology>,
    cfg: NetworkConfig,
    routing: Box<dyn RoutingFunction>,
    faults: FaultModel,
) -> Network {
    Network::assemble(topo, cfg, routing, faults, Vec::new(), 0.0, 1)
}

impl CheckNet {
    /// Wraps `net` for checking.
    ///
    /// # Panics
    ///
    /// Panics if `net` uses path-wide stall detection (its
    /// `last_progress` timestamps are deliberately outside the
    /// canonical encoding).
    pub fn new(mut net: Network) -> CheckNet {
        assert!(
            net.cfg.path_wide_threshold.is_none(),
            "CheckNet does not support path-wide stall detection"
        );
        net.set_record_deliveries(true);
        CheckNet {
            net,
            labels: BTreeMap::new(),
            delivered: BTreeMap::new(),
        }
    }

    /// Read access to the wrapped network (reports, counters,
    /// configuration).
    pub fn network(&self) -> &Network {
        &self.net
    }

    /// Flow label of `message`; a message the checker did not inject
    /// itself (a scheduled trace's, say) keeps its raw id under an
    /// all-max flow.
    fn label(&self, message: MessageId) -> FlowKey {
        self.labels
            .get(&message)
            .copied()
            .unwrap_or((u32::MAX, u32::MAX, message.as_u64()))
    }

    /// Advances by one [`Network::run`] call — whichever driver the
    /// network has, with its fast-forward and worm trains — and folds
    /// the deliveries into the tally as [`ProtocolStep::tick`] does.
    pub fn run(&mut self, cycles: u64) -> SimReport {
        let report = self.net.run(cycles);
        self.tally_deliveries();
        report
    }

    /// [`CheckNet::run`] for [`Network::run_until_quiescent`].
    pub fn run_until_quiescent(&mut self, max_cycles: u64) -> bool {
        let quiescent = self.net.run_until_quiescent(max_cycles);
        self.tally_deliveries();
        quiescent
    }

    /// Drains the network's buffered trace events, oldest first.
    pub fn take_trace_events(&mut self) -> Vec<Event> {
        self.net.take_trace_events()
    }

    /// Moves the network's delivery log into the tally.
    fn tally_deliveries(&mut self) {
        for d in self.net.take_delivery_log() {
            let key = (d.src.as_u32(), d.dst.as_u32(), d.msg_seq);
            let e = self.delivered.entry(key).or_default();
            e.delivered += 1;
            if d.corrupt {
                e.corrupt += 1;
            }
        }
    }
}

fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_key(out: &mut Vec<u8>, k: FlowKey) {
    put_u32(out, k.0);
    put_u32(out, k.1);
    put_u64(out, k.2);
}

/// Option<(port, vc)> as tag + payload.
fn put_owner(out: &mut Vec<u8>, o: Option<(PortId, VcId)>) {
    match o {
        None => out.push(0),
        Some((p, v)) => {
            out.push(1);
            put_u32(out, u32::from(p.as_u16()));
            out.push(v.as_u8());
        }
    }
}

fn put_target(out: &mut Vec<u8>, t: Option<RouteTarget>) {
    match t {
        None => out.push(0),
        Some(RouteTarget::Link { port, vc }) => {
            out.push(1);
            put_u32(out, u32::from(port.as_u16()));
            out.push(vc.as_u8());
        }
        Some(RouteTarget::Eject { port }) => {
            out.push(2);
            put_u64(out, port as u64);
        }
    }
}

impl ProtocolStep for CheckNet {
    fn now(&self) -> Cycle {
        self.net.now()
    }

    fn tick(&mut self) {
        self.net.step();
        self.tally_deliveries();
    }

    fn inject(&mut self, src: NodeId, dst: NodeId, payload_len: u32) -> FlowKey {
        // Mirror send_message's flow/sequence assignment *before* the
        // call increments the counter.
        let msg_seq = *self.net.flow_seq(src, dst);
        let id = self.net.send_message(src, dst, payload_len);
        let key = (src.as_u32(), dst.as_u32(), msg_seq);
        self.labels.insert(id, key);
        key
    }

    fn kill_link_now(&mut self, link: LinkId) {
        // The live-churn kill path (`apply_churn`) minus its
        // metrics-only work (drain trackers, trace events).
        self.net.faults_mut().kill_link(link);
        self.net.trains.forget_tails();
        let li = self.net.link_by_id[link.index()] as usize;
        assert_ne!(li, u32::MAX as usize, "unknown link id");
        let (dst, dst_port) = self.net.tables.link_head[li];
        if let Some((src, src_port)) = self.net.tables.in_upstream(dst, dst_port) {
            self.net.routers[src].set_dead_out(src_port);
        }
    }

    fn revive_link_now(&mut self, link: LinkId) {
        self.net.faults_mut().revive_link(link);
        let li = self.net.link_by_id[link.index()] as usize;
        assert_ne!(li, u32::MAX as usize, "unknown link id");
        let (dst, dst_port) = self.net.tables.link_head[li];
        if let Some((src, src_port)) = self.net.tables.in_upstream(dst, dst_port) {
            self.net.routers[src].clear_dead_out(src_port);
            self.net.arm_router(src);
        }
        self.net.arm_router(dst);
    }

    fn is_quiescent(&self) -> bool {
        self.net.is_quiescent()
    }

    fn is_deadlocked(&self) -> bool {
        self.net.is_deadlocked()
    }

    fn encode_state(&self, out: &mut Vec<u8>) {
        let net = &self.net;
        let now = net.now;
        let num_vcs = net.tables.routing.num_vcs();

        let put_flit = |out: &mut Vec<u8>, f: &Flit| {
            put_key(out, self.label(f.worm.message));
            put_u32(out, f.worm.attempt);
            out.push(match f.kind {
                FlitKind::Head => 0,
                FlitKind::Body => 1,
                FlitKind::Pad => 2,
                FlitKind::Tail => 3,
            });
            put_u32(out, f.seq);
            put_u32(out, f.worm_len);
            put_u32(out, f.payload_len);
            out.push(u8::from(f.escaped));
            put_u32(out, u32::from(f.hops));
            out.push(u8::from(f.corrupted));
            // Excluded: src/dst/msg_seq (redundant with the flow
            // label) and the creation cycle (latency bookkeeping only).
        };

        // --- global scalars -------------------------------------------------
        // cr-lint: allow(integer-narrowing, reason = "value is masked to one byte by the % 256")
        out.push((now.as_u64() % 256) as u8);
        out.push(u8::from(net.deadlocked));
        put_u64(out, net.live_flits as u64);
        put_u64(out, net.undrained_injectors as u64);
        put_u64(out, now.saturating_since(net.last_progress));
        put_u64(out, net.scheduled.len() as u64);

        // --- routers --------------------------------------------------------
        for r in &net.routers {
            let rc = *r.config();
            for p in 0..rc.num_node_ports + rc.num_inject {
                let port = PortId::from_index(p);
                // Injection ports have a single VC.
                let vcs = if p < rc.num_node_ports { num_vcs } else { 1 };
                for v in 0..vcs {
                    let vc = VcId::from_index(v);
                    put_u64(out, r.occupancy(port, vc) as u64);
                    let mut i = 0;
                    while let Some(f) = r.flit_at(port, vc, i) {
                        put_flit(out, f);
                        i += 1;
                    }
                    put_target(out, r.route_of(port, vc));
                    match r.worm_of(port, vc) {
                        None => out.push(0),
                        Some(w) => {
                            out.push(1);
                            put_key(out, self.label(w.message));
                            put_u32(out, w.attempt);
                        }
                    }
                    // InputVc::last_progress is excluded: it only
                    // drives path-wide detection, which CheckNet
                    // rejects at construction.
                }
            }
            for p in 0..rc.num_node_ports {
                let port = PortId::from_index(p);
                for v in 0..num_vcs {
                    let vc = VcId::from_index(v);
                    put_u64(out, r.credits(port, vc) as u64);
                    put_owner(out, r.output_owner(port, vc));
                }
                out.push(u8::from(r.is_dead_out(port)));
            }
            for e in 0..rc.num_eject {
                put_owner(out, r.eject_owner(e));
            }
            put_u64(out, r.rng_words_consumed());
        }

        // --- links ----------------------------------------------------------
        // Walked in original index order; state lives at the permuted
        // slot.
        for li in 0..net.links.len() {
            let link = &net.links[net.link_perm[li] as usize];
            for lane in (0..num_vcs).map(|v| link.lane(v)) {
                put_u64(out, lane.len() as u64);
                for &(arrive, ref f) in lane {
                    // Relative due time; past-due flits (parked in the
                    // channel latches awaiting a buffer slot) all
                    // collapse to 0, which is exact: arrival handling
                    // only asks "due yet?".
                    put_u64(out, arrive.saturating_since(now));
                    put_flit(out, f);
                }
            }
        }

        // --- kill machinery -------------------------------------------------
        let mut killed: Vec<(FlowKey, u32, u64)> = net
            .killed
            .entries()
            .map(|(w, at)| (self.label(w.message), w.attempt, now.saturating_since(at)))
            .collect();
        killed.sort_unstable();
        put_u64(out, killed.len() as u64);
        for (k, attempt, age) in killed {
            put_key(out, k);
            put_u32(out, attempt);
            put_u64(out, age);
        }
        for tokens in [&net.fwd_tokens, &net.bwd_tokens] {
            put_u64(out, tokens.len() as u64);
            for t in tokens.iter() {
                put_key(out, self.label(t.worm.message));
                put_u32(out, t.worm.attempt);
                put_u64(out, t.node as u64);
                put_u32(out, u32::from(t.port.as_u16()));
                out.push(t.vc.as_u8());
            }
        }

        // --- per-message protocol state ------------------------------------
        // worm_sources and the checker-side delivery tally, iterated
        // in flow-label order so the encoding is id-free.
        let mut by_label: Vec<(FlowKey, MessageId)> =
            self.labels.iter().map(|(&m, &k)| (k, m)).collect();
        by_label.sort_unstable();
        put_u64(out, by_label.len() as u64);
        for (k, m) in by_label {
            put_key(out, k);
            let src = net
                .worm_sources
                .get(m.as_u64() as usize)
                .copied()
                .unwrap_or(SOURCE_GONE);
            put_u32(out, src);
            let d = self.delivered.get(&k).copied().unwrap_or_default();
            put_u64(out, d.delivered);
            put_u64(out, d.corrupt);
        }

        // --- endpoints ------------------------------------------------------
        for chans in &net.injectors {
            for inj in chans {
                inj.encode_state(now, out);
            }
        }
        let lookup = |m: MessageId| self.label(m);
        for rx in &net.receivers {
            rx.encode_state(now, &lookup, out);
        }

        // --- fault model ----------------------------------------------------
        for &id in net.tables.link_ids.iter() {
            out.push(u8::from(net.faults.is_dead(id)));
        }
        put_u64(out, net.fault_rng.words_consumed());
    }

    fn check_invariants(&self) -> Result<(), String> {
        let net = &self.net;
        let num_vcs = net.tables.routing.num_vcs();
        let depth = net.cfg.buffer_depth + net.cfg.channel_latency as usize;

        // Credit conservation: for every link and VC, upstream credits
        // plus flits on the wire plus flits buffered downstream equals
        // the fixed buffering budget. A leak (sum below budget) bleeds
        // capacity forever; a surplus would overflow buffers.
        for li in 0..net.links.len() {
            let (dst, dst_port) = net.tables.link_head[li];
            let Some((src, src_port)) = net.tables.in_upstream(dst, dst_port) else {
                continue;
            };
            let pi = net.link_perm[li] as usize;
            for v in 0..num_vcs {
                let vc = VcId::from_index(v);
                let credits = net.routers[src].credits(src_port, vc);
                let wire = net.links[pi].lane(v).len();
                let buffered = net.routers[dst].occupancy(dst_port, vc);
                if credits + wire + buffered != depth {
                    return Err(format!(
                        "credit leak on link {li} vc {v}: credits {credits} + wire {wire} \
                         + buffered {buffered} != {depth} (n{src} p{} -> n{dst} p{})",
                        src_port.index(),
                        dst_port.index(),
                    ));
                }
            }
        }

        // Buffer bounds.
        for (n, r) in net.routers.iter().enumerate() {
            let rc = *r.config();
            for p in 0..rc.num_node_ports + rc.num_inject {
                let port = PortId::from_index(p);
                let (vcs, cap) = if p < rc.num_node_ports {
                    (num_vcs, rc.buffer_depth)
                } else {
                    (1, rc.inject_depth)
                };
                for v in 0..vcs {
                    let occ = r.occupancy(port, VcId::from_index(v));
                    if occ > cap {
                        return Err(format!(
                            "buffer overflow at n{n} p{p} vc {v}: {occ} > {cap}"
                        ));
                    }
                }
            }
        }

        // Exactly-once (the "at most once" half — the "at least once"
        // half is a liveness property the checker proves by reaching
        // quiescence on every path).
        for (k, d) in &self.delivered {
            if d.delivered > 1 {
                return Err(format!(
                    "duplicate delivery of ({}, {}, {}): {} copies",
                    k.0, k.1, k.2, d.delivered
                ));
            }
            if d.corrupt > 0 && net.cfg.protocol.detects_faults() {
                return Err(format!(
                    "corrupt payload delivered under FCR for ({}, {}, {})",
                    k.0, k.1, k.2
                ));
            }
        }

        Ok(())
    }

    fn deliveries(&self) -> &BTreeMap<FlowKey, DeliveryCount> {
        &self.delivered
    }
}
