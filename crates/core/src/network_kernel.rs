//! The phase kernel: the one implementation of each fanned-out cycle
//! phase — arrivals, injection, and the fused route + traverse visit
//! (DESIGN.md §10, §12).
//!
//! A kernel sees three things and nothing else:
//!
//! * a [`ShardView`] — `&mut` slices of one shard's routers, links,
//!   injectors and receivers plus its four active sets. All
//!   in-place mutation is confined to it.
//! * a [`Ctx`] — the read-only wiring tables, the killed registry and
//!   the fault model as they stand for this fan-out, and `now`.
//! * a [`ShardScratch`] — the effects sink. Everything a phase would
//!   touch outside its shard (upstream credits, departing flits,
//!   deliveries, kills, tokens, counters, trace events) is buffered
//!   here and applied by the barrier code in `network_sharded.rs`, in
//!   shard order.
//!
//! Which components a kernel visits is the driver's choice, not the
//! kernel's: [`visit_list`] yields either the shard's armed set,
//! drained ascending, or — under the reference driver — every id the
//! shard owns. The kernels never learn whether they run inline on
//! borrowed state or inside a team task on owned state.

use super::{idx32, Tables, Token};
use crate::injector::Injector;
use crate::killmap::KilledMap;
use crate::link::LinkState;
use crate::receiver::{DeliveredMessage, Receiver};
use crate::report::NetCounters;
use cr_faults::FaultModel;
use cr_router::{Flit, LinkStallStreak, PortKind, RouteTarget, Router, WormId};
use cr_sim::sched::ActiveSet;
use cr_sim::trace::{Event, KillCause};
use cr_sim::{Cycle, NodeId, PortId, VcId};
use std::ops::Range;

/// One phase body over one shard.
pub(super) type Kernel = fn(&Ctx<'_>, &mut ShardView<'_>, &mut ShardScratch);

/// Read-only context of one fan-out.
pub(super) struct Ctx<'a> {
    pub now: Cycle,
    pub tables: &'a Tables,
    pub killed: &'a KilledMap,
    pub faults: &'a FaultModel,
    pub trace_on: bool,
    /// Reference driver: walk every component the shard owns instead
    /// of its armed set, and ignore the link wake estimates.
    pub visit_all: bool,
    /// Worm trains may form this cycle: report ejected headers.
    pub form_trains: bool,
}

/// One shard's mutable state, borrowed for the length of a kernel
/// call. Slices are indexed shard-locally: node `n` sits at
/// `n - node_lo`, permuted link `pi` at `pi - links_lo`.
pub(super) struct ShardView<'a> {
    pub routers: &'a mut [Router],
    pub links: &'a mut [LinkState],
    pub injectors: &'a mut [Vec<Injector>],
    pub receivers: &'a mut [Receiver],
    pub router_set: &'a mut ActiveSet,
    pub link_set: &'a mut ActiveSet,
    pub injector_set: &'a mut ActiveSet,
    pub receiver_set: &'a mut ActiveSet,
    pub node_lo: usize,
    pub links_lo: usize,
}

/// The effects sink: per-shard mutation buffers, drained at each phase
/// barrier in shard order. One per shard, persistent across cycles so
/// the `Vec` capacities amortize.
#[derive(Default)]
pub(super) struct ShardScratch {
    /// The visit list being walked this phase.
    ids: Vec<u32>,
    /// Finished link-stall streaks, reused across routers.
    streaks: Vec<LinkStallStreak>,
    /// Struct-of-arrays buffer of flits departing onto links:
    /// original link index, lane, flit. Applied (in order) at the
    /// route + traverse barrier — this is the cross-shard flit handoff.
    pub push_li: Vec<u32>,
    /// Lane (virtual channel) per push.
    pub push_vc: Vec<u8>,
    /// Flit payload per push.
    pub push_flit: Vec<Flit>,
    /// Upstream credit returns, already resolved to (upstream node,
    /// upstream output port, vc). Credits commute, so per-shard
    /// buffers applied in shard order equal any interleaving; holding
    /// the route + traverse credits to the barrier is the one-cycle
    /// credit-return latency (DESIGN.md §12).
    pub credits: Vec<(u32, PortId, VcId)>,
    /// Messages completed by this shard's receivers, in traversal
    /// order; all delivery side effects run at the barrier.
    pub delivered: Vec<DeliveredMessage>,
    /// Forward teardown tokens from source-timeout kills.
    pub tokens: Vec<Token>,
    /// Worms killed this phase (all at the current cycle).
    pub kills: Vec<WormId>,
    /// Trace events in shard-local emission order (empty when tracing
    /// is off).
    pub events: Vec<Event>,
    /// `LinkStall` events, kept separate because every finished streak
    /// is emitted after every delivery of the cycle.
    pub streak_events: Vec<Event>,
    /// Counter increments (plain sums; merge order cannot matter).
    pub counters: NetCounters,
    /// Net change to the live-flit count.
    pub live_delta: i64,
    /// Net change to the undrained-injector count.
    pub undrained_delta: i64,
    /// Whether anything in this shard made forward progress.
    pub progress: bool,
    /// `(node, worm)` of every header ejected this phase, while worm
    /// trains may form: the formation candidates.
    pub heads: Vec<(u32, WormId)>,
}

impl ShardScratch {
    /// Buffers a credit for the router feeding `(node, in_port, vc)`.
    fn credit(&mut self, tables: &Tables, node: usize, in_port: PortId, vc: VcId) {
        if let Some((up_node, up_out)) = tables.in_upstream(node, in_port) {
            self.credits.push((idx32(up_node), up_out, vc));
        }
    }
}

/// Appends a phase's visit list to `ids`: the armed `set` drained
/// ascending, or — reference driver — every id in `all`. Either way
/// the set is left empty for the phase's re-arm pass, so it stays
/// exact under every driver and drivers may be switched mid-run.
pub(super) fn visit_list(
    ids: &mut Vec<u32>,
    set: &mut ActiveSet,
    all: Range<usize>,
    visit_all: bool,
) {
    if visit_all {
        set.clear();
        ids.extend(all.map(idx32));
    } else {
        set.drain_sorted_into(ids);
    }
}

/// Quiet-cycle arrivals: valid exactly when no arrival this cycle can
/// draw the fault RNG or kill a worm (`Network::arrivals_parallel_ok`),
/// so each link's work is confined to the link and its shard-owned
/// destination router. The ordered scan in `network.rs` is the other
/// arrivals body.
pub(super) fn arrivals_quiet(ctx: &Ctx<'_>, sh: &mut ShardView<'_>, fx: &mut ShardScratch) {
    let now = ctx.now;
    let mut ids = std::mem::take(&mut fx.ids);
    let all = sh.links_lo..sh.links_lo + sh.links.len();
    visit_list(&mut ids, sh.link_set, all, ctx.visit_all);
    for &pi in &ids {
        let link = &mut sh.links[pi as usize - sh.links_lo];
        if link.occupied() == 0 {
            continue; // purged empty since it was armed
        }
        if !ctx.visit_all && link.wake() > now {
            sh.link_set.insert(pi); // nothing due yet
            continue;
        }
        let li = ctx.tables.link_orig[pi as usize] as usize;
        let (dst_node, dst_port) = ctx.tables.link_head[li];
        let dst = &mut sh.routers[dst_node - sh.node_lo];
        let link_dead = ctx.faults.is_dead(ctx.tables.link_ids[li]);
        let mut wake = LinkState::NEVER;
        for v in 0..link.num_lanes() {
            let vc = VcId::from_index(v);
            while let Some((mut flit, killed)) =
                link.pop_due(v, now, ctx.killed, dst, dst_port, &mut wake)
            {
                if link_dead {
                    // Dead link on a quiet cycle: the gate proves the
                    // protocol is non-detecting, so the flit is
                    // corrupted and carried on — the
                    // integrity-violation baseline.
                    if !flit.corrupted {
                        fx.counters.flits_corrupted += 1;
                    }
                    flit.corrupted = true;
                }
                if killed {
                    fx.counters.flits_dropped_killed += 1;
                    fx.live_delta -= 1;
                    fx.credit(ctx.tables, dst_node, dst_port, vc);
                    continue;
                }
                dst.accept(now, dst_port, vc, flit);
                sh.router_set.insert(idx32(dst_node));
                fx.progress = true;
            }
        }
        if link.end_scan(wake) {
            sh.link_set.insert(pi);
        }
    }
    ids.clear();
    fx.ids = ids;
}

/// Injection: every visited injector's cycle. [`Injector::step`] is a
/// no-op that draws no RNG whenever [`Injector::has_step_work`] is
/// false — the skip condition. A source-timeout kill is handled here
/// whole: it only touches the worm's own node (a flush at the inject
/// port releases no upstream credit and has no feeding link to purge),
/// plus the buffered registry insert and forward token.
pub(super) fn injection(ctx: &Ctx<'_>, sh: &mut ShardView<'_>, fx: &mut ShardScratch) {
    let (now, chans) = (ctx.now, ctx.tables.chans);
    let mut ids = std::mem::take(&mut fx.ids);
    let lo = sh.node_lo * chans;
    visit_list(
        &mut ids,
        sh.injector_set,
        lo..lo + sh.injectors.len() * chans,
        ctx.visit_all,
    );
    for &id in &ids {
        let (n, c) = (id as usize / chans, id as usize % chans);
        let local = n - sh.node_lo;
        let src = NodeId::from_index(n);
        let out = sh.injectors[local][c].step(now, &mut sh.routers[local]);
        if out.injected_flit {
            fx.progress = true;
            fx.live_delta += 1;
            sh.router_set.insert(idx32(n));
            if out.injected_pad {
                fx.counters.pad_flits_injected += 1;
            } else {
                fx.counters.payload_flits_injected += 1;
            }
        }
        if out.restarted {
            fx.counters.retransmissions += 1;
        }
        if ctx.trace_on {
            if let Some((worm, dst)) = out.started {
                fx.events.push(Event::Inject {
                    at: now,
                    src,
                    dst,
                    message: worm.message,
                    attempt: worm.attempt,
                });
            }
            if let Some(worm) = out.committed {
                fx.events.push(Event::Commit {
                    at: now,
                    src,
                    message: worm.message,
                    attempt: worm.attempt,
                });
            }
        }
        if let Some(worm) = out.kill {
            fx.counters.kills_source_timeout += 1;
            fx.kills.push(worm);
            if ctx.trace_on {
                fx.events.push(Event::Kill {
                    at: now,
                    node: src,
                    message: worm.message,
                    attempt: worm.attempt,
                    cause: KillCause::SourceTimeout,
                });
            }
            // Tear down from the injection FIFO toward the
            // destination; the kill point is the source itself, so no
            // backward walk exists.
            let router = &mut sh.routers[local];
            let port = router.inject_port(c);
            debug_assert_eq!(router.port_kind(port), PortKind::Inject);
            let res = router.flush_worm(port, VcId::new(0), worm);
            fx.live_delta -= res.flushed as i64;
            match res.released {
                Some(RouteTarget::Link { port: op, vc }) => {
                    if let Some(li) = ctx.tables.out_link(n, op) {
                        let (node, port) = ctx.tables.link_head[li];
                        fx.tokens.push(Token {
                            worm,
                            node,
                            port,
                            vc,
                        });
                    }
                }
                Some(RouteTarget::Eject { .. }) => sh.receivers[local].discard(worm),
                None => {}
            }
            let inj = &mut sh.injectors[local][c];
            let was_drained = inj.is_drained();
            let retx = inj.on_killed(now, worm);
            match (was_drained, inj.is_drained()) {
                (true, false) => fx.undrained_delta += 1,
                (false, true) => fx.undrained_delta -= 1,
                _ => {}
            }
            if let (true, Some((attempt, resume_at))) = (ctx.trace_on, retx) {
                fx.events.push(Event::RetransmitScheduled {
                    at: now,
                    message: worm.message,
                    attempt,
                    resume_at,
                });
            }
        }
        if sh.injectors[local][c].has_step_work() {
            sh.injector_set.insert(id);
        }
    }
    ids.clear();
    fx.ids = ids;
}

/// Routing + switch traversal: one visit per armed router. The router
/// allocates its unrouted headers (an O(1) return when it has none),
/// buffers an upstream credit for each orphan that dropped, then
/// traverses, each departing flit going straight from its FIFO into
/// the sink — its upstream credit, and its link push (possibly onto a
/// foreign shard's link) or its delivery into the shard's own
/// receiver. Finished stall streaks buffer as `LinkStall` events
/// (routers only record streaks while tracing), and a router still
/// holding flits outside the streams worm trains hold, or an open
/// streak, re-arms.
///
/// Nothing a visit reads is written by another router's visit — every
/// credit, orphan drops included, lands at the barrier — so routers may
/// be visited in any order and shards in parallel. A router not
/// visited holds no flit but held ones and no open streak, for which
/// every step here is a no-op that draws no RNG.
pub(super) fn route_traverse(ctx: &Ctx<'_>, sh: &mut ShardView<'_>, fx: &mut ShardScratch) {
    let now = ctx.now;
    let mut ids = std::mem::take(&mut fx.ids);
    let mut streaks = std::mem::take(&mut fx.streaks);
    let all = sh.node_lo..sh.node_lo + sh.routers.len();
    visit_list(&mut ids, sh.router_set, all, ctx.visit_all);
    let is_killed = |w: WormId| ctx.killed.contains(w);
    let (routing, topo) = (&*ctx.tables.routing, &*ctx.tables.topo);
    for &n32 in &ids {
        let n = n32 as usize;
        let router = &mut sh.routers[n - sh.node_lo];
        let orphans = router.route_and_allocate(now, routing, topo, &is_killed);
        if orphans > 0 {
            // Orphan drops leave the network.
            fx.live_delta -= orphans as i64;
            for (port, vc) in router.take_orphan_credits() {
                fx.credit(ctx.tables, n, port, vc);
            }
        }
        // Input ports below this are neighbor ports, fed by an
        // upstream router that is owed the credit.
        let node_ports = router.config().num_node_ports;
        let rx = &mut sh.receivers[n - sh.node_lo];
        router.traverse_each(now, &is_killed, |t| {
            fx.progress = true;
            if t.from_port.index() < node_ports {
                fx.credit(ctx.tables, n, t.from_port, t.from_vc);
            }
            match t.target {
                RouteTarget::Link { port, vc } => {
                    let Some(li) = ctx.tables.out_link(n, port) else {
                        // Routing only offers connected ports; stay
                        // loud in debug, drop defensively in release
                        // rather than killing the sweep worker.
                        debug_assert!(false, "route to disconnected port");
                        return;
                    };
                    fx.push_li.push(idx32(li));
                    fx.push_vc.push(vc.as_u8());
                    fx.push_flit.push(t.flit);
                }
                RouteTarget::Eject { .. } => {
                    // The flit left the fabric, delivered or not.
                    fx.live_delta -= 1;
                    if is_killed(t.flit.worm) {
                        fx.counters.flits_dropped_killed += 1;
                        rx.discard(t.flit.worm);
                    } else {
                        if ctx.form_trains && t.flit.is_head() {
                            fx.heads.push((n32, t.flit.worm));
                        }
                        fx.delivered.extend(rx.on_flit(now, t.flit));
                        if rx.assembling_len() > 0 {
                            // Open assembly: the periodic prune must
                            // look at this receiver.
                            sh.receiver_set.insert(n32);
                        }
                    }
                }
            }
        });
        if ctx.trace_on {
            streaks.clear();
            router.drain_streaks_into(&mut streaks);
            for s in &streaks {
                if let Some(li) = ctx.tables.out_link(n, s.port) {
                    fx.streak_events.push(Event::LinkStall {
                        at: s.since,
                        link: ctx.tables.link_ids[li],
                        cause: s.cause,
                        cycles: s.cycles,
                    });
                }
            }
        }
        if router.needs_visit() {
            sh.router_set.insert(n32);
        }
    }
    ids.clear();
    fx.ids = ids;
    fx.streaks = streaks;
}
