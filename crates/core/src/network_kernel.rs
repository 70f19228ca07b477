//! The phase kernels: injection and the fused route + traverse visit
//! (DESIGN.md §10, §12).
//!
//! A kernel sees three things and nothing else:
//!
//! * a [`View`] — `&mut` slices of the routers, injectors and
//!   receivers plus their active sets. A visit mutates in place only
//!   its own node's entries.
//! * a [`Ctx`] — the read-only wiring tables and killed registry as
//!   they stand for this phase, and `now`.
//! * an [`Effects`] sink. Everything a visit would touch outside its
//!   own node (upstream credits, departing flits, deliveries,
//!   kills, tokens, counters, trace events) is buffered here and
//!   applied by `network_phases.rs` after the kernel returns.
//!
//! Which components a kernel visits is the driver's choice, not the
//! kernel's: [`visit_list`] yields either the armed set, drained
//! ascending, or — under the reference driver — every id.

use super::{idx32, Tables, Token};
use crate::injector::Injector;
use crate::killmap::KilledMap;
use crate::receiver::{DeliveredMessage, Receiver};
use crate::report::NetCounters;
use cr_router::{Flit, LinkStallStreak, PortKind, RouteTarget, Router, WormId};
use cr_sim::sched::ActiveSet;
use cr_sim::trace::{Event, KillCause};
use cr_sim::{Cycle, NodeId, PortId, VcId};
use std::ops::Range;

/// One phase body.
pub(super) type Kernel = fn(&Ctx<'_>, &mut View<'_>, &mut Effects);

/// Read-only context of one kernel run.
pub(super) struct Ctx<'a> {
    pub now: Cycle,
    pub tables: &'a Tables,
    pub killed: &'a KilledMap,
    pub trace_on: bool,
    /// Reference driver: walk every component instead of the armed
    /// set.
    pub visit_all: bool,
    /// Worm trains may form this cycle: report ejected headers.
    pub form_trains: bool,
}

/// The mutable state a kernel visits, borrowed for the length of the
/// call and indexed by node id.
pub(super) struct View<'a> {
    pub routers: &'a mut [Router],
    pub injectors: &'a mut [Vec<Injector>],
    pub receivers: &'a mut [Receiver],
    pub router_set: &'a mut ActiveSet,
    pub injector_set: &'a mut ActiveSet,
    pub receiver_set: &'a mut ActiveSet,
}

/// The effects sink: mutation buffers, drained after each kernel.
/// Persistent across cycles so the `Vec` capacities amortize.
#[derive(Default)]
pub(super) struct Effects {
    /// The visit list being walked this phase.
    ids: Vec<u32>,
    /// Finished link-stall streaks, reused across routers.
    streaks: Vec<LinkStallStreak>,
    /// Struct-of-arrays buffer of flits departing onto links: link
    /// index, lane, flit. Applied in order after route + traverse.
    pub push_li: Vec<u32>,
    /// Lane (virtual channel) per push.
    pub push_vc: Vec<u8>,
    /// Flit payload per push.
    pub push_flit: Vec<Flit>,
    /// Upstream credit returns, already resolved to (upstream node,
    /// upstream output port, vc). Holding the route + traverse credits
    /// until every router has traversed is the one-cycle credit-return
    /// latency (DESIGN.md §12).
    pub credits: Vec<(u32, PortId, VcId)>,
    /// Messages completed by the receivers, in traversal order; all
    /// delivery side effects run after the kernel.
    pub delivered: Vec<DeliveredMessage>,
    /// Forward teardown tokens from source-timeout kills.
    pub tokens: Vec<Token>,
    /// Worms killed this phase (all at the current cycle).
    pub kills: Vec<WormId>,
    /// Trace events in emission order (empty when tracing is off),
    /// emitted after the phase's deliveries: route + traverse's
    /// `LinkStall` streaks follow every `Deliver` of the cycle.
    pub events: Vec<Event>,
    /// Counter increments (plain sums; merge order cannot matter).
    pub counters: NetCounters,
    /// Net change to the live-flit count.
    pub live_delta: i64,
    /// Net change to the undrained-injector count.
    pub undrained_delta: i64,
    /// Whether anything made forward progress.
    pub progress: bool,
    /// `(node, worm)` of every header ejected this phase, while worm
    /// trains may form: the formation candidates.
    pub heads: Vec<(u32, WormId)>,
}

impl Effects {
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

/// Injection: every visited injector's cycle. [`Injector::step`] is a
/// no-op that draws no RNG whenever [`Injector::has_step_work`] is
/// false — the skip condition. A source-timeout kill is handled here
/// whole: it only touches the worm's own node (a flush at the inject
/// port releases no upstream credit and has no feeding link to purge),
/// plus the buffered registry insert and forward token.
pub(super) fn injection(ctx: &Ctx<'_>, view: &mut View<'_>, fx: &mut Effects) {
    let (now, chans) = (ctx.now, ctx.tables.chans);
    let mut ids = std::mem::take(&mut fx.ids);
    let all = 0..view.injectors.len() * chans;
    visit_list(&mut ids, view.injector_set, all, ctx.visit_all);
    for &id in &ids {
        let (n, c) = (id as usize / chans, id as usize % chans);
        let src = NodeId::from_index(n);
        let out = view.injectors[n][c].step(now, &mut view.routers[n]);
        if out.injected_flit {
            fx.progress = true;
            fx.live_delta += 1;
            view.router_set.insert(idx32(n));
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
            let router = &mut view.routers[n];
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
                Some(RouteTarget::Eject { .. }) => view.receivers[n].discard(worm),
                None => {}
            }
            let inj = &mut view.injectors[n][c];
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
        if view.injectors[n][c].has_step_work() {
            view.injector_set.insert(id);
        }
    }
    ids.clear();
    fx.ids = ids;
}

/// Routing + switch traversal: one visit per armed router. The router
/// allocates its unrouted headers (an O(1) return when it has none),
/// buffers an upstream credit for each orphan that dropped, then
/// traverses, each departing flit going straight from its FIFO into
/// the sink — its upstream credit, and its link push or its delivery
/// into the router's own receiver. Finished stall streaks buffer as
/// `LinkStall` events (routers only record streaks while tracing), and
/// a router still holding flits outside the streams worm trains hold,
/// or an open streak, re-arms.
///
/// Nothing a visit reads is written by another router's visit — every
/// credit, orphan drops included, lands after the kernel — so routers
/// may be visited in any order. A router not
/// visited holds no flit but held ones and no open streak, for which
/// every step here is a no-op that draws no RNG.
pub(super) fn route_traverse(ctx: &Ctx<'_>, view: &mut View<'_>, fx: &mut Effects) {
    let now = ctx.now;
    let mut ids = std::mem::take(&mut fx.ids);
    let mut streaks = std::mem::take(&mut fx.streaks);
    let all = 0..view.routers.len();
    visit_list(&mut ids, view.router_set, all, ctx.visit_all);
    let is_killed = |w: WormId| ctx.killed.contains(w);
    let (routing, topo) = (&*ctx.tables.routing, &*ctx.tables.topo);
    for &n32 in &ids {
        let n = n32 as usize;
        let router = &mut view.routers[n];
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
        let rx = &mut view.receivers[n];
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
                            view.receiver_set.insert(n32);
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
                    fx.events.push(Event::LinkStall {
                        at: s.since,
                        link: ctx.tables.link_ids[li],
                        cause: s.cause,
                        cycles: s.cycles,
                    });
                }
            }
        }
        if router.needs_visit() {
            view.router_set.insert(n32);
        }
    }
    ids.clear();
    fx.ids = ids;
    fx.streaks = streaks;
}
