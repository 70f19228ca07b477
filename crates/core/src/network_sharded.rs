//! Drivers and barriers: how the phase kernels (`network_kernel.rs`)
//! are invoked over the shard plan, and the only place their
//! cross-component effects are applied (DESIGN.md §12).
//!
//! # The policy
//!
//! Effects of a phase are buffered per shard and applied in shard
//! order at the phase barrier. Every driver follows it — a serial run
//! is the one-shard plan — so a phase has one body, and the order in
//! which shards *execute* can never be observed: only the order in
//! which their sinks *drain* can, and that is fixed.
//!
//! Every shard owns a contiguous node-id range (`cr_sim::shard::Plan`)
//! and, with it, the routers, injectors and receivers of those nodes
//! plus every link whose *destination* lies in the range (arrivals
//! mutate the destination router, so links live with their heads; link
//! state is stored permuted so each shard's links are one contiguous
//! chunk). Because shards are contiguous id ranges walked ascending,
//! draining the sinks in shard order reproduces the global ascending
//! order of a one-shard sweep — which is why reports and trace streams
//! are byte-identical at any shard count.
//!
//! # Drivers
//!
//! [`Network::fan_out`] runs one kernel over every shard, by one of
//! two routes that differ only in who holds the state meanwhile:
//!
//! * **inline** — the kernel is called directly on `&mut` chunk slices
//!   of the network, shard after shard on the calling thread. Taken by
//!   a one-shard plan and by any plan whose team would be one thread
//!   wide.
//! * **team** — each shard's chunks move into a `'static` task as a
//!   [`ShardWork`] (the persistent [`pool::Team`]'s workers outlive
//!   any borrow), the task builds the same view from what it owns,
//!   calls the same kernel, and hands the state back. The read-only
//!   context rides along as three `Arc` clones, dropped with the task,
//!   so the serially-mutated registries (`killed`, `faults`) are
//!   uniquely owned again whenever barrier code touches them.
//!
//! The reference driver ([`Network::set_reference_stepper`]) is
//! orthogonal: it changes what the kernels *visit* (everything, wakes
//! ignored), not how they are invoked.
//!
//! # Arrivals
//!
//! The one phase with two bodies. On a quiet cycle — no arrival can
//! draw the fault RNG or kill a worm, [`Network::arrivals_parallel_ok`]
//! — per-link work is confined to the link and its destination router
//! and the kernel fans out like any other. Otherwise corruption and
//! detection draw from one sequential RNG stream in pop order and
//! detection kills walk cross-shard teardown chains, so the whole
//! cycle takes the ordered global scan instead, under every driver.

use super::kernel::{self, Ctx, Kernel, ShardScratch, ShardView};
use super::{Network, SOURCE_GONE};
use crate::injector::Injector;
use crate::link::LinkState;
use crate::receiver::Receiver;
use cr_router::Router;
use cr_sim::pool;
use cr_sim::sched::ActiveSet;
use cr_sim::trace::Event;
use cr_sim::{Cycle, VcId};
use std::sync::Arc;

/// One shard's owned mutable state, moved into a team task for the
/// duration of a fan-out and handed back as the task's return value.
/// Taking all of it for every fan-out is O(1) per field (`mem::take`
/// of the chunk vectors) and sidesteps per-phase borrow plumbing.
struct ShardWork {
    routers: Vec<Router>,
    links: Vec<LinkState>,
    injectors: Vec<Vec<Injector>>,
    receivers: Vec<Receiver>,
    router_set: ActiveSet,
    link_set: ActiveSet,
    injector_set: ActiveSet,
    receiver_set: ActiveSet,
    scratch: ShardScratch,
}

/// Applies a signed delta to an unsigned incremental counter.
fn apply_delta(value: &mut usize, delta: i64) {
    let next = *value as i64 + delta;
    debug_assert!(next >= 0, "incremental counter went negative");
    *value = next.max(0) as usize;
}

impl Network {
    /// Moves shard `s`'s owned state out of the network (to hand to a
    /// team task). Every take is O(1); the placeholder left behind is
    /// never observed because the orchestrator blocks on the fan-out.
    fn take_shard(&mut self, s: usize) -> ShardWork {
        ShardWork {
            routers: self.routers.take_chunk(s),
            links: self.links.take_chunk(s),
            injectors: self.injectors.take_chunk(s),
            receivers: self.receivers.take_chunk(s),
            router_set: std::mem::replace(&mut self.router_sets[s], ActiveSet::new(0)),
            link_set: std::mem::replace(&mut self.link_sets[s], ActiveSet::new(0)),
            injector_set: std::mem::replace(&mut self.injector_sets[s], ActiveSet::new(0)),
            receiver_set: std::mem::replace(&mut self.receiver_sets[s], ActiveSet::new(0)),
            scratch: std::mem::take(&mut self.shard_scratch[s]),
        }
    }

    /// Returns shard `s`'s state after a fan-out.
    fn put_shard(&mut self, s: usize, w: ShardWork) {
        self.routers.put_chunk(s, w.routers);
        self.links.put_chunk(s, w.links);
        self.injectors.put_chunk(s, w.injectors);
        self.receivers.put_chunk(s, w.receivers);
        self.router_sets[s] = w.router_set;
        self.link_sets[s] = w.link_set;
        self.injector_sets[s] = w.injector_set;
        self.receiver_sets[s] = w.receiver_set;
        self.shard_scratch[s] = w.scratch;
    }

    /// The team, when fan-outs take the team route (taken out of the
    /// network for the length of the fan-out). A one-shard plan never
    /// does unless forced; a wider plan spawns its team here on first
    /// use — the only point the worker count is resolved, so the
    /// `available_parallelism` probe is paid once per team, not per
    /// fan-out — and takes the route when that team has more than the
    /// calling thread to offer.
    fn team_route(&mut self) -> Option<pool::Team> {
        let num_shards = self.plan.num_shards();
        if num_shards == 1 && !self.force_sharded {
            return None;
        }
        let threads = self.shard_threads;
        let team = self.team.get_or_insert_with(|| {
            let workers = threads.unwrap_or_else(|| {
                std::thread::available_parallelism()
                    .map(std::num::NonZeroUsize::get)
                    .unwrap_or(1)
            });
            pool::Team::new(workers.min(num_shards))
        });
        if self.force_sharded || team.parallelism() > 1 {
            self.team.take()
        } else {
            None
        }
    }

    /// Runs `kernel` once per shard, leaving its effects in the
    /// shards' sinks for the caller's barrier (see the module docs for
    /// the two routes).
    fn fan_out(&mut self, now: Cycle, kernel: Kernel) {
        let (trace_on, visit_all) = (self.trace.enabled(), self.reference_stepper);
        let form_trains = self.trains.enabled;
        let num_shards = self.plan.num_shards();
        let Some(team) = self.team_route() else {
            let ctx = Ctx {
                now,
                tables: &self.tables,
                killed: &self.killed,
                faults: &self.faults,
                trace_on,
                visit_all,
                form_trains,
            };
            for s in 0..num_shards {
                let mut view = ShardView {
                    routers: self.routers.chunk_mut(s),
                    links: self.links.chunk_mut(s),
                    injectors: self.injectors.chunk_mut(s),
                    receivers: self.receivers.chunk_mut(s),
                    router_set: &mut self.router_sets[s],
                    link_set: &mut self.link_sets[s],
                    injector_set: &mut self.injector_sets[s],
                    receiver_set: &mut self.receiver_sets[s],
                    node_lo: self.plan.range(s).start,
                    links_lo: self.link_bounds[s],
                };
                kernel(&ctx, &mut view, &mut self.shard_scratch[s]);
            }
            return;
        };
        let mut tasks = Vec::with_capacity(num_shards);
        for s in 0..num_shards {
            let tables = Arc::clone(&self.tables);
            let killed = Arc::clone(&self.killed);
            let faults = Arc::clone(&self.faults);
            let mut w = self.take_shard(s);
            let (node_lo, links_lo) = (self.plan.range(s).start, self.link_bounds[s]);
            tasks.push(move || {
                let ctx = Ctx {
                    now,
                    tables: &tables,
                    killed: &killed,
                    faults: &faults,
                    trace_on,
                    visit_all,
                    form_trains,
                };
                let mut view = ShardView {
                    routers: &mut w.routers,
                    links: &mut w.links,
                    injectors: &mut w.injectors,
                    receivers: &mut w.receivers,
                    router_set: &mut w.router_set,
                    link_set: &mut w.link_set,
                    injector_set: &mut w.injector_set,
                    receiver_set: &mut w.receiver_set,
                    node_lo,
                    links_lo,
                };
                kernel(&ctx, &mut view, &mut w.scratch);
                w
            });
        }
        for (s, w) in team.run(tasks).into_iter().enumerate() {
            self.put_shard(s, w);
        }
        self.team = Some(team);
    }

    /// The phase barrier: runs `apply` over every shard's sink in
    /// shard order.
    fn at_barrier(&mut self, mut apply: impl FnMut(&mut Network, &mut ShardScratch)) {
        let mut sinks = std::mem::take(&mut self.shard_scratch);
        for fx in &mut sinks {
            apply(self, fx);
        }
        self.shard_scratch = sinks;
    }

    // --------------------------------------------------------------
    // Arrivals
    // --------------------------------------------------------------

    /// Whether this cycle's arrivals can take the quiet-cycle kernel:
    /// true exactly when no arrival can draw the fault RNG or kill a
    /// worm *this cycle*, so per-link work is confined to the link and
    /// its (shard-owned) destination router.
    ///
    /// Evaluated every cycle against the live fault model — churn and
    /// the check API flip it mid-run — cheap in the common cases (a
    /// couple of field reads; the per-dead-link scan only runs for
    /// detecting protocols with faults present):
    ///
    /// * Transient corruption draws RNG on every arrival: ordered.
    /// * Non-detecting protocols never detect, kill, or draw the
    ///   detection RNG — corruption itself is a deterministic flag
    ///   flip on the shard-owned flit: quiet.
    /// * Detecting protocols with no dead link now and none ever:
    ///   nothing is corrupted, detection never fires: quiet.
    /// * A nonzero detection-miss rate may have let a corrupted flit
    ///   survive a past dead-link arrival and roam (`ever_dead`), and
    ///   its eventual arrival anywhere draws the detection RNG:
    ///   ordered from the first kill onward.
    /// * Miss rate zero: corrupted flits never survive their
    ///   corrupting arrival, so only a *currently* dead link with a
    ///   flit due this cycle (`wake <= now`; wakes are never
    ///   stale-late) can fire detection — detection kills walk
    ///   cross-shard teardown chains, so such cycles are ordered. FCR
    ///   storms therefore fan out on every cycle where no dead link
    ///   has a due flit, which is most of them.
    fn arrivals_parallel_ok(&self, now: Cycle) -> bool {
        if self.faults.transient_rate() != 0.0 {
            return false;
        }
        if !self.cfg.protocol.detects_faults() {
            return true;
        }
        if self.faults.num_dead_links() == 0 && !self.ever_dead {
            return true;
        }
        if self.faults.detection_miss_rate() != 0.0 {
            return false;
        }
        for id in self.faults.dead_links() {
            let li = self.link_by_id[id.index()] as usize;
            let pi = self.link_perm[li] as usize;
            if self.links[pi].occupied() > 0 && self.links[pi].wake() <= now {
                return false;
            }
        }
        true
    }

    pub(super) fn phase_arrivals(&mut self, now: Cycle) {
        if !self.arrivals_parallel_ok(now) {
            self.arrivals_ordered(now);
            return;
        }
        self.fan_out(now, kernel::arrivals_quiet);
        self.at_barrier(|net, fx| {
            net.apply_credits(fx);
            net.apply_deltas(now, fx);
        });
    }

    // --------------------------------------------------------------
    // Injection
    // --------------------------------------------------------------

    pub(super) fn phase_injection(&mut self, now: Cycle) {
        self.fan_out(now, kernel::injection);
        self.at_barrier(|net, fx| {
            // Per injector the kernel emitted: Kill event (buffered in
            // `events`), registry insert, forward token. Nothing in
            // the phase reads the registry or the token lists, so
            // applying them grouped by kind is state-identical.
            for worm in fx.kills.drain(..) {
                net.trains.forget_tail(worm);
                net.killed_mut().insert(worm, now);
            }
            net.fwd_tokens.append(&mut fx.tokens);
            net.apply_deltas(now, fx);
        });
    }

    // --------------------------------------------------------------
    // Routing + switch traversal (one fused kernel)
    // --------------------------------------------------------------

    pub(super) fn phase_route_and_traverse(&mut self, now: Cycle) {
        self.fan_out(now, kernel::route_traverse);
        // The barrier, in shard order: link pushes (the cross-shard
        // flit handoff — routers ascending, traversals in emission
        // order), then deliveries with all their side effects, then
        // the held-back credits, then counter deltas. Pushes,
        // deliveries and credits touch disjoint state, so their
        // relative grouping cannot be observed.
        self.at_barrier(|net, fx| {
            for i in 0..fx.push_li.len() {
                let li = fx.push_li[i] as usize;
                if net.trains.any() {
                    net.train_before_push(li, now);
                }
                if now.as_u64() >= net.cfg.warmup {
                    net.link_flits[li] += 1;
                }
                let arrive = now + net.cfg.channel_latency;
                net.push_onto_link(li, VcId::new(fx.push_vc[i]), arrive, fx.push_flit[i]);
            }
            fx.push_li.clear();
            fx.push_vc.clear();
            fx.push_flit.clear();
            for m in fx.delivered.drain(..) {
                net.trains.check_delivery(&m);
                net.counters.messages_delivered += 1;
                net.counters.payload_flits_delivered += u64::from(m.payload_len);
                if m.corrupt {
                    net.counters.corrupt_payload_delivered += 1;
                }
                net.latency.record(m.created, now);
                net.throughput.record_flits(now, m.payload_len as usize);
                net.trace.emit(|| Event::Deliver {
                    at: now,
                    src: m.src,
                    dst: m.dst,
                    message: m.id,
                    attempts: m.attempts,
                    latency: now.saturating_since(m.created),
                });
                if let Some((sn, sc)) = net.source_of(m.id) {
                    net.worm_sources[m.id.as_u64() as usize] = SOURCE_GONE;
                    net.injector_on_delivered(sn, sc, m.id);
                }
                if net.record_deliveries {
                    net.delivery_log.push(m);
                }
            }
            net.trains.candidates.append(&mut fx.heads);
            net.apply_credits(fx);
            net.apply_deltas(now, fx);
        });
        // Every finished stall streak is emitted after every delivery
        // of the cycle, so the streak events drain in a second pass.
        self.at_barrier(|net, fx| {
            for ev in fx.streak_events.drain(..) {
                net.trace.emit(|| ev);
            }
        });
    }

    // --------------------------------------------------------------
    // Barrier helpers
    // --------------------------------------------------------------

    /// Commits a shard's buffered upstream credit returns. The owning
    /// chunk comes from the node-owner table, so the per-credit path
    /// has no flat `Sharded` lookup.
    fn apply_credits(&mut self, fx: &mut ShardScratch) {
        for (up_node, up_out, vc) in fx.credits.drain(..) {
            let s = self.node_shard[up_node as usize] as usize;
            let at = up_node as usize - self.plan.range(s).start;
            self.routers.chunk_mut(s)[at].add_credit(up_out, vc);
        }
    }

    /// Commits a shard's counter deltas, progress flag and buffered
    /// trace events.
    fn apply_deltas(&mut self, now: Cycle, fx: &mut ShardScratch) {
        self.counters.merge(&std::mem::take(&mut fx.counters));
        apply_delta(&mut self.live_flits, std::mem::take(&mut fx.live_delta));
        apply_delta(
            &mut self.undrained_injectors,
            std::mem::take(&mut fx.undrained_delta),
        );
        if std::mem::take(&mut fx.progress) {
            self.last_progress = now;
        }
        for ev in fx.events.drain(..) {
            self.trace.emit(|| ev);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::NetworkBuilder;
    use cr_router::flit::worm_flit_at;
    use cr_router::{Flit, RouteTarget, WormId};
    use cr_sim::{MessageId, NodeId, PortId};
    use cr_topology::KAryNCube;

    /// Flit `seq` of a 6-flit worm from node 1 to node 0.
    fn flit(message: u64, seq: u32) -> Flit {
        let worm = WormId::new(MessageId::new(message), 0);
        worm_flit_at(
            worm,
            NodeId::new(1),
            NodeId::new(0),
            6,
            0,
            0,
            Cycle::ZERO,
            seq,
        )
    }

    /// A lane has as many slots as its upstream output VC has credits
    /// (`buffer_depth + channel_latency`); a push past that means a
    /// flit was sent on a credit nobody held, and aborts naming the
    /// link and the lane instead of growing the lane.
    #[test]
    #[should_panic(expected = "link 0 lane v0 overflow")]
    fn lane_overflow_is_a_loud_bug() {
        let mut net = NetworkBuilder::new(KAryNCube::mesh(2, 1))
            .buffer_depth(1)
            .build();
        let credits = 1 + net.cfg.channel_latency as u32;
        for seq in 0..=credits {
            net.push_onto_link(0, VcId::new(0), Cycle::ZERO, flit(1, seq));
        }
    }

    /// The orphan-drop credit has the latency of every other credit:
    /// it lands at the route + traverse barrier, after the upstream
    /// router's own traversal of that cycle, and is spent the cycle
    /// after. Two routers, wired 1 -> 0 and driven by hand through the
    /// fused phase alone (nothing ever arrives, so what node 1 sends
    /// stays parked on the link and its credits run out): node 1 is
    /// out of credits with a flit ready when node 0 — visited first —
    /// drops an orphan from the input that link feeds.
    #[test]
    fn orphan_drop_credit_lands_at_the_barrier() {
        for shards in [1, 2] {
            let mut net = NetworkBuilder::new(KAryNCube::mesh(2, 1))
                .buffer_depth(1)
                .shards(shards)
                .build();
            // Real cross-thread hand-off when there are two shards.
            net.set_shard_threads(Some(shards));
            let up_out = (0..net.tables.stride)
                .map(PortId::from_index)
                .find(|&p| net.tables.out_link(1, p).is_some())
                .expect("node 1 has a link to node 0");
            let li = net.tables.out_link(1, up_out).expect("just found");
            let (down, down_in) = net.tables.link_head[li];
            assert_eq!(down, 0);
            let inject = net.routers[1].inject_port(0);

            // Node 1 streams a worm toward node 0 until the output VC
            // it won has no credit left.
            let (mut now, mut seq) = (Cycle::ZERO, 0);
            let feed = |net: &mut Network, now: Cycle, seq: &mut u32| {
                assert!(net.routers[1].try_inject(now, 0, flit(1, *seq)));
                *seq += 1;
                net.live_flits += 1;
                net.arm_router(1);
            };
            let vc = loop {
                feed(&mut net, now, &mut seq);
                net.phase_route_and_traverse(now);
                now += 1;
                let Some(RouteTarget::Link { port, vc }) =
                    net.routers[1].route_of(inject, VcId::new(0))
                else {
                    panic!("the worm holds no link route");
                };
                assert_eq!(port, up_out);
                if net.routers[1].credits(up_out, vc) == 0 {
                    break vc;
                }
            };
            let sent = u64::from(seq);
            assert_eq!(
                net.routers[1].link_stats()[up_out.index()].flits_forwarded,
                sent
            );

            // Its next flit is ready but blocked; at node 0's end of
            // the link sits a route-less body flit of another worm. It
            // takes the place of the link's front flit, so the lane's
            // credits, wire and buffer still add up to its budget.
            feed(&mut net, now, &mut seq);
            let pi = net.link_perm[li] as usize;
            let mut wake = now;
            let arrived = net.links[pi].pop_due(
                vc.index(),
                now,
                &net.killed,
                &net.routers[0],
                down_in,
                &mut wake,
            );
            assert!(arrived.is_some(), "the worm's header was due");
            net.routers[0].accept(now, down_in, vc, flit(2, 1));
            net.arm_router(0);
            let in_flight = net.flits_in_flight();

            net.phase_route_and_traverse(now);
            assert_eq!(net.routers[0].counters().orphan_flits_dropped, 1);
            assert_eq!(net.flits_in_flight(), in_flight - 1);
            let stats = net.routers[1].link_stats()[up_out.index()];
            assert_eq!(
                stats.flits_forwarded, sent,
                "node 1 traversed before the credit"
            );
            assert_eq!(stats.stall_backpressure, 1);
            assert_eq!(
                net.routers[1].credits(up_out, vc),
                1,
                "landed at the barrier"
            );

            // The cycle after, the credit is spent.
            now += 1;
            net.phase_route_and_traverse(now);
            let stats = net.routers[1].link_stats()[up_out.index()];
            assert_eq!(
                (stats.flits_forwarded, stats.stall_backpressure),
                (sent + 1, 1)
            );
            assert_eq!(net.routers[1].credits(up_out, vc), 0);
        }
    }
}
