//! Injection and the fused route + traverse visit (DESIGN.md §12).
//!
//! Both phases write their effects in place, like every other phase.
//! A router's visit holds `&mut` its own router only, so it cannot
//! write another router; the one effect that would — the upstream
//! credit of each flit that leaves an input lane — is held in
//! `held_credits` and returned after every router has traversed: the
//! one-cycle credit-return latency. The cycle's completed messages and
//! its `LinkStall` events are applied after the router loop too, so
//! every `Deliver` event of a cycle comes before every `LinkStall`.

use super::{idx32, Network, SOURCE_GONE};
use crate::link::LinkState;
use cr_router::{Flit, RouteTarget};
use cr_sim::sched::ActiveSet;
use cr_sim::trace::{Event, KillCause};
use cr_sim::{Cycle, NodeId, VcId};
use std::ops::Range;

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

/// Parks `flit` on link `li`'s lane `vc`, due at `arrive`, keeping
/// the link's active-set membership current. A lane has as many slots
/// as its upstream output VC has credits, so a push past that is a
/// flow-control bug and aborts.
pub(super) fn push_onto_link(
    links: &mut [LinkState],
    link_set: &mut ActiveSet,
    li: usize,
    vc: VcId,
    arrive: Cycle,
    flit: Flit,
) {
    let pushed = links[li].push(vc.index(), arrive, flit);
    assert!(
        pushed.is_ok(),
        "link {li} lane {vc} overflow: a flit was sent without a credit"
    );
    link_set.insert(idx32(li));
}

impl Network {
    // --------------------------------------------------------------
    // Injection
    // --------------------------------------------------------------

    /// Every visited injector's cycle. [`Injector::step`] is a no-op
    /// that draws no RNG whenever [`Injector::has_step_work`] is false
    /// — the skip condition.
    ///
    /// [`Injector::step`]: crate::injector::Injector::step
    /// [`Injector::has_step_work`]: crate::injector::Injector::has_step_work
    pub(super) fn phase_injection(&mut self, now: Cycle) {
        let mut ids = std::mem::take(&mut self.ids_scratch);
        ids.clear();
        let all = 0..self.injectors.len() * self.cfg.inject_channels;
        visit_list(&mut ids, &mut self.injector_set, all, self.reference_stepper);
        for &id in &ids {
            self.visit_injector(now, id);
        }
        self.ids_scratch = ids;
    }

    /// One injector's turn; a source timeout kills the worm at its
    /// injection FIFO through [`Network::kill_worm_at`].
    fn visit_injector(&mut self, now: Cycle, id: u32) {
        let chans = self.cfg.inject_channels;
        let (n, c) = (id as usize / chans, id as usize % chans);
        let src = NodeId::from_index(n);
        let out = self.injectors[n][c].step(now, &mut self.routers[n]);
        if out.injected_flit {
            self.last_progress = now;
            self.live_flits += 1;
            self.arm_router(n);
            if out.injected_pad {
                self.counters.pad_flits_injected += 1;
            } else {
                self.counters.payload_flits_injected += 1;
            }
        }
        if out.restarted {
            self.counters.retransmissions += 1;
        }
        if let Some((worm, dst)) = out.started {
            self.trace.emit(|| Event::Inject {
                at: now,
                src,
                dst,
                message: worm.message,
                attempt: worm.attempt,
            });
        }
        if let Some(worm) = out.committed {
            self.trace.emit(|| Event::Commit {
                at: now,
                src,
                message: worm.message,
                attempt: worm.attempt,
            });
        }
        if let Some(worm) = out.kill {
            self.counters.kills_source_timeout += 1;
            let port = self.routers[n].inject_port(c);
            self.kill_worm_at(now, n, port, VcId::new(0), worm, KillCause::SourceTimeout);
        }
        if self.injectors[n][c].has_step_work() {
            self.injector_set.insert(id);
        }
    }

    // --------------------------------------------------------------
    // Routing + switch traversal (one fused visit per router)
    // --------------------------------------------------------------

    /// Every visited router routes and traverses, then the held
    /// effects land: the cycle's deliveries, its `LinkStall` events,
    /// and last the upstream credits.
    pub(super) fn phase_route_and_traverse(&mut self, now: Cycle) {
        let mut ids = std::mem::take(&mut self.ids_scratch);
        ids.clear();
        let all = 0..self.routers.len();
        visit_list(&mut ids, &mut self.router_set, all, self.reference_stepper);
        for &n in &ids {
            self.visit_router(now, n);
        }
        self.ids_scratch = ids;

        let mut delivered = std::mem::take(&mut self.delivered);
        for m in delivered.drain(..) {
            self.trains.check_delivery(&m);
            self.counters.messages_delivered += 1;
            self.counters.payload_flits_delivered += u64::from(m.payload_len);
            if m.corrupt {
                self.counters.corrupt_payload_delivered += 1;
            }
            self.latency.record(m.created, now);
            self.throughput.record_flits(now, m.payload_len as usize);
            self.trace.emit(|| Event::Deliver {
                at: now,
                src: m.src,
                dst: m.dst,
                message: m.id,
                attempts: m.attempts,
                latency: now.saturating_since(m.created),
            });
            if let Some((sn, sc)) = self.source_of(m.id) {
                self.worm_sources[m.id.as_u64() as usize] = SOURCE_GONE;
                self.injector_on_delivered(sn, sc, m.id);
            }
            if self.record_deliveries {
                self.delivery_log.push(m);
            }
        }
        self.delivered = delivered;
        for ev in self.stall_events.drain(..) {
            self.trace.emit(|| ev);
        }
        for (up_node, up_out, vc) in self.held_credits.drain(..) {
            self.routers[up_node].add_credit(up_out, vc);
        }
    }

    /// One router's visit. It allocates its unrouted headers (an O(1)
    /// return when it has none), holds an upstream credit for each
    /// orphan that dropped, then traverses, each departing flit going
    /// from its FIFO straight onto its link or into the router's own
    /// receiver, its upstream credit held. Finished stall streaks are
    /// held as `LinkStall` events (routers only record streaks while
    /// tracing), and a router still holding flits outside the streams
    /// worm trains hold, or an open streak, re-arms.
    ///
    /// The visit borrows `&mut` its own router and nothing else's, so
    /// it reads nothing another router's visit of this cycle wrote, and
    /// routers may be visited in any order. A router not visited holds
    /// no flit but held ones and no open streak, for which every step
    /// here is a no-op that draws no RNG.
    fn visit_router(&mut self, now: Cycle, n32: u32) {
        let n = n32 as usize;
        let Network {
            tables,
            cfg,
            killed,
            routers,
            receivers,
            links,
            link_set,
            link_flits,
            router_set,
            receiver_set,
            held_credits,
            delivered,
            stall_events,
            streaks,
            counters,
            live_flits,
            last_progress,
            trace,
            trains,
            ..
        } = self;
        let router = &mut routers[n];
        let is_killed = |w| killed.contains(w);
        let mut hold_credit = |port, vc| {
            if let Some((up_node, up_out)) = tables.in_upstream(n, port) {
                held_credits.push((up_node, up_out, vc));
            }
        };
        let orphans = router.route_and_allocate(now, &*tables.routing, &*tables.topo, &is_killed);
        if orphans > 0 {
            // Orphan drops leave the network.
            *live_flits -= orphans;
            for (port, vc) in router.take_orphan_credits() {
                hold_credit(port, vc);
            }
        }
        // Input ports below this are neighbor ports, fed by an
        // upstream router that is owed the credit.
        let node_ports = router.config().num_node_ports;
        let rx = &mut receivers[n];
        let arrive = now + cfg.channel_latency;
        let warm = now.as_u64() >= cfg.warmup;
        router.traverse_each(now, &is_killed, |t| {
            *last_progress = now;
            if t.from_port.index() < node_ports {
                hold_credit(t.from_port, t.from_vc);
            }
            match t.target {
                RouteTarget::Link { port, vc } => {
                    let Some(li) = tables.out_link(n, port) else {
                        // Routing only offers connected ports; stay
                        // loud in debug, drop defensively in release
                        // rather than killing the sweep worker.
                        debug_assert!(false, "route to disconnected port");
                        return;
                    };
                    // A train's link carries only its own worm, whose
                    // held output VC is the link's only lane and pushes
                    // nothing.
                    debug_assert!(trains.on_link(li).is_none(), "pushed onto a train's link");
                    if warm {
                        link_flits[li] += 1;
                    }
                    push_onto_link(links, link_set, li, vc, arrive, t.flit);
                }
                RouteTarget::Eject { .. } => {
                    // The flit left the fabric, delivered or not.
                    *live_flits -= 1;
                    if is_killed(t.flit.worm) {
                        counters.flits_dropped_killed += 1;
                        rx.discard(t.flit.worm);
                    } else {
                        if trains.enabled && t.flit.is_head() {
                            trains.candidates.push((n32, t.flit.worm));
                        }
                        delivered.extend(rx.on_flit(now, t.flit));
                        if rx.assembling_len() > 0 {
                            // Open assembly: the periodic prune must
                            // look at this receiver.
                            receiver_set.insert(n32);
                        }
                    }
                }
            }
        });
        if trace.enabled() {
            streaks.clear();
            router.drain_streaks_into(streaks);
            for s in streaks.iter() {
                if let Some(li) = tables.out_link(n, s.port) {
                    stall_events.push(Event::LinkStall {
                        at: s.since,
                        link: tables.link_ids[li],
                        cause: s.cause,
                        cycles: s.cycles,
                    });
                }
            }
        }
        if router.needs_visit() {
            router_set.insert(n32);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::NetworkBuilder;
    use cr_router::flit::worm_flit_at;
    use cr_router::WormId;
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
            push_onto_link(
                &mut net.links,
                &mut net.link_set,
                0,
                VcId::new(0),
                Cycle::ZERO,
                flit(1, seq),
            );
        }
    }

    /// The orphan-drop credit has the latency of every other credit:
    /// it is held until every router has traversed, after the upstream
    /// router's own traversal of that cycle, and is spent the cycle
    /// after. Two routers, wired 1 -> 0 and driven by hand through the
    /// fused phase alone (nothing ever arrives, so what node 1 sends
    /// stays parked on the link and its credits run out): node 1 is
    /// out of credits with a flit ready when node 0 — visited first —
    /// drops an orphan from the input that link feeds.
    #[test]
    fn orphan_drop_credit_lands_after_the_router_loop() {
        let mut net = NetworkBuilder::new(KAryNCube::mesh(2, 1))
            .buffer_depth(1)
            .build();
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
        let mut wake = now;
        let arrived = net.links[li].pop_due(
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
            "landed after the router loop"
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
