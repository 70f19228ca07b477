//! The kernel phases: injection and the fused route + traverse visit
//! run as kernels (`network_kernel.rs`) over the whole fabric, and
//! their buffered effects are applied here, after the kernel returns
//! (DESIGN.md §12).
//!
//! A kernel mutates only the components it visits and writes every
//! other effect — upstream credits, link pushes, deliveries, kills,
//! counters, trace events — into the sink. Applying the sink in one
//! fixed order afterwards is what makes a kernel visit-order-free:
//! no visit reads what another visit wrote.

use super::kernel::{self, Ctx, Effects, Kernel, View};
use super::{Network, SOURCE_GONE};
use cr_sim::trace::Event;
use cr_sim::{Cycle, VcId};

/// Applies a signed delta to an unsigned incremental counter.
fn apply_delta(value: &mut usize, delta: i64) {
    let next = *value as i64 + delta;
    debug_assert!(next >= 0, "incremental counter went negative");
    *value = next.max(0) as usize;
}

impl Network {
    /// Runs `kernel` over the fabric, leaving its effects in the sink
    /// for the caller's [`Network::apply_effects`].
    fn run_kernel(&mut self, now: Cycle, kernel: Kernel) {
        let ctx = Ctx {
            now,
            tables: &self.tables,
            killed: &self.killed,
            trace_on: self.trace.enabled(),
            visit_all: self.reference_stepper,
            form_trains: self.trains.enabled,
        };
        let mut view = View {
            routers: &mut self.routers,
            injectors: &mut self.injectors,
            receivers: &mut self.receivers,
            router_set: &mut self.router_set,
            injector_set: &mut self.injector_set,
            receiver_set: &mut self.receiver_set,
        };
        kernel(&ctx, &mut view, &mut self.fx);
    }

    /// Runs `apply` over the effects sink.
    fn apply_effects(&mut self, apply: impl FnOnce(&mut Network, &mut Effects)) {
        let mut fx = std::mem::take(&mut self.fx);
        apply(self, &mut fx);
        self.fx = fx;
    }

    // --------------------------------------------------------------
    // Injection
    // --------------------------------------------------------------

    pub(super) fn phase_injection(&mut self, now: Cycle) {
        self.run_kernel(now, kernel::injection);
        self.apply_effects(|net, fx| {
            // Per injector the kernel emitted: Kill event (buffered in
            // `events`), registry insert, forward token. Nothing in
            // the phase reads the registry or the token lists, so
            // applying them grouped by kind is state-identical.
            for worm in fx.kills.drain(..) {
                net.trains.forget_tail(worm);
                net.killed.insert(worm, now);
            }
            net.fwd_tokens.append(&mut fx.tokens);
            net.apply_deltas(now, fx);
        });
    }

    // --------------------------------------------------------------
    // Routing + switch traversal (one fused kernel)
    // --------------------------------------------------------------

    pub(super) fn phase_route_and_traverse(&mut self, now: Cycle) {
        self.run_kernel(now, kernel::route_traverse);
        // Link pushes (routers ascending, traversals in emission
        // order), then deliveries with all their side effects, then
        // the held-back credits, then counter deltas. Pushes,
        // deliveries and credits touch disjoint state, so their
        // relative grouping cannot be observed.
        self.apply_effects(|net, fx| {
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
    }

    // --------------------------------------------------------------
    // Effect helpers
    // --------------------------------------------------------------

    /// Commits the buffered upstream credit returns.
    fn apply_credits(&mut self, fx: &mut Effects) {
        for (up_node, up_out, vc) in fx.credits.drain(..) {
            self.routers[up_node as usize].add_credit(up_out, vc);
        }
    }

    /// Commits the counter deltas, progress flag and buffered trace
    /// events.
    fn apply_deltas(&mut self, now: Cycle, fx: &mut Effects) {
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
    /// it lands with the route + traverse effects, after the upstream
    /// router's own traversal of that cycle, and is spent the cycle
    /// after. Two routers, wired 1 -> 0 and driven by hand through the
    /// fused phase alone (nothing ever arrives, so what node 1 sends
    /// stays parked on the link and its credits run out): node 1 is
    /// out of credits with a flit ready when node 0 — visited first —
    /// drops an orphan from the input that link feeds.
    #[test]
    fn orphan_drop_credit_lands_after_the_kernel() {
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
            "landed with the kernel's effects"
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
