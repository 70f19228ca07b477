//! Property: the active-set scheduler never loses a scheduled
//! wake-up.
//!
//! Random small networks — random protocol, routing, timeout,
//! retransmission scheme and message plan — are drained to quiescence
//! twice, once with the default active-set stepper (which fast-forwards
//! over idle cycles) and once with the dense reference stepper. A lost
//! wake-up (an injector sleeping through its backoff resume, a link
//! arrival never scanned, a router left out of a phase) would make the
//! runs diverge: a different drain outcome, a different final clock,
//! or a different report. A second property switches drivers at
//! random points of one run. `cr_sim::check` shrinks any
//! counterexample.

use cr_core::{Network, NetworkBuilder, ProtocolKind, RetransmitScheme, RoutingKind};
use cr_sim::check::{check, Config, Source};
use cr_sim::NodeId;
use cr_topology::KAryNCube;

/// Builds a random tiny network plus a message plan from the tape.
fn random_case(src: &mut Source<'_>) -> (NetworkBuilder, Vec<(u32, u32, u32)>) {
    let mut b = NetworkBuilder::new(KAryNCube::torus(4, 2));
    let vcs = src.usize_in(1..3);
    if src.bool_any() {
        b.routing(RoutingKind::Adaptive { vcs });
    } else {
        b.routing(RoutingKind::AdaptiveMisroute {
            vcs,
            extra_hops: src.usize_in(0..5) as u16,
        });
    }
    b.protocol(if src.bool_any() {
        ProtocolKind::Fcr
    } else {
        ProtocolKind::Cr
    });
    b.timeout(src.u64_in(8..64));
    if src.bool_any() {
        b.retransmit(RetransmitScheme::StaticGap {
            gap: src.u64_in(1..200),
        });
    } else {
        b.retransmit(RetransmitScheme::ExponentialBackoff {
            slot: src.u64_in(1..32),
            ceiling: src.u32_in(1..11),
        });
    }
    if src.bool_any() {
        b.path_wide(src.u64_in(16..128));
    }
    b.channel_latency(src.u64_in(1..4));
    b.warmup(0);
    b.seed(src.u64_any());

    let n_msgs = src.usize_in(1..9);
    let mut plan = Vec::with_capacity(n_msgs);
    for _ in 0..n_msgs {
        let from = src.usize_in(0..16) as u32;
        let to = (from + src.usize_in(1..16) as u32) % 16;
        let len = src.usize_in(2..25) as u32;
        plan.push((from, to, len));
    }
    (b, plan)
}

fn drain(net: &mut Network, plan: &[(u32, u32, u32)]) -> (bool, u64, String) {
    for &(from, to, len) in plan {
        net.send_message(NodeId::new(from), NodeId::new(to), len);
    }
    let done = net.run_until_quiescent(60_000);
    (done, net.now().as_u64(), net.report().to_json())
}

#[test]
fn random_networks_never_lose_a_wakeup() {
    check("scheduler_wakeup", Config::cases(40), |src| {
        let (mut b, plan) = random_case(src);
        let mut active = b.build();
        let mut dense = b.build();
        dense.set_reference_stepper(true);

        let (a_done, a_now, a_json) = drain(&mut active, &plan);
        let (d_done, d_now, d_json) = drain(&mut dense, &plan);

        assert_eq!(a_done, d_done, "drain outcomes diverge");
        assert_eq!(a_now, d_now, "final clocks diverge");
        assert!(
            a_json == d_json,
            "reports diverge\nactive:\n{a_json}\ndense:\n{d_json}"
        );
        if a_done {
            assert_eq!(active.flits_in_flight(), 0, "drained but flits remain");
        }
    });
}

/// Switching drivers mid-run is legal, in any order and at any point:
/// every driver runs the same phase kernels and leaves the active sets
/// exact, so a run chopped into random segments — each picking
/// (reference | active) × (forced team hand-off on | off) × (1 | 2
/// worker threads), over a 1-, 2- or 3-shard plan — must finish with
/// the same report, clock and trace stream as the plain serial active
/// run.
#[test]
fn mid_run_stepper_switch_is_seamless() {
    const BUDGET: u64 = 60_000;
    check("scheduler_switch", Config::cases(30), |src| {
        let (mut b, plan) = random_case(src);
        b.trace(1 << 14);
        let mut plain = b.shards(1).build();
        let mut mixed = b.shards(src.usize_in(1..4)).build();
        for &(from, to, len) in &plan {
            plain.send_message(NodeId::new(from), NodeId::new(to), len);
            mixed.send_message(NodeId::new(from), NodeId::new(to), len);
        }
        let p_done = plain.run_until_quiescent(BUDGET);

        // Random segments of bare steps (no fast-forward, so a segment
        // can end mid-worm), then whatever the last segment's driver
        // is finishes the drain with fast-forward allowed.
        for _ in 0..src.usize_in(1..7) {
            mixed.set_reference_stepper(src.bool_any());
            mixed.set_force_sharded(src.bool_any());
            mixed.set_shard_threads(Some(src.usize_in(1..3)));
            for _ in 0..src.usize_in(0..60) {
                if mixed.is_deadlocked() || mixed.flits_in_flight() == 0 {
                    break;
                }
                mixed.step();
            }
        }
        // Align the cycle budget so both runs cap out at the same end
        // cycle regardless of how many cycles the segments stepped.
        let m_done = mixed.run_until_quiescent(BUDGET.saturating_sub(mixed.now().as_u64()));

        assert_eq!(p_done, m_done, "drain outcomes diverge after switches");
        assert_eq!(
            plain.now(),
            mixed.now(),
            "final clocks diverge after switches"
        );
        let p = plain.report().to_json();
        let m = mixed.report().to_json();
        assert!(
            p == m,
            "reports diverge after switches\nplain:\n{p}\nmixed:\n{m}"
        );
        assert_eq!(
            plain.take_trace_events(),
            mixed.take_trace_events(),
            "trace streams diverge after switches"
        );
    });
}
