//! Worm trains (DESIGN.md §10) against the reference driver, which
//! never forms them.
//!
//! A train advances a padded worm's steady pipeline in closed form,
//! holding its channels while other worms cross its routers, and
//! writes it back (*materialises* it) before anything can observe or
//! touch what it holds. The property below runs random small fabrics —
//! crossing worms, Bernoulli sources, 1- and 2-VC channels — in
//! random-length `run` / `run_until_quiescent` chunks under both
//! drivers and compares everything at every chunk boundary — the model
//! checker's full state encoding, the report and the drained trace —
//! so every write-back is checked at an arbitrary offset into its
//! train. Debug builds also check every train that runs to its end
//! against its closed-form tail-delivery cycle. The pinned cases after
//! it each aim at one way a train could be observed early or late.

use cr_core::check_api::{CheckNet, ProtocolStep};
use cr_core::{Network, NetworkBuilder, ProtocolKind, RoutingKind, TrainStats};
use cr_faults::ChurnSchedule;
use cr_sim::check::{check, Config, Source};
use cr_sim::{Cycle, LinkId, NodeId};
use cr_topology::{KAryNCube, Topology};
use cr_traffic::{LengthDistribution, Trace, TraceEvent, TrafficPattern};
use std::sync::atomic::{AtomicU64, Ordering};

/// The id of the link from `from` to `to`.
fn link_between(topo: &KAryNCube, from: NodeId, to: NodeId) -> LinkId {
    let links = topo.links();
    let link = links.iter().find(|l| l.src == from && l.dst == to);
    link.expect("neighbours are linked").id
}

fn event(at: u64, src: NodeId, dst: NodeId, length: u32) -> TraceEvent {
    TraceEvent {
        at: Cycle::new(at),
        src,
        dst,
        length,
    }
}

/// A random small fabric and its plan: a lone worm along a row (its
/// minimal path is unique, so its nodes and links are known up front),
/// worms crossing it — some along a column through one of its routers,
/// sharing the router but not the channels — perhaps a message
/// entering at one of its mid-path nodes, perhaps Bernoulli sources at
/// every node, a kill-and-revive of one of its links, and the chunks to
/// run it in, mostly short so that trains are cut at arbitrary offsets.
struct Case {
    builder: NetworkBuilder,
    trace: Trace,
    chunks: Vec<(u64, bool)>,
    /// Bernoulli sources are attached (the run never drains).
    sources: bool,
}

fn random_case(src: &mut Source<'_>) -> Case {
    let torus = src.bool_any();
    let k = src.usize_in(5..9);
    let topo = if torus {
        KAryNCube::torus(k, 2)
    } else {
        KAryNCube::mesh(k, 2)
    };
    let mut b = NetworkBuilder::new(topo.clone());
    let dor = src.bool_any();
    b.routing(if dor {
        RoutingKind::Dor { lanes: 1 }
    } else {
        RoutingKind::Adaptive {
            vcs: src.usize_in(1..3),
        }
    });
    // Plain wormhole (long trains: no commitment) only where it cannot
    // deadlock.
    b.protocol(match src.usize_in(0..3) {
        0 if dor => ProtocolKind::Baseline,
        1 => ProtocolKind::Fcr,
        _ => ProtocolKind::Cr,
    });
    b.buffer_depth(src.usize_in(1..4))
        .channel_latency(src.u64_in(1..4))
        .inject_depth(src.usize_in(1..4))
        .warmup(src.u64_in(0..300))
        .timeout(src.u64_in(16..128))
        .seed(src.u64_any())
        .trace(1 << 14);

    // The lone worm: `h` hops along row `y`, the only minimal path.
    let y = src.usize_in(0..k);
    let (x0, h) = if torus {
        (src.usize_in(0..k), src.usize_in(2..k.div_ceil(2)))
    } else {
        (0, src.usize_in(2..k))
    };
    let node = |x: usize, y: usize| topo.node_at(&[x % k, y % k]);
    let at = |j: usize| node(x0 + j, y);
    let longest = [24, 200][src.usize_in(0..2)];
    let len = src.u32_in(2..longest);
    let mut events = vec![event(src.u64_in(0..10), at(0), at(h), len)];
    let any_node = |src: &mut Source<'_>| NodeId::from_index(src.usize_in(0..k * k));
    for _ in 0..src.usize_in(0..4) {
        let (from, to) = if src.bool_any() {
            (any_node(src), any_node(src))
        } else {
            // Down a column through path router `j`.
            let x = x0 + src.usize_in(0..h + 1);
            let (up, down) = (src.usize_in(1..3), src.usize_in(1..3));
            match torus {
                true => (node(x, y + k - up), node(x, y + down)),
                false if y >= up && y + down < k => (node(x, y - up), node(x, y + down)),
                false => (node(x, 0), node(x, k - 1)),
            }
        };
        if from != to {
            events.push(event(src.u64_in(0..120), from, to, src.u32_in(2..30)));
        }
    }
    if src.bool_any() {
        let (mid, to) = (at(src.usize_in(1..h)), any_node(src));
        if mid != to {
            events.push(event(src.u64_in(0..100), mid, to, src.u32_in(2..30)));
        }
    }
    if src.bool_any() {
        let j = src.usize_in(0..h);
        let link = link_between(&topo, at(j), at(j + 1));
        let kill = src.u64_in(1..150);
        let mut churn = ChurnSchedule::new();
        churn
            .kill_link(Cycle::new(kill), link)
            .revive_link(Cycle::new(kill + src.u64_in(1..200)), link);
        b.churn(churn);
    }
    let sources = src.bool_any();
    if sources {
        let lengths = LengthDistribution::Fixed(src.usize_in(2..24));
        let load = [0.02, 0.08, 0.2][src.usize_in(0..3)];
        b.traffic(TrafficPattern::Uniform, lengths, load);
    }
    events.sort_by_key(|e| e.at);
    let chunks = src.vec_with(1..40, |s| {
        let longest = [8, 60][s.usize_in(0..2)];
        (s.u64_in(1..longest), s.bool_any())
    });
    Case {
        builder: b,
        trace: Trace::from_events(events),
        chunks,
        sources,
    }
}

/// Asserts that the two networks are indistinguishable: clock, model
/// checker state, report and the trace events since the last call.
fn assert_same(active: &mut CheckNet, reference: &mut CheckNet, when: &str) {
    assert_eq!(active.now(), reference.now(), "{when}: clocks differ");
    let (mut a, mut r) = (Vec::new(), Vec::new());
    active.encode_state(&mut a);
    reference.encode_state(&mut r);
    assert!(a == r, "{when}: check_api state encodings differ");
    let (a, r) = (active.network().report(), reference.network().report());
    let (a, r) = (a.to_json(), r.to_json());
    assert!(
        a == r,
        "{when}: reports differ\nactive:\n{a}\nreference:\n{r}"
    );
    assert_eq!(
        active.take_trace_events(),
        reference.take_trace_events(),
        "{when}: trace events differ"
    );
}

/// Cases run, and cases in which a train formed; the same over the
/// cases with Bernoulli sources.
static CASES: AtomicU64 = AtomicU64::new(0);
static WITH_TRAINS: AtomicU64 = AtomicU64::new(0);
static SOURCED: AtomicU64 = AtomicU64::new(0);
static SOURCED_WITH_TRAINS: AtomicU64 = AtomicU64::new(0);

#[test]
fn chunked_runs_match_the_reference_driver_at_every_boundary() {
    check("trains_chunked_twin", Config::cases(48), |src| {
        let mut case = random_case(src);
        let build = |b: &mut NetworkBuilder, reference: bool| {
            let mut net = b.build();
            net.set_reference_stepper(reference);
            net.schedule_trace(&case.trace);
            CheckNet::new(net)
        };
        let mut active = build(&mut case.builder, false);
        let mut reference = build(&mut case.builder, true);
        for (k, &(len, quiesce)) in case.chunks.iter().enumerate() {
            let when = format!("chunk {k} ({len} cycles, quiesce {quiesce})");
            if quiesce {
                let a = active.run_until_quiescent(len);
                assert_eq!(
                    a,
                    reference.run_until_quiescent(len),
                    "{when}: outcomes differ"
                );
            } else {
                let (a, r) = (active.run(len), reference.run(len));
                assert!(
                    a.to_json() == r.to_json(),
                    "{when}: returned reports differ"
                );
            }
            assert_same(&mut active, &mut reference, &when);
            if active.is_quiescent() || active.is_deadlocked() {
                break;
            }
        }
        // Sources never drain: their tail run is a bounded one.
        let budget = if case.sources { 2_000 } else { 20_000 };
        let done = active.run_until_quiescent(budget);
        assert_eq!(
            done,
            reference.run_until_quiescent(budget),
            "drain outcomes differ"
        );
        assert_same(&mut active, &mut reference, "drain");
        assert_eq!(reference.network().train_stats(), TrainStats::default());
        let stats = active.network().train_stats();
        assert_eq!(
            stats.formed,
            stats.materialised(),
            "a train outlived its run"
        );
        CASES.fetch_add(1, Ordering::Relaxed);
        if stats.formed > 0 {
            WITH_TRAINS.fetch_add(1, Ordering::Relaxed);
        }
        if case.sources {
            SOURCED.fetch_add(1, Ordering::Relaxed);
            if stats.formed > 0 {
                SOURCED_WITH_TRAINS.fetch_add(1, Ordering::Relaxed);
            }
        }
    });
    let (cases, with) = (
        CASES.load(Ordering::Relaxed),
        WITH_TRAINS.load(Ordering::Relaxed),
    );
    assert!(
        2 * with > cases,
        "trains formed in only {with} of {cases} cases"
    );
    let (sourced, with) = (
        SOURCED.load(Ordering::Relaxed),
        SOURCED_WITH_TRAINS.load(Ordering::Relaxed),
    );
    assert!(
        2 * with > sourced,
        "trains formed beside Bernoulli sources in only {with} of {sourced} cases"
    );
}

/// A lone worm from `(0, 0)` to `(hops, 0)` on an 8-ary 2-cube under
/// plain wormhole dimension-order routing: no padding and no
/// commitment, so its train lasts about as many cycles as it has flits.
fn lone_worm(hops: usize) -> (NetworkBuilder, NodeId, NodeId) {
    let topo = KAryNCube::torus(8, 2);
    let (from, to) = (topo.node_at(&[0, 0]), topo.node_at(&[hops, 0]));
    let mut b = NetworkBuilder::new(topo);
    b.routing(RoutingKind::Dor { lanes: 1 })
        .protocol(ProtocolKind::Baseline)
        .warmup(0)
        .trace(1 << 13);
    (b, from, to)
}

type Message = (u64, NodeId, NodeId, u32);

/// Both drivers over the same builder and messages.
fn twins(b: &mut NetworkBuilder, messages: &[Message]) -> (Network, Network) {
    let events = messages.iter().map(|&(at, s, d, l)| event(at, s, d, l));
    let trace = Trace::from_events(events.collect());
    let mut active = b.build();
    let mut reference = b.build();
    reference.set_reference_stepper(true);
    active.schedule_trace(&trace);
    reference.schedule_trace(&trace);
    (active, reference)
}

/// Runs both networks to quiescence (or `budget`) and asserts they
/// end identical; returns whether they drained.
fn drain_both(active: &mut Network, reference: &mut Network, budget: u64) -> bool {
    let done = active.run_until_quiescent(budget);
    assert_eq!(done, reference.run_until_quiescent(budget));
    assert_eq!(active.now(), reference.now(), "clocks differ");
    let (a, r) = (active.report().to_json(), reference.report().to_json());
    assert!(a == r, "reports differ\nactive:\n{a}\nreference:\n{r}");
    assert_eq!(active.take_trace_events(), reference.take_trace_events());
    done
}

/// The watchdog counts a train's skipped cycles as progress: a train
/// far longer than `deadlock_threshold` declares nothing. And on a
/// truly wedged net — four worms chasing each other around a ring,
/// beside a long train — it still fires on exactly the reference's
/// cycle, once the train's worm has gone.
#[test]
fn the_watchdog_sees_a_train_progress_and_still_catches_a_wedge() {
    let (mut b, from, to) = lone_worm(3);
    b.deadlock_threshold(40);
    let (mut active, mut reference) = twins(&mut b, &[(0, from, to, 600)]);
    assert!(drain_both(&mut active, &mut reference, 10_000));
    assert!(!active.is_deadlocked());
    let stats = active.train_stats();
    assert!(stats.cycles > 500, "the train covered {stats:?}");

    // Row 3 as a ring: every worm goes three hops in +x (its only
    // minimal path), so each holds the link the one behind it needs.
    let grid = KAryNCube::torus(8, 2);
    let at = |x: usize, y: usize| grid.node_at(&[x % 8, y]);
    let mut b = NetworkBuilder::new(grid.clone());
    b.routing(RoutingKind::Adaptive { vcs: 1 })
        .protocol(ProtocolKind::Baseline)
        .buffer_depth(1)
        .deadlock_threshold(60)
        .warmup(0)
        .trace(1 << 13);
    let mut messages = vec![(0, at(0, 0), at(3, 0), 300)];
    messages.extend([0, 2, 4, 6].map(|x| (5, at(x, 3), at(x + 3, 3), 40)));
    let (mut active, mut reference) = twins(&mut b, &messages);
    assert!(!drain_both(&mut active, &mut reference, 10_000));
    assert!(active.is_deadlocked(), "the ring must wedge");
    assert!(
        active.train_stats().formed > 0,
        "{:?}",
        active.train_stats()
    );
    assert!(
        active.now().as_u64() > 300,
        "the train kept the watchdog quiet"
    );
}

/// A prune that falls inside a train older than the receiver horizon
/// (`4 × registry_lifetime`) must read the stamp the stepped worm would
/// have left, and so keep the worm's assembly — through fast-forward's
/// catch-up prune and through a stepped one.
#[test]
fn a_prune_inside_a_long_train_keeps_the_assembly() {
    let (mut b, from, to) = lone_worm(2);
    let lone = (0, from, to, 3_000);
    // Fast-forwarded: the catch-up prune stops the jump at the first
    // prune that would misread the stamp.
    let (mut active, mut reference) = twins(&mut b, &[lone]);
    for chunk in [700, 1_100, 700] {
        let (a, r) = (active.run(chunk), reference.run(chunk));
        assert!(a.to_json() == r.to_json());
        assert_eq!(active.receiver(to).assembling_len(), 1, "assembly pruned");
        assert_eq!(reference.receiver(to).assembling_len(), 1);
    }
    assert!(drain_both(&mut active, &mut reference, 10_000));
    assert!(active.train_stats().prune > 0, "{:?}", active.train_stats());
    assert_eq!(active.report().counters.messages_delivered, 1);

    // Stepped: a one-hop message entering elsewhere on every cycle
    // keeps the run loop stepping across the prune.
    let grid = KAryNCube::torus(8, 2);
    let (near, far) = (grid.node_at(&[5, 5]), grid.node_at(&[5, 6]));
    let mut busy = vec![lone];
    busy.extend((0..600).map(|t| (t, near, far, 2)));
    let (mut active, mut reference) = twins(&mut b, &busy);
    assert!(drain_both(&mut active, &mut reference, 10_000));
    assert!(active.train_stats().prune > 0, "{:?}", active.train_stats());
}

/// A header of another worm arriving at a router on a train's path
/// (here it crosses the train's row on its way along a column) writes
/// the train back when its flit is pushed, and then routes and
/// forwards on exactly the cycles it does under the reference driver.
#[test]
fn a_foreign_header_at_a_train_router_forwards_on_the_reference_cycle() {
    let grid = KAryNCube::torus(8, 2);
    let mut foreign = 0;
    for start in [20, 45, 90, 150] {
        let (mut b, from, to) = lone_worm(3);
        let crossing = (start, grid.node_at(&[2, 6]), grid.node_at(&[2, 1]), 12);
        let (mut active, mut reference) = twins(&mut b, &[(0, from, to, 400), crossing]);
        assert!(drain_both(&mut active, &mut reference, 10_000));
        foreign += active.train_stats().foreign_flit;
    }
    assert!(foreign >= 4, "every crossing header met a train: {foreign}");
}

/// A teardown reaching a train's channel mid-cycle writes the train
/// back with the arrivals of the cycle already done: here a backward
/// kill re-queues, at the train's own source injector, a fault-killed
/// message that injector had finished sending just before the train's
/// worm (on a 16-ary 2-cube, where the killed worm's path is long
/// enough to outlive the train's formation). The same kind of kill
/// re-queued at another router on a train's row touches none of its
/// channels and leaves it running. Swept over the timings that put the
/// kill inside the train.
#[test]
fn a_teardown_reaching_a_path_node_sees_the_cycles_arrivals() {
    let run = |grid: &KAryNCube, cut: LinkId, kill: u64, messages: &[Message]| {
        let mut churn = ChurnSchedule::new();
        churn
            .kill_link(Cycle::new(kill), cut)
            .revive_link(Cycle::new(kill + 20), cut);
        let mut b = NetworkBuilder::new(grid.clone());
        b.routing(RoutingKind::Adaptive { vcs: 1 })
            .protocol(ProtocolKind::Fcr)
            .warmup(0)
            .churn(churn)
            .trace(1 << 12);
        let (mut active, mut reference) = twins(&mut b, messages);
        assert!(drain_both(&mut active, &mut reference, 10_000));
        active.train_stats()
    };

    let grid = KAryNCube::torus(8, 2);
    let at = |x: usize, y: usize| grid.node_at(&[x, y]);
    let cut = link_between(&grid, at(2, 2), at(2, 3));
    for lone_at in 4..16 {
        for kill in 6..18 {
            let down = (0, at(2, 0), at(2, 3), 4);
            let lone = (lone_at, at(0, 0), at(3, 0), 200);
            let stats = run(&grid, cut, kill, &[down, lone]);
            assert_eq!(stats.token, 0, "a teardown off the train's channels");
        }
    }

    let grid = KAryNCube::torus(16, 2);
    let at = |x: usize, y: usize| grid.node_at(&[x, y]);
    let cut = link_between(&grid, at(0, 6), at(0, 7));
    let mut token = 0;
    for lone_at in 0..2 {
        for kill in 18..32 {
            let down = (0, at(0, 0), at(0, 7), 4);
            let lone = (lone_at, at(0, 0), at(4, 0), 200);
            token += run(&grid, cut, kill, &[down, lone]).token;
        }
    }
    assert!(token > 0, "no teardown met a train");
}

/// A lone worm from `(0, 0)` to `(hops, 0)` on an 8-ary 2-cube under
/// plain wormhole minimal-adaptive routing on one VC: every hop of its
/// train holds a channel of its own and the rest of each router steps.
fn lone_channel_worm(hops: usize) -> (NetworkBuilder, NodeId, NodeId) {
    let (mut b, from, to) = lone_worm(hops);
    b.routing(RoutingKind::Adaptive { vcs: 1 });
    (b, from, to)
}

/// A header entering at a router on a train's path whose only way on
/// is the output the train holds waits there beside the train, which
/// keeps running, and forwards on exactly the cycle it does under the
/// reference driver: the one after the train's worm releases the port.
#[test]
fn a_foreign_header_blocked_on_a_held_output_forwards_on_the_reference_cycle() {
    let grid = KAryNCube::torus(8, 2);
    let mut cycles = 0;
    for start in [20, 45, 90, 150] {
        let (mut b, from, to) = lone_channel_worm(3);
        let blocked = (start, grid.node_at(&[1, 0]), grid.node_at(&[2, 0]), 12);
        let (mut active, mut reference) = twins(&mut b, &[(0, from, to, 400), blocked]);
        assert!(drain_both(&mut active, &mut reference, 10_000));
        let stats = active.train_stats();
        assert_eq!(stats.materialised(), stats.end, "{stats:?}");
        cycles += stats.cycles;
    }
    assert!(cycles > 4 * 350, "the train ran past the waiting header");
}

/// A message queued at the injector a train streams from only waits
/// its turn: the train runs on to its end, and the injector steps the
/// message on the reference cycle afterwards.
#[test]
fn an_enqueue_into_the_trains_own_injector_only_queues() {
    let grid = KAryNCube::torus(8, 2);
    for at in [30, 80, 200] {
        let (mut b, from, to) = lone_channel_worm(3);
        let next = (at, from, grid.node_at(&[0, 3]), 20);
        let (mut active, mut reference) = twins(&mut b, &[(0, from, to, 600), next]);
        assert!(drain_both(&mut active, &mut reference, 10_000));
        let stats = active.train_stats();
        assert_eq!((stats.enqueue, stats.foreign_flit, stats.token), (0, 0, 0));
        assert!(stats.cycles > 500, "{stats:?}");
    }
}

/// On 2-VC channels a header routed at a path router could win the
/// sibling VC of the train's output and share its bandwidth, so such a
/// hop holds the router whole: a message entering there writes the
/// train back first, and a header that could take the sibling VC then
/// does so on the reference cycle.
#[test]
fn a_sibling_vc_grant_keeps_a_two_vc_hop_router_exclusive() {
    let grid = KAryNCube::torus(8, 2);
    let mut enqueue = 0;
    for start in [20, 45, 90] {
        let (mut b, from, to) = lone_worm(3);
        b.routing(RoutingKind::Adaptive { vcs: 2 });
        let sibling = (start, grid.node_at(&[1, 0]), grid.node_at(&[2, 0]), 12);
        let (mut active, mut reference) = twins(&mut b, &[(0, from, to, 400), sibling]);
        assert!(drain_both(&mut active, &mut reference, 10_000));
        let stats = active.train_stats();
        assert!(stats.formed > 0, "{stats:?}");
        enqueue += stats.enqueue;
    }
    assert!(
        enqueue >= 3,
        "every entering message met a train: {enqueue}"
    );
}
