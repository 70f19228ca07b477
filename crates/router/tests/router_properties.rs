//! Property-based tests of the router's internal invariants under
//! randomized worm traffic and teardown.

use cr_router::flit::{worm_flit_at, worm_flits};
use cr_router::routing::MinimalAdaptive;
use cr_router::{Flit, LinkStats, RouteTarget, Router, RouterConfig, Traversal, WormId};
use cr_sim::check::{check, Config, Source};
use cr_sim::trace::StallCause;
use cr_sim::{Cycle, MessageId, NodeId, PortId, SimRng, VcId};
use cr_topology::{FullMesh, KAryNCube, Topology};
use std::collections::BTreeSet;

/// A scripted stimulus: worms arriving on random input ports, with
/// random kill points, pushed through one router standing at node 0 of
/// a 4-ary 1-cube.
#[derive(Debug, Clone)]
struct Script {
    /// (input port 0/1, destination 1..=3, length 2..10, kill_after)
    worms: Vec<(u8, u8, u8, Option<u8>)>,
    buffer_depth: usize,
    num_vcs: usize,
}

fn script(src: &mut Source<'_>) -> Script {
    let worms = src.vec_with(1..12, |s| {
        (
            s.u32_in(0..2) as u8,
            s.u32_in(1..4) as u8,
            s.u32_in(2..10) as u8,
            if s.bool_any() {
                Some(s.u32_in(0..8) as u8)
            } else {
                None
            },
        )
    });
    Script {
        worms,
        buffer_depth: src.usize_in(1..4),
        num_vcs: src.usize_in(1..3),
    }
}

/// Feed random worms through a single router, killing some midway: at
/// the end, after flushing every kill, no allocation leaks, and credit
/// spend never exceeds what traversal produced.
#[test]
fn router_never_leaks_allocations() {
    check("router_never_leaks_allocations", Config::cases(64), |src| {
        let s = script(src);
        let topo = KAryNCube::torus(4, 1);
        let cfg = RouterConfig {
            num_node_ports: topo.num_ports(NodeId::new(0)),
            num_vcs: s.num_vcs,
            buffer_depth: s.buffer_depth,
            num_inject: 1,
            inject_depth: 2,
            num_eject: 1,
            link_depth: 0,
        };
        let mut r = Router::new(NodeId::new(0), cfg, SimRng::from_seed(1));
        let rf = MinimalAdaptive::new(s.num_vcs);
        let mut now = Cycle::ZERO;

        for (i, &(in_port, dst, len, kill_after)) in s.worms.iter().enumerate() {
            let worm = WormId::new(MessageId::new(i as u64), 0);
            let flits: Vec<_> = worm_flits(
                worm,
                NodeId::new(2), // somewhere upstream
                NodeId::new(dst as u32),
                len as u32,
                0,
                i as u64,
                Cycle::ZERO,
            )
            .collect();
            let port = PortId::new(in_port as u16);
            let vc = VcId::new((i % s.num_vcs) as u8);
            let mut sent = 0usize;
            let mut steps = 0usize;
            while sent < flits.len() && steps < 200 {
                // Refill as space allows (emulating upstream).
                while sent < flits.len() && r.occupancy(port, vc) < s.buffer_depth {
                    r.accept(now, port, vc, flits[sent]);
                    sent += 1;
                }
                r.route_and_allocate(now, &rf, &topo, &|_| false);
                let out = r.traverse(now, &|_| false);
                // Return credits instantly (ideal downstream).
                for t in &out {
                    if let RouteTarget::Link { port, vc } = t.target {
                        r.add_credit(port, vc);
                    }
                }
                now += 1;
                steps += 1;
                if let Some(k) = kill_after {
                    if steps == k as usize + 1 {
                        let _ = r.flush_worm(port, vc, worm);
                        break;
                    }
                }
            }
            // Drain whatever remains of this worm normally.
            for _ in 0..200 {
                if r.occupancy(port, vc) == 0 && r.route_of(port, vc).is_none() {
                    break;
                }
                r.route_and_allocate(now, &rf, &topo, &|_| false);
                let out = r.traverse(now, &|_| false);
                for t in &out {
                    if let RouteTarget::Link { port, vc } = t.target {
                        r.add_credit(port, vc);
                    }
                }
                if out.is_empty() {
                    // Stuck remnants (e.g. killed worm's parked flits):
                    // flush, as the network's teardown would.
                    if let Some(w) = r.front_flit(port, vc).map(|f| f.worm) {
                        let _ = r.flush_worm(port, vc, w);
                    }
                }
                now += 1;
            }
        }

        // Invariants at quiescence: every input VC empty and unrouted,
        // every output free with full credits.
        let node = NodeId::new(0);
        for p in 0..topo.num_ports(node) {
            let port = PortId::new(p as u16);
            for v in 0..s.num_vcs {
                let vc = VcId::new(v as u8);
                assert_eq!(r.occupancy(port, vc), 0, "flits left at {port} {vc}");
                assert!(r.route_of(port, vc).is_none());
                assert!(r.output_owner(port, vc).is_none());
                assert_eq!(r.credits(port, vc), s.buffer_depth);
            }
        }
        assert_eq!(r.total_occupancy(), 0);
    });
}

/// `flush_worm` is idempotent and only ever touches its worm.
#[test]
fn flush_is_idempotent_and_precise() {
    check("flush_is_idempotent_and_precise", Config::cases(64), |src| {
        let len_a = src.u32_in(2..8);
        let len_b = src.u32_in(2..8);
        let seed = src.u64_any();
        let topo = KAryNCube::torus(4, 1);
        let cfg = RouterConfig {
            num_node_ports: 2,
            num_vcs: 2,
            buffer_depth: 8,
            num_inject: 1,
            inject_depth: 2,
            num_eject: 1,
            link_depth: 0,
        };
        let mut r = Router::new(NodeId::new(0), cfg, SimRng::from_seed(seed));
        let rf = MinimalAdaptive::new(2);
        let wa = WormId::new(MessageId::new(1), 0);
        let wb = WormId::new(MessageId::new(2), 0);
        let fa: Vec<_> =
            worm_flits(wa, NodeId::new(3), NodeId::new(1), len_a, 0, 0, Cycle::ZERO).collect();
        let fb: Vec<_> =
            worm_flits(wb, NodeId::new(3), NodeId::new(2), len_b, 0, 0, Cycle::ZERO).collect();
        // Interleave the two worms on different VCs of one port.
        for f in fa.iter().take(4) {
            r.accept(Cycle::ZERO, PortId::new(1), VcId::new(0), *f);
        }
        for f in fb.iter().take(4) {
            r.accept(Cycle::ZERO, PortId::new(1), VcId::new(1), *f);
        }
        r.route_and_allocate(Cycle::ZERO, &rf, &topo, &|_| false);

        let first = r.flush_worm(PortId::new(1), VcId::new(0), wa);
        assert_eq!(first.flushed, fa.len().min(4));
        let again = r.flush_worm(PortId::new(1), VcId::new(0), wa);
        assert_eq!(again.flushed, 0);
        assert_eq!(again.released, None);
        // Worm B untouched.
        assert_eq!(r.occupancy(PortId::new(1), VcId::new(1)), fb.len().min(4));
        assert_eq!(r.worm_of(PortId::new(1), VcId::new(1)), Some(wb));
    });
}

/// One input VC's well-formed flit stream: whole worms, head to tail,
/// one after another. (A router input only ever sees such streams —
/// holes appear only where a flush removed flits, which is what the
/// orphan path exists for.)
struct Stream {
    port: PortId,
    vc: VcId,
    worm: WormId,
    dst: NodeId,
    len: u32,
    next: u32,
}

impl Stream {
    fn next_flit(&mut self, fresh_id: &mut u64, dst: NodeId, len: u32) -> Flit {
        if self.next == self.len {
            *fresh_id += 1;
            self.worm = WormId::new(MessageId::new(*fresh_id), 0);
            (self.dst, self.len, self.next) = (dst, len, 0);
        }
        let seq = self.next;
        self.next += 1;
        let src = NodeId::new(1);
        worm_flit_at(self.worm, src, self.dst, self.len, 0, 0, Cycle::ZERO, seq)
    }
}

/// Everything observable about a router, for before/after comparison.
fn snapshot(r: &Router, streams: &[Stream]) -> String {
    let cfg = *r.config();
    let inputs: Vec<_> = streams
        .iter()
        .map(|s| {
            let flits: Vec<_> = (0..r.occupancy(s.port, s.vc))
                .map(|i| *r.flit_at(s.port, s.vc, i).unwrap())
                .collect();
            (r.route_of(s.port, s.vc), r.worm_of(s.port, s.vc), flits)
        })
        .collect();
    let mut outputs = Vec::new();
    for p in 0..cfg.num_node_ports {
        for v in 0..cfg.num_vcs {
            let (port, vc) = (PortId::from_index(p), VcId::from_index(v));
            outputs.push((r.output_owner(port, vc), r.credits(port, vc)));
        }
    }
    let ejects: Vec<_> = (0..cfg.num_eject).map(|e| r.eject_owner(e)).collect();
    format!(
        "{inputs:?} {outputs:?} {ejects:?} {:?} {:?} occ {} streaks {} rng {}",
        r.counters(),
        r.link_stats(),
        r.total_occupancy(),
        r.has_open_streaks(),
        r.rng_words_consumed(),
    )
}

/// The link-stats layer as specified, with no fast path: every
/// neighbor output port's cycle is decided from the router's state as
/// read through its public getters before the traversal call, and
/// folded into the port's counters and stall streak one way only.
struct LinkCycleModel {
    stats: Vec<LinkStats>,
    /// Whether the port has a stall streak open.
    open: Vec<bool>,
}

impl LinkCycleModel {
    fn new(ports: usize) -> Self {
        LinkCycleModel {
            stats: vec![LinkStats::default(); ports],
            open: vec![false; ports],
        }
    }

    /// Predicts one traversal stage at `now` and folds it in; returns
    /// the ports expected to forward a flit, ascending.
    fn traverse(&mut self, r: &Router, now: Cycle, killed: &BTreeSet<WormId>) -> Vec<usize> {
        let cfg = *r.config();
        let start = now.as_u64() as usize % cfg.num_vcs;
        let mut input_used = BTreeSet::new();
        let mut senders = Vec::new();
        for p in 0..cfg.num_node_ports {
            let port = PortId::from_index(p);
            let (mut sent, mut blocked) = (false, None);
            for i in 0..cfg.num_vcs {
                let vc = VcId::from_index((start + i) % cfg.num_vcs);
                let Some((ip, iv)) = r.output_owner(port, vc) else {
                    continue;
                };
                let owner = r.worm_of(ip, iv);
                let ready = owner.is_some() && r.front_flit(ip, iv).map(|f| f.worm) == owner;
                let credits = r.credits(port, vc);
                let stall = if credits == 0 || input_used.contains(&ip) {
                    // Cannot move this cycle; a stall only if it
                    // holds a flit that otherwise could.
                    ready.then_some(if credits == 0 {
                        StallCause::Backpressure
                    } else {
                        StallCause::BusyChannel
                    })
                } else if owner.is_some_and(|w| killed.contains(&w)) {
                    // Frozen for teardown: holds its flits in place.
                    (r.occupancy(ip, iv) > 0).then_some(StallCause::BusyChannel)
                } else if ready {
                    input_used.insert(ip);
                    sent = true;
                    break;
                } else {
                    None
                };
                blocked = blocked.or(stall);
            }
            if sent {
                senders.push(p);
                self.stats[p].flits_forwarded += 1;
            }
            // A dead output link dominates any other attribution.
            let cause = blocked.map(|c| match r.is_dead_out(port) {
                true => StallCause::DeadLink,
                false => c,
            });
            match cause {
                Some(StallCause::BusyChannel) => self.stats[p].stall_busy += 1,
                Some(StallCause::DeadLink) => self.stats[p].stall_dead_link += 1,
                Some(StallCause::Backpressure) => self.stats[p].stall_backpressure += 1,
                None => {}
            }
            self.open[p] = cause.is_some();
        }
        senders
    }

    /// Asserts the router's link-stats layer and traversal worklist
    /// are where the model says.
    fn assert_matches(&self, r: &Router) {
        assert_eq!(r.link_stats(), &self.stats[..], "link stats");
        assert_eq!(r.has_open_streaks(), self.open.contains(&true));
        let cfg = *r.config();
        let busy = (0..cfg.num_node_ports)
            .filter(|&p| {
                self.open[p]
                    || (0..cfg.num_vcs).any(|v| {
                        r.output_owner(PortId::from_index(p), VcId::from_index(v))
                            .is_some()
                    })
            })
            .count();
        assert_eq!(r.busy_outputs(), busy, "traversal worklist size");
    }
}

/// The router's worklists (ISSUE 13, DESIGN.md §10 "Inside the
/// router") under random configurations — up to the radix-63, 2-VC
/// full-mesh router, then pinned shapes on both sides of the 64
/// members a worklist keeps inline — and random interleavings of every
/// call that can move a VC or a port on or off a worklist. After every call each
/// incremental count equals a dense recount through the public
/// getters (debug builds additionally cross-check membership bit by
/// bit inside the router), and a stage whose worklist is empty leaves
/// the router — state, counters, link stats and RNG position —
/// exactly as it found it. After every traversal stage the link stats,
/// the open-streak flag and the traversal worklist equal a
/// [`LinkCycleModel`] that attributes every port's cycle the slow way
/// (ISSUE 15: the streaming fast path must be unobservable), and a
/// twin router traversed through `traverse_each` emits the same flits
/// and ends every call in the same state.
#[test]
fn worklists_match_dense_recount_and_empty_means_untouched() {
    let name = "worklists_match_dense_recount_and_empty_means_untouched";
    check(name, Config::cases(96), |src| {
        let torus1 = KAryNCube::torus(4, 1);
        let torus2 = KAryNCube::torus(4, 2);
        let mesh64 = FullMesh::new(64);
        let topo: &dyn Topology = match src.weighted(&[2, 2, 1]) {
            0 => &torus1,
            1 => &torus2,
            _ => &mesh64,
        };
        let shape = (src.usize_in(1..3), src.usize_in(1..3));
        worklist_case(src, topo, shape);
    });
    // 63, 64 and 65 inputs; 64 and 65 output ports; and the 255 inputs
    // of a 128-node full mesh's router.
    for (nodes, num_vcs, num_inject) in [
        (63, 1, 1),
        (64, 1, 1),
        (64, 1, 2),
        (65, 1, 1),
        (66, 1, 1),
        (128, 2, 1),
    ] {
        let mesh = FullMesh::new(nodes);
        check(name, Config::cases(6), |src| {
            worklist_case(src, &mesh, (num_vcs, num_inject))
        });
    }
}

/// One case of the property above: a router at node 0 of `topo` with
/// `(num_vcs, num_inject)` as given and everything else random.
fn worklist_case(src: &mut Source<'_>, topo: &dyn Topology, (num_vcs, num_inject): (usize, usize)) {
    let node = NodeId::new(0);
    let cfg = RouterConfig {
        num_node_ports: topo.num_ports(node),
        num_vcs,
        buffer_depth: src.usize_in(1..4),
        num_inject,
        inject_depth: src.usize_in(1..4),
        num_eject: src.usize_in(1..3),
        link_depth: src.usize_in(0..3),
    };
    let rf = MinimalAdaptive::new(cfg.num_vcs);
    let seed = src.u64_any();
    let mut r = Router::new(node, cfg, SimRng::from_seed(seed));
    // Fed the same calls, but traversed through `traverse_each`.
    let mut twin = Router::new(node, cfg, SimRng::from_seed(seed));
    let mut model = LinkCycleModel::new(cfg.num_node_ports);

    let mut streams = Vec::new();
    for p in 0..cfg.num_node_ports {
        for v in 0..cfg.num_vcs {
            streams.push((PortId::from_index(p), VcId::from_index(v)));
        }
    }
    for i in 0..cfg.num_inject {
        streams.push((r.inject_port(i), VcId::new(0)));
    }
    let mut streams: Vec<Stream> = streams
        .into_iter()
        .map(|(port, vc)| Stream {
            port,
            vc,
            worm: WormId::new(MessageId::new(0), 0),
            dst: node,
            len: 0,
            next: 0,
        })
        .collect();
    let node_inputs = cfg.num_node_ports * cfg.num_vcs;
    let mut fresh_id = 0u64;
    let mut killed: BTreeSet<WormId> = BTreeSet::new();
    let mut now = Cycle::ZERO;
    let mut out: Vec<Traversal> = Vec::new();
    let mut twin_out: Vec<Traversal> = Vec::new();

    let ops = src.vec_with(1..160, |s| {
        (
            s.weighted(&[6, 2, 5, 5, 2, 4, 1, 1, 1]),
            s.usize_in(0..4096),
            s.usize_in(0..4096),
        )
    });
    for (op, a, b) in ops {
        // Mostly nearby destinations so output ports collide; the
        // router's own node exercises ejection.
        let dst = NodeId::from_index(a % topo.num_nodes().min(5));
        let len = 2 + (b % 4) as u32;
        match op {
            0 => {
                let s = &mut streams[a % node_inputs];
                if !r.vc_is_full(s.port, s.vc) {
                    let flit = s.next_flit(&mut fresh_id, dst, len);
                    r.accept(now, s.port, s.vc, flit);
                    twin.accept(now, s.port, s.vc, flit);
                }
            }
            1 => {
                let i = a % cfg.num_inject;
                if r.injection_free(i) > 0 {
                    let flit = streams[node_inputs + i].next_flit(&mut fresh_id, dst, len);
                    assert!(r.try_inject(now, i, flit));
                    assert!(twin.try_inject(now, i, flit));
                }
            }
            2 => {
                let before = (r.unrouted_inputs() == 0).then(|| snapshot(&r, &streams));
                let dropped = r.route_and_allocate(now, &rf, topo, &|w| killed.contains(&w));
                if let Some(before) = before {
                    assert_eq!(dropped, 0);
                    assert_eq!(before, snapshot(&r, &streams), "idle route stage moved");
                }
                let twin_dropped =
                    twin.route_and_allocate(now, &rf, topo, &|w| killed.contains(&w));
                assert_eq!(dropped, twin_dropped);
                assert_eq!(r.take_orphan_credits(), twin.take_orphan_credits());
            }
            3 => {
                let idle =
                    r.busy_outputs() == 0 && (0..cfg.num_eject).all(|e| r.eject_owner(e).is_none());
                let before = idle.then(|| snapshot(&r, &streams));
                let senders = model.traverse(&r, now, &killed);
                out.clear();
                r.traverse_into(now, &|w| killed.contains(&w), &mut out);
                if let Some(before) = before {
                    assert!(out.is_empty());
                    assert_eq!(before, snapshot(&r, &streams), "idle traverse stage moved");
                }
                let sent: Vec<usize> = out
                    .iter()
                    .filter_map(|t| match t.target {
                        RouteTarget::Link { port, .. } => Some(port.index()),
                        RouteTarget::Eject { .. } => None,
                    })
                    .collect();
                assert_eq!(sent, senders, "ports that forwarded");
                twin_out.clear();
                twin.traverse_each(now, &|w| killed.contains(&w), |t| twin_out.push(t));
                assert_eq!(out, twin_out, "traverse_each and traverse_into emit alike");
                now += 1;
            }
            4 => {
                let s = &streams[a % streams.len()];
                let flushed = r.flush_worm(s.port, s.vc, s.worm);
                assert_eq!(flushed, twin.flush_worm(s.port, s.vc, s.worm));
            }
            5 => {
                let (port, vc) = (
                    PortId::from_index(a % cfg.num_node_ports),
                    VcId::from_index(b % cfg.num_vcs),
                );
                if r.credits(port, vc) < cfg.buffer_depth + cfg.link_depth {
                    r.add_credit(port, vc);
                    twin.add_credit(port, vc);
                }
            }
            6 => {
                let port = PortId::from_index(a % cfg.num_node_ports);
                r.set_dead_out(port);
                twin.set_dead_out(port);
            }
            7 => {
                let port = PortId::from_index(a % cfg.num_node_ports);
                r.clear_dead_out(port);
                twin.clear_dead_out(port);
            }
            _ => {
                let worm = streams[a % streams.len()].worm;
                if !killed.remove(&worm) {
                    killed.insert(worm);
                }
            }
        }

        let unrouted = streams
            .iter()
            .filter(|s| r.occupancy(s.port, s.vc) > 0 && r.route_of(s.port, s.vc).is_none())
            .count();
        assert_eq!(r.unrouted_inputs(), unrouted, "allocation worklist size");
        // Link stats, open streaks and the traversal worklist are
        // where the no-fast-path model puts them.
        model.assert_matches(&r);
        let buffered: usize = streams.iter().map(|s| r.occupancy(s.port, s.vc)).sum();
        assert_eq!(r.total_occupancy(), buffered);
        assert_eq!(snapshot(&r, &streams), snapshot(&twin, &streams));
    }
}

/// The flat input index and `(port, vc)` are each other's inverse for
/// every router shape up to the 127-port full-mesh one: a flit placed
/// at every `(port, vc)` is found, by the one getter that walks the
/// inputs by flat index, under that same `(port, vc)` and in the
/// documented order (neighbor ports ascending, their VCs ascending,
/// then the injection ports).
#[test]
fn flat_input_index_round_trips_for_every_shape() {
    for num_node_ports in 0..=127 {
        for num_vcs in 1..=3 {
            for num_inject in 1..=2 {
                let cfg = RouterConfig {
                    num_node_ports,
                    num_vcs,
                    buffer_depth: 1,
                    num_inject,
                    inject_depth: 1,
                    num_eject: 1,
                    link_depth: 0,
                };
                let mut r = Router::new(NodeId::new(0), cfg, SimRng::from_seed(1));
                let mut placed = Vec::new();
                let node_vcs = (0..num_node_ports).flat_map(|p| (0..num_vcs).map(move |v| (p, v)));
                for (p, v) in node_vcs.chain((0..num_inject).map(|i| (num_node_ports + i, 0))) {
                    let (port, vc) = (PortId::from_index(p), VcId::from_index(v));
                    let worm = WormId::new(MessageId::new(placed.len() as u64), 0);
                    let (src, dst) = (NodeId::new(1), NodeId::new(2));
                    let head = worm_flit_at(worm, src, dst, 2, 0, 0, Cycle::ZERO, 0);
                    match p.checked_sub(num_node_ports) {
                        None => r.accept(Cycle::ZERO, port, vc, head),
                        Some(i) => assert!(r.try_inject(Cycle::ZERO, i, head)),
                    }
                    assert_eq!(r.front_flit(port, vc).map(|f| f.worm), Some(worm));
                    placed.push((port, vc, worm));
                }
                assert_eq!(r.stalled_worms(Cycle::ZERO, 0), placed, "{cfg:?}");
            }
        }
    }
}

/// The streaming fast path may only be taken by a port with no
/// ready-but-blocked sibling VC: with VC0 out of credits and VC1
/// forwarding, the port's cycle counts a flit *and* a backpressure
/// stall, and a streak opens.
#[test]
fn forwarding_port_with_a_blocked_sibling_vc_still_counts_its_stall() {
    let topo = KAryNCube::torus(4, 1);
    let cfg = RouterConfig {
        num_node_ports: 2,
        num_vcs: 2,
        buffer_depth: 1,
        num_inject: 1,
        inject_depth: 2,
        num_eject: 1,
        link_depth: 0,
    };
    let rf = MinimalAdaptive::new(2);
    let mut r = Router::new(NodeId::new(0), cfg, SimRng::from_seed(7));
    let alive = |_: WormId| false;
    let flits = |msg: u64| -> Vec<Flit> {
        let worm = WormId::new(MessageId::new(msg), 0);
        worm_flits(worm, NodeId::new(3), NodeId::new(1), 4, 0, 0, Cycle::ZERO).collect()
    };
    let (a, b) = (flits(1), flits(2));
    // Worm A arrives on input port 1; node 1 is one hop out of port 0.
    let (in_a, in_b) = (PortId::new(1), r.inject_port(0));
    let mut now = Cycle::ZERO;
    r.accept(now, in_a, VcId::new(0), a[0]);
    r.route_and_allocate(now, &rf, &topo, &alive);
    let Some(RouteTarget::Link { port, vc: vc_a }) = r.route_of(in_a, VcId::new(0)) else {
        panic!("worm A not routed out a link");
    };
    assert_eq!(port, PortId::new(0));
    // Its header spends the only credit of its output VC...
    assert_eq!(r.traverse(now, &alive).len(), 1);
    assert_eq!(r.credits(port, vc_a), 0);
    now += 1;
    // ...so its next flit is ready but blocked, while worm B, injected
    // behind it, takes the port's other VC with a credit in hand.
    r.accept(now, in_a, VcId::new(0), a[1]);
    assert!(r.try_inject(now, 0, b[0]));
    r.route_and_allocate(now, &rf, &topo, &alive);
    let (port_b, vc_b) = match r.route_of(in_b, VcId::new(0)) {
        Some(RouteTarget::Link { port, vc }) => (port, vc),
        other => panic!("worm B not routed out a link: {other:?}"),
    };
    assert_eq!(port_b, port);
    assert_ne!(vc_b, vc_a);
    let before = r.link_stats()[port.index()];
    assert!(!r.has_open_streaks());

    // On a cycle whose round-robin examines the blocked VC first (a
    // port stops looking at the VC that sends).
    if now.as_u64() as usize % 2 != vc_a.index() {
        now += 1;
    }
    let out = r.traverse(now, &alive);
    assert_eq!(out.len(), 1);
    assert_eq!(out[0].flit.worm, b[0].worm);
    let after = r.link_stats()[port.index()];
    assert_eq!(after.flits_forwarded, before.flits_forwarded + 1);
    assert_eq!(after.stall_backpressure, before.stall_backpressure + 1);
    assert!(r.has_open_streaks(), "the blocked VC opened a streak");
}
