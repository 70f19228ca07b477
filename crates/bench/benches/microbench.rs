//! Hot-path microbenchmarks of the simulator itself.
//!
//! These track the cost of simulating one kilocycle of a 4×4 torus
//! under the three protocols at a light and a saturating load, plus
//! the throughput of the pure routing functions, of the per-flit
//! registries (killed worms, armed components, dead links), of one
//! router's per-cycle visit (route + traverse), of one link's
//! (arrivals) and of a worm train's formation and write-back per path
//! hop. They guard
//! against performance regressions in the inner loops that every
//! experiment pays for. Results land in `target/bench/BENCH_<group>.json`.

use cr_bench::harness::Group;
use cr_bench::reference_network;
use cr_core::{KilledMap, LinkState, ProtocolKind};
use cr_faults::FaultModel;
use cr_router::flit::worm_flit_at;
use cr_router::routing::{DimensionOrder, DuatoProtocol, MinimalAdaptive};
use cr_router::{
    Flit, FlitKind, RouteCtx, RouteTarget, Router, RouterConfig, RoutingFunction, WormId,
};
use cr_sim::sched::ActiveSet;
use cr_sim::{Cycle, LinkId, MessageId, NodeId, PortId, SimRng, VcId};
use cr_topology::{KAryNCube, Topology};

fn bench_network_stepping() {
    let mut g = Group::new("network_kilocycle");
    g.sample_size(20);
    for (name, protocol, load) in [
        ("dor_baseline_light", ProtocolKind::Baseline, 0.1),
        ("dor_baseline_saturated", ProtocolKind::Baseline, 0.6),
        ("cr_light", ProtocolKind::Cr, 0.1),
        ("cr_saturated", ProtocolKind::Cr, 0.6),
        ("fcr_light", ProtocolKind::Fcr, 0.1),
    ] {
        g.bench_with_setup(
            name,
            || {
                let mut net = reference_network(protocol, load);
                net.run(500); // reach steady state once per sample
                net
            },
            |mut net| {
                for _ in 0..1_000 {
                    net.step();
                }
                net
            },
        );
    }
    g.finish();
}

fn bench_routing_functions() {
    let mut g = Group::new("routing_function");
    let topo = KAryNCube::torus(8, 2);
    let header = Flit::new(
        WormId::new(MessageId::new(1), 0),
        FlitKind::Head,
        NodeId::new(0),
        NodeId::new(27),
        0,
        0,
        16,
        16,
        Cycle::ZERO,
    );
    let dead = vec![false; topo.max_ports()];

    let cases: Vec<(&str, Box<dyn RoutingFunction>)> = vec![
        ("dimension_order", Box::new(DimensionOrder::torus(1))),
        ("minimal_adaptive", Box::new(MinimalAdaptive::new(2))),
        ("duato", Box::new(DuatoProtocol::torus(2))),
    ];
    for (name, rf) in cases {
        let mut rng = SimRng::from_seed(3);
        let mut out = Vec::new();
        g.bench(name, || {
            // One sample = many route lookups, so the per-call cost is
            // resolvable above timer granularity.
            let mut total = 0usize;
            for _ in 0..10_000 {
                out.clear();
                let mut ctx = RouteCtx {
                    topo: &topo,
                    node: NodeId::new(0),
                    flit: &header,
                    dead_out: &dead,
                    rng: &mut rng,
                };
                rf.candidates(&mut ctx, &mut out);
                total += out.len();
            }
            total
        });
    }
    g.finish();
}

/// The questions the cycle path asks per flit or per component: "is
/// this worm killed?", "who is armed, in order?", "is this link dead?".
/// Each sample is thousands of operations, so the per-call cost
/// resolves above timer granularity.
fn bench_registries() {
    let mut g = Group::new("registry");

    // The registry as a saturated run leaves it: 8k kills, pruned
    // every 256 with a sliding horizon, then probed only by worms
    // that are not in it — never-killed messages and the live
    // (newer) attempt of killed ones.
    let mut killed = KilledMap::new();
    for i in 0..8_192u64 {
        killed.insert(WormId::new(MessageId::new(i), 0), Cycle::new(i));
        if i % 256 == 255 {
            killed.retain(|at| at.as_u64() + 1_024 > i);
        }
    }
    g.bench("killed_miss_after_churn", || {
        let mut hits = 0usize;
        for i in 0..5_000u64 {
            let never = WormId::new(MessageId::new(8_192 + i), 0);
            let newer = WormId::new(MessageId::new(8_191 - i), 1);
            hits += usize::from(killed.contains(std::hint::black_box(never)));
            hits += usize::from(killed.contains(std::hint::black_box(newer)));
        }
        assert_eq!(hits, 0);
        hits
    });

    // Drain-and-rebuild of a 16k-id set (a 128x128 fabric's routers):
    // a handful of members, then every fourth id.
    let mut rng = SimRng::from_seed(5);
    let sparse: Vec<u32> = (0..16)
        .filter_map(|_| rng.pick_index(16_384))
        .map(|i| i as u32)
        .collect();
    let dense: Vec<u32> = (0..16_384).step_by(4).rev().collect();
    for (name, ids, rounds) in [
        ("active_set_insert_drain_sparse", &sparse, 1_000),
        ("active_set_insert_drain_dense", &dense, 10),
    ] {
        let mut set = ActiveSet::new(16_384);
        let mut out = Vec::new();
        g.bench(name, || {
            let mut total = 0usize;
            for _ in 0..rounds {
                for &id in ids {
                    set.insert(std::hint::black_box(id));
                }
                out.clear();
                set.drain_sorted_into(&mut out);
                total += out.len();
            }
            total
        });
    }

    // A 32x32 torus's 4 096 link ids with 128 of them dead (the FCR
    // storm's plan), probed across the whole id range.
    let mut faults = FaultModel::new();
    for i in 0..128 {
        faults.kill_link(LinkId::new(i * 32 + 7));
    }
    g.bench("fault_is_dead_128_dead", || {
        let mut dead = 0usize;
        for id in 0..4_096 {
            dead += usize::from(faults.is_dead(std::hint::black_box(LinkId::new(id))));
        }
        assert_eq!(dead, 128);
        dead
    });
    g.finish();
}

/// One router's turn in the fused route + traverse phase, priced from
/// outside through the calls the phase kernel makes
/// (`route_and_allocate`, then `traverse_each`), in the three states
/// an armed router of a padded-worm fabric is found in: streaming one
/// body flit through one output, holding an allocated output with no
/// credit left (the re-visits of a saturated fabric), and armed with
/// nothing to do. Each sample is thousands of visits.
fn bench_router_visit() {
    const VISITS: u64 = 10_000;
    let mut g = Group::new("router_visit");
    let topo = KAryNCube::torus(8, 2);
    let rf = MinimalAdaptive::new(2);
    let node = NodeId::new(0);
    let cfg = RouterConfig {
        num_node_ports: topo.num_ports(node),
        num_vcs: 2,
        buffer_depth: 2,
        num_inject: 1,
        inject_depth: 2,
        num_eject: 1,
        link_depth: 1,
    };
    let alive = |_: WormId| false;
    let (in_port, in_vc) = (PortId::new(1), VcId::new(0));
    let worm = WormId::new(MessageId::new(1), 0);
    let flit = |seq| {
        let (src, dst) = (NodeId::new(9), NodeId::new(3));
        worm_flit_at(worm, src, dst, 1 << 30, 0, 0, Cycle::ZERO, seq)
    };
    let (head, body) = (flit(0), flit(1));
    // A router whose one worm has its header through and its output
    // allocated; returns it with that output.
    let streaming = || {
        let mut r = Router::new(node, cfg, SimRng::from_seed(1));
        r.accept(Cycle::ZERO, in_port, in_vc, head);
        r.route_and_allocate(Cycle::ZERO, &rf, &topo, &alive);
        let Some(RouteTarget::Link { port, vc }) = r.route_of(in_port, in_vc) else {
            panic!("header not routed");
        };
        assert_eq!(r.traverse(Cycle::ZERO, &alive).len(), 1);
        r.add_credit(port, vc);
        (r, port, vc)
    };
    let visit = |r: &mut Router, now: Cycle| {
        r.route_and_allocate(now, &rf, &topo, &alive);
        let mut sent = 0u64;
        r.traverse_each(now, &alive, |t| {
            std::hint::black_box(t);
            sent += 1;
        });
        sent
    };

    let (mut r, port, vc) = streaming();
    g.bench("streaming", || {
        let mut sent = 0;
        for c in 1..=VISITS {
            let now = Cycle::new(c);
            r.accept(now, in_port, in_vc, body);
            sent += visit(&mut r, now);
            r.add_credit(port, vc);
        }
        assert_eq!(sent, VISITS);
        sent
    });

    let (mut r, port, vc) = streaming();
    let mut now = Cycle::new(1);
    while r.credits(port, vc) > 0 {
        r.accept(now, in_port, in_vc, body);
        assert_eq!(visit(&mut r, now), 1);
        now += 1;
    }
    r.accept(now, in_port, in_vc, body);
    g.bench("blocked_no_credit", || {
        let mut sent = 0;
        for _ in 0..VISITS {
            sent += visit(&mut r, now);
            now += 1;
        }
        assert_eq!(sent, 0);
        sent
    });

    let mut r = Router::new(node, cfg, SimRng::from_seed(1));
    g.bench("armed_idle", || {
        let mut sent = 0;
        for c in 0..VISITS {
            sent += visit(std::hint::black_box(&mut r), Cycle::new(c));
        }
        assert_eq!(sent, 0);
        sent
    });
    g.finish();
}

/// One link's turn in the arrivals phase, priced from outside through
/// the calls the quiet-cycle kernel makes per armed link (the
/// `occupied` / `wake` gate, `pop_due` on every lane until it is dry,
/// `Router::accept`, `end_scan` and the re-arm), in the three states
/// an armed link is found in: a flit due with room downstream, a flit
/// due with the downstream VC full (parked in the channel latches),
/// and nothing due yet. Each sample is thousands of visits.
fn bench_link_visit() {
    const VISITS: u64 = 10_000;
    let mut g = Group::new("link_visit");
    let cfg = RouterConfig {
        num_node_ports: 4,
        num_vcs: 2,
        buffer_depth: 2,
        num_inject: 1,
        inject_depth: 2,
        num_eject: 1,
        link_depth: 1,
    };
    let lane_cap = cfg.buffer_depth + cfg.link_depth;
    let killed = KilledMap::new();
    let (in_port, vc) = (PortId::new(1), VcId::new(0));
    let worm = WormId::new(MessageId::new(1), 0);
    let body = worm_flit_at(
        worm,
        NodeId::new(9),
        NodeId::new(3),
        1 << 30,
        0,
        0,
        Cycle::ZERO,
        1,
    );
    // The arrivals scan's body for one healthy link of a fault-free
    // network; returns the flits it moved into `dst`.
    let visit = |link: &mut LinkState, dst: &mut Router, set: &mut ActiveSet, now: Cycle| {
        if link.occupied() == 0 {
            return 0;
        }
        if link.wake() > now {
            set.insert(0);
            return 0;
        }
        let (mut wake, mut accepted) = (LinkState::NEVER, 0u64);
        for v in 0..link.num_lanes() {
            while let Some((flit, dead)) = link.pop_due(v, now, &killed, dst, in_port, &mut wake) {
                if !dead {
                    dst.accept(now, in_port, VcId::from_index(v), flit);
                    accepted += 1;
                }
            }
        }
        if link.end_scan(wake) {
            set.insert(0);
        }
        accepted
    };
    let fresh = || {
        let dst = Router::new(NodeId::new(0), cfg, SimRng::from_seed(1));
        (
            LinkState::new(cfg.num_vcs, lane_cap),
            dst,
            ActiveSet::new(1),
        )
    };

    // Includes the route + traverse push and the downstream flush that frees
    // the slot again.
    let (mut link, mut dst, mut set) = fresh();
    g.bench("accept_due", || {
        let mut accepted = 0;
        for c in 1..=VISITS {
            let now = Cycle::new(c);
            link.push(vc.index(), now, body)
                .expect("the lane was drained");
            set.insert(0);
            accepted += visit(&mut link, &mut dst, &mut set, now);
            dst.flush_worm(in_port, vc, worm);
        }
        assert_eq!(accepted, VISITS);
        accepted
    });

    let (mut link, mut dst, mut set) = fresh();
    for _ in 0..cfg.buffer_depth {
        dst.accept(Cycle::ZERO, in_port, vc, body);
    }
    link.push(vc.index(), Cycle::ZERO, body)
        .expect("empty lane");
    g.bench("blocked_downstream_full", || {
        let mut accepted = 0;
        for c in 1..=VISITS {
            accepted += visit(&mut link, &mut dst, &mut set, Cycle::new(c));
        }
        assert_eq!((accepted, link.occupied()), (0, 1));
        accepted
    });

    let (mut link, mut dst, mut set) = fresh();
    link.push(vc.index(), LinkState::NEVER, body)
        .expect("empty lane");
    g.bench("not_due", || {
        let mut accepted = 0;
        for c in 1..=VISITS {
            accepted += visit(
                std::hint::black_box(&mut link),
                &mut dst,
                &mut set,
                Cycle::new(c),
            );
        }
        assert_eq!((accepted, link.occupied()), (0, 1));
        accepted
    });
    g.finish();
}

/// The two ends of a worm train's life (DESIGN.md §10), priced per
/// path hop through the calls the network makes for each hop. Forming
/// asks the router whether the worm streams on a channel of its own
/// (`Router::channel_stream`) and the link whether its lane holds
/// exactly the worm's flits, due on consecutive cycles
/// (`LinkState::lone_lane`); materialising advances both in closed
/// form (`Router::advance_stream`, `LinkState::advance_lane`). The
/// path is 50 hops of 4-port, 1-VC torus routers in the steady state
/// of a padded worm (empty input VC, one flit on each link), walked 20
/// times per sample: `median_ns / 1 000` is ns per path hop.
///
/// `reject` is the walk a formation candidate pays for nothing: the
/// same path whose last link carries its flit a cycle late, so every
/// hop is asked and the last one refuses. `median_ns / 20` is ns per
/// rejected walk.
fn bench_train() {
    const HOPS: usize = 50;
    const WALKS: usize = 20;
    let mut g = Group::new("train");
    let topo = KAryNCube::torus(8, 2);
    let rf = MinimalAdaptive::new(1);
    let cfg = RouterConfig {
        num_node_ports: topo.num_ports(NodeId::new(0)),
        num_vcs: 1,
        buffer_depth: 2,
        num_inject: 1,
        inject_depth: 2,
        num_eject: 1,
        link_depth: 1,
    };
    let alive = |_: WormId| false;
    let (in_port, vc) = (PortId::new(1), VcId::new(0));
    let worm = WormId::new(MessageId::new(1), 0);
    let flit = |seq| {
        let (src, dst) = (NodeId::new(9), NodeId::new(3));
        worm_flit_at(worm, src, dst, 1 << 30, 0, 0, Cycle::ZERO, seq)
    };
    // Each router has routed the worm's header on and holds nothing
    // else; each link carries the flit behind it, due next cycle.
    let mut routers: Vec<Router> = (0..HOPS)
        .map(|_| {
            let mut r = Router::new(NodeId::new(0), cfg, SimRng::from_seed(1));
            r.accept(Cycle::ZERO, in_port, vc, flit(0));
            r.route_and_allocate(Cycle::ZERO, &rf, &topo, &alive);
            assert_eq!(r.traverse(Cycle::ZERO, &alive).len(), 1);
            r
        })
        .collect();
    let mut links: Vec<LinkState> = (0..HOPS)
        .map(|_| {
            let mut link = LinkState::new(cfg.num_vcs, cfg.buffer_depth + cfg.link_depth);
            link.push(0, Cycle::new(1), flit(1)).expect("empty lane");
            link
        })
        .collect();

    g.bench("form", || {
        let mut lone = 0;
        for _ in 0..WALKS {
            for (r, link) in routers.iter().zip(&links) {
                lone += usize::from(r.channel_stream(in_port, vc, worm).is_ok());
                lone += usize::from(link.lone_lane(0, worm, Cycle::new(1), 1).is_some());
            }
        }
        assert_eq!(lone, 2 * HOPS * WALKS);
        lone
    });

    let mut late = LinkState::new(cfg.num_vcs, cfg.buffer_depth + cfg.link_depth);
    late.push(0, Cycle::new(2), flit(1)).expect("empty lane");
    g.bench("reject", || {
        let mut rejected = 0;
        for _ in 0..WALKS {
            let mut path = routers.iter().zip(links[..HOPS - 1].iter().chain([&late]));
            let streams = path.all(|(r, link)| {
                r.channel_stream(in_port, vc, worm).is_ok()
                    && link.lone_lane(0, worm, Cycle::new(1), 1).is_some()
            });
            rejected += usize::from(!streams);
        }
        assert_eq!(rejected, WALKS);
        rejected
    });

    let mut upto = Cycle::ZERO;
    g.bench("materialise", || {
        for _ in 0..WALKS {
            upto += 1;
            for (r, link) in routers.iter_mut().zip(&mut links) {
                r.advance_stream(in_port, vc, 1, upto);
                link.advance_lane(0, 1);
            }
        }
        upto
    });
    g.finish();
}

fn main() {
    bench_network_stepping();
    bench_routing_functions();
    bench_registries();
    bench_router_visit();
    bench_link_visit();
    bench_train();
}
