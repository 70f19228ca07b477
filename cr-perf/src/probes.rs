//! Layer probes: isolated timed drives of each layer's public API, on
//! inputs sampled from the workload's own generated traffic.
//!
//! A probe prices one call in isolation, with its working set warm. It
//! is a cost, not a share of `wall_s`: the shares are what the traced
//! run's spans give. Every probe runs batches until it has
//! `budget` of timed samples and reports the best batch (interference
//! on a shared host is one-sided; see `Summary::best`).

use crate::exec::fault_plan;
use crate::inputs::{Inputs, Point, MESSAGE_LEN};
use cr_core::{Injector, NetworkConfig, PendingMessage, Receiver, RetransmitScheme};
use cr_router::flit::worm_flits;
use cr_router::routing::Candidate;
use cr_router::{
    Flit, FlitKind, RouteCtx, RouteTarget, Router, RouterConfig, RoutingFunction, Traversal, WormId,
};
use cr_sim::pool::{self, Team};
use cr_sim::sched::ActiveSet;
use cr_sim::{Cycle, LinkId, MessageId, NodeId, PortId, Rng, SimRng, VcId};
use cr_topology::Topology;
use cr_traffic::{LengthDistribution, TrafficPattern, TrafficSource};
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Routers in the standalone pipe: the 8×8 torus's working set.
const PIPE_ROUTERS: usize = 64;

/// Runs `batch` — which returns the time it spent on `ops` operations —
/// until `budget` of timed samples (and at least five batches) are in;
/// returns the nanoseconds per operation of the best batch.
fn ns_per_op(budget: Duration, ops: usize, mut batch: impl FnMut() -> Duration) -> f64 {
    let mut best = f64::INFINITY;
    let mut total = Duration::ZERO;
    let mut batches = 0;
    while batches < 5 || total < budget {
        let d = batch();
        total += d;
        batches += 1;
        best = best.min(d.as_nanos() as f64 / ops as f64);
    }
    best
}

/// One distinct (topology, routing) of the workload with (node,
/// destination) pairs drawn from its traffic.
struct Fabric {
    topo: Box<dyn Topology>,
    routing: Box<dyn RoutingFunction>,
    pairs: Vec<(NodeId, NodeId)>,
}

fn fabrics(inputs: &Inputs, rng: &mut SimRng) -> Vec<Fabric> {
    let mut seen: Vec<&Point> = Vec::new();
    for p in &inputs.points {
        if !seen
            .iter()
            .any(|q| q.topo == p.topo && q.routing == p.routing)
        {
            seen.push(p);
        }
    }
    seen.into_iter()
        .map(|p| {
            let topo = p.topo.build();
            let n = topo.num_nodes() as u32;
            // Trace workloads: the trace's own pairs. Bernoulli
            // workloads: uniform pairs, which is their pattern.
            let mut pairs: Vec<(NodeId, NodeId)> =
                p.trace.events().iter().map(|e| (e.src, e.dst)).collect();
            while pairs.len() < 1024 {
                let (a, b) = (rng.gen_range(0..n), rng.gen_range(0..n));
                if a != b {
                    pairs.push((NodeId::new(a), NodeId::new(b)));
                }
            }
            pairs.truncate(1024);
            Fabric {
                routing: p.routing.build(topo.as_ref()),
                topo,
                pairs,
            }
        })
        .collect()
}

fn header(src: NodeId, dst: NodeId) -> Flit {
    Flit::new(
        WormId::new(MessageId::new(0), 0),
        FlitKind::Head,
        src,
        dst,
        0,
        0,
        MESSAGE_LEN,
        MESSAGE_LEN,
        Cycle::ZERO,
    )
}

/// `topology.neighbor_ns`: `Topology::neighbor` over sampled (node,
/// port) pairs.
fn topology_neighbor(budget: Duration, fabrics: &[Fabric]) -> f64 {
    let calls: usize = fabrics.iter().map(|f| f.pairs.len()).sum();
    ns_per_op(budget, calls, || {
        let t = Instant::now();
        for f in fabrics {
            for (k, &(node, _)) in f.pairs.iter().enumerate() {
                let port = PortId::from_index(k % f.topo.num_ports(node));
                black_box(f.topo.neighbor(black_box(node), port));
            }
        }
        t.elapsed()
    })
}

/// `routing.candidates_ns` and `routing.candidates_per_call`: the
/// workload's routing function on headers of its own (node,
/// destination) pairs, no dead links.
fn routing_candidates(budget: Duration, fabrics: &[Fabric], rng: &mut SimRng) -> (f64, f64) {
    let calls: usize = fabrics.iter().map(|f| f.pairs.len()).sum();
    let mut offered = 0usize;
    let mut out: Vec<Candidate> = Vec::new();
    let ns = ns_per_op(budget, calls, || {
        offered = 0;
        let t = Instant::now();
        for f in fabrics {
            let dead = vec![false; f.topo.max_ports()];
            for &(node, dst) in &f.pairs {
                let flit = header(node, dst);
                out.clear();
                f.routing.candidates(
                    &mut RouteCtx {
                        topo: f.topo.as_ref(),
                        node,
                        flit: &flit,
                        dead_out: &dead,
                        rng,
                    },
                    &mut out,
                );
                offered += black_box(out.len());
            }
        }
        t.elapsed()
    });
    (ns, offered as f64 / calls as f64)
}

/// The four `router.*_ns` probes.
struct RouterCosts {
    accept: f64,
    route_allocate: f64,
    traverse: f64,
    flush_worm: f64,
}

/// A standalone pipe of [`PIPE_ROUTERS`] routers, each carrying its own
/// stream of [`MESSAGE_LEN`]-flit worms from a neighbour input port to
/// wherever the workload's routing sends them: `accept` →
/// `route_and_allocate` → `traverse_into` → `add_credit` (the
/// downstream hop returns every credit at once, so nothing ever
/// blocks). Each stage is timed as one block over all routers, which
/// keeps the clock reads out of the per-call cost. `flush_worm` is
/// priced the same way on worms parked two flits deep.
fn router_pipe(budget: Duration, fabric: &Fabric, rng: &mut SimRng) -> RouterCosts {
    let topo = fabric.topo.as_ref();
    let routing = fabric.routing.as_ref();
    // (node, input port, destination): the destination must not lie
    // back out of the input port, or the worm would turn around.
    let mut lanes: Vec<(NodeId, PortId, NodeId)> = Vec::new();
    for &(node, dst) in fabric.pairs.iter().cycle().take(64 * PIPE_ROUTERS) {
        let port = PortId::from_index(rng.gen_range(0..topo.num_ports(node)));
        if node != dst
            && topo.neighbor(node, port).is_some()
            && !topo.minimal_ports(node, dst).contains(&port)
        {
            lanes.push((node, port, dst));
            if lanes.len() == PIPE_ROUTERS {
                break;
            }
        }
    }
    assert!(
        !lanes.is_empty(),
        "no usable (node, port, destination) lane in the workload's pairs"
    );
    let fresh = |rng: &mut SimRng| -> Vec<Router> {
        lanes
            .iter()
            .map(|&(node, _, _)| {
                let cfg = RouterConfig {
                    num_node_ports: topo.num_ports(node),
                    num_vcs: routing.num_vcs(),
                    buffer_depth: 2,
                    num_inject: 1,
                    inject_depth: 2,
                    num_eject: 1,
                    link_depth: 1,
                };
                Router::new(node, cfg, rng.split(u64::from(node.as_u32())))
            })
            .collect()
    };
    let worm = |k: u64, lane: &(NodeId, PortId, NodeId)| -> Vec<Flit> {
        let src = topo.neighbor(lane.0, lane.1).unwrap_or(lane.0);
        worm_flits(
            WormId::new(MessageId::new(k), 0),
            src,
            lane.2,
            MESSAGE_LEN,
            0,
            k,
            Cycle::ZERO,
        )
        .collect()
    };
    let is_killed = |_: WormId| false;
    let vc = VcId::from_index(0);

    let mut costs = RouterCosts {
        accept: f64::INFINITY,
        route_allocate: f64::INFINITY,
        traverse: f64::INFINITY,
        flush_worm: f64::INFINITY,
    };
    let mut timed = Duration::ZERO;
    let mut batches = 0;
    let mut out: Vec<Traversal> = Vec::new();
    let mut worm_no = 0u64;
    while batches < 5 || timed < 3 * budget {
        let mut routers = fresh(rng);
        let (mut ta, mut tr, mut tt) = (Duration::ZERO, Duration::ZERO, Duration::ZERO);
        let worms_per_batch = 8;
        let mut now = Cycle::ZERO;
        for _ in 0..worms_per_batch {
            worm_no += 1;
            let worms: Vec<Vec<Flit>> = lanes.iter().map(|l| worm(worm_no, l)).collect();
            for i in 0..MESSAGE_LEN as usize {
                let t = Instant::now();
                for ((r, lane), flits) in routers.iter_mut().zip(&lanes).zip(&worms) {
                    r.accept(now, lane.1, vc, flits[i]);
                }
                ta += t.elapsed();
                let t = Instant::now();
                for r in routers.iter_mut() {
                    black_box(r.route_and_allocate(now, routing, topo, &is_killed));
                }
                tr += t.elapsed();
                out.clear();
                let t = Instant::now();
                for r in routers.iter_mut() {
                    r.traverse_into(now, &is_killed, &mut out);
                }
                tt += t.elapsed();
                assert_eq!(
                    out.len(),
                    routers.len(),
                    "every pipe router forwards one flit per cycle"
                );
                // Traversals come out in router order, one each.
                for (r, t) in routers.iter_mut().zip(&out) {
                    if let RouteTarget::Link { port, vc } = t.target {
                        r.add_credit(port, vc);
                    }
                }
                now.tick();
            }
        }
        let calls = (worms_per_batch * MESSAGE_LEN as usize * routers.len()) as f64;
        costs.accept = costs.accept.min(ta.as_nanos() as f64 / calls);
        costs.route_allocate = costs.route_allocate.min(tr.as_nanos() as f64 / calls);
        costs.traverse = costs.traverse.min(tt.as_nanos() as f64 / calls);
        timed += ta + tr + tt;
        batches += 1;
    }

    costs.flush_worm = ns_per_op(budget, lanes.len(), || {
        let mut routers = fresh(rng);
        worm_no += 1;
        for (r, lane) in routers.iter_mut().zip(&lanes) {
            let flits = worm(worm_no, lane);
            r.accept(Cycle::ZERO, lane.1, vc, flits[0]);
            r.accept(Cycle::ZERO, lane.1, vc, flits[1]);
            r.route_and_allocate(Cycle::ZERO, routing, topo, &is_killed);
        }
        let id = WormId::new(MessageId::new(worm_no), 0);
        let t = Instant::now();
        for (r, lane) in routers.iter_mut().zip(&lanes) {
            let flushed = r.flush_worm(lane.1, vc, id);
            assert_eq!(black_box(flushed).flushed, 2);
        }
        t.elapsed()
    });
    costs
}

/// `injector.step_ns`: one injector pushing padded worms for the
/// workload's pairs into an injection FIFO deep enough never to fill.
fn injector_step(budget: Duration, inputs: &Inputs, fabric: &Fabric, rng: &mut SimRng) -> f64 {
    const STEPS: usize = 1 << 14;
    let point = &inputs.points[0];
    let net_cfg = NetworkConfig::default();
    let src = fabric.pairs[0].0;
    let messages: Vec<PendingMessage> = fabric
        .pairs
        .iter()
        .filter(|&&(_, dst)| dst != src)
        .enumerate()
        .map(|(k, &(_, dst))| {
            let hops = fabric.topo.distance(src, dst);
            PendingMessage {
                id: MessageId::new(k as u64),
                src,
                dst,
                payload_len: MESSAGE_LEN,
                msg_seq: k as u64,
                created: Cycle::ZERO,
                hops,
                i_min: net_cfg.i_min(hops + point.routing.misroute_budget() as usize),
                attempts: 0,
            }
        })
        .collect();
    ns_per_op(budget, STEPS, || {
        let cfg = RouterConfig {
            num_node_ports: fabric.topo.num_ports(src),
            num_vcs: fabric.routing.num_vcs(),
            buffer_depth: 2,
            num_inject: 1,
            inject_depth: STEPS,
            num_eject: 1,
            link_depth: 1,
        };
        let mut router = Router::new(src, cfg, rng.split(1));
        let mut inj = Injector::new(
            src,
            0,
            point.protocol,
            32,
            RetransmitScheme::default(),
            rng.split(2),
        );
        // Every step injects one flit and a worm is at least
        // MESSAGE_LEN flits, so this many messages cannot run out.
        for m in messages
            .iter()
            .cycle()
            .take(STEPS / MESSAGE_LEN as usize + 1)
        {
            inj.enqueue(*m);
        }
        let mut now = Cycle::ZERO;
        let t = Instant::now();
        for _ in 0..STEPS {
            let o = inj.step(now, &mut router);
            debug_assert!(o.injected_flit);
            black_box(o);
            now.tick();
        }
        t.elapsed()
    })
}

/// `receiver.on_flit_ns`: a receiver assembling padded worms from one
/// source, flit by flit.
fn receiver_on_flit(budget: Duration) -> f64 {
    let (src, node) = (NodeId::new(0), NodeId::new(1));
    let flits: Vec<Flit> = (0..256u64)
        .flat_map(|k| {
            worm_flits(
                WormId::new(MessageId::new(k), 0),
                src,
                node,
                MESSAGE_LEN,
                8,
                k,
                Cycle::ZERO,
            )
        })
        .collect();
    ns_per_op(budget, flits.len(), || {
        let mut rx = Receiver::new(node);
        let mut delivered = 0;
        let t = Instant::now();
        for (i, &f) in flits.iter().enumerate() {
            delivered += rx.on_flit(Cycle::new(i as u64), f).len();
        }
        let d = t.elapsed();
        assert_eq!(delivered, 256);
        d
    })
}

/// `sched.insert_drain_ns`: per element, inserting 1 024 scattered ids
/// into an [`ActiveSet`] the size of the workload's fabric and
/// draining it sorted.
fn sched_insert_drain(budget: Duration, fabric: &Fabric) -> f64 {
    let mut set = ActiveSet::new(fabric.topo.num_nodes());
    let ids: Vec<u32> = fabric.pairs.iter().map(|&(a, _)| a.as_u32()).collect();
    let mut scratch = Vec::with_capacity(ids.len());
    ns_per_op(budget, ids.len(), || {
        let t = Instant::now();
        for _ in 0..16 {
            for &id in &ids {
                set.insert(id);
            }
            scratch.clear();
            set.drain_sorted_into(&mut scratch);
            black_box(&scratch);
        }
        t.elapsed() / 16
    })
}

/// `pool.run_task_overhead_ns` (10 000 no-op tasks through
/// `pool::run`) and `pool.team_batch_ns` (`Team::run` of one trivial
/// task per thread).
fn pool_costs(budget: Duration, threads: usize) -> (f64, f64) {
    const TASKS: usize = 10_000;
    let run = ns_per_op(budget, TASKS, || {
        let tasks: Vec<_> = (0..TASKS).map(|i| move || i).collect();
        let t = Instant::now();
        black_box(pool::run(threads, tasks));
        t.elapsed()
    });
    let team = Team::new(threads);
    let batch = ns_per_op(budget, 256, || {
        let t = Instant::now();
        for _ in 0..256 {
            let tasks: Vec<_> = (0..threads).map(|i| move || i).collect();
            black_box(team.run(tasks));
        }
        t.elapsed()
    });
    (run, batch)
}

/// `rng.next_u64_ns` and `rng.chacha8_blocks_per_s` (a ChaCha8 block
/// is sixteen 32-bit words, eight `next_u64` draws).
pub fn rng_costs(budget: Duration) -> (f64, f64) {
    const DRAWS: usize = 1 << 18;
    let mut rng = SimRng::from_seed(0xCA11);
    let ns = ns_per_op(budget, DRAWS, || {
        let t = Instant::now();
        let mut acc = 0u64;
        for _ in 0..DRAWS {
            acc ^= rng.next_u64();
        }
        black_box(acc);
        t.elapsed()
    });
    (ns, 1e9 / (ns * 8.0))
}

/// `faults.is_dead_ns` and `faults.corrupts_flit_ns` on the workload's
/// own fault plan (an empty plan where the workload has none — which
/// is what its hot path consults, too).
fn fault_costs(budget: Duration, point: &Point, fabric: &Fabric, rng: &mut SimRng) -> (f64, f64) {
    let faults = fault_plan(point, fabric.topo.as_ref());
    let links = fabric.topo.num_links() as u32;
    let ids: Vec<LinkId> = (0..4096)
        .map(|_| LinkId::new(rng.gen_range(0..links)))
        .collect();
    let is_dead = ns_per_op(budget, ids.len(), || {
        let t = Instant::now();
        let mut dead = 0;
        for &id in &ids {
            dead += usize::from(faults.is_dead(black_box(id)));
        }
        black_box(dead);
        t.elapsed()
    });
    let corrupts = ns_per_op(budget, 1 << 16, || {
        let t = Instant::now();
        let mut hit = 0;
        for _ in 0..1 << 16 {
            hit += usize::from(faults.corrupts_flit(rng));
        }
        black_box(hit);
        t.elapsed()
    });
    (is_dead, corrupts)
}

/// `traffic.poll_ns`: one Bernoulli source at the workload's load
/// (0.2 for the trace-driven workloads, which have none).
fn traffic_poll(budget: Duration, point: &Point, fabric: &Fabric, rng: &mut SimRng) -> f64 {
    let mut source = TrafficSource::new(
        NodeId::new(0),
        fabric.topo.num_nodes(),
        TrafficPattern::Uniform,
        LengthDistribution::Fixed(MESSAGE_LEN as usize),
        point.load.unwrap_or(0.2),
        rng.split(3),
    );
    ns_per_op(budget, 1 << 16, || {
        let t = Instant::now();
        let mut generated = 0;
        for _ in 0..1 << 16 {
            generated += usize::from(source.poll().is_some());
        }
        black_box(generated);
        t.elapsed()
    })
}

/// Runs every probe; returns `(metric name, value)` pairs.
pub fn run_all(
    inputs: &Inputs,
    seed: u64,
    threads: usize,
    budget: Duration,
) -> Vec<(&'static str, f64)> {
    let mut rng = SimRng::from_seed(seed).split(0x9806E);
    let fabrics = fabrics(inputs, &mut rng);
    let (first, point) = (&fabrics[0], &inputs.points[0]);
    let (candidates_ns, per_call) = routing_candidates(budget, &fabrics, &mut rng);
    let router = router_pipe(budget, first, &mut rng);
    let (run_task, team_batch) = pool_costs(budget, threads);
    let (next_u64, blocks) = rng_costs(budget);
    let (is_dead, corrupts) = fault_costs(budget, point, first, &mut rng);
    vec![
        ("topology.neighbor_ns", topology_neighbor(budget, &fabrics)),
        ("routing.candidates_ns", candidates_ns),
        ("routing.candidates_per_call", per_call),
        ("router.accept_ns", router.accept),
        ("router.route_allocate_ns", router.route_allocate),
        ("router.traverse_ns", router.traverse),
        ("router.flush_worm_ns", router.flush_worm),
        (
            "injector.step_ns",
            injector_step(budget, inputs, first, &mut rng),
        ),
        ("receiver.on_flit_ns", receiver_on_flit(budget)),
        ("sched.insert_drain_ns", sched_insert_drain(budget, first)),
        ("pool.run_task_overhead_ns", run_task),
        ("pool.team_batch_ns", team_batch),
        ("rng.chacha8_blocks_per_s", blocks),
        ("rng.next_u64_ns", next_u64),
        ("faults.is_dead_ns", is_dead),
        ("faults.corrupts_flit_ns", corrupts),
        (
            "traffic.poll_ns",
            traffic_poll(budget, point, first, &mut rng),
        ),
    ]
}
