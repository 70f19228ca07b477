//! Seeded input generator: `(workload, seed, size)` → everything the
//! simulator receives.
//!
//! The timed reps, the traced rep, the layer probes, the slice diffs
//! and the verify pass all take their inputs from [`generate`], so
//! they measure and check the same traffic. The simulator never sees
//! the benchmark seed, only what is generated from it here: message
//! traces, fault-plan and churn parameters, and builder seeds.
//!
//! Seed `1` ([`DEV_SEED`]) is the development seed; seed `1994`
//! ([`CLAIM_SEED`]) is reserved for checking a claim on inputs nobody
//! tuned against (choosing-metrics §6.3).
//!
//! Trace-driven workloads draw their source/destination *offsets* from
//! a fixed stratified multiset and let the seed choose only where each
//! message starts and in which order they fire. CR pads a worm to
//! `I_min`, so a message costs about `hops²` flit-hops; with free
//! random offsets the total work would swing by several percent from
//! seed to seed and `wall_s` with it. With the multiset fixed, every
//! seed does the same number of flit-hops on different paths.

use cr_core::{ProtocolKind, RoutingKind};
use cr_experiments::{showdown, Scale};
use cr_sim::{Cycle, NodeId, Rng, SimRng};
use cr_topology::TopologyKind;
use cr_traffic::{Trace, TraceEvent};

/// The development seed (default `--seed`).
pub const DEV_SEED: u64 = 1;
/// The seed reserved for claim checks; never tune against it.
pub const CLAIM_SEED: u64 = 1994;

/// Payload flits per message, every workload (the paper's 16).
pub const MESSAGE_LEN: u32 = 16;

/// The six workloads. Names are the keys later issues use.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// 8×8 torus under CR past saturation.
    SatTorus8,
    /// 128×128 torus carrying one lone worm at a time.
    SparseTorus128,
    /// 32×32 torus under FCR with dead links, transient faults, churn.
    FcrStormTorus32,
    /// The same storm through the two-shard stepper.
    FcrStormTorus32Sh2,
    /// 64×64 torus draining a thousand concurrent worms on two shards.
    DenseTorus64Sh2,
    /// The showdown grid through a two-job sweep runner.
    ShowdownSweepJ2,
}

impl Workload {
    /// Every workload, in reporting order.
    pub const ALL: [Workload; 6] = [
        Workload::SatTorus8,
        Workload::SparseTorus128,
        Workload::FcrStormTorus32,
        Workload::FcrStormTorus32Sh2,
        Workload::DenseTorus64Sh2,
        Workload::ShowdownSweepJ2,
    ];

    /// The workload's name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::SatTorus8 => "sat_torus8",
            Workload::SparseTorus128 => "sparse_torus128",
            Workload::FcrStormTorus32 => "fcr_storm_torus32",
            Workload::FcrStormTorus32Sh2 => "fcr_storm_torus32_sh2",
            Workload::DenseTorus64Sh2 => "dense_torus64_sh2",
            Workload::ShowdownSweepJ2 => "showdown_sweep_j2",
        }
    }

    /// Looks a workload up by name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// One line on why the workload is in the benchmark.
    pub fn why(self) -> &'static str {
        match self {
            Workload::SatTorus8 => {
                "CR past saturation (Figs. 9/14): every router, link and injector armed each cycle, so route/allocate/traverse and timeout kills do the work"
            }
            Workload::SparseTorus128 => {
                "one lone worm on a 16384-node fabric: active-set upkeep, fast-forward and assembly cost, with zero contention and zero kills"
            }
            Workload::FcrStormTorus32 => {
                "FCR riding out dead links, transient faults and regional outages (sec. 6.2): FKILL, flush_worm, padding, retransmit - the write side of the router"
            }
            Workload::FcrStormTorus32Sh2 => {
                "the same storm on two shards: transient faults force serial arrivals, so it prices the sharded stepper where it cannot fan out"
            }
            Workload::DenseTorus64Sh2 => {
                "a thousand concurrent worms drained on two shards: Team dispatch, barrier drain and cross-shard traffic with every fan-out parallel"
            }
            Workload::ShowdownSweepJ2 => {
                "what a user invokes: 32 short sims over four fabrics through a two-job SweepRunner, so assembly, report/JSON and the slowest point set the wall"
            }
        }
    }

    /// What the workload's worker threads do, if it has any.
    pub fn parallelism(self) -> Parallelism {
        match self {
            Workload::FcrStormTorus32Sh2 | Workload::DenseTorus64Sh2 => Parallelism::ShardThreads,
            Workload::ShowdownSweepJ2 => Parallelism::SweepJobs,
            _ => Parallelism::Serial,
        }
    }

    /// The RNG stream the workload's inputs are drawn from. The serial
    /// and sharded storms share one, so their inputs are identical.
    fn stream(self) -> u64 {
        match self {
            Workload::SatTorus8 => 1,
            Workload::SparseTorus128 => 2,
            Workload::FcrStormTorus32 | Workload::FcrStormTorus32Sh2 => 3,
            Workload::DenseTorus64Sh2 => 4,
            Workload::ShowdownSweepJ2 => 5,
        }
    }
}

/// How a workload uses threads; `host::threads` turns it into a count.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Parallelism {
    /// One thread.
    Serial,
    /// Shard threads meeting at four barriers per simulated cycle
    /// (`_sh2`).
    ShardThreads,
    /// Sweep jobs running independent simulations (`_j2`).
    SweepJobs,
}

/// How much of a workload to generate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Size {
    /// The timed workload.
    Full,
    /// About an eighth: what the two-run `diff` metrics are taken on.
    Slice,
    /// Small enough for the dense reference stepper on every fabric:
    /// the verify pass and the benchmark's own tests.
    Tiny,
}

impl Size {
    fn pick<T>(self, full: T, slice: T, tiny: T) -> T {
        match self {
            Size::Full => full,
            Size::Slice => slice,
            Size::Tiny => tiny,
        }
    }
}

/// One regional outage of a churn schedule (kill, then revive).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Outage {
    /// Cycle the region goes down.
    pub at: u64,
    /// Epicentre node.
    pub center: u32,
    /// Hop radius of the region.
    pub radius: u32,
    /// Cycles until the region is revived.
    pub down_for: u64,
}

/// Parameters of a fault plan; the plan itself is built during set-up,
/// against the built topology, and counts toward `setup_s`.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultSpec {
    /// Static dead links (`kill_random_links_connected`).
    pub dead_links: usize,
    /// Seed of the dead-link draw.
    pub plan_seed: u64,
    /// Transient corruption probability per flit-hop.
    pub transient_rate: f64,
    /// Live kill-and-revive events.
    pub outages: Vec<Outage>,
}

/// When a simulated run stops.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Stop {
    /// `Network::run(cycles)`.
    Cycles(u64),
    /// `Network::run_until_quiescent`: every message must deliver.
    Drain,
}

/// One network to build and run.
#[derive(Debug, Clone)]
pub struct Point {
    /// Human-readable tag (`torus8x8/CR/0.3`), used in failure lines.
    pub label: String,
    /// The fabric.
    pub topo: TopologyKind,
    /// Routing function.
    pub routing: RoutingKind,
    /// End-to-end protocol.
    pub protocol: ProtocolKind,
    /// Offered load of uniform Bernoulli traffic, if any.
    pub load: Option<f64>,
    /// Warmup cycles excluded from the simulated statistics.
    pub warmup: u64,
    /// Stop condition.
    pub stop: Stop,
    /// Scheduled messages (empty for Bernoulli workloads).
    pub trace: Trace,
    /// Fault plan parameters, if any.
    pub faults: Option<FaultSpec>,
    /// `NetworkBuilder::seed`.
    pub builder_seed: u64,
}

/// A workload's generated inputs.
#[derive(Debug, Clone)]
pub struct Inputs {
    /// The networks of one rep (one, or the sweep's grid).
    pub points: Vec<Point>,
    /// `NetworkBuilder::shards` for every point.
    pub shards: usize,
}

/// Generates the inputs of `workload` at `size` from `seed`.
pub fn generate(workload: Workload, seed: u64, size: Size) -> Inputs {
    let root = SimRng::from_seed(seed).split(0xC4_0000 + workload.stream());
    let builder_seed = root.split(1).next_u64();
    let cr = |topo, stop, warmup| Point {
        label: workload.name().to_string(),
        topo,
        routing: RoutingKind::Adaptive { vcs: 1 },
        protocol: ProtocolKind::Cr,
        load: None,
        warmup,
        stop,
        trace: Trace::default(),
        faults: None,
        builder_seed,
    };
    match workload {
        Workload::SatTorus8 => {
            let (warmup, cycles) = size.pick((1_000, 12_000), (250, 1_500), (200, 1_000));
            let mut p = cr(
                TopologyKind::Torus { radix: 8, dims: 2 },
                Stop::Cycles(cycles),
                warmup,
            );
            p.load = Some(0.40);
            Inputs {
                points: vec![p],
                shards: 1,
            }
        }
        Workload::SparseTorus128 => {
            // Tiny keeps the paths short as well: the dense reference
            // stepper visits all 16 384 routers every cycle.
            let (messages, gap, reach) = size.pick((120, 400, 64), (15, 400, 64), (3, 30, 8));
            let mut p = cr(
                TopologyKind::Torus {
                    radix: 128,
                    dims: 2,
                },
                Stop::Drain,
                0,
            );
            let mut rng = root.split(2);
            let starts = (0..messages).map(|i| i as u64 * gap).collect();
            let sources = (0..messages)
                .map(|_| rng.gen_range(0..128u32 * 128))
                .collect();
            p.trace = scattered_trace(&mut rng, 128, sources, starts, reach);
            Inputs {
                points: vec![p],
                shards: 1,
            }
        }
        Workload::FcrStormTorus32 | Workload::FcrStormTorus32Sh2 => {
            // Tiny also thins the static faults: each dead link costs a
            // connectivity check of the whole fabric at set-up.
            let (warmup, cycles, outages, dead_links) =
                size.pick((400, 1_600, 8, 128), (75, 300, 1, 128), (40, 160, 1, 16));
            let mut p = cr(
                TopologyKind::Torus { radix: 32, dims: 2 },
                Stop::Cycles(cycles),
                warmup,
            );
            p.routing = RoutingKind::AdaptiveMisroute {
                vcs: 1,
                extra_hops: 6,
            };
            p.protocol = ProtocolKind::Fcr;
            p.load = Some(0.20);
            let mut rng = root.split(2);
            // Outages start one per equal slice of the window's first
            // three quarters (so each is revived inside the run), at a
            // seeded centre and offset within its slice.
            let slot = cycles * 3 / 4 / outages;
            p.faults = Some(FaultSpec {
                dead_links,
                plan_seed: rng.next_u64(),
                transient_rate: 1e-4,
                outages: (0..outages)
                    .map(|k| Outage {
                        at: k * slot + rng.gen_range(0..slot / 2),
                        center: rng.gen_range(0..32u32 * 32),
                        radius: 1,
                        down_for: slot / 2,
                    })
                    .collect(),
            });
            Inputs {
                points: vec![p],
                shards: if workload == Workload::FcrStormTorus32Sh2 {
                    2
                } else {
                    1
                },
            }
        }
        Workload::DenseTorus64Sh2 => {
            // One message from every `stride`-th node, the stride's
            // phase seeded, starts staggered over 1 536 cycles. (Packed
            // into 256 cycles the fabric saturates, a few unlucky worms
            // retry for a thousand cycles, and the drain length — and
            // with it every per-cycle metric — swings 30 % from seed to
            // seed.)
            let stride = size.pick(4u32, 32, 128);
            let mut p = cr(TopologyKind::Torus { radix: 64, dims: 2 }, Stop::Drain, 0);
            let mut rng = root.split(2);
            let phase = rng.gen_range(0..stride);
            let sources: Vec<u32> = (0..64 * 64 / stride).map(|k| k * stride + phase).collect();
            let mut starts: Vec<u64> = (0..sources.len() as u64).map(|k| (k % 64) * 24).collect();
            rng.shuffle(&mut starts);
            p.trace = scattered_trace(&mut rng, 64, sources, starts, 20);
            Inputs {
                points: vec![p],
                shards: 2,
            }
        }
        Workload::ShowdownSweepJ2 => {
            let (warmup, cycles) = size.pick((250, 1_000), (125, 500), (100, 400));
            let loads = size.pick(Scale::Quick.loads(), vec![0.3], vec![0.3]);
            let mut points = Vec::new();
            for kind in showdown::zoo(Scale::Quick) {
                for (scheme, routing, protocol) in showdown::schemes(kind) {
                    for &load in &loads {
                        let mut p = cr(kind, Stop::Cycles(cycles), warmup);
                        p.label = format!("{}/{scheme}/{load}", kind.label());
                        p.routing = routing;
                        p.protocol = protocol;
                        p.load = Some(load);
                        p.builder_seed = root.split(100 + points.len() as u64).next_u64();
                        points.push(p);
                    }
                }
            }
            Inputs { points, shards: 1 }
        }
    }
}

/// The `k`-th offset of the fixed stratified multiset over
/// `-reach..=reach` squared, never `(0, 0)`. The strides are primes
/// that divide none of the spans used (129, 49), so consecutive `k`
/// walk every residue before repeating.
fn stratified_offset(k: usize, reach: i64) -> (i64, i64) {
    let span = 2 * reach + 1;
    let dx = (k as i64 * 29) % span - reach;
    let dy = (k as i64 * 53 + 17) % span - reach;
    if (dx, dy) == (0, 0) {
        (reach, 0)
    } else {
        (dx, dy)
    }
}

/// A trace of [`MESSAGE_LEN`]-flit messages on a `radix`×`radix`
/// torus: message `i` leaves `sources[i]` at `starts[i]` for the node
/// one stratified offset away; the seed decides which offset goes with
/// which message. The last message and every 40th before it instead
/// draw their offsets freely, so that the simulated statistics of even
/// a contention-free workload differ a little from seed to seed (at a
/// cost of about 1 % spread in total flit-hops).
fn scattered_trace(
    rng: &mut SimRng,
    radix: i64,
    sources: Vec<u32>,
    starts: Vec<u64>,
    reach: i64,
) -> Trace {
    let mut offsets: Vec<(i64, i64)> = (0..sources.len())
        .map(|k| stratified_offset(k, reach))
        .collect();
    rng.shuffle(&mut offsets);
    for o in offsets.iter_mut().rev().step_by(40) {
        *o = (
            rng.gen_range(-reach..reach + 1),
            rng.gen_range(1..reach + 1),
        );
    }
    let events = sources
        .iter()
        .zip(&starts)
        .zip(&offsets)
        .map(|((&src, &at), &(dx, dy))| {
            let (x, y) = (i64::from(src) % radix, i64::from(src) / radix);
            let dst = (y + dy).rem_euclid(radix) * radix + (x + dx).rem_euclid(radix);
            TraceEvent {
                at: Cycle::new(at),
                src: NodeId::new(src),
                dst: NodeId::from_index(dst as usize),
                length: MESSAGE_LEN,
            }
        })
        .collect();
    Trace::from_events(events)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A byte-stable rendering of everything `generate` decides.
    fn render(inputs: &Inputs) -> String {
        format!("{inputs:?}")
    }

    #[test]
    fn same_seed_same_inputs_other_seed_other_inputs() {
        for w in Workload::ALL {
            let a = render(&generate(w, DEV_SEED, Size::Tiny));
            assert_eq!(
                a,
                render(&generate(w, DEV_SEED, Size::Tiny)),
                "{}",
                w.name()
            );
            assert_ne!(
                a,
                render(&generate(w, CLAIM_SEED, Size::Tiny)),
                "{}",
                w.name()
            );
        }
    }

    #[test]
    fn serial_and_sharded_storm_share_inputs() {
        let a = generate(Workload::FcrStormTorus32, 7, Size::Full);
        let mut b = generate(Workload::FcrStormTorus32Sh2, 7, Size::Full);
        b.points[0].label.clone_from(&a.points[0].label);
        assert_eq!(format!("{:?}", a.points), format!("{:?}", b.points));
        assert_eq!((a.shards, b.shards), (1, 2));
    }

    #[test]
    fn trace_work_barely_depends_on_the_seed() {
        // Same multiset of |dx| + |dy| whatever the seed — the same
        // number of flit-hops on different paths — but for the one
        // message in forty that is drawn freely.
        let hops = |seed| {
            let inputs = generate(Workload::SparseTorus128, seed, Size::Full);
            let topo = inputs.points[0].topo.build();
            let mut count = vec![0i64; 129];
            for e in inputs.points[0].trace.events() {
                assert_ne!(e.src, e.dst);
                count[topo.distance(e.src, e.dst)] += 1;
            }
            count
        };
        let moved: i64 = hops(1)
            .iter()
            .zip(hops(2))
            .map(|(a, b)| (a - b).abs())
            .sum();
        // Three free messages per seed: each takes one count out of the
        // stratified histogram and puts one in, on either side.
        assert!(moved <= 4 * (120 / 40), "{moved} messages changed distance");
    }

    #[test]
    fn names_round_trip() {
        for w in Workload::ALL {
            assert_eq!(Workload::parse(w.name()), Some(w));
            assert!(w.why().len() <= 200, "{} why too long", w.name());
        }
        assert_eq!(Workload::parse("nope"), None);
    }
}
