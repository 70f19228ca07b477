//! Property-based tests of the router's internal invariants under
//! randomized worm traffic and teardown.

use cr_router::flit::{worm_flit_at, worm_flits};
use cr_router::routing::MinimalAdaptive;
use cr_router::{Flit, RouteTarget, Router, RouterConfig, Traversal, WormId};
use cr_sim::check::{check, Config, Source};
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

/// The router's worklists (ISSUE 13, DESIGN.md §10 "Inside the
/// router") under random configurations — up to the radix-63, 2-VC
/// full-mesh router — and random interleavings of every call that can
/// move a VC or a port on or off a worklist. After every call each
/// incremental count equals a dense recount through the public
/// getters (debug builds additionally cross-check membership bit by
/// bit inside the router), and a stage whose worklist is empty leaves
/// the router — state, counters, link stats and RNG position —
/// exactly as it found it.
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
        let node = NodeId::new(0);
        let cfg = RouterConfig {
            num_node_ports: topo.num_ports(node),
            num_vcs: src.usize_in(1..3),
            buffer_depth: src.usize_in(1..4),
            num_inject: src.usize_in(1..3),
            inject_depth: src.usize_in(1..4),
            num_eject: src.usize_in(1..3),
            link_depth: src.usize_in(0..3),
        };
        let rf = MinimalAdaptive::new(cfg.num_vcs);
        let mut r = Router::new(node, cfg, SimRng::from_seed(src.u64_any()));

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
                    }
                }
                1 => {
                    let i = a % cfg.num_inject;
                    if r.injection_free(i) > 0 {
                        let flit = streams[node_inputs + i].next_flit(&mut fresh_id, dst, len);
                        assert!(r.try_inject(now, i, flit));
                    }
                }
                2 => {
                    let before = (r.unrouted_inputs() == 0).then(|| snapshot(&r, &streams));
                    let dropped = r.route_and_allocate(now, &rf, topo, &|w| killed.contains(&w));
                    if let Some(before) = before {
                        assert_eq!(dropped, 0);
                        assert_eq!(before, snapshot(&r, &streams), "idle route stage moved");
                    }
                    let _ = r.take_orphan_credits();
                }
                3 => {
                    let idle = r.busy_outputs() == 0
                        && (0..cfg.num_eject).all(|e| r.eject_owner(e).is_none());
                    let before = idle.then(|| snapshot(&r, &streams));
                    out.clear();
                    r.traverse_into(now, &|w| killed.contains(&w), &mut out);
                    if let Some(before) = before {
                        assert!(out.is_empty());
                        assert_eq!(before, snapshot(&r, &streams), "idle traverse stage moved");
                    }
                    now += 1;
                }
                4 => {
                    let s = &streams[a % streams.len()];
                    let _ = r.flush_worm(s.port, s.vc, s.worm);
                }
                5 => {
                    let (port, vc) = (
                        PortId::from_index(a % cfg.num_node_ports),
                        VcId::from_index(b % cfg.num_vcs),
                    );
                    if r.credits(port, vc) < cfg.buffer_depth + cfg.link_depth {
                        r.add_credit(port, vc);
                    }
                }
                6 => r.set_dead_out(PortId::from_index(a % cfg.num_node_ports)),
                7 => r.clear_dead_out(PortId::from_index(a % cfg.num_node_ports)),
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
            let allocated_ports = (0..cfg.num_node_ports)
                .filter(|&p| {
                    (0..cfg.num_vcs).any(|v| {
                        r.output_owner(PortId::from_index(p), VcId::from_index(v))
                            .is_some()
                    })
                })
                .count();
            // Open-streak state is per port and private; a port with
            // an open streak and no allocation is the only way the
            // two may differ.
            assert!(r.busy_outputs() >= allocated_ports);
            if !r.has_open_streaks() {
                assert_eq!(r.busy_outputs(), allocated_ports, "traversal worklist size");
            }
            let buffered: usize = streams.iter().map(|s| r.occupancy(s.port, s.vc)).sum();
            assert_eq!(r.total_occupancy(), buffered);
        }
    });
}
