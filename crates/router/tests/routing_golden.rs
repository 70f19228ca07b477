//! Golden pin of every routing function's candidate lists and RNG
//! draw counts.
//!
//! The router grants the *first free* candidate and every adaptive
//! tie-break draws from the router's own RNG stream, so both the order
//! of the candidates and the number of keystream words a call consumes
//! are part of the simulator's observable behaviour: change either and
//! every seeded experiment drifts. The digests below were recorded at
//! the commit *before* the routing functions were rewritten to be
//! allocation-free (ISSUE 13) and must never move without a CHANGES.md
//! entry saying that published numbers change.
//!
//! Each row covers one routing function on one topology it is legal on,
//! over the fixed grid `(seed, dead-port mask, hops, escaped, node,
//! dst)` with one RNG stream per `(row, seed)` running across the whole
//! grid — a single extra or missing draw shifts everything after it.

use cr_router::routing::{
    Candidate, DimensionOrder, DuatoProtocol, FullMeshOrdered, MinimalAdaptive, PlanarAdaptive,
};
use cr_router::{Flit, FlitKind, RouteCtx, RoutingFunction, WormId};
use cr_sim::{Cycle, MessageId, NodeId, SimRng};
use cr_topology::{FatTree, FullMesh, Hypercube, KAryNCube, Topology};

const SEEDS: [u64; 2] = [1, 1994];
const MASKS: usize = 4;

/// Dead-output-port pattern `mask` at `node`: none; even ports; a
/// node-dependent third; everything but the highest port.
fn dead_mask(mask: usize, node: usize, ports: usize) -> Vec<bool> {
    (0..ports)
        .map(|p| match mask {
            0 => false,
            1 => p.is_multiple_of(2),
            2 => (p + node).is_multiple_of(3),
            _ => p + 1 != ports,
        })
        .collect()
}

struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

/// Digest of `(candidates, rng.words_consumed())` over the whole grid.
fn digest(rf: &dyn RoutingFunction, topo: &dyn Topology) -> u64 {
    let mut h = Fnv::new();
    let mut out: Vec<Candidate> = Vec::new();
    let n = topo.num_nodes();
    for seed in SEEDS {
        let mut rng = SimRng::from_seed(seed);
        for mask in 0..MASKS {
            for (hops, escaped) in [(0u16, false), (1, false), (0, true)] {
                for a in 0..n {
                    let node = NodeId::from_index(a);
                    let dead = dead_mask(mask, a, topo.num_ports(node));
                    for b in 0..n {
                        if a == b {
                            continue;
                        }
                        let dst = NodeId::from_index(b);
                        // The source sits one hop "behind" when the
                        // header has already moved, so the misroute
                        // budget sees a real straight-line distance.
                        let mut flit = Flit::new(
                            WormId::new(MessageId::new(7), 0),
                            FlitKind::Head,
                            if hops == 0 { node } else { dst },
                            dst,
                            0,
                            0,
                            8,
                            8,
                            Cycle::ZERO,
                        );
                        flit.hops = hops;
                        flit.escaped = escaped;
                        out.clear();
                        rf.candidates(
                            &mut RouteCtx {
                                topo,
                                node,
                                flit: &flit,
                                dead_out: &dead,
                                rng: &mut rng,
                            },
                            &mut out,
                        );
                        h.word(out.len() as u64);
                        for c in &out {
                            h.word(
                                (c.port.index() as u64) << 16
                                    | (c.vc.index() as u64) << 1
                                    | u64::from(c.escape),
                            );
                        }
                        h.word(rng.words_consumed());
                    }
                }
            }
        }
    }
    h.0
}

fn rows() -> Vec<(String, u64)> {
    let t4 = KAryNCube::torus(4, 2);
    let t5 = KAryNCube::torus(5, 2);
    let t3 = KAryNCube::torus(3, 3);
    let m4 = KAryNCube::mesh(4, 2);
    let m3 = KAryNCube::mesh(3, 3);
    let h4 = Hypercube::new(4);
    let ft = FatTree::new(4);
    let fm = FullMesh::new(8);
    let tori: [&dyn Topology; 3] = [&t4, &t5, &t3];
    let wrapless: [&dyn Topology; 3] = [&m4, &m3, &h4];
    let any: [&dyn Topology; 8] = [&t4, &t5, &t3, &m4, &m3, &h4, &ft, &fm];

    let mut rows = Vec::new();
    let mut row = |name: &str, rf: &dyn RoutingFunction, topo: &dyn Topology| {
        rows.push((format!("{name} @ {}", topo.label()), digest(rf, topo)));
    };
    for topo in any {
        row("adaptive(1)", &MinimalAdaptive::new(1), topo);
        row("adaptive(2)", &MinimalAdaptive::new(2), topo);
        row(
            "adaptive(2)+misroute(2)",
            &MinimalAdaptive::new(2).with_misrouting(2),
            topo,
        );
    }
    for topo in tori {
        row("dor-torus(1)", &DimensionOrder::torus(1), topo);
        row("dor-torus(2)", &DimensionOrder::torus(2), topo);
        row("duato-torus(1)", &DuatoProtocol::torus(1), topo);
        row("duato-torus(2)", &DuatoProtocol::torus(2), topo);
    }
    for topo in wrapless {
        row("dor-mesh(1)", &DimensionOrder::mesh(1), topo);
        row("dor-mesh(2)", &DimensionOrder::mesh(2), topo);
        row("duato-mesh(1)", &DuatoProtocol::mesh(1), topo);
        row("duato-mesh(2)", &DuatoProtocol::mesh(2), topo);
    }
    row("planar-adaptive", &PlanarAdaptive::new(), &m4);
    row("ordered-detour", &FullMeshOrdered::new(), &fm);
    row("ordered-detour", &FullMeshOrdered::new(), &FullMesh::new(5));
    rows
}

/// Recorded at the parent of ISSUE 13 (commit 204065b).
const GOLDEN: &[(&str, u64)] = &[
    ("adaptive(1) @ 4-ary 2-cube torus", 0x93802eb57dee3ac9),
    ("adaptive(2) @ 4-ary 2-cube torus", 0xc1365e3e47f288c9),
    (
        "adaptive(2)+misroute(2) @ 4-ary 2-cube torus",
        0xab5f70227bf88e45,
    ),
    ("adaptive(1) @ 5-ary 2-cube torus", 0xc09a843208422e71),
    ("adaptive(2) @ 5-ary 2-cube torus", 0x90608b5917843d49),
    (
        "adaptive(2)+misroute(2) @ 5-ary 2-cube torus",
        0x69d1e540351615dd,
    ),
    ("adaptive(1) @ 3-ary 3-cube torus", 0x5e3558fb488e3cb9),
    ("adaptive(2) @ 3-ary 3-cube torus", 0x9ffde69e67ad73d9),
    (
        "adaptive(2)+misroute(2) @ 3-ary 3-cube torus",
        0xed32aaf7ea6c70a5,
    ),
    ("adaptive(1) @ 4-ary 2-cube mesh", 0x8baf7a0dec851045),
    ("adaptive(2) @ 4-ary 2-cube mesh", 0xfe94cdef47e4f9a5),
    (
        "adaptive(2)+misroute(2) @ 4-ary 2-cube mesh",
        0x6d25a51c5297b7dd,
    ),
    ("adaptive(1) @ 3-ary 3-cube mesh", 0xc45d32c1072db9f1),
    ("adaptive(2) @ 3-ary 3-cube mesh", 0xed3dfb432c1c6bed),
    (
        "adaptive(2)+misroute(2) @ 3-ary 3-cube mesh",
        0x3111130d7bf0dd9d,
    ),
    ("adaptive(1) @ 4-dimensional hypercube", 0x0306b70030913735),
    ("adaptive(2) @ 4-dimensional hypercube", 0x16175460fea76e65),
    (
        "adaptive(2)+misroute(2) @ 4-dimensional hypercube",
        0xd23700fcb3c455c5,
    ),
    ("adaptive(1) @ 4-ary fat-tree", 0xbd28377f6e130695),
    ("adaptive(2) @ 4-ary fat-tree", 0x4b7c91e1757c36ad),
    (
        "adaptive(2)+misroute(2) @ 4-ary fat-tree",
        0xbf7d3fd4a07b3369,
    ),
    ("adaptive(1) @ 8-node full mesh", 0xfc996eec3e10b321),
    ("adaptive(2) @ 8-node full mesh", 0xff25996da1b56cc5),
    (
        "adaptive(2)+misroute(2) @ 8-node full mesh",
        0x8e06ef51ee3f5991,
    ),
    ("dor-torus(1) @ 4-ary 2-cube torus", 0x2db0f570ab12dd59),
    ("dor-torus(2) @ 4-ary 2-cube torus", 0x6890d632d6115a1d),
    ("duato-torus(1) @ 4-ary 2-cube torus", 0x2fa8db98001011d9),
    ("duato-torus(2) @ 4-ary 2-cube torus", 0x083c091765780181),
    ("dor-torus(1) @ 5-ary 2-cube torus", 0x51187ae8cf0520c9),
    ("dor-torus(2) @ 5-ary 2-cube torus", 0x517add2c90bdd479),
    ("duato-torus(1) @ 5-ary 2-cube torus", 0x4f28e2432af9ed89),
    ("duato-torus(2) @ 5-ary 2-cube torus", 0x231faea2e62de059),
    ("dor-torus(1) @ 3-ary 3-cube torus", 0xeac288cf8fdb6fd9),
    ("dor-torus(2) @ 3-ary 3-cube torus", 0x431c8f14253b547d),
    ("duato-torus(1) @ 3-ary 3-cube torus", 0xa6c38321dca502f1),
    ("duato-torus(2) @ 3-ary 3-cube torus", 0xdf9a0962301b9a61),
    ("dor-mesh(1) @ 4-ary 2-cube mesh", 0x685458b6d49ef6f5),
    ("dor-mesh(2) @ 4-ary 2-cube mesh", 0x6f09db514e258045),
    ("duato-mesh(1) @ 4-ary 2-cube mesh", 0x4593e5a7f30b8761),
    ("duato-mesh(2) @ 4-ary 2-cube mesh", 0xb81e3f380f9a93f5),
    ("dor-mesh(1) @ 3-ary 3-cube mesh", 0x8c11e0373c090075),
    ("dor-mesh(2) @ 3-ary 3-cube mesh", 0xbfa41d612f11e46d),
    ("duato-mesh(1) @ 3-ary 3-cube mesh", 0xeb437e7f8b9457dd),
    ("duato-mesh(2) @ 3-ary 3-cube mesh", 0x76a6ba6537e205ad),
    ("dor-mesh(1) @ 4-dimensional hypercube", 0x3620d4cf5cf26f01),
    ("dor-mesh(2) @ 4-dimensional hypercube", 0x195568d089eaa1d1),
    (
        "duato-mesh(1) @ 4-dimensional hypercube",
        0x2a7eb374a0240845,
    ),
    (
        "duato-mesh(2) @ 4-dimensional hypercube",
        0xe4547c7e40cf3f25,
    ),
    ("planar-adaptive @ 4-ary 2-cube mesh", 0x4bd2261440545edd),
    ("ordered-detour @ 8-node full mesh", 0x4c53934ed9a4c5d5),
    ("ordered-detour @ 5-node full mesh", 0x10aaa8044fbb1d25),
];

#[test]
fn candidate_order_and_draw_counts_are_pinned() {
    let got = rows();
    let matches = got.len() == GOLDEN.len()
        && got
            .iter()
            .zip(GOLDEN)
            .all(|((name, d), (gname, gd))| name == gname && d == gd);
    if !matches {
        let table: String = got
            .iter()
            .map(|(name, d)| format!("    ({name:?}, 0x{d:016x}),\n"))
            .collect();
        panic!("routing golden digests moved; computed table:\n{table}");
    }
}
