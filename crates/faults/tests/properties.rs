//! Property-based tests of the fault model.

use cr_faults::{strongly_connected, ChurnSchedule, FaultModel, FaultPlanError};
use cr_sim::check::{check, Config};
use cr_sim::{Cycle, LinkId, NodeId, SimRng};
use cr_topology::{FatTree, FullMesh, KAryNCube, Topology};
use std::collections::BTreeSet;

/// Connectivity-preserving fault plans actually preserve strong
/// connectivity, for any requested count the planner accepts.
#[test]
fn fault_plans_preserve_connectivity() {
    check("fault_plans_preserve_connectivity", Config::default(), |src| {
        let radix = src.usize_in(3..6);
        let count = src.usize_in(0..12);
        let seed = src.u64_any();
        let topo = KAryNCube::torus(radix, 2);
        let mut f = FaultModel::new();
        let mut rng = SimRng::from_seed(seed);
        match f.kill_random_links_connected(&topo, count, &mut rng) {
            Ok(killed) => {
                assert_eq!(killed.len(), count);
                assert_eq!(f.num_dead_links(), count);
                let dead: BTreeSet<_> = f.dead_links().collect();
                assert!(strongly_connected(&topo, &dead));
            }
            Err(_) => {
                // Rejection must roll back cleanly.
                assert_eq!(f.num_dead_links(), 0);
            }
        }
    });
}

/// Removing zero links is always connected; removing all links of any
/// node never is (for networks with more than one node).
#[test]
fn connectivity_extremes() {
    check("connectivity_extremes", Config::default(), |src| {
        let radix = src.usize_in(2..6);
        let topo = KAryNCube::torus(radix, 2);
        assert!(strongly_connected(&topo, &BTreeSet::new()));
        let mut dead = BTreeSet::new();
        for l in topo.links() {
            if l.src.index() == 0 {
                dead.insert(l.id);
            }
        }
        assert!(!strongly_connected(&topo, &dead));
    });
}

/// Corruption sampling honours the configured rate across seeds.
#[test]
fn corruption_rate_tracks_configuration() {
    check("corruption_rate_tracks_configuration", Config::default(), |src| {
        let rate = f64::from(src.u32_in(0..501)) / 1000.0;
        let seed = src.u64_any();
        let mut f = FaultModel::new();
        f.set_transient_rate(rate);
        let mut rng = SimRng::from_seed(seed);
        let n = 8000;
        let hits = (0..n).filter(|_| f.corrupts_flit(&mut rng)).count();
        let frac = hits as f64 / n as f64;
        assert!((frac - rate).abs() < 0.03 + rate * 0.15, "rate {rate} frac {frac}");
    });
}

/// Detection with miss-rate zero is certain; with miss-rate one it
/// never detects.
#[test]
fn detection_extremes() {
    check("detection_extremes", Config::default(), |src| {
        let seed = src.u64_any();
        let mut rng = SimRng::from_seed(seed);
        let mut perfect = FaultModel::new();
        perfect.set_detection_miss_rate(0.0);
        let mut blind = FaultModel::new();
        blind.set_detection_miss_rate(1.0);
        for _ in 0..64 {
            assert!(perfect.detects_corruption(&mut rng));
            assert!(!blind.detects_corruption(&mut rng));
        }
    });
}

/// The `is_dead` bitmap is the dead-link set: after any interleaving
/// of link and node kills and revives, connectivity-checked kills
/// (accepted or rolled back) and churn firings, `is_dead(l)` equals
/// membership in `dead_links()` for every link id — including ids the
/// bitmap has never grown to cover.
#[test]
fn is_dead_equals_dead_links_membership() {
    check("is_dead_equals_dead_links_membership", Config::default(), |src| {
        let topo = KAryNCube::torus(src.usize_in(3..5), 2);
        let links = topo.links();
        let nodes = topo.num_nodes();
        let mut f = FaultModel::new();

        // A churn timeline over the same fabric, fired piecemeal below.
        let mut plan = ChurnSchedule::new();
        for _ in 0..src.usize_in(0..12) {
            let at = Cycle::new(src.u64_in(0..40));
            let link = links[src.usize_in(0..links.len())].id;
            let node = NodeId::from_index(src.usize_in(0..nodes));
            match src.usize_in(0..5) {
                0 => plan.kill_link(at, link),
                1 => plan.revive_link(at, link),
                2 => plan.kill_node(at, node),
                3 => plan.revive_node(at, node),
                _ => plan.regional_outage(at, node, 1, src.u64_in(1..10)),
            };
        }
        f.set_churn(plan);
        f.expand_churn(&topo);

        let mut now = 0;
        let mut rng = SimRng::from_seed(src.u64_any());
        for _ in 0..src.usize_in(0..40) {
            // Ids beyond the topology's too: the model takes any id.
            let link = LinkId::new(src.u32_in(0..links.len() as u32 + 200));
            let node = NodeId::from_index(src.usize_in(0..nodes));
            match src.usize_in(0..8) {
                0..=1 => {
                    f.kill_link(link);
                }
                2 => {
                    f.revive_link(link);
                }
                3 => {
                    f.kill_node(&topo, node);
                }
                4 => {
                    f.revive_node(&topo, node);
                }
                5 => {
                    // Rejected plans roll back what they placed.
                    let before: Vec<LinkId> = f.dead_links().collect();
                    let count = src.usize_in(0..links.len());
                    if f.kill_random_links_connected(&topo, count, &mut rng).is_err() {
                        assert!(f.dead_links().eq(before), "rollback restores the set");
                    }
                }
                6 => {
                    let _ = f.kill_node_connected(&topo, node);
                }
                _ => {
                    now += src.u64_in(0..12);
                    f.apply_churn_due(&topo, Cycle::new(now), &mut Vec::new());
                }
            }
            let dead: BTreeSet<LinkId> = f.dead_links().collect();
            assert_eq!(dead.len(), f.num_dead_links());
            for id in 0..links.len() as u32 + 400 {
                let id = LinkId::new(id);
                assert_eq!(f.is_dead(id), dead.contains(&id), "{id}");
            }
        }
    });
}

/// `kill_random_links_connected` as it stood before the one-search
/// connectivity test: a full [`strongly_connected`] pass per candidate.
/// The oracle of [`random_kill_matches_full_check_per_candidate`].
fn kill_random_links_full_check(
    f: &mut FaultModel,
    topo: &dyn Topology,
    count: usize,
    rng: &mut SimRng,
) -> Result<Vec<LinkId>, FaultPlanError> {
    let all = topo.links();
    let alive = all.iter().filter(|l| !f.is_dead(l.id)).count();
    if count > alive {
        return Err(FaultPlanError::TooManyFaults { requested: count });
    }
    let rollback = |f: &mut FaultModel, killed: &[LinkId]| {
        for &l in killed {
            f.revive_link(l);
        }
        Err(FaultPlanError::TooManyFaults { requested: count })
    };
    let mut killed = Vec::new();
    let (mut rejections, mut draws) = (0usize, 0usize);
    let max_rejections = 100 * count.max(1);
    let max_draws = max_rejections + 1_000 * all.len().max(1);
    while killed.len() < count {
        draws += 1;
        if draws > max_draws {
            return rollback(f, &killed);
        }
        let Some(pick) = rng.pick_index(all.len()) else {
            return Err(FaultPlanError::EmptyNetwork);
        };
        let candidate = all[pick].id;
        if f.is_dead(candidate) {
            continue;
        }
        f.kill_link(candidate);
        if strongly_connected(topo, &f.dead_links().collect()) {
            killed.push(candidate);
        } else {
            f.revive_link(candidate);
            rejections += 1;
            if rejections > max_rejections {
                return rollback(f, &killed);
            }
        }
    }
    Ok(killed)
}

/// The planner's one-search connectivity test decides exactly as a
/// full strong-connectivity pass per candidate does: on random torus,
/// mesh, fat-tree and full-mesh fabrics with random dead sets already
/// in place — including ones that have already disconnected the
/// fabric — both return the same `Ok`/`Err`, kill the same links in
/// the same order, leave the same dead set and leave the RNG at the
/// same position.
#[test]
fn random_kill_matches_full_check_per_candidate() {
    check("random_kill_matches_full_check_per_candidate", Config::cases(96), |src| {
        let topo: Box<dyn Topology> = match src.usize_in(0..4) {
            0 => Box::new(KAryNCube::torus(src.usize_in(2..5), 2)),
            1 => Box::new(KAryNCube::mesh(src.usize_in(2..5), 2)),
            2 => Box::new(FatTree::new(2 * src.usize_in(1..3))),
            _ => Box::new(FullMesh::new(src.usize_in(2..7))),
        };
        let links = topo.links();
        // Dead on entry: usually a few links, sometimes most of them.
        let pre = match src.usize_in(0..4) {
            0 => 0,
            1..=2 => src.usize_in(0..4),
            _ => src.usize_in(0..links.len() + 1),
        };
        let mut fast = FaultModel::new();
        for _ in 0..pre {
            fast.kill_link(links[src.usize_in(0..links.len())].id);
        }
        let mut full = fast.clone();
        let count = src.usize_in(0..links.len() / 2 + 2);
        let seed = src.u64_any();
        let (mut rng_fast, mut rng_full) = (SimRng::from_seed(seed), SimRng::from_seed(seed));

        let got = fast.kill_random_links_connected(&*topo, count, &mut rng_fast);
        let want = kill_random_links_full_check(&mut full, &*topo, count, &mut rng_full);
        assert_eq!(got, want);
        assert!(fast.dead_links().eq(full.dead_links()), "same dead set");
        assert_eq!(rng_fast.words_consumed(), rng_full.words_consumed());
    });
}
