//! Fault models for the Compressionless Routing reproduction.
//!
//! The paper's fault-tolerance evaluation (Section 6.2) injects
//! **transient faults** — individual flits corrupted in flight, at a
//! configurable rate per flit-hop — and **permanent faults** — channels
//! that stop working altogether. This crate provides both behind a
//! single [`FaultModel`] queried by the router on every flit-hop.
//!
//! The substitution for real hardware checksums (documented in
//! DESIGN.md): corruption is a boolean flag on the flit, and detection
//! happens at the next router with a configurable *miss rate*
//! (default 0, i.e. a perfect error-detecting code). FCR's nonstop
//! fault-tolerance guarantee holds exactly when the miss rate is zero,
//! and the test-suite asserts precisely that.
//!
//! # Examples
//!
//! ```
//! use cr_faults::FaultModel;
//! use cr_sim::{LinkId, SimRng};
//!
//! let mut faults = FaultModel::new();
//! faults.set_transient_rate(1e-3);
//! faults.kill_link(LinkId::new(3));
//!
//! let mut rng = SimRng::from_seed(1);
//! assert!(faults.is_dead(LinkId::new(3)));
//! assert!(!faults.is_dead(LinkId::new(4)));
//! let _hit = faults.corrupts_flit(&mut rng);
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]

mod churn;

pub use churn::{region_links, ChurnEntry, ChurnEvent, ChurnParseError, ChurnSchedule};

use cr_sim::{Cycle, LinkId, NodeId, SimRng};
use cr_topology::{LinkDesc, Topology};
use std::collections::BTreeSet;

/// Fault injection model: permanent dead links plus a transient
/// per-flit-hop corruption process.
///
/// The model is deliberately memoryless (each flit-hop is an independent
/// Bernoulli trial) — the same assumption the paper makes when sweeping
/// "a range of fault rates".
#[derive(Debug, Clone, Default)]
pub struct FaultModel {
    transient_rate: f64,
    detection_miss_rate: f64,
    // BTreeSet so `dead_links()` iterates in a defined order — the
    // experiment harness may fold this into reported output (cr-lint
    // `hash-collections`).
    dead_links: BTreeSet<LinkId>,
    // The same set as a `LinkId`-indexed bitmap, for the per-flit
    // `is_dead`: bit `id % 64` of word `id / 64`, grown on demand
    // (ids past the end are alive). Written only by `mark_dead` /
    // `mark_alive`, which keep it equal to `dead_links`.
    dead_bits: Vec<u64>,
    // Online fault timeline: entries fire at cycle boundaries, in
    // order, advancing `churn_cursor`. Empty for static fault plans.
    churn: ChurnSchedule,
    churn_cursor: usize,
}

/// The observable effect of one fired [`ChurnEntry`]: which channels
/// actually changed state, in ascending link-id order.
///
/// No-op transitions (killing a dead link, reviving a live one) are
/// filtered out, so consumers can treat `killed`/`revived` as real
/// edges of the fault state.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChurnFiring {
    /// Index of the entry within the schedule (stable event identity
    /// for reports).
    pub index: usize,
    /// Cycle at which the entry was scheduled (== the cycle it fired;
    /// the stepper never skips a due entry).
    pub at: Cycle,
    /// The scheduled event.
    pub event: ChurnEvent,
    /// Channels that transitioned alive → dead.
    pub killed: Vec<LinkId>,
    /// Channels that transitioned dead → alive.
    pub revived: Vec<LinkId>,
}

/// Word index and bit mask of `link` in [`FaultModel`]'s dead-link
/// bitmap.
fn dead_bit(link: LinkId) -> (usize, u64) {
    (link.index() / 64, 1 << (link.index() % 64))
}

impl FaultModel {
    /// Creates a fault-free model (no dead links, zero transient rate).
    pub fn new() -> Self {
        FaultModel::default()
    }

    /// Adds `link` to the dead set; `true` if it was alive.
    fn mark_dead(&mut self, link: LinkId) -> bool {
        let (word, bit) = dead_bit(link);
        if word >= self.dead_bits.len() {
            self.dead_bits.resize(word + 1, 0);
        }
        self.dead_bits[word] |= bit;
        self.dead_links.insert(link)
    }

    /// Removes `link` from the dead set; `true` if it was dead.
    fn mark_alive(&mut self, link: LinkId) -> bool {
        let (word, bit) = dead_bit(link);
        if let Some(word) = self.dead_bits.get_mut(word) {
            *word &= !bit;
        }
        self.dead_links.remove(&link)
    }

    /// Sets the probability that any given flit is corrupted while
    /// traversing any given (healthy) link.
    ///
    /// # Panics
    ///
    /// Panics if `rate` is not in `[0.0, 1.0]`.
    pub fn set_transient_rate(&mut self, rate: f64) -> &mut Self {
        assert!((0.0..=1.0).contains(&rate), "rate {rate} out of range");
        self.transient_rate = rate;
        self
    }

    /// Returns the transient corruption rate.
    pub fn transient_rate(&self) -> f64 {
        self.transient_rate
    }

    /// Sets the probability that a corrupted flit escapes detection at
    /// the next router.
    ///
    /// The default of `0.0` models a perfect error-detecting code;
    /// raising it deliberately breaks FCR's integrity guarantee, which
    /// the test-suite uses as a negative control.
    ///
    /// # Panics
    ///
    /// Panics if `rate` is not in `[0.0, 1.0]`.
    pub fn set_detection_miss_rate(&mut self, rate: f64) -> &mut Self {
        assert!((0.0..=1.0).contains(&rate), "rate {rate} out of range");
        self.detection_miss_rate = rate;
        self
    }

    /// Returns the detection miss rate.
    pub fn detection_miss_rate(&self) -> f64 {
        self.detection_miss_rate
    }

    /// Marks a link permanently dead. Flits routed onto a dead link are
    /// lost; the upstream worm stalls and recovery is up to the routing
    /// protocol.
    pub fn kill_link(&mut self, link: LinkId) -> &mut Self {
        self.mark_dead(link);
        self
    }

    /// Heals a dead link. Returns `true` if the link was dead (i.e.
    /// this call changed the fault state).
    pub fn revive_link(&mut self, link: LinkId) -> bool {
        self.mark_alive(link)
    }

    /// Marks every channel touching `node` dead, simulating a failed
    /// router, and returns the links this call actually killed (those
    /// that were alive), in ascending id order — the rollback handle a
    /// caller needs to undo exactly this kill and nothing else.
    ///
    /// No connectivity check is performed: killing a node always
    /// disconnects it from the fabric. Use
    /// [`FaultModel::kill_node_connected`] when the *surviving* nodes
    /// must remain strongly connected.
    pub fn kill_node(&mut self, topology: &dyn Topology, node: NodeId) -> Vec<LinkId> {
        let mut killed = Vec::new();
        for l in topology.links() {
            if (l.src == node || l.dst == node) && self.mark_dead(l.id) {
                killed.push(l.id);
            }
        }
        killed.sort();
        killed
    }

    /// Like [`FaultModel::kill_node`], but rejects (and rolls back)
    /// the kill if the surviving nodes would no longer be strongly
    /// connected among themselves — so a churn plan cannot silently
    /// partition the live part of the network.
    ///
    /// # Errors
    ///
    /// Returns [`FaultPlanError::WouldPartition`] if removing `node`'s
    /// channels (on top of the already-dead set) disconnects the
    /// remaining nodes; the dead-link set is left exactly as it was.
    pub fn kill_node_connected(
        &mut self,
        topology: &dyn Topology,
        node: NodeId,
    ) -> Result<Vec<LinkId>, FaultPlanError> {
        let killed = self.kill_node(topology, node);
        if strongly_connected_excluding(topology, &self.dead_links, &[node]) {
            Ok(killed)
        } else {
            for l in &killed {
                self.mark_alive(*l);
            }
            Err(FaultPlanError::WouldPartition { node })
        }
    }

    /// Heals every channel touching `node` — a full router
    /// replacement. Returns the links this call actually revived
    /// (those that were dead), in ascending id order. Channels killed
    /// independently of the node are healed too.
    pub fn revive_node(&mut self, topology: &dyn Topology, node: NodeId) -> Vec<LinkId> {
        let mut revived = Vec::new();
        for l in topology.links() {
            if (l.src == node || l.dst == node) && self.mark_alive(l.id) {
                revived.push(l.id);
            }
        }
        revived.sort();
        revived
    }

    /// Returns `true` if `link` is permanently dead.
    pub fn is_dead(&self, link: LinkId) -> bool {
        let (word, bit) = dead_bit(link);
        self.dead_bits.get(word).is_some_and(|w| w & bit != 0)
    }

    /// Number of permanently dead links.
    pub fn num_dead_links(&self) -> usize {
        self.dead_links.len()
    }

    /// Iterates over the dead links.
    pub fn dead_links(&self) -> impl Iterator<Item = LinkId> + '_ {
        self.dead_links.iter().copied()
    }

    /// Returns `true` if there are no permanent faults and the
    /// transient rate is zero *right now*.
    ///
    /// Under a churn schedule this can flip from cycle to cycle, so it
    /// is only safe for per-cycle decisions. Whole-run fast
    /// paths — anything decided once and never revisited, like
    /// skipping fault RNG for an entire run — must use
    /// [`FaultModel::will_stay_fault_free`] instead.
    pub fn is_fault_free_now(&self) -> bool {
        self.dead_links.is_empty() && self.transient_rate == 0.0
    }

    /// Returns `true` if the model is fault-free now **and** no
    /// scheduled churn event remains that could change that — the only
    /// predicate strong enough to justify whole-run shortcuts.
    pub fn will_stay_fault_free(&self) -> bool {
        self.is_fault_free_now() && self.churn_cursor >= self.churn.len()
    }

    /// Installs an online fault timeline. The schedule is applied by
    /// the network at cycle boundaries via
    /// [`FaultModel::apply_churn_due`]; generator events should be
    /// expanded first ([`FaultModel::expand_churn`]).
    pub fn set_churn(&mut self, schedule: ChurnSchedule) -> &mut Self {
        self.churn = schedule;
        self.churn_cursor = 0;
        self
    }

    /// The installed churn timeline (empty by default).
    pub fn churn(&self) -> &ChurnSchedule {
        &self.churn
    }

    /// Replaces generator events (regional outages) in the installed
    /// schedule with the primitive kill/revive entries they stand for,
    /// now that a topology is known. Resets the cursor; call before
    /// the run starts (the network does this at assembly).
    pub fn expand_churn(&mut self, topology: &dyn Topology) {
        self.churn = self.churn.expanded(topology);
        self.churn_cursor = 0;
    }

    /// The cycle of the next unfired churn entry, if any — the wake
    /// source that keeps fast-forward from sleeping past a mid-idle
    /// kill.
    pub fn next_churn_at(&self) -> Option<Cycle> {
        self.churn.entries().get(self.churn_cursor).map(|e| e.at)
    }

    /// Fires every churn entry due at or before `now`, mutating the
    /// dead-link set and appending one [`ChurnFiring`] per entry
    /// (including no-op firings, whose `killed`/`revived` are empty).
    ///
    /// Generator events that survived un-expanded apply their kill
    /// wave immediately and log it in `killed`; the revive wave is
    /// lost, which is why the network expands schedules up front.
    pub fn apply_churn_due(
        &mut self,
        topology: &dyn Topology,
        now: Cycle,
        out: &mut Vec<ChurnFiring>,
    ) {
        while let Some(entry) = self.churn.entries().get(self.churn_cursor) {
            if entry.at > now {
                break;
            }
            let entry = *entry;
            let index = self.churn_cursor;
            self.churn_cursor += 1;
            let mut firing = ChurnFiring {
                index,
                at: entry.at,
                event: entry.event,
                killed: Vec::new(),
                revived: Vec::new(),
            };
            match entry.event {
                ChurnEvent::KillLink { link } => {
                    if self.mark_dead(link) {
                        firing.killed.push(link);
                    }
                }
                ChurnEvent::ReviveLink { link } => {
                    if self.mark_alive(link) {
                        firing.revived.push(link);
                    }
                }
                ChurnEvent::KillNode { node } => {
                    firing.killed = self.kill_node(topology, node);
                }
                ChurnEvent::ReviveNode { node } => {
                    firing.revived = self.revive_node(topology, node);
                }
                ChurnEvent::RegionalOutage { center, radius, .. } => {
                    debug_assert!(false, "regional outage not expanded before the run");
                    for link in region_links(topology, center, radius) {
                        if self.mark_dead(link) {
                            firing.killed.push(link);
                        }
                    }
                }
            }
            out.push(firing);
        }
    }

    /// Samples whether a flit traversing a healthy link is corrupted.
    pub fn corrupts_flit(&self, rng: &mut SimRng) -> bool {
        self.transient_rate > 0.0 && rng.chance(self.transient_rate)
    }

    /// Samples whether a router *detects* a corrupted flit.
    pub fn detects_corruption(&self, rng: &mut SimRng) -> bool {
        self.detection_miss_rate == 0.0 || !rng.chance(self.detection_miss_rate)
    }

    /// Kills `count` random links while keeping the network strongly
    /// connected (so every message still has some path).
    ///
    /// Candidate links are drawn uniformly; a candidate whose removal
    /// would disconnect the network is rejected and redrawn. Only
    /// those *connectivity* rejections count against the attempt
    /// budget — redrawing a link that is already dead is free (on a
    /// mostly-dead topology almost every draw lands on a dead link,
    /// and charging for them used to abort plans that were easily
    /// satisfiable).
    ///
    /// Strong connectivity is checked in full once, on entry. While it
    /// holds, killing `u -> v` keeps it exactly when `v` is still
    /// reachable from `u` over live links (every path through the
    /// killed link detours along that one), which one early-exit
    /// search answers; a fabric that was not strongly connected on
    /// entry stays so whatever is removed, so every candidate is
    /// rejected unsearched.
    ///
    /// # Errors
    ///
    /// Returns [`FaultPlanError::TooManyFaults`] if fewer than `count`
    /// live links exist, if `100 * count` candidates were rejected for
    /// disconnecting the network, or if the (much larger) total-redraw
    /// bound is hit before the plan completes.
    pub fn kill_random_links_connected(
        &mut self,
        topology: &dyn Topology,
        count: usize,
        rng: &mut SimRng,
    ) -> Result<Vec<LinkId>, FaultPlanError> {
        let all = topology.links();
        let alive = all.iter().filter(|l| !self.is_dead(l.id)).count();
        if count > alive {
            return Err(FaultPlanError::TooManyFaults { requested: count });
        }
        let connected = strongly_connected(topology, &self.dead_links);
        let mut detours = Detours::new(topology.num_nodes(), &all);
        let mut killed = Vec::with_capacity(count);
        let mut rejections = 0usize;
        let max_rejections = 100 * count.max(1);
        // Backstop on total draws so a pathological pool (nearly all
        // dead, survivors uncuttable) still terminates. Generous
        // enough that it never fires on satisfiable plans.
        let mut draws = 0usize;
        let max_draws = max_rejections + 1_000 * all.len().max(1);
        while killed.len() < count {
            draws += 1;
            if draws > max_draws {
                for l in &killed {
                    self.mark_alive(*l);
                }
                return Err(FaultPlanError::TooManyFaults { requested: count });
            }
            // `pick_index` is `None` only on an empty link set, which
            // the caller can handle like any other unsatisfiable plan.
            let Some(pick) = rng.pick_index(all.len()) else {
                return Err(FaultPlanError::EmptyNetwork);
            };
            let candidate = &all[pick];
            if self.is_dead(candidate.id) {
                continue;
            }
            self.mark_dead(candidate.id);
            if connected && detours.reaches(self, candidate.src.index(), candidate.dst.index()) {
                killed.push(candidate.id);
            } else {
                self.mark_alive(candidate.id);
                rejections += 1;
                if rejections > max_rejections {
                    // Roll back everything we added in this call.
                    for l in &killed {
                        self.mark_alive(*l);
                    }
                    return Err(FaultPlanError::TooManyFaults { requested: count });
                }
            }
        }
        Ok(killed)
    }
}

/// Reachability over a fabric's live links, for repeated point-to-point
/// queries against one [`FaultModel`] as its dead set changes: the
/// out-adjacency is built once, each query is a breadth-first search
/// that stops at its target and costs only the nodes it visited.
struct Detours {
    /// `out[u]` = (head node, link id) of every link leaving `u`.
    out: Vec<Vec<(usize, LinkId)>>,
    seen: Vec<bool>,
    /// Search frontier; doubles as the list of nodes to un-mark.
    queue: Vec<usize>,
}

impl Detours {
    fn new(num_nodes: usize, links: &[LinkDesc]) -> Self {
        let mut out = vec![Vec::new(); num_nodes];
        for l in links {
            out[l.src.index()].push((l.dst.index(), l.id));
        }
        Detours {
            out,
            seen: vec![false; num_nodes],
            queue: Vec::new(),
        }
    }

    /// Whether `to` can be reached from `from` over links `faults`
    /// holds alive.
    fn reaches(&mut self, faults: &FaultModel, from: usize, to: usize) -> bool {
        if from == to {
            return true;
        }
        self.queue.clear();
        self.queue.push(from);
        self.seen[from] = true;
        let mut found = false;
        let mut head = 0;
        'search: while head < self.queue.len() {
            let u = self.queue[head];
            head += 1;
            for &(v, id) in &self.out[u] {
                if self.seen[v] || faults.is_dead(id) {
                    continue;
                }
                if v == to {
                    found = true;
                    break 'search;
                }
                self.seen[v] = true;
                self.queue.push(v);
            }
        }
        for &v in &self.queue {
            self.seen[v] = false;
        }
        found
    }
}

/// Error building a fault plan.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultPlanError {
    /// The requested number of dead links could not be placed without
    /// disconnecting the network.
    TooManyFaults {
        /// How many dead links were requested.
        requested: usize,
    },
    /// The topology has no links at all to draw candidates from.
    EmptyNetwork,
    /// Killing this node would disconnect the surviving nodes from
    /// each other (see [`FaultModel::kill_node_connected`]).
    WouldPartition {
        /// The node whose kill was rejected.
        node: NodeId,
    },
}

impl std::fmt::Display for FaultPlanError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FaultPlanError::TooManyFaults { requested } => write!(
                f,
                "could not place {requested} dead links without disconnecting the network"
            ),
            FaultPlanError::EmptyNetwork => {
                write!(f, "the topology has no links to kill")
            }
            FaultPlanError::WouldPartition { node } => write!(
                f,
                "killing node {node} would disconnect the surviving nodes"
            ),
        }
    }
}

impl std::error::Error for FaultPlanError {}

/// Returns `true` if the network remains strongly connected when the
/// links in `dead` are removed.
pub fn strongly_connected(topology: &dyn Topology, dead: &BTreeSet<LinkId>) -> bool {
    strongly_connected_excluding(topology, dead, &[])
}

/// Returns `true` if the nodes *not* listed in `excluded` remain
/// strongly connected among themselves when the links in `dead` are
/// removed.
///
/// This is the right connectivity question for node kills: the killed
/// node is disconnected by definition, so plain
/// [`strongly_connected`] always answers `false`; what matters is
/// whether the survivors can still reach each other.
pub fn strongly_connected_excluding(
    topology: &dyn Topology,
    dead: &BTreeSet<LinkId>,
    excluded: &[NodeId],
) -> bool {
    let n = topology.num_nodes();
    let mut alive = vec![true; n];
    for x in excluded {
        if x.index() < n {
            alive[x.index()] = false;
        }
    }
    let live_count = alive.iter().filter(|a| **a).count();
    if live_count <= 1 {
        return true;
    }
    // Build the surviving adjacency once, skipping excluded endpoints.
    let mut adj: Vec<Vec<usize>> = vec![Vec::new(); n];
    let mut radj: Vec<Vec<usize>> = vec![Vec::new(); n];
    for l in topology.links() {
        if !dead.contains(&l.id) && alive[l.src.index()] && alive[l.dst.index()] {
            adj[l.src.index()].push(l.dst.index());
            radj[l.dst.index()].push(l.src.index());
        }
    }
    // The lowest live node must reach every live node in both the
    // graph and its reverse.
    let Some(root) = alive.iter().position(|a| *a) else {
        return true;
    };
    let full_bfs = |g: &Vec<Vec<usize>>| {
        let mut seen = vec![false; n];
        let mut stack = vec![root];
        seen[root] = true;
        let mut count = 1;
        while let Some(u) = stack.pop() {
            for &v in &g[u] {
                if !seen[v] {
                    seen[v] = true;
                    count += 1;
                    stack.push(v);
                }
            }
        }
        count == live_count
    };
    full_bfs(&adj) && full_bfs(&radj)
}

#[cfg(test)]
mod tests {
    use super::*;
    use cr_topology::KAryNCube;

    #[test]
    fn default_is_fault_free() {
        let f = FaultModel::new();
        assert!(f.is_fault_free_now());
        assert!(f.will_stay_fault_free());
        assert_eq!(f.num_dead_links(), 0);
        let mut rng = SimRng::from_seed(0);
        assert!(!f.corrupts_flit(&mut rng));
        assert!(f.detects_corruption(&mut rng));
    }

    #[test]
    fn dead_links_tracked() {
        let mut f = FaultModel::new();
        f.kill_link(LinkId::new(5)).kill_link(LinkId::new(9));
        assert!(f.is_dead(LinkId::new(5)));
        assert!(!f.is_dead(LinkId::new(6)));
        assert_eq!(f.num_dead_links(), 2);
        assert!(!f.is_fault_free_now());
        let mut dead: Vec<LinkId> = f.dead_links().collect();
        dead.sort();
        assert_eq!(dead, vec![LinkId::new(5), LinkId::new(9)]);
        assert!(f.revive_link(LinkId::new(5)));
        assert!(!f.revive_link(LinkId::new(5))); // already alive
        assert_eq!(f.num_dead_links(), 1);
    }

    #[test]
    fn kill_node_severs_all_its_channels_and_returns_them() {
        let t = KAryNCube::torus(4, 2);
        let mut f = FaultModel::new();
        let killed = f.kill_node(&t, NodeId::new(0));
        // A torus node has 4 outgoing and 4 incoming channels.
        assert_eq!(killed.len(), 8);
        assert_eq!(f.num_dead_links(), 8);
        // Network without node 0's channels is still connected among
        // the others... but strongly_connected checks node 0 too, so it
        // reports false; the excluding variant asks the right question.
        assert!(!strongly_connected(&t, &f.dead_links.clone()));
        assert!(strongly_connected_excluding(
            &t,
            &f.dead_links.clone(),
            &[NodeId::new(0)]
        ));
        // The returned handle rolls back exactly this kill.
        for l in &killed {
            f.revive_link(*l);
        }
        assert_eq!(f.num_dead_links(), 0);
    }

    #[test]
    fn kill_node_returns_only_newly_killed_links() {
        // A pre-dead link touching the node is not double-reported, so
        // rolling back the node kill cannot resurrect it.
        let t = KAryNCube::torus(4, 2);
        let pre = t.links()[0];
        assert_eq!(pre.src, NodeId::new(0));
        let mut f = FaultModel::new();
        f.kill_link(pre.id);
        let killed = f.kill_node(&t, NodeId::new(0));
        assert_eq!(killed.len(), 7);
        assert!(!killed.contains(&pre.id));
        for l in &killed {
            f.revive_link(*l);
        }
        assert_eq!(f.num_dead_links(), 1);
        assert!(f.is_dead(pre.id));
    }

    #[test]
    fn kill_node_connected_accepts_and_rejects() {
        // On a 4x4 torus the survivors stay connected after one node
        // kill, so the checked variant accepts it.
        let t = KAryNCube::torus(4, 2);
        let mut f = FaultModel::new();
        let killed = f.kill_node_connected(&t, NodeId::new(5)).unwrap();
        assert_eq!(killed.len(), 8);
        // On a 3-node path, the middle node is a cut vertex: killing
        // it strands nodes 0 and 2 from each other.
        use cr_topology::GraphTopology;
        let path =
            GraphTopology::from_edges(3, &[(0, 1), (1, 0), (1, 2), (2, 1)]).unwrap();
        let mut g = FaultModel::new();
        let err = g.kill_node_connected(&path, NodeId::new(1)).unwrap_err();
        assert_eq!(
            err,
            FaultPlanError::WouldPartition {
                node: NodeId::new(1)
            }
        );
        // Rejection rolled back cleanly.
        assert_eq!(g.num_dead_links(), 0);
        // Killing a leaf is fine: the survivors {1, 2} stay connected.
        let killed = g.kill_node_connected(&path, NodeId::new(0)).unwrap();
        assert_eq!(killed.len(), 2);
    }

    #[test]
    fn revive_node_heals_independent_kills_too() {
        let t = KAryNCube::torus(4, 2);
        let mut f = FaultModel::new();
        let pre = t.links()[0];
        f.kill_link(pre.id); // independent kill touching node 0
        f.kill_node(&t, NodeId::new(0));
        let revived = f.revive_node(&t, NodeId::new(0));
        assert_eq!(revived.len(), 8); // includes the independent kill
        assert!(revived.contains(&pre.id));
        assert_eq!(f.num_dead_links(), 0);
    }

    #[test]
    fn will_stay_fault_free_sees_pending_churn() {
        let t = KAryNCube::torus(4, 2);
        let mut f = FaultModel::new();
        let mut plan = ChurnSchedule::new();
        let victim = t.links()[3].id;
        plan.kill_link(Cycle::new(10), victim)
            .revive_link(Cycle::new(20), victim);
        f.set_churn(plan);
        // Fault-free now, but a kill is scheduled.
        assert!(f.is_fault_free_now());
        assert!(!f.will_stay_fault_free());

        let mut firings = Vec::new();
        f.apply_churn_due(&t, Cycle::new(9), &mut firings);
        assert!(firings.is_empty());
        f.apply_churn_due(&t, Cycle::new(10), &mut firings);
        assert_eq!(firings.len(), 1);
        assert_eq!(firings[0].killed, vec![victim]);
        assert!(f.is_dead(victim));
        assert!(!f.is_fault_free_now());
        assert_eq!(f.next_churn_at(), Some(Cycle::new(20)));

        // Jumping past the revive still fires it (exactly once).
        firings.clear();
        f.apply_churn_due(&t, Cycle::new(500), &mut firings);
        assert_eq!(firings.len(), 1);
        assert_eq!(firings[0].revived, vec![victim]);
        assert!(f.is_fault_free_now());
        assert!(f.will_stay_fault_free());
        assert_eq!(f.next_churn_at(), None);
    }

    #[test]
    fn churn_noop_transitions_are_filtered() {
        let t = KAryNCube::torus(4, 2);
        let victim = t.links()[0].id;
        let mut f = FaultModel::new();
        f.kill_link(victim); // dead before the schedule starts
        let mut plan = ChurnSchedule::new();
        plan.kill_link(Cycle::new(5), victim) // no-op: already dead
            .revive_link(Cycle::new(6), victim)
            .revive_link(Cycle::new(7), victim); // no-op: already alive
        f.set_churn(plan);
        let mut firings = Vec::new();
        f.apply_churn_due(&t, Cycle::new(100), &mut firings);
        assert_eq!(firings.len(), 3);
        assert!(firings[0].killed.is_empty() && firings[0].revived.is_empty());
        assert_eq!(firings[1].revived, vec![victim]);
        assert!(firings[2].killed.is_empty() && firings[2].revived.is_empty());
    }

    #[test]
    fn transient_rate_calibration() {
        let mut f = FaultModel::new();
        f.set_transient_rate(0.1);
        let mut rng = SimRng::from_seed(42);
        let n = 50_000;
        let hits = (0..n).filter(|_| f.corrupts_flit(&mut rng)).count();
        let frac = hits as f64 / n as f64;
        assert!((frac - 0.1).abs() < 0.01, "frac = {frac}");
    }

    #[test]
    fn detection_miss_rate_calibration() {
        let mut f = FaultModel::new();
        f.set_detection_miss_rate(0.5);
        let mut rng = SimRng::from_seed(43);
        let n = 20_000;
        let detected = (0..n).filter(|_| f.detects_corruption(&mut rng)).count();
        let frac = detected as f64 / n as f64;
        assert!((frac - 0.5).abs() < 0.02, "frac = {frac}");
    }

    #[test]
    #[should_panic]
    fn bad_rate_rejected() {
        FaultModel::new().set_transient_rate(1.5);
    }

    #[test]
    fn connectivity_detects_cuts() {
        // A 2-node ring: killing one direction breaks strong
        // connectivity.
        let t = KAryNCube::torus(2, 1);
        assert!(strongly_connected(&t, &BTreeSet::new()));
        let l = t.links()[0].id;
        let dead: BTreeSet<LinkId> = [l].into_iter().collect();
        // radix-2 torus has parallel wrap channels, so one cut may not
        // disconnect; kill all channels leaving node 0 instead.
        let mut all_out: BTreeSet<LinkId> = BTreeSet::new();
        for link in t.links() {
            if link.src == NodeId::new(0) {
                all_out.insert(link.id);
            }
        }
        assert!(!strongly_connected(&t, &all_out));
        let _ = dead;
    }

    #[test]
    fn random_kill_preserves_connectivity() {
        let t = KAryNCube::torus(4, 2);
        let mut f = FaultModel::new();
        let mut rng = SimRng::from_seed(7);
        let killed = f.kill_random_links_connected(&t, 10, &mut rng).unwrap();
        assert_eq!(killed.len(), 10);
        assert_eq!(f.num_dead_links(), 10);
        assert!(strongly_connected(&t, &f.dead_links.clone()));
    }

    #[test]
    fn random_kill_rejects_impossible_requests() {
        // A 3-node unidirectional-ring-like graph cannot lose any link.
        use cr_topology::GraphTopology;
        let g = GraphTopology::from_edges(3, &[(0, 1), (1, 2), (2, 0)]).unwrap();
        let mut f = FaultModel::new();
        let mut rng = SimRng::from_seed(1);
        let err = f.kill_random_links_connected(&g, 1, &mut rng).unwrap_err();
        assert_eq!(err, FaultPlanError::TooManyFaults { requested: 1 });
        // Roll-back happened.
        assert_eq!(f.num_dead_links(), 0);
    }

    #[test]
    fn random_kill_succeeds_on_mostly_dead_topology() {
        // Regression: redraws of already-dead links used to count
        // against the 100-per-kill attempt budget, so a pool that is
        // ~98% dead exhausted it before ever sampling a live link.
        //
        // 100-node complete digraph (9900 links); everything except
        // the bidirectional ring is pre-killed, so 200 links (2%) are
        // alive and any single one of them is safe to kill (the
        // opposite direction keeps the ring strongly connected). With
        // seed 4 the first live-link draw is draw #114 — past the old
        // budget of 100 for a one-kill plan, comfortably inside the
        // new (rejection-only) accounting.
        use cr_topology::GraphTopology;
        let n = 100usize;
        let mut edges = Vec::new();
        for i in 0..n {
            for j in 0..n {
                if i != j {
                    edges.push((i, j));
                }
            }
        }
        let g = GraphTopology::from_edges(n, &edges).unwrap();
        let ring: BTreeSet<(usize, usize)> = (0..n)
            .flat_map(|i| [(i, (i + 1) % n), ((i + 1) % n, i)])
            .collect();
        let mut f = FaultModel::new();
        for l in g.links() {
            if !ring.contains(&(l.src.index(), l.dst.index())) {
                f.kill_link(l.id);
            }
        }
        let pre_dead = f.num_dead_links();
        assert_eq!(pre_dead, 9900 - 200);

        let mut rng = SimRng::from_seed(4);
        let killed = f.kill_random_links_connected(&g, 1, &mut rng).unwrap();
        assert_eq!(killed.len(), 1);
        assert_eq!(f.num_dead_links(), pre_dead + 1);
        assert!(strongly_connected(&g, &f.dead_links.clone()));
    }

    #[test]
    fn random_kill_errors_fast_when_too_few_links_survive() {
        // Requesting more kills than there are live links fails
        // immediately instead of spinning through redraws.
        let t = KAryNCube::torus(4, 2);
        let mut f = FaultModel::new();
        for l in t.links() {
            f.kill_link(l.id);
        }
        let mut rng = SimRng::from_seed(2);
        let err = f.kill_random_links_connected(&t, 1, &mut rng).unwrap_err();
        assert_eq!(err, FaultPlanError::TooManyFaults { requested: 1 });
    }

    #[test]
    fn random_kill_is_deterministic_per_seed() {
        let t = KAryNCube::torus(4, 2);
        let mut f1 = FaultModel::new();
        let mut f2 = FaultModel::new();
        let k1 = f1
            .kill_random_links_connected(&t, 5, &mut SimRng::from_seed(99))
            .unwrap();
        let k2 = f2
            .kill_random_links_connected(&t, 5, &mut SimRng::from_seed(99))
            .unwrap();
        assert_eq!(k1, k2);
    }
}
