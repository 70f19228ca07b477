//! Online fault churn: a deterministic, serializable timeline of
//! kill/revive events applied at cycle boundaries while traffic is in
//! flight.
//!
//! The paper's "nonstop" claim (§6.2) is about networks that keep
//! delivering *while* the fabric changes. A [`ChurnSchedule`] is the
//! plan for such a run: an ordered list of [`ChurnEvent`]s, each
//! stamped with the cycle at which it fires. The network applies due
//! events at the top of every cycle — before arrivals — so both
//! drivers (reference and active-set) observe the exact same fault
//! state for the whole cycle and stay byte-identical.
//!
//! Two event classes exist:
//!
//! * **Primitive** events (`KillLink`, `ReviveLink`, `KillNode`,
//!   `ReviveNode`) mutate the dead-link set directly when they fire.
//! * **Generator** events (`RegionalOutage`) stand for a *pair* of
//!   future changes (a kill wave now, a revive wave `down_for` cycles
//!   later). They are expanded into primitive entries by
//!   [`ChurnSchedule::expanded`] once the topology is known — the
//!   network does this at assembly, so plan files stay
//!   topology-independent.
//!
//! Schedules serialize to the JSON shape consumed by the `--churn
//! <plan.json>` runner flag (see EXPERIMENTS.md):
//!
//! ```json
//! {"events": [
//!   {"at": 100, "kind": "kill_link", "link": 5},
//!   {"at": 400, "kind": "revive_link", "link": 5},
//!   {"at": 600, "kind": "kill_node", "node": 7},
//!   {"at": 900, "kind": "revive_node", "node": 7},
//!   {"at": 1200, "kind": "regional_outage", "center": 12, "radius": 1, "down_for": 300}
//! ]}
//! ```

use cr_sim::{Cycle, Json, LinkId, NodeId, SimRng};
use cr_topology::Topology;

/// One fault-state change (or generator thereof) in a churn timeline.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChurnEvent {
    /// Marks one channel dead (no-op if it is already dead).
    KillLink {
        /// The channel to kill.
        link: LinkId,
    },
    /// Heals one channel (no-op if it is alive).
    ReviveLink {
        /// The channel to revive.
        link: LinkId,
    },
    /// Kills every channel touching `node`, simulating a failed
    /// router.
    KillNode {
        /// The router that fails.
        node: NodeId,
    },
    /// Heals every channel touching `node` — a full router
    /// replacement. Channels that were killed independently of the
    /// node are healed too; see DESIGN.md §13.
    ReviveNode {
        /// The router that comes back.
        node: NodeId,
    },
    /// A bursty regional outage: every channel touching a node within
    /// `radius` hops of `center` dies when the event fires and is
    /// revived `down_for` cycles later.
    ///
    /// This is a *generator*: [`ChurnSchedule::expanded`] rewrites it
    /// into primitive kill/revive entries once a topology is
    /// available.
    RegionalOutage {
        /// Epicenter of the outage.
        center: NodeId,
        /// Hop radius of the affected region (0 = just the center).
        radius: u32,
        /// Cycles until the region is revived.
        down_for: u64,
    },
}

impl ChurnEvent {
    /// Stable string tag used in JSON and reports.
    pub fn kind(&self) -> &'static str {
        match self {
            ChurnEvent::KillLink { .. } => "kill_link",
            ChurnEvent::ReviveLink { .. } => "revive_link",
            ChurnEvent::KillNode { .. } => "kill_node",
            ChurnEvent::ReviveNode { .. } => "revive_node",
            ChurnEvent::RegionalOutage { .. } => "regional_outage",
        }
    }

    /// The raw id of the event's subject (link, node, or outage
    /// center), for compact reporting.
    pub fn subject(&self) -> u64 {
        match self {
            ChurnEvent::KillLink { link } | ChurnEvent::ReviveLink { link } => {
                link.as_u32() as u64
            }
            ChurnEvent::KillNode { node }
            | ChurnEvent::ReviveNode { node }
            | ChurnEvent::RegionalOutage { center: node, .. } => node.as_u32() as u64,
        }
    }
}

/// A [`ChurnEvent`] stamped with the cycle at which it fires.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChurnEntry {
    /// Cycle boundary at which the event applies (the network sees the
    /// new fault state for the whole of cycle `at`).
    pub at: Cycle,
    /// The change itself.
    pub event: ChurnEvent,
}

/// Error parsing a churn plan from JSON.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChurnParseError(String);

impl std::fmt::Display for ChurnParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "bad churn plan: {}", self.0)
    }
}

impl std::error::Error for ChurnParseError {}

/// A deterministic timeline of fault events, kept sorted by cycle.
///
/// Entries with equal `at` fire in insertion order, so a plan is fully
/// determined by its construction sequence (and therefore by its JSON
/// serialization, which preserves that order).
///
/// # Examples
///
/// ```
/// use cr_faults::{ChurnEvent, ChurnSchedule};
/// use cr_sim::{Cycle, LinkId};
///
/// let mut plan = ChurnSchedule::new();
/// plan.kill_link(Cycle::new(100), LinkId::new(5))
///     .revive_link(Cycle::new(400), LinkId::new(5));
/// assert_eq!(plan.len(), 2);
/// let json = plan.to_json();
/// let back = ChurnSchedule::from_json(&json).unwrap();
/// assert_eq!(plan, back);
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ChurnSchedule {
    entries: Vec<ChurnEntry>,
}

impl ChurnSchedule {
    /// Creates an empty schedule (no churn — static faults only).
    pub fn new() -> Self {
        ChurnSchedule::default()
    }

    /// Number of scheduled entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Returns `true` if no events are scheduled.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The entries in firing order.
    pub fn entries(&self) -> &[ChurnEntry] {
        &self.entries
    }

    /// Schedules `event` at cycle `at`, keeping the timeline sorted.
    /// Among equal-`at` entries the earlier insertion fires first.
    pub fn push(&mut self, at: Cycle, event: ChurnEvent) -> &mut Self {
        let pos = self.entries.partition_point(|e| e.at <= at);
        self.entries.insert(pos, ChurnEntry { at, event });
        self
    }

    /// Convenience: schedules a [`ChurnEvent::KillLink`].
    pub fn kill_link(&mut self, at: Cycle, link: LinkId) -> &mut Self {
        self.push(at, ChurnEvent::KillLink { link })
    }

    /// Convenience: schedules a [`ChurnEvent::ReviveLink`].
    pub fn revive_link(&mut self, at: Cycle, link: LinkId) -> &mut Self {
        self.push(at, ChurnEvent::ReviveLink { link })
    }

    /// Convenience: schedules a [`ChurnEvent::KillNode`].
    pub fn kill_node(&mut self, at: Cycle, node: NodeId) -> &mut Self {
        self.push(at, ChurnEvent::KillNode { node })
    }

    /// Convenience: schedules a [`ChurnEvent::ReviveNode`].
    pub fn revive_node(&mut self, at: Cycle, node: NodeId) -> &mut Self {
        self.push(at, ChurnEvent::ReviveNode { node })
    }

    /// Convenience: schedules a [`ChurnEvent::RegionalOutage`].
    pub fn regional_outage(
        &mut self,
        at: Cycle,
        center: NodeId,
        radius: u32,
        down_for: u64,
    ) -> &mut Self {
        self.push(
            at,
            ChurnEvent::RegionalOutage {
                center,
                radius,
                down_for,
            },
        )
    }

    /// Seeded storm generator: schedules `outages` regional outages
    /// with uniformly drawn epicenters, radii in `0..=max_radius`,
    /// start cycles in `[window_start, window_end)` and down times in
    /// `[min_down, max_down]`. Deterministic per RNG state.
    pub fn random_regional_outages(
        &mut self,
        topology: &dyn Topology,
        outages: usize,
        window_start: Cycle,
        window_end: Cycle,
        max_radius: u32,
        min_down: u64,
        max_down: u64,
        rng: &mut SimRng,
    ) -> &mut Self {
        let nodes = topology.num_nodes();
        let span = window_end.saturating_since(window_start).max(1);
        let down_span = max_down.saturating_sub(min_down) + 1;
        for _ in 0..outages {
            let Some(center) = rng.pick_index(nodes) else {
                break; // empty topology: nothing to kill
            };
            // cr-lint: allow(integer-narrowing, reason = "pick_index result is at most max_radius, itself a u32")
            let radius = rng.pick_index(max_radius as usize + 1).unwrap_or(0) as u32;
            let at = window_start + rng.pick_index(span as usize).unwrap_or(0) as u64;
            let down_for = min_down + rng.pick_index(down_span as usize).unwrap_or(0) as u64;
            self.regional_outage(at, NodeId::from_index(center), radius, down_for);
        }
        self
    }

    /// Expands every generator event into primitive kill/revive
    /// entries using `topology`, returning a schedule containing only
    /// primitive events (still sorted; equal-cycle order preserved).
    ///
    /// A [`ChurnEvent::RegionalOutage`] becomes one `KillLink` per
    /// channel touching the region (any node within `radius` hops of
    /// the center) at its start cycle, and a matching `ReviveLink` at
    /// `at + down_for`.
    pub fn expanded(&self, topology: &dyn Topology) -> ChurnSchedule {
        let mut out = ChurnSchedule::new();
        for e in &self.entries {
            match e.event {
                ChurnEvent::RegionalOutage {
                    center,
                    radius,
                    down_for,
                } => {
                    for link in region_links(topology, center, radius) {
                        out.kill_link(e.at, link);
                        out.revive_link(e.at + down_for, link);
                    }
                }
                ev => {
                    out.push(e.at, ev);
                }
            }
        }
        out
    }

    /// Serializes the plan to the `--churn` JSON shape.
    pub fn to_json(&self) -> Json {
        let events = self.entries.iter().map(|e| {
            let mut fields: Vec<(&str, Json)> = vec![
                ("at", Json::from(e.at.as_u64())),
                ("kind", Json::from(e.event.kind())),
            ];
            match e.event {
                ChurnEvent::KillLink { link } | ChurnEvent::ReviveLink { link } => {
                    fields.push(("link", Json::from(link.as_u32())));
                }
                ChurnEvent::KillNode { node } | ChurnEvent::ReviveNode { node } => {
                    fields.push(("node", Json::from(node.as_u32())));
                }
                ChurnEvent::RegionalOutage {
                    center,
                    radius,
                    down_for,
                } => {
                    fields.push(("center", Json::from(center.as_u32())));
                    fields.push(("radius", Json::from(radius)));
                    fields.push(("down_for", Json::from(down_for)));
                }
            }
            Json::obj(fields)
        });
        Json::obj([("events", Json::arr(events))])
    }

    /// Parses a plan from the `--churn` JSON shape.
    ///
    /// # Errors
    ///
    /// Returns [`ChurnParseError`] on a missing/ill-typed field or an
    /// unknown `kind`.
    pub fn from_json(v: &Json) -> Result<ChurnSchedule, ChurnParseError> {
        let events = v
            .get("events")
            .and_then(Json::as_arr)
            .ok_or_else(|| ChurnParseError("missing \"events\" array".into()))?;
        let mut plan = ChurnSchedule::new();
        for (i, ev) in events.iter().enumerate() {
            let field_u64 = |name: &str| {
                ev.get(name)
                    .and_then(Json::as_u64)
                    .ok_or_else(|| ChurnParseError(format!("event {i}: missing \"{name}\"")))
            };
            let at = Cycle::new(field_u64("at")?);
            let id_u32 = |name: &str| -> Result<u32, ChurnParseError> {
                let raw = field_u64(name)?;
                u32::try_from(raw)
                    .map_err(|_| ChurnParseError(format!("event {i}: \"{name}\" out of range")))
            };
            let kind = ev
                .get("kind")
                .and_then(Json::as_str)
                .ok_or_else(|| ChurnParseError(format!("event {i}: missing \"kind\"")))?;
            let event = match kind {
                "kill_link" => ChurnEvent::KillLink {
                    link: LinkId::new(id_u32("link")?),
                },
                "revive_link" => ChurnEvent::ReviveLink {
                    link: LinkId::new(id_u32("link")?),
                },
                "kill_node" => ChurnEvent::KillNode {
                    node: NodeId::new(id_u32("node")?),
                },
                "revive_node" => ChurnEvent::ReviveNode {
                    node: NodeId::new(id_u32("node")?),
                },
                "regional_outage" => ChurnEvent::RegionalOutage {
                    center: NodeId::new(id_u32("center")?),
                    radius: id_u32("radius")?,
                    down_for: field_u64("down_for")?,
                },
                other => {
                    return Err(ChurnParseError(format!(
                        "event {i}: unknown kind {other:?}"
                    )))
                }
            };
            plan.push(at, event);
        }
        Ok(plan)
    }

    /// Parses a plan from JSON text (the contents of a `--churn` file).
    ///
    /// # Errors
    ///
    /// Returns [`ChurnParseError`] if the text is not valid JSON or
    /// does not match the plan schema.
    pub fn from_json_str(text: &str) -> Result<ChurnSchedule, ChurnParseError> {
        let v = Json::parse(text).map_err(|e| ChurnParseError(format!("invalid JSON: {e:?}")))?;
        ChurnSchedule::from_json(&v)
    }
}

/// Every channel touching a node within `radius` hops of `center`,
/// in ascending link-id order (deduplicated).
pub fn region_links(topology: &dyn Topology, center: NodeId, radius: u32) -> Vec<LinkId> {
    let in_region = |n: NodeId| topology.distance(center, n) <= radius as usize;
    let mut links: Vec<LinkId> = topology
        .links()
        .into_iter()
        .filter(|l| in_region(l.src) || in_region(l.dst))
        .map(|l| l.id)
        .collect();
    links.sort();
    links.dedup();
    links
}

#[cfg(test)]
mod tests {
    use super::*;
    use cr_topology::KAryNCube;

    #[test]
    fn push_keeps_sorted_and_stable() {
        let mut plan = ChurnSchedule::new();
        plan.kill_link(Cycle::new(50), LinkId::new(1))
            .kill_link(Cycle::new(10), LinkId::new(2))
            .revive_link(Cycle::new(50), LinkId::new(1))
            .kill_link(Cycle::new(30), LinkId::new(3));
        let ats: Vec<u64> = plan.entries().iter().map(|e| e.at.as_u64()).collect();
        assert_eq!(ats, vec![10, 30, 50, 50]);
        // Equal-cycle entries keep insertion order: kill before revive.
        assert_eq!(
            plan.entries()[2].event,
            ChurnEvent::KillLink {
                link: LinkId::new(1)
            }
        );
        assert_eq!(
            plan.entries()[3].event,
            ChurnEvent::ReviveLink {
                link: LinkId::new(1)
            }
        );
    }

    #[test]
    fn json_roundtrip_all_kinds() {
        let mut plan = ChurnSchedule::new();
        plan.kill_link(Cycle::new(1), LinkId::new(4))
            .revive_link(Cycle::new(2), LinkId::new(4))
            .kill_node(Cycle::new(3), NodeId::new(6))
            .revive_node(Cycle::new(4), NodeId::new(6))
            .regional_outage(Cycle::new(5), NodeId::new(9), 2, 77);
        let text = plan.to_json().to_pretty();
        let back = ChurnSchedule::from_json_str(&text).unwrap();
        assert_eq!(plan, back);
    }

    #[test]
    fn from_json_rejects_garbage() {
        assert!(ChurnSchedule::from_json_str("{}").is_err());
        assert!(ChurnSchedule::from_json_str("{\"events\": [{\"at\": 3}]}").is_err());
        assert!(ChurnSchedule::from_json_str(
            "{\"events\": [{\"at\": 3, \"kind\": \"explode\"}]}"
        )
        .is_err());
        assert!(ChurnSchedule::from_json_str(
            "{\"events\": [{\"at\": 3, \"kind\": \"kill_link\"}]}"
        )
        .is_err());
        // Link ids past u32 are rejected, not truncated.
        assert!(ChurnSchedule::from_json_str(
            "{\"events\": [{\"at\": 3, \"kind\": \"kill_link\", \"link\": 4294967296}]}"
        )
        .is_err());
    }

    #[test]
    fn regional_outage_expands_to_matched_kill_revive_pairs() {
        let t = KAryNCube::torus(4, 2);
        let mut plan = ChurnSchedule::new();
        plan.regional_outage(Cycle::new(100), NodeId::new(5), 0, 40);
        let expanded = plan.expanded(&t);
        // Radius 0: just node 5's channels — 4 out + 4 in on a 2-D torus.
        let kills: Vec<LinkId> = expanded
            .entries()
            .iter()
            .filter(|e| matches!(e.event, ChurnEvent::KillLink { .. }))
            .map(|e| match e.event {
                ChurnEvent::KillLink { link } => link,
                _ => unreachable!(),
            })
            .collect();
        assert_eq!(kills.len(), 8);
        for e in expanded.entries() {
            match e.event {
                ChurnEvent::KillLink { .. } => assert_eq!(e.at, Cycle::new(100)),
                ChurnEvent::ReviveLink { .. } => assert_eq!(e.at, Cycle::new(140)),
                other => panic!("unexpected {other:?}"),
            }
        }
        assert_eq!(expanded.len(), 16);
        assert_eq!(expanded, expanded.expanded(&t)); // idempotent
    }

    #[test]
    fn region_links_radius_grows_monotonically() {
        let t = KAryNCube::torus(4, 2);
        let r0 = region_links(&t, NodeId::new(0), 0);
        let r1 = region_links(&t, NodeId::new(0), 1);
        let all = region_links(&t, NodeId::new(0), 4);
        assert!(r0.len() < r1.len());
        assert_eq!(all.len(), t.num_links()); // radius = diameter covers everything
        for l in &r0 {
            assert!(r1.contains(l));
        }
    }

    #[test]
    fn storm_generator_is_deterministic_per_seed() {
        let t = KAryNCube::torus(4, 2);
        let gen = |seed| {
            let mut rng = SimRng::from_seed(seed);
            let mut plan = ChurnSchedule::new();
            plan.random_regional_outages(
                &t,
                4,
                Cycle::new(100),
                Cycle::new(1000),
                2,
                50,
                200,
                &mut rng,
            );
            plan
        };
        assert_eq!(gen(9), gen(9));
        assert_ne!(gen(9), gen(10));
        let plan = gen(9);
        assert_eq!(plan.len(), 4);
        for e in plan.entries() {
            assert!(e.at >= Cycle::new(100) && e.at < Cycle::new(1000));
            match e.event {
                ChurnEvent::RegionalOutage {
                    radius, down_for, ..
                } => {
                    assert!(radius <= 2);
                    assert!((50..=200).contains(&down_for));
                }
                other => panic!("unexpected {other:?}"),
            }
        }
    }
}
