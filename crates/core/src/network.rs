//! The network: routers, links, injectors and receivers, advanced one
//! cycle at a time, with the CR/FCR kill machinery on top.
//!
//! # Cycle phases
//!
//! [`Network::step`] is one phase list, the same under every driver:
//!
//! 1. **Arrivals** — flits finish their link traversal: fault
//!    injection, killed-worm filtering, FCR corruption detection, then
//!    acceptance into the downstream input VC.
//! 2. **Kill tokens** — forward teardown tokens walk one hop toward
//!    the destination, backward tokens one hop toward the source, each
//!    flushing buffers, releasing channels and restoring credits.
//! 3. **Path-wide detection** (optional) — routers kill locally
//!    stalled worms (the paper's inferior alternative to source
//!    timeouts).
//! 4. **Traffic generation** — Bernoulli sources enqueue messages.
//! 5. **Injection** — injectors push flits, watch stalls, and request
//!    source-timeout kills.
//! 6. **Routing/allocation + switch traversal** — one visit per
//!    router: unrouted headers try for an output, then every allocated
//!    output forwards a flit if it can; departing flits enter link
//!    pipelines or receivers, and credits return upstream at the
//!    phase's barrier.
//! 7. Bookkeeping: registry pruning and the deadlock watchdog.
//!
//! # Kernel, drivers, barriers
//!
//! Phases 1, 5 and 6 are written once, as three kernels over one
//! shard's state (`network_kernel.rs`); `network_sharded.rs` fans each
//! out over the shard plan and applies its buffered effects at the
//! phase's barrier (DESIGN.md §12) — three fan-outs and three barriers
//! a cycle. A serial run is the one-shard plan. This file keeps what is serial by nature — churn, tokens, path-wide
//! detection, traffic, bookkeeping, the kill machinery — and the
//! ordered arrivals scan, the one phase body that cannot be sharded
//! (it draws the fault RNG in global link order).
//!
//! # Active-set scheduling
//!
//! By default the kernels are fed *sparse* visit lists: each phase
//! walks only the components that can possibly do work this cycle,
//! tracked in bitset [`ActiveSet`]s (links with buffered
//! flits, routers with occupancy or an open stall streak, injectors
//! with a worm in hand or a queue), and the run loops *fast-forward*
//! across stretches of cycles in which every phase is provably a
//! no-op. [`Network::set_reference_stepper`] feeds the same kernels
//! every component instead and never fast-forwards; the results are
//! byte-identical (skipped components and cycles are proven
//! side-effect-free — see DESIGN.md §10), which is what the twin-run
//! suites check.

use crate::config::NetworkConfig;
use crate::injector::{Injector, PendingMessage};
use crate::killmap::KilledMap;
use crate::link::LinkState;
use crate::receiver::Receiver;
use crate::report::{ChurnEventReport, ChurnSummary, NetCounters, SimReport, TraceSummary};
use cr_faults::{ChurnFiring, FaultModel};
use cr_metrics::{LatencyRecorder, ThroughputMeter};
use cr_router::{
    Flit, LinkStats, PortKind, RouteTarget, Router, RouterConfig, RoutingFunction, WormId,
};
use cr_sim::sched::ActiveSet;
use cr_sim::shard::Sharded;
use cr_sim::trace::{Event, KillCause, TraceSink, TraceStats};
use cr_sim::{Cycle, MessageId, NodeId, PortId, SimRng, VcId};
use cr_topology::Topology;
use cr_traffic::TrafficSource;
use std::collections::{BTreeMap, VecDeque};
use std::sync::Arc;

#[path = "network_kernel.rs"]
mod kernel;

#[path = "network_sharded.rs"]
mod sharded;

#[path = "check_api.rs"]
pub mod check_api;

#[path = "train.rs"]
mod train;

pub use train::TrainStats;

/// Checked narrowing of a dense table index or length to the `u32`
/// the packed encodings and active-set members use.
pub(crate) fn idx32(i: usize) -> u32 {
    // cr-lint: allow(panic-discipline, reason = "dense indices and lengths sit far below u32::MAX by construction; wrapping silently would corrupt state")
    u32::try_from(i).expect("index exceeds u32::MAX")
}

#[derive(Debug, Clone, Copy)]
struct Token {
    worm: WormId,
    node: usize,
    port: PortId,
    vc: VcId,
}

/// Sentinel in `worm_sources` for delivered messages.
const SOURCE_GONE: u32 = u32::MAX;

/// Per-fired-churn-event drain bookkeeping: which in-flight messages
/// the event touched, and when the last of them left the network.
#[derive(Debug)]
struct ChurnTracker {
    /// Cycle the event actually applied (always == the scheduled
    /// cycle; fast-forward treats pending churn as a wake source).
    at: Cycle,
    kind: &'static str,
    subject: u64,
    links_killed: u64,
    links_revived: u64,
    /// Messages in flight on the affected links when the event fired;
    /// entries are retired as they deliver (`worm_sources` goes to
    /// [`SOURCE_GONE`]).
    affected: Vec<MessageId>,
    /// `affected.len()` at fire time (the report field; `affected`
    /// itself shrinks as messages drain).
    affected_total: u64,
    drained_at: Option<Cycle>,
}

/// The fabric's wiring, read-only once assembled: what every phase
/// kernel needs to resolve a port to a link or a neighbour.
struct Tables {
    topo: Box<dyn Topology>,
    routing: Box<dyn RoutingFunction>,
    /// Row length of the two per-(node, port) tables below:
    /// `topo.max_ports()`. One flat array each, so a lookup is one
    /// multiply-add and one load, not two dependent ones.
    stride: usize,
    /// `out_link[node * stride + port]` = link index leaving that
    /// port ([`NONE`] where unconnected); read via
    /// [`Tables::out_link`].
    out_link: Vec<u32>,
    /// `link_head[link]` = (dst node, dst input port).
    link_head: Vec<(usize, PortId)>,
    /// `link_ids[link]` = the topology's `LinkId` (fault-model key).
    link_ids: Vec<cr_sim::LinkId>,
    /// `in_upstream[node * stride + in_port]` = (upstream node,
    /// upstream output port), node [`NONE`] where unconnected; read
    /// via [`Tables::in_upstream`].
    in_upstream: Vec<(u32, PortId)>,
    /// Inverse of `Network::link_perm`: permuted index -> original
    /// link index.
    link_orig: Vec<u32>,
    /// Injection channels per node (`cfg.inject_channels`).
    chans: usize,
}

/// "No entry" in the flat `u32` wiring tables.
const NONE: u32 = u32::MAX;

impl Tables {
    /// Flat slot of `(node, port)`, or `None` past the row.
    fn slot(&self, node: usize, port: PortId) -> Option<usize> {
        (port.index() < self.stride).then(|| node * self.stride + port.index())
    }

    /// Index of the link leaving `node` via output `port`.
    fn out_link(&self, node: usize, port: PortId) -> Option<usize> {
        let li = self.out_link[self.slot(node, port)?];
        (li != NONE).then_some(li as usize)
    }

    /// The (node, output port) feeding `node`'s input `in_port`.
    fn in_upstream(&self, node: usize, in_port: PortId) -> Option<(usize, PortId)> {
        let (up_node, up_out) = self.in_upstream[self.slot(node, in_port)?];
        (up_node != NONE).then_some((up_node as usize, up_out))
    }

    /// Index of the link feeding `node`'s input `in_port`.
    fn in_link(&self, node: usize, in_port: PortId) -> Option<usize> {
        let (up_node, up_out) = self.in_upstream(node, in_port)?;
        self.out_link(up_node, up_out)
    }
}

/// A complete simulated network. Build one with
/// [`NetworkBuilder`](crate::NetworkBuilder).
pub struct Network {
    // The wiring tables and the serially-mutated killed/faults
    // registries sit behind `Arc` so a team fan-out can hand clones to
    // the persistent workers' 'static tasks. The mutable registries
    // are only written through `killed_mut` / `faults_mut`, which
    // assert the task clones are gone.
    tables: Arc<Tables>,
    cfg: NetworkConfig,
    faults: Arc<FaultModel>,
    timeout: u64,

    // Per-component mutable state is stored in per-shard chunks
    // ([`Sharded`]): a kernel borrows its shard's chunks as slices, a
    // team task takes them by value and hands them back — no borrows
    // cross the thread boundary. Serial code indexes flat.
    routers: Sharded<Router>,
    injectors: Sharded<Vec<Injector>>,
    receivers: Sharded<Receiver>,
    sources: Vec<TrafficSource>,

    links: Sharded<LinkState>,
    /// Inverse of `Tables::link_ids`: `link_by_id[id.index()]` =
    /// original link index (`u32::MAX` for ids the topology never
    /// handed out).
    link_by_id: Vec<u32>,

    /// Post-warmup flits carried per link (channel-utilization
    /// statistics).
    link_flits: Vec<u64>,
    killed: Arc<KilledMap>,
    registry_lifetime: u64,
    fwd_tokens: Vec<Token>,
    bwd_tokens: Vec<Token>,
    /// Token double-buffers: `step_tokens_once` swaps the live lists
    /// into these so re-pushed continuation tokens reuse capacity
    /// instead of reallocating every teardown step.
    fwd_scratch: Vec<Token>,
    bwd_scratch: Vec<Token>,
    /// `worm_sources[message]` = `src * inject_channels + channel`,
    /// indexed by the dense monotonic [`MessageId`];
    /// [`SOURCE_GONE`] once the message is delivered.
    worm_sources: Vec<u32>,
    /// Future trace events, time-sorted (front = next due).
    scheduled: VecDeque<cr_traffic::TraceEvent>,
    /// Next per-flow sequence number, keyed `(src, dst)`; read and
    /// bumped through [`Network::flow_seq`]. Sparse: a fabric has
    /// `n²` flows but a run touches only those that carry a message,
    /// and a dense table is 32 GiB at 256×256.
    seq_counters: BTreeMap<(u32, u32), u64>,
    next_message_id: u64,
    /// Per-cycle path-wide stall list, reused across cycles.
    stall_scratch: Vec<(PortId, VcId, WormId)>,
    /// Structured protocol-event sink ([`cr_sim::trace`]); the
    /// disabled variant unless the builder enables tracing.
    trace: TraceSink,

    now: Cycle,
    record_deliveries: bool,
    delivery_log: Vec<crate::receiver::DeliveredMessage>,
    latency: LatencyRecorder,
    throughput: ThroughputMeter,
    counters: NetCounters,
    last_progress: Cycle,
    deadlocked: bool,
    offered_load: f64,
    fault_rng: SimRng,

    // --- active-set scheduler state (DESIGN.md §10) ---
    //
    // The sets are maintained by the shared mutation helpers and
    // rebuilt by every kernel's re-arm pass whichever driver is
    // running, so they are always a superset of the truly active
    // components. That keeps switching drivers mid-run legal.
    /// Routers with buffered flits or an open stall streak, one set
    /// per shard (global node ids; shard ownership is fixed by
    /// `node_shard`). Concatenating the per-shard sorted drains in
    /// shard order reproduces the global ascending order because
    /// shards own contiguous node-id ranges.
    router_sets: Vec<ActiveSet>,
    /// Links with flits in flight or parked in the channel latches,
    /// one set per shard, keyed by *permuted* link index (see
    /// `link_perm`).
    link_sets: Vec<ActiveSet>,
    /// Injectors (flat id `node * inject_channels + channel`) with a
    /// worm in hand or queued messages, one set per shard.
    injector_sets: Vec<ActiveSet>,
    /// Receivers that may hold an open assembly (node ids), one set
    /// per shard: recorded when `on_flit` leaves an assembly open,
    /// drained and rebuilt by [`Network::prune_registries`], so the
    /// periodic prune visits those and not every node.
    receiver_sets: Vec<ActiveSet>,
    /// Visit-list scratch of the ordered arrivals scan.
    ids_scratch: Vec<u32>,
    /// Flits in routers + links, maintained incrementally; the O(1)
    /// backing of [`Network::flits_in_flight`].
    live_flits: usize,
    /// Injectors with queued, in-flight, or vulnerable messages —
    /// the O(1) backing of the quiescence check.
    undrained_injectors: usize,
    /// `true` = the reference driver: every phase visits every
    /// component, link wakes are ignored, no fast-forward.
    reference_stepper: bool,
    /// `true` = fan out through the owned hand-off and the team even
    /// where the inline route would do (equivalence tests and the
    /// benchmark use this to price that machinery).
    force_sharded: bool,

    // --- spatial sharding state (DESIGN.md §12) ---
    /// Contiguous node-id partition of the fabric; serial (one shard)
    /// unless the builder asked for more.
    plan: cr_sim::shard::Plan,
    /// `node_shard[node]` = owning shard (the plan's owner table).
    node_shard: Vec<u16>,
    /// `link_perm[orig li]` = permuted index. Link *state* (`links`)
    /// is stored grouped by owning shard (the shard of
    /// the link's **destination** node, which is the side arrivals
    /// mutate), ascending original index within each shard, so each
    /// shard's links form one contiguous slice. Identity when serial.
    link_perm: Vec<u32>,
    /// Permuted-index range of shard `s`: `link_bounds[s] ..
    /// link_bounds[s + 1]`.
    link_bounds: Vec<usize>,
    /// `link_shard[permuted]` = owning shard.
    link_shard: Vec<u16>,
    /// Per-shard effects sinks of the phase kernels, drained at each
    /// phase barrier in shard order.
    shard_scratch: Vec<kernel::ShardScratch>,
    /// Worker-thread override for team fan-outs (tests force >1 on
    /// single-core machines); `None` = available parallelism.
    shard_threads: Option<usize>,
    /// Persistent worker team, spawned at the first fan-out of a
    /// multi-shard (or forced) plan and reused for every fan-out
    /// thereafter (DESIGN.md §12). `None` until then, and reset by
    /// [`Network::set_shard_threads`]. Shut down (workers joined)
    /// ahead of the shard state by [`Network`]'s `Drop`.
    team: Option<cr_sim::pool::Team>,
    /// `true` once any link has ever been dead during a step. Under a
    /// fault-detecting protocol with a nonzero detection-miss rate, a
    /// corrupted flit may have survived its dead-link arrival and
    /// still be roaming, so the per-cycle parallel-arrivals gate must
    /// stay conservative forever after (DESIGN.md §12).
    ever_dead: bool,

    // --- live fault churn state (DESIGN.md §13) ---
    /// Scratch for [`cr_faults::FaultModel::apply_churn_due`], reused
    /// across cycles.
    churn_firings: Vec<ChurnFiring>,
    /// One tracker per fired churn event, in firing order (the
    /// report's `churn.events` rows).
    churn_trackers: Vec<ChurnTracker>,
    /// Trackers still waiting on affected messages to deliver — the
    /// O(1) gate on the per-cycle drain check.
    churn_undrained: usize,

    /// Live worm trains and their counters (DESIGN.md §10).
    trains: train::Trains,
}

impl std::fmt::Debug for Network {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Network")
            .field("topology", &self.tables.topo.label())
            .field("routing", &self.tables.routing.name())
            .field("protocol", &self.cfg.protocol)
            .field("now", &self.now)
            .finish_non_exhaustive()
    }
}

impl Network {
    /// Assembles a network. Prefer
    /// [`NetworkBuilder`](crate::NetworkBuilder), which fills in the
    /// routing function and traffic sources consistently.
    pub(crate) fn assemble(
        topo: Box<dyn Topology>,
        cfg: NetworkConfig,
        routing: Box<dyn RoutingFunction>,
        mut faults: FaultModel,
        sources: Vec<TrafficSource>,
        offered_load: f64,
        shards: usize,
    ) -> Self {
        cfg.validate();
        let n = topo.num_nodes();
        let plan = cr_sim::shard::Plan::from_hint(topo.partition_hint(shards), n, shards);
        let node_shard = plan.owner_table();
        let num_shards = plan.num_shards();
        let root = SimRng::from_seed(cfg.seed);
        let num_vcs = routing.num_vcs();

        let mut routers = Vec::with_capacity(n);
        for i in 0..n {
            let node = NodeId::from_index(i);
            let rc = RouterConfig {
                num_node_ports: topo.num_ports(node),
                num_vcs,
                buffer_depth: cfg.buffer_depth,
                num_inject: cfg.inject_channels,
                inject_depth: cfg.inject_depth,
                num_eject: cfg.eject_channels,
                link_depth: cfg.channel_latency as usize,
            };
            routers.push(Router::new(node, rc, root.split(1_000 + i as u64)));
        }

        // The paper's default timeout: message length x number of VCs.
        // Without traffic we fall back to a generous constant.
        let timeout = cfg.timeout.unwrap_or(32 * num_vcs as u64);
        // Under the path-wide scheme, stall detection lives in the
        // routers *instead of* the source: the injector never times
        // out on its own (its injection FIFO is still watched by the
        // path-wide detector, which covers the source case too).
        let injector_timeout = if cfg.path_wide_threshold.is_some() {
            u64::MAX
        } else {
            timeout
        };

        let mut injectors: Vec<Vec<Injector>> = Vec::with_capacity(n);
        for i in 0..n {
            let node = NodeId::from_index(i);
            injectors.push(
                (0..cfg.inject_channels)
                    .map(|c| {
                        Injector::new(
                            node,
                            c,
                            cfg.protocol,
                            injector_timeout,
                            cfg.retransmit,
                            root.split(2_000_000 + (i * 64 + c) as u64),
                        )
                    })
                    .collect(),
            );
        }
        for chans in injectors.iter_mut() {
            for inj in chans.iter_mut() {
                inj.set_ablations(cfg.ablations);
            }
        }
        let receivers: Vec<Receiver> =
            (0..n).map(|i| Receiver::new(NodeId::from_index(i))).collect();

        // Link tables.
        let descs = topo.links();
        let mut links = Vec::with_capacity(descs.len());
        let stride = topo.max_ports();
        let mut out_link = vec![NONE; n * stride];
        let mut link_head = Vec::with_capacity(descs.len());
        let mut link_ids = Vec::with_capacity(descs.len());
        let mut in_upstream = vec![(NONE, PortId::new(0)); n * stride];
        // A lane holds at most what its upstream credits cover.
        let lane_cap = cfg.buffer_depth + cfg.channel_latency as usize;
        for (idx, d) in descs.iter().enumerate() {
            links.push(LinkState::new(num_vcs, lane_cap));
            out_link[d.src.index() * stride + d.src_port.index()] = idx32(idx);
            link_head.push((d.dst.index(), d.dst_port));
            link_ids.push(d.id);
            in_upstream[d.dst.index() * stride + d.dst_port.index()] =
                (d.src.as_u32(), d.src_port);
        }

        // Group link *state* storage by owning shard (the shard of the
        // destination node), ascending original index within a shard,
        // so each shard's links are one contiguous mutable slice. With
        // one shard the permutation is the identity.
        let mut link_bounds = vec![0usize; num_shards + 1];
        for d in &descs {
            link_bounds[node_shard[d.dst.index()] as usize + 1] += 1;
        }
        for s in 0..num_shards {
            link_bounds[s + 1] += link_bounds[s];
        }
        let mut next = link_bounds.clone();
        let mut link_perm = vec![0u32; descs.len()];
        let mut link_orig = vec![0u32; descs.len()];
        let mut link_shard = vec![0u16; descs.len()];
        for (idx, d) in descs.iter().enumerate() {
            let s = node_shard[d.dst.index()] as usize;
            let pi = next[s];
            next[s] += 1;
            link_perm[idx] = idx32(pi);
            link_orig[pi] = idx32(idx);
            // cr-lint: allow(integer-narrowing, reason = "s indexes node_shard, whose entries are already u16 shard numbers")
            link_shard[pi] = s as u16;
        }

        // `LinkId` -> original link index, for resolving churn firings
        // back to link state.
        let max_id = descs.iter().map(|d| d.id.index() + 1).max().unwrap_or(0);
        let mut link_by_id = vec![u32::MAX; max_id];
        for (idx, d) in descs.iter().enumerate() {
            link_by_id[d.id.index()] = idx32(idx);
        }

        // Regional outages expand to concrete kill/revive pairs once,
        // against this topology, so the per-cycle churn check is a
        // plain cursor compare.
        faults.expand_churn(&*topo);

        // Routers learn their dead outgoing links up front (the
        // diagnosed-fault model; undiagnosed behaviour still works via
        // corruption detection, this just lets adaptivity avoid them).
        // Churn events update these flags live as they fire — the
        // marking is state, not a construction-time-only decision.
        for d in &descs {
            if faults.is_dead(d.id) {
                routers[d.src.index()].set_dead_out(d.src_port);
            }
        }

        let misroute = cfg.routing.misroute_budget() as usize;
        let registry_lifetime =
            4 * (topo.diameter() + misroute) as u64 + cfg.channel_latency + 64;

        let trace = match cfg.trace_capacity {
            Some(capacity) => TraceSink::ring(capacity),
            None => TraceSink::Disabled,
        };
        if trace.enabled() {
            // Finished link-stall streaks become `LinkStall` events;
            // with tracing off they are discarded at the router.
            for r in routers.iter_mut() {
                r.set_record_streaks(true);
            }
        }

        // Per-shard chunk sizes for the owned-state stores: nodes by
        // the plan's contiguous ranges, links by the permuted
        // per-shard grouping. Every `LinkState` is identical (empty)
        // at construction, so chunking the original-order vector by
        // the permuted group sizes is exact.
        let node_sizes: Vec<usize> = (0..num_shards).map(|s| plan.range(s).len()).collect();
        let link_sizes: Vec<usize> = (0..num_shards)
            .map(|s| link_bounds[s + 1] - link_bounds[s])
            .collect();
        let ever_dead = faults.num_dead_links() > 0;

        let warmup = Cycle::new(cfg.warmup);
        Network {
            latency: LatencyRecorder::new(warmup),
            throughput: ThroughputMeter::new(warmup, n),
            router_sets: (0..num_shards).map(|_| ActiveSet::new(n)).collect(),
            link_sets: (0..num_shards).map(|_| ActiveSet::new(links.len())).collect(),
            injector_sets: (0..num_shards)
                .map(|_| ActiveSet::new(n * cfg.inject_channels))
                .collect(),
            receiver_sets: (0..num_shards).map(|_| ActiveSet::new(n)).collect(),
            ids_scratch: Vec::new(),
            live_flits: 0,
            undrained_injectors: 0,
            reference_stepper: false,
            force_sharded: false,
            shard_scratch: (0..num_shards)
                .map(|_| kernel::ShardScratch::default())
                .collect(),
            shard_threads: None,
            team: None,
            ever_dead,
            plan,
            node_shard,
            link_perm,
            link_bounds,
            link_shard,
            tables: Arc::new(Tables {
                topo,
                routing,
                stride,
                out_link,
                link_head,
                link_ids,
                in_upstream,
                link_orig,
                chans: cfg.inject_channels,
            }),
            faults: Arc::new(faults),
            timeout,
            routers: Sharded::from_flat(routers, &node_sizes),
            injectors: Sharded::from_flat(injectors, &node_sizes),
            receivers: Sharded::from_flat(receivers, &node_sizes),
            sources,
            link_flits: vec![0; links.len()],
            links: Sharded::from_flat(links, &link_sizes),
            link_by_id,
            churn_firings: Vec::new(),
            churn_trackers: Vec::new(),
            churn_undrained: 0,
            trains: train::Trains::new(descs.len(), n * cfg.inject_channels),
            killed: Arc::new(KilledMap::new()),
            registry_lifetime,
            fwd_tokens: Vec::new(),
            bwd_tokens: Vec::new(),
            fwd_scratch: Vec::new(),
            bwd_scratch: Vec::new(),
            worm_sources: Vec::new(),
            scheduled: VecDeque::new(),
            seq_counters: BTreeMap::new(),
            next_message_id: 0,
            stall_scratch: Vec::new(),
            trace,
            now: Cycle::ZERO,
            record_deliveries: false,
            delivery_log: Vec::new(),
            counters: NetCounters::default(),
            last_progress: Cycle::ZERO,
            deadlocked: false,
            offered_load,
            fault_rng: SimRng::from_seed(cfg.seed).split(777),
            cfg,
        }
    }

    /// Current simulation time.
    pub fn now(&self) -> Cycle {
        self.now
    }

    /// The network's configuration.
    pub fn config(&self) -> &NetworkConfig {
        &self.cfg
    }

    /// The topology.
    pub fn topology(&self) -> &dyn Topology {
        &*self.tables.topo
    }

    /// The effective source timeout in cycles.
    pub fn timeout(&self) -> u64 {
        self.timeout
    }

    /// Mutable access to the killed-worm registry. The `Arc` is only
    /// cloned into shard-task contexts that are dropped before any
    /// serial code runs again, so the uniqueness assert holds and
    /// `make_mut` never actually copies.
    pub(crate) fn killed_mut(&mut self) -> &mut KilledMap {
        debug_assert_eq!(
            Arc::strong_count(&self.killed),
            1,
            "killed registry aliased at mutation time"
        );
        Arc::make_mut(&mut self.killed)
    }

    /// Mutable access to the fault model, same contract as
    /// [`Network::killed_mut`].
    pub(crate) fn faults_mut(&mut self) -> &mut FaultModel {
        debug_assert_eq!(
            Arc::strong_count(&self.faults),
            1,
            "fault model aliased at mutation time"
        );
        Arc::make_mut(&mut self.faults)
    }

    /// Live event counters.
    pub fn counters(&self) -> &NetCounters {
        &self.counters
    }

    /// `true` once the deadlock watchdog has fired.
    pub fn is_deadlocked(&self) -> bool {
        self.deadlocked
    }

    /// The router at `node` (for tests and instrumentation).
    pub fn router(&self, node: NodeId) -> &Router {
        &self.routers[node.index()]
    }

    /// The receiver at `node`.
    pub fn receiver(&self, node: NodeId) -> &Receiver {
        &self.receivers[node.index()]
    }

    /// Injection channel `channel` at `node`.
    pub fn injector(&self, node: NodeId, channel: usize) -> &Injector {
        &self.injectors[node.index()][channel]
    }

    /// Enables (or disables) logging of every delivered message,
    /// retrievable with [`Network::take_delivery_log`]. Off by default
    /// to keep long sweeps lean.
    pub fn set_record_deliveries(&mut self, on: bool) {
        self.record_deliveries = on;
    }

    /// Drains the recorded delivery log (empty unless
    /// [`Network::set_record_deliveries`] was enabled).
    pub fn take_delivery_log(&mut self) -> Vec<crate::receiver::DeliveredMessage> {
        std::mem::take(&mut self.delivery_log)
    }

    /// Whether structured event tracing is on (see
    /// [`NetworkBuilder::trace`](crate::NetworkBuilder::trace)).
    pub fn trace_enabled(&self) -> bool {
        self.trace.enabled()
    }

    /// Emission statistics of the trace sink (zeros when disabled).
    pub fn trace_stats(&self) -> TraceStats {
        self.trace.stats()
    }

    /// Drains the buffered trace events, oldest first (empty unless
    /// tracing is enabled).
    pub fn take_trace_events(&mut self) -> Vec<Event> {
        self.trace.drain()
    }

    /// Per-link utilization and stall-attribution counters, keyed by
    /// the topology's [`cr_sim::LinkId`]. Always maintained, tracing
    /// on or off: entry `i` describes the link whose source router
    /// output port feeds it.
    pub fn link_stall_stats(&self) -> Vec<(cr_sim::LinkId, LinkStats)> {
        let mut out = vec![(cr_sim::LinkId::new(0), LinkStats::default()); self.links.len()];
        self.for_each_link_stats(|li, s| out[li] = (self.tables.link_ids[li], *s));
        out
    }

    /// Calls `f` with every link's original index and counters, in
    /// router order, borrowing them where they live.
    fn for_each_link_stats(&self, mut f: impl FnMut(usize, &LinkStats)) {
        for (n, router) in self.routers.iter().enumerate() {
            for (p, s) in router.port_stats().enumerate() {
                if let Some(li) = self.tables.out_link(n, PortId::from_index(p)) {
                    f(li, s);
                }
            }
        }
    }

    /// Flits currently buffered in routers or in flight on links.
    /// O(1): maintained incrementally at every flit movement.
    pub fn flits_in_flight(&self) -> usize {
        debug_assert_eq!(
            self.live_flits,
            self.routers.iter().map(Router::total_occupancy).sum::<usize>()
                + self.links.iter().map(LinkState::occupied).sum::<usize>(),
            "incremental flit count diverged"
        );
        self.live_flits
    }

    /// Selects the reference driver: `true` feeds every phase kernel
    /// every component (link wakes ignored, no cycle fast-forward),
    /// `false` (the default) the active-set visit lists. The two are
    /// byte-identical in every observable output; the reference
    /// driver exists as the equivalence baseline for set membership,
    /// wake estimates and fast-forward, composes with any shard
    /// count, and may be switched at any point of a run (the active
    /// sets stay exact under both).
    pub fn set_reference_stepper(&mut self, dense: bool) {
        self.reference_stepper = dense;
    }

    /// `true` while the reference driver is selected.
    pub fn is_reference_stepper(&self) -> bool {
        self.reference_stepper
    }

    /// Forces every fan-out through the owned hand-off and
    /// `Team::run`, even where the inline route would do (a one-shard
    /// plan, or a team one thread wide). Results are identical either
    /// way — both routes run the same kernels and barriers — so this
    /// only changes which machinery runs: equivalence tests and the
    /// benchmark use it to exercise and price the hand-off.
    pub fn set_force_sharded(&mut self, on: bool) {
        self.force_sharded = on;
    }

    /// Number of spatial shards the network steps with (1 = serial).
    pub fn num_shards(&self) -> usize {
        self.plan.num_shards()
    }

    /// Overrides the worker-thread count of team fan-outs (`None`,
    /// the default, sizes the team to the machine's available
    /// parallelism, capped at the shard count; a team one thread wide
    /// is never dispatched to — the kernels run inline). Results are identical
    /// for every value — equivalence tests force >1 to exercise real
    /// cross-thread handoff even on single-core machines; benchmarks
    /// may pin it for stable measurements.
    pub fn set_shard_threads(&mut self, threads: Option<usize>) {
        if self.shard_threads != threads {
            // The persistent team is sized from this setting; drop it
            // (joining its workers) so the next fan-out respawns at
            // the new width.
            self.team = None;
        }
        self.shard_threads = threads;
    }

    /// All traffic drained: nothing buffered or in flight, nothing
    /// scheduled, every injector empty. O(1) via the incremental
    /// counters.
    fn is_quiescent(&self) -> bool {
        debug_assert_eq!(
            self.undrained_injectors,
            self.injectors
                .iter()
                .flatten()
                .filter(|i| !i.is_drained())
                .count(),
            "incremental undrained-injector count diverged"
        );
        self.live_flits == 0 && self.scheduled.is_empty() && self.undrained_injectors == 0
    }

    /// Marks a router possibly-active (it gained a flit).
    fn arm_router(&mut self, node: usize) {
        self.router_sets[self.node_shard[node] as usize].insert(idx32(node));
    }

    /// Marks an injector possibly-active (it gained work).
    fn arm_injector(&mut self, node: usize, channel: usize) {
        let id = node * self.cfg.inject_channels + channel;
        debug_assert!(
            self.trains.on_injector(id).is_none(),
            "armed a train's injector"
        );
        self.injector_sets[self.node_shard[node] as usize].insert(idx32(id));
    }

    /// Parks `flit` on link `li`'s lane `vc`, due at `arrive`, keeping
    /// the link's active-set membership current.
    /// `li` is an original link index; state lives at the permuted
    /// slot, in the chunk of the link's owning shard (resolved once,
    /// so the per-flit path has no flat `Sharded` lookup).
    fn push_onto_link(&mut self, li: usize, vc: VcId, arrive: Cycle, flit: Flit) {
        let pi = self.link_perm[li] as usize;
        let s = self.link_shard[pi] as usize;
        let at = pi - self.link_bounds[s];
        let pushed = self.links.chunk_mut(s)[at].push(vc.index(), arrive, flit);
        assert!(
            pushed.is_ok(),
            "link {li} lane {vc} overflow: a flit was sent without a credit"
        );
        self.link_sets[s].insert(idx32(pi));
    }

    /// [`Injector::enqueue`] keeping the undrained counter and the
    /// active set current (an injector a worm train streams from stays
    /// out of its set until the train is written back).
    fn injector_enqueue(&mut self, node: usize, channel: usize, msg: PendingMessage) {
        let held = self.trains.any() && self.train_before_enqueue(node, channel, self.now);
        let was_drained = self.injectors[node][channel].is_drained();
        self.injectors[node][channel].enqueue(msg);
        if was_drained {
            self.undrained_injectors += 1;
        }
        if !held {
            self.arm_injector(node, channel);
        }
    }

    /// [`Injector::on_killed`] keeping the undrained counter and the
    /// active set current (a backward kill can re-queue a vulnerable
    /// message into an otherwise idle injector).
    fn injector_on_killed(
        &mut self,
        node: usize,
        channel: usize,
        now: Cycle,
        worm: WormId,
    ) -> Option<(u32, Cycle)> {
        if self.trains.any() {
            self.train_before_requeue(node, channel, now);
        }
        let was_drained = self.injectors[node][channel].is_drained();
        let retx = self.injectors[node][channel].on_killed(now, worm);
        match (was_drained, self.injectors[node][channel].is_drained()) {
            (true, false) => self.undrained_injectors += 1,
            (false, true) => self.undrained_injectors -= 1,
            _ => {}
        }
        self.arm_injector(node, channel);
        retx
    }

    /// [`Injector::on_delivered`] keeping the undrained counter
    /// current.
    fn injector_on_delivered(&mut self, node: usize, channel: usize, message: MessageId) {
        let was_drained = self.injectors[node][channel].is_drained();
        self.injectors[node][channel].on_delivered(message);
        if !was_drained && self.injectors[node][channel].is_drained() {
            self.undrained_injectors -= 1;
        }
    }

    /// `(node, channel)` of the injector that sent `message`, unless
    /// delivery already retired it.
    fn source_of(&self, message: MessageId) -> Option<(usize, usize)> {
        match self.worm_sources.get(message.as_u64() as usize) {
            Some(&encoded) if encoded != SOURCE_GONE => {
                let chans = self.cfg.inject_channels;
                Some((encoded as usize / chans, encoded as usize % chans))
            }
            _ => None,
        }
    }

    /// The next sequence number of flow `src -> dst` (0 for a flow
    /// that has carried nothing yet).
    fn flow_seq(&mut self, src: NodeId, dst: NodeId) -> &mut u64 {
        self.seq_counters
            .entry((src.as_u32(), dst.as_u32()))
            .or_insert(0)
    }

    /// Queues a message for transmission, bypassing the traffic
    /// sources — the programmatic send API used by the examples.
    ///
    /// Returns the message id.
    ///
    /// # Panics
    ///
    /// Panics if `src == dst`, if either node is out of range, or if
    /// `payload_len < 2`.
    pub fn send_message(&mut self, src: NodeId, dst: NodeId, payload_len: u32) -> MessageId {
        let n = self.tables.topo.num_nodes();
        assert!(src.index() < n, "src out of range");
        assert!(dst.index() < n, "dst out of range");
        assert_ne!(src, dst, "self-addressed message");
        assert!(payload_len >= 2, "a worm needs a head and a tail");
        let id = MessageId::new(self.next_message_id);
        self.next_message_id += 1;
        let seq = self.flow_seq(src, dst);
        let msg_seq = *seq;
        *seq += 1;
        let hops = self.tables.topo.distance(src, dst);
        let budget = self.cfg.routing.misroute_budget() as usize;
        let channel = dst.index() % self.cfg.inject_channels;
        let msg = PendingMessage {
            id,
            src,
            dst,
            payload_len,
            msg_seq,
            created: self.now,
            hops,
            i_min: self.cfg.i_min(hops + budget),
            attempts: 0,
        };
        // Message ids are dense and monotonic, so the source table is
        // a plain push-indexed vector.
        debug_assert_eq!(self.worm_sources.len() as u64, id.as_u64());
        let encoded = idx32(src.index() * self.cfg.inject_channels + channel);
        debug_assert_ne!(encoded, SOURCE_GONE);
        self.worm_sources.push(encoded);
        self.injector_enqueue(src.index(), channel, msg);
        self.counters.messages_generated += 1;
        id
    }

    /// Schedules every message of `trace` for injection at its
    /// recorded time (events already in the past fire immediately).
    /// Composes with Bernoulli traffic and [`Network::send_message`].
    ///
    /// # Panics
    ///
    /// Panics if any event is self-addressed or out of range (checked
    /// when the event fires).
    pub fn schedule_trace(&mut self, trace: &cr_traffic::Trace) {
        // Insert each event behind its equal-time peers: that is the
        // order a stable sort of old-then-new would produce, and
        // equal-time firing order is observable (it fixes message-id
        // assignment), so it must not change.
        for &e in trace.events() {
            let pos = self.scheduled.partition_point(|queued| queued.at <= e.at);
            self.scheduled.insert(pos, e);
        }
    }

    /// Trace events not yet fired.
    pub fn scheduled_len(&self) -> usize {
        self.scheduled.len()
    }

    /// Advances the simulation one cycle.
    pub fn step(&mut self) {
        let now = self.now;
        if self.trains.any() {
            self.trains_at_cycle_start(now);
        }

        // Live churn fires first, as serial orchestrator code, so every
        // phase of the cycle sees the same dead-link set under every
        // driver (DESIGN.md §13).
        self.apply_churn(now);
        if !self.ever_dead && self.faults.num_dead_links() > 0 {
            self.ever_dead = true;
        }

        self.phase_arrivals(now);
        self.phase_tokens(now);
        if let Some(threshold) = self.cfg.path_wide_threshold {
            self.phase_path_wide(now, threshold);
        }
        self.phase_traffic(now);
        self.phase_injection(now);
        self.phase_route_and_traverse(now);
        self.phase_bookkeeping(now);
        if !self.trains.candidates.is_empty() {
            self.form_trains(now);
        }

        self.now.tick();
    }

    /// Runs for `cycles` cycles (stopping early on deadlock) and
    /// returns the report.
    pub fn run(&mut self, cycles: u64) -> SimReport {
        let end = Cycle::new(self.now.as_u64().saturating_add(cycles));
        self.trains_begin_run();
        while self.now < end {
            if self.deadlocked {
                break;
            }
            if !self.reference_stepper {
                // Skip stretches of provably idle cycles. Jumping to
                // `end` exactly matches the reference driver ticking
                // no-op cycles until the loop bound.
                self.fast_forward(end);
                if self.now >= end {
                    break;
                }
            }
            self.step();
        }
        self.trains_end_run();
        self.report()
    }

    /// Runs until all traffic has drained (sources willing, injectors
    /// empty, network empty) or `max_cycles` elapse; returns `true` if
    /// quiescent. O(1) per cycle: the drain condition reads the
    /// incrementally maintained counters.
    pub fn run_until_quiescent(&mut self, max_cycles: u64) -> bool {
        let end = Cycle::new(self.now.as_u64().saturating_add(max_cycles));
        self.trains_begin_run();
        let quiescent = self.step_until_quiescent(end);
        self.trains_end_run();
        quiescent
    }

    /// [`Network::run_until_quiescent`]'s loop, up to cycle `end`.
    fn step_until_quiescent(&mut self, end: Cycle) -> bool {
        while self.now < end {
            if self.deadlocked {
                return false;
            }
            if self.is_quiescent() {
                return true;
            }
            if !self.reference_stepper {
                // The quiescence predicate cannot change across
                // skipped cycles (they are no-ops), so checking once
                // before the jump matches the dense per-cycle check.
                self.fast_forward(end);
                if self.now >= end {
                    break;
                }
            }
            self.step();
        }
        false
    }

    /// Post-warmup channel utilization: (mean, max) flits per cycle
    /// per link, over the measurement window so far.
    pub fn channel_utilization(&self) -> (f64, f64) {
        let window = self.now.as_u64().saturating_sub(self.cfg.warmup);
        if window == 0 || self.link_flits.is_empty() {
            return (0.0, 0.0);
        }
        let sum: u64 = self.link_flits.iter().sum();
        let max: u64 = self.link_flits.iter().copied().max().unwrap_or(0);
        (
            sum as f64 / self.link_flits.len() as f64 / window as f64,
            max as f64 / window as f64,
        )
    }

    /// Builds the report for the run so far.
    pub fn report(&self) -> SimReport {
        let mut counters = self.counters;
        for r in &self.routers {
            counters.escape_allocations += r.counters().escape_allocations;
            counters.unroutable_headers += r.counters().unroutable_headers;
            counters.orphan_flits_dropped += r.counters().orphan_flits_dropped;
            counters.flits_flushed += r.counters().flits_flushed;
        }
        for rx in &self.receivers {
            counters.out_of_order_arrivals += rx.counters().out_of_order_arrivals;
            counters.duplicates_dropped += rx.counters().duplicates_dropped;
            counters.partials_discarded += rx.counters().partials_discarded;
        }
        let stats = self.trace.stats();
        let mut trace = TraceSummary {
            enabled: self.trace.enabled(),
            events_emitted: stats.emitted,
            events_dropped: stats.dropped,
            links: self.links.len() as u64,
            ..TraceSummary::default()
        };
        let mut totals = LinkStats::default();
        let mut max_stall = 0;
        self.for_each_link_stats(|_, s| {
            totals.merge(s);
            max_stall = max_stall.max(s.stall_total());
        });
        trace.max_link_stall_cycles = max_stall;
        trace.stall_busy_cycles = totals.stall_busy;
        trace.stall_dead_link_cycles = totals.stall_dead_link;
        trace.stall_backpressure_cycles = totals.stall_backpressure;
        trace.link_flits_forwarded = totals.flits_forwarded;
        let (util_mean, util_max) = self.channel_utilization();
        SimReport {
            channel_utilization_mean: util_mean,
            channel_utilization_max: util_max,
            cycles: self.now.as_u64(),
            warmup: self.cfg.warmup,
            num_nodes: self.tables.topo.num_nodes(),
            offered_load: self.offered_load,
            accepted_flits_per_node_cycle: self.throughput.flits_per_node_cycle(self.now),
            latency: self.latency.stats().clone(),
            latency_percentiles: (
                self.latency.percentile(0.50),
                self.latency.percentile(0.95),
                self.latency.percentile(0.99),
            ),
            latency_histogram: self.latency.histogram().clone(),
            counters,
            trace,
            churn: ChurnSummary {
                events: self
                    .churn_trackers
                    .iter()
                    .map(|t| ChurnEventReport {
                        at: t.at.as_u64(),
                        kind: t.kind.to_string(),
                        subject: t.subject,
                        links_killed: t.links_killed,
                        links_revived: t.links_revived,
                        affected_messages: t.affected_total,
                        drained: t.drained_at.is_some(),
                        time_to_drain: t.drained_at.map(|d| d - t.at).unwrap_or(0),
                    })
                    .collect(),
            },
            deadlocked: self.deadlocked,
            flits_in_flight: self.flits_in_flight(),
        }
    }

    // ------------------------------------------------------------------
    // Live fault churn (DESIGN.md §13)
    // ------------------------------------------------------------------

    /// Fires every churn entry due at cycle `now`: flips the fault
    /// model's dead-link set, keeps the upstream routers' dead-out
    /// flags in sync (the diagnosed-fault model is live state, not a
    /// construction-time decision), re-arms revived endpoints in the
    /// active sets, emits `link_killed` / `link_revived` trace events,
    /// and opens one drain tracker per event.
    ///
    /// Runs as serial orchestrator code at the top of [`Network::step`]
    /// before any phase, so every driver observes the same dead-link
    /// set for the whole cycle. Flits already in flight on a killed
    /// link are *not* flushed here: corruption is assessed at arrival
    /// time (both arrivals bodies read the live fault model), exactly
    /// as with static faults.
    fn apply_churn(&mut self, now: Cycle) {
        match self.faults.next_churn_at() {
            Some(at) if at <= now => {}
            _ => return,
        }
        self.trains.forget_tails();
        let mut firings = std::mem::take(&mut self.churn_firings);
        firings.clear();
        let tables = Arc::clone(&self.tables);
        self.faults_mut()
            .apply_churn_due(&*tables.topo, now, &mut firings);
        let num_vcs = self.tables.routing.num_vcs();
        for f in &firings {
            let mut affected: Vec<MessageId> = Vec::new();
            for &id in &f.killed {
                let li = self.link_by_id[id.index()] as usize;
                let (dst, dst_port) = self.tables.link_head[li];
                if let Some((src, src_port)) = self.tables.in_upstream(dst, dst_port) {
                    self.routers[src].set_dead_out(src_port);
                    // Worms holding the upstream output are stranded
                    // mid-transmission by this kill.
                    for v in 0..num_vcs {
                        let vc = VcId::from_index(v);
                        if let Some((ip, ivc)) = self.routers[src].output_owner(src_port, vc) {
                            if let Some(w) = self.routers[src].worm_of(ip, ivc) {
                                affected.push(w.message);
                            }
                        }
                    }
                }
                // Flits already on the wire arrive corrupted.
                let link = &self.links[self.link_perm[li] as usize];
                for (_, flit) in (0..num_vcs).flat_map(|v| link.lane(v)) {
                    affected.push(flit.worm.message);
                }
                self.trace.emit(|| Event::LinkKilled { at: now, link: id });
            }
            for &id in &f.revived {
                let li = self.link_by_id[id.index()] as usize;
                let (dst, dst_port) = self.tables.link_head[li];
                if let Some((src, src_port)) = self.tables.in_upstream(dst, dst_port) {
                    self.routers[src].clear_dead_out(src_port);
                    // Re-arm the upstream endpoint: a worm parked there
                    // waiting out the dead port must be reconsidered
                    // (extra set members are no-op visits, so
                    // byte-identity holds).
                    self.arm_router(src);
                }
                self.arm_router(dst);
                self.trace.emit(|| Event::LinkRevived { at: now, link: id });
            }
            affected.retain(|m| self.worm_sources[m.as_u64() as usize] != SOURCE_GONE);
            affected.sort_unstable();
            affected.dedup();
            let drained_at = if affected.is_empty() { Some(now) } else { None };
            if drained_at.is_none() {
                self.churn_undrained += 1;
            }
            self.churn_trackers.push(ChurnTracker {
                at: now,
                kind: f.event.kind(),
                subject: f.event.subject(),
                links_killed: f.killed.len() as u64,
                links_revived: f.revived.len() as u64,
                affected_total: affected.len() as u64,
                affected,
                drained_at,
            });
        }
        self.churn_firings = firings;
    }

    // ------------------------------------------------------------------
    // Phases
    // ------------------------------------------------------------------

    /// Ordered arrivals: the whole fabric's links in ascending
    /// *original* index, every due flit delivered into its downstream
    /// router — fault injection, killed-worm filtering, corruption
    /// detection, then acceptance — with effects applied in place.
    /// Taken by every driver on a cycle an arrival may draw the fault
    /// RNG or kill a worm (`arrivals_parallel_ok` is false): both
    /// happen in pop order on one sequential stream, so the scan is
    /// global and serial. Shares its visit list, pop and re-arm steps
    /// with the quiet-cycle kernel.
    fn arrivals_ordered(&mut self, now: Cycle) {
        let mut ids = std::mem::take(&mut self.ids_scratch);
        ids.clear();
        for (s, set) in self.link_sets.iter_mut().enumerate() {
            let all = self.link_bounds[s]..self.link_bounds[s + 1];
            kernel::visit_list(&mut ids, set, all, self.reference_stepper);
        }
        if self.link_sets.len() > 1 {
            // Per-shard lists are permuted-index-sorted; the scan
            // order is ascending by original index. A one-shard plan
            // skips this: its permutation is the identity.
            for id in ids.iter_mut() {
                *id = self.tables.link_orig[*id as usize];
            }
            ids.sort_unstable();
            for id in ids.iter_mut() {
                *id = self.link_perm[*id as usize];
            }
        }
        for &pi in &ids {
            self.visit_link_ordered(now, pi);
        }
        self.ids_scratch = ids;
    }

    /// One visit of the ordered scan to the link at permuted index
    /// `pi`, leaving it armed while it holds flits.
    fn visit_link_ordered(&mut self, now: Cycle, pi32: u32) {
        let pi = pi32 as usize;
        if self.links[pi].occupied() == 0 {
            return; // purged empty since it was armed
        }
        let set = self.link_shard[pi] as usize;
        if !self.reference_stepper && self.links[pi].wake() > now {
            self.link_sets[set].insert(pi32); // nothing due yet
            return;
        }
        let wake = self.scan_link_ordered(now, pi);
        if self.links[pi].end_scan(wake) {
            self.link_sets[set].insert(pi32);
        }
    }

    /// One link of the ordered scan (`pi` is its permuted index);
    /// returns the link's next wake.
    fn scan_link_ordered(&mut self, now: Cycle, pi: usize) -> Cycle {
        let li = self.tables.link_orig[pi] as usize;
        let (dst_node, dst_port) = self.tables.link_head[li];
        let link_id = self.tables.link_ids[li];
        // Constant per link, so resolved once and not per flit: its
        // fault state (churn fires before any phase), and where its
        // state and its destination router sit. A link is stored with
        // the shard of its destination node, so one chunk index
        // serves both and no flat `Sharded` lookup is left in the
        // loop.
        let link_dead = self.faults.is_dead(link_id);
        let detects_faults = self.cfg.protocol.detects_faults();
        let s = self.link_shard[pi] as usize;
        let link_at = pi - self.link_bounds[s];
        let dst_at = dst_node - self.plan.range(s).start;
        let dst32 = idx32(dst_node);
        let mut wake = LinkState::NEVER;
        for v in 0..self.links.chunk_mut(s)[link_at].num_lanes() {
            let vc = VcId::from_index(v);
            while let Some((mut flit, killed)) = self.links.chunk_mut(s)[link_at].pop_due(
                v,
                now,
                &self.killed,
                &self.routers.chunk_mut(s)[dst_at],
                dst_port,
                &mut wake,
            ) {
                // Fault injection: dead links corrupt every flit (the
                // detectable-failure model); healthy links corrupt at
                // the transient rate.
                if link_dead || self.faults.corrupts_flit(&mut self.fault_rng) {
                    if !flit.corrupted {
                        self.counters.flits_corrupted += 1;
                    }
                    flit.corrupted = true;
                }
                let detected = !killed
                    && flit.corrupted
                    && detects_faults
                    && self.faults.detects_corruption(&mut self.fault_rng);
                if killed || detected {
                    self.counters.flits_dropped_killed += 1;
                    self.live_flits -= 1;
                    self.credit_into(dst_node, dst_port, vc);
                    if detected {
                        let worm = flit.worm;
                        self.trace.emit(|| Event::CorruptionDetected {
                            at: now,
                            link: link_id,
                            message: worm.message,
                            attempt: worm.attempt,
                        });
                        self.kill_worm_at(now, dst_node, dst_port, vc, worm, KillCause::Fault);
                    }
                    continue;
                }
                if flit.corrupted && detects_faults {
                    self.counters.detections_missed += 1;
                }
                self.routers.chunk_mut(s)[dst_at].accept(now, dst_port, vc, flit);
                self.router_sets[s].insert(dst32);
                self.last_progress = now;
            }
        }
        wake
    }

    /// Drops `worm`'s flits parked in the channel feeding
    /// `(node, in_port)`, restoring their credits — teardown of the
    /// stall-holding link stage.
    fn purge_link_into(&mut self, node: usize, in_port: PortId, vc: VcId, worm: cr_router::WormId) {
        let Some((up_node, up_out)) = self.tables.in_upstream(node, in_port) else {
            return;
        };
        let Some(li) = self.tables.out_link(up_node, up_out) else {
            return;
        };
        let purged = self.links[self.link_perm[li] as usize].purge(vc.index(), worm);
        self.live_flits -= purged;
        for _ in 0..purged {
            self.counters.flits_dropped_killed += 1;
            self.routers[up_node].add_credit(up_out, vc);
        }
    }

    fn phase_tokens(&mut self, now: Cycle) {
        if self.fwd_tokens.is_empty() && self.bwd_tokens.is_empty() {
            // Provably a no-op: the walk loops run zero iterations
            // and nothing else is touched.
            return;
        }
        if self.cfg.ablations.instant_teardown {
            // Idealized kill wire: complete every teardown walk within
            // the cycle. Each pass moves every token one hop; walks are
            // bounded by the longest path, so this terminates.
            while !self.fwd_tokens.is_empty() || !self.bwd_tokens.is_empty() {
                self.step_tokens_once(now);
            }
            return;
        }
        self.step_tokens_once(now);
    }

    fn step_tokens_once(&mut self, now: Cycle) {
        // Forward tokens: walk toward the destination. Swapping with
        // the scratch buffer (instead of `mem::take`) lets both lists
        // keep their capacity across teardown steps.
        self.fwd_scratch.clear();
        std::mem::swap(&mut self.fwd_tokens, &mut self.fwd_scratch);
        for i in 0..self.fwd_scratch.len() {
            let t = self.fwd_scratch[i];
            if self.trains.any() {
                self.train_before_teardown(t.node, t.port, now);
            }
            let released = self.flush_and_credit(t.node, t.port, t.vc, t.worm);
            match released {
                Some(RouteTarget::Link { port, vc }) => {
                    if let Some((next_node, next_port)) = self.downstream_of(t.node, port) {
                        self.fwd_tokens.push(Token {
                            worm: t.worm,
                            node: next_node,
                            port: next_port,
                            vc,
                        });
                    }
                }
                Some(RouteTarget::Eject { .. }) => {
                    self.receivers[t.node].discard(t.worm);
                }
                None => {}
            }
        }

        // Backward tokens: walk toward the source, ending at its
        // injector.
        self.bwd_scratch.clear();
        std::mem::swap(&mut self.bwd_tokens, &mut self.bwd_scratch);
        for i in 0..self.bwd_scratch.len() {
            let t = self.bwd_scratch[i];
            if self.trains.any() {
                self.train_before_teardown(t.node, t.port, now);
            }
            let _ = self.flush_and_credit(t.node, t.port, t.vc, t.worm);
            self.continue_backward(now, t);
        }
    }

    /// Path-wide detection: a stalled worm needs a buffered flit, so
    /// only routers in the active set can trigger (the reference
    /// driver asks every router anyway). The sets are read, *not*
    /// drained — the route + traverse kernel owns their
    /// drain-and-rebuild. Kills are rare and walk cross-shard teardown
    /// chains, so this stays serial; they arm injectors, never
    /// routers, so each set can be lifted out while `path_wide_one`
    /// borrows the network (an arm would hit the empty stand-in and
    /// panic).
    fn phase_path_wide(&mut self, now: Cycle, threshold: u64) {
        if self.reference_stepper {
            for node in 0..self.routers.len() {
                self.path_wide_one(now, threshold, node);
            }
            return;
        }
        // Walking the per-shard sets in shard order visits nodes in
        // global ascending order (contiguous node ranges).
        for s in 0..self.router_sets.len() {
            let set = std::mem::replace(&mut self.router_sets[s], ActiveSet::new(0));
            for node in set.iter() {
                self.path_wide_one(now, threshold, node as usize);
            }
            self.router_sets[s] = set;
        }
    }

    fn path_wide_one(&mut self, now: Cycle, threshold: u64, node: usize) {
        let mut stalled = std::mem::take(&mut self.stall_scratch);
        stalled.clear();
        self.routers[node].stalled_worms_into(now, threshold, &mut stalled);
        for k in 0..stalled.len() {
            let (port, vc, worm) = stalled[k];
            if self.killed.contains(worm) {
                continue;
            }
            self.counters.kills_path_wide += 1;
            if let Some((sn, sc)) = self.source_of(worm.message) {
                if self.injectors[sn][sc].is_committed(worm) {
                    self.counters.kills_committed += 1;
                }
            }
            self.kill_worm_at(now, node, port, vc, worm, KillCause::PathWide);
        }
        self.stall_scratch = stalled;
    }

    /// Fires due trace events and polls the Bernoulli sources.
    /// `send_message` stamps `created: self.now`, which is `now`.
    fn phase_traffic(&mut self, now: Cycle) {
        while self.scheduled.front().is_some_and(|e| e.at <= now) {
            let Some(e) = self.scheduled.pop_front() else {
                break; // unreachable: front() just succeeded
            };
            self.send_message(e.src, e.dst, e.length);
        }
        if self.sources.is_empty() {
            return;
        }
        for n in 0..self.sources.len() {
            if let Some(req) = self.sources[n].poll() {
                let src = NodeId::from_index(n);
                self.send_message(src, req.dst, idx32(req.length));
            }
        }
    }

    fn phase_bookkeeping(&mut self, now: Cycle) {
        if self.trains.any() {
            // A train's routers forwarded a flit this cycle.
            self.last_progress = now;
        }
        if now.as_u64().is_multiple_of(256) {
            self.prune_registries(now);
        }
        if self.churn_undrained > 0 {
            // Retire delivered messages from open churn trackers.
            // Deliveries only happen on stepped cycles and bookkeeping
            // runs on every stepped cycle, so `drained_at` lands on
            // the same cycle under every driver.
            let sources = &self.worm_sources;
            for t in &mut self.churn_trackers {
                if t.drained_at.is_some() {
                    continue;
                }
                t.affected
                    .retain(|m| sources[m.as_u64() as usize] != SOURCE_GONE);
                if t.affected.is_empty() {
                    t.drained_at = Some(now);
                    self.churn_undrained -= 1;
                }
            }
        }
        if now.saturating_since(self.last_progress) > self.cfg.deadlock_threshold
            && self.flits_in_flight() > 0
        {
            self.deadlocked = true;
        }
    }

    /// Expires old killed-registry and receiver bookkeeping as of
    /// cycle `now`. Both prunes are monotone in `now` (an entry
    /// removed at `t` is removed at every `t' > t`), so one catch-up
    /// call at the last skipped prune cycle is equivalent to the
    /// reference driver's sequence of prunes — the fast-forward path
    /// relies on exactly that.
    fn prune_registries(&mut self, now: Cycle) {
        let lifetime = self.registry_lifetime;
        self.killed_mut()
            .retain(|t| now.saturating_since(t) < lifetime);
        let horizon = self.prune_horizon(now);
        if self.trains.any() {
            self.trains_before_prune(now, horizon);
        }
        // A receiver outside its shard's set holds no assembly, for
        // which `prune` is a no-op.
        let mut ids = std::mem::take(&mut self.ids_scratch);
        for s in 0..self.receiver_sets.len() {
            ids.clear();
            let (set, all) = (&mut self.receiver_sets[s], self.plan.range(s));
            kernel::visit_list(&mut ids, set, all, self.reference_stepper);
            for &n in &ids {
                let rx = &mut self.receivers[n as usize];
                rx.prune(horizon);
                if rx.assembling_len() > 0 {
                    self.receiver_sets[s].insert(n);
                }
            }
        }
        self.ids_scratch = ids;
    }

    /// Receiver assemblies untouched since before this are reaped by a
    /// prune at cycle `now`.
    fn prune_horizon(&self, now: Cycle) -> Cycle {
        Cycle::new(now.as_u64().saturating_sub(4 * self.registry_lifetime))
    }

    // ------------------------------------------------------------------
    // Cycle fast-forward
    // ------------------------------------------------------------------

    /// Jumps `now` to the earliest cycle at which anything can happen
    /// (clamped to `end`), when — and only when — every cycle in
    /// between is provably identical to a dense no-op step:
    ///
    /// * no traffic sources (each `poll` draws RNG every cycle);
    /// * no teardown tokens in flight;
    /// * every router in the active set holds no flit outside the
    ///   streams worm trains hold and no open stall streak (so
    ///   routing/traversal do nothing and close no streak);
    /// * every injector in the set is either stale or backing off
    ///   with a future resume cycle (`step` early-returns untouched);
    /// * every link in the set is empty or has no flit due yet.
    ///
    /// The jump target is the minimum of: the next scheduled traffic
    /// event, the earliest retransmission-backoff resume, the
    /// earliest link arrival, and — when flits are in flight — the
    /// first cycle the deadlock watchdog could fire, so a deadlock is
    /// declared at exactly the dense cycle. Skipped registry prunes
    /// are replayed as one catch-up [`Network::prune_registries`].
    fn fast_forward(&mut self, end: Cycle) {
        if !self.sources.is_empty()
            || !self.fwd_tokens.is_empty()
            || !self.bwd_tokens.is_empty()
        {
            return;
        }
        let now = self.now;
        let mut target = end;
        for n in self.router_sets.iter().flat_map(ActiveSet::iter) {
            if self.routers[n as usize].needs_visit() {
                return;
            }
        }
        let chans = self.cfg.inject_channels;
        for id in self.injector_sets.iter().flat_map(ActiveSet::iter) {
            let inj = &self.injectors[id as usize / chans][id as usize % chans];
            if !inj.has_step_work() {
                continue; // stale entry
            }
            match inj.backoff_resume() {
                Some(resume) if resume > now => target = target.min(resume),
                _ => return, // sending or resuming now: must step
            }
        }
        // Members are permuted indices — exactly how `links` is stored.
        for pi in self.link_sets.iter().flat_map(ActiveSet::iter) {
            let link = &self.links[pi as usize];
            if link.occupied() == 0 {
                continue; // purged empty since it was armed
            }
            let wake = link.wake();
            if wake <= now {
                // Due (or a conservative stale-early estimate): step.
                return;
            }
            target = target.min(wake);
        }
        if let Some(e) = self.scheduled.front() {
            if e.at <= now {
                return;
            }
            target = target.min(e.at);
        }
        if let Some(at) = self.faults.next_churn_at() {
            // Pending churn is a wake source: the event cycle itself is
            // always stepped, never jumped past, so churn applies at
            // exactly the dense cycle.
            if at <= now {
                return;
            }
            target = target.min(at);
        }
        let trains = self.trains.any();
        if let Some(at) = self.trains.next_end() {
            // A train's end is stepped, never jumped past.
            target = target.min(at);
        } else if self.live_flits > 0 {
            // First cycle at which `saturating_since(last_progress) >
            // deadlock_threshold` holds — the watchdog must observe it.
            // (While a train is live, every skipped cycle progresses.)
            target = target.min(self.last_progress + (self.cfg.deadlock_threshold + 1));
        }
        if target <= now {
            return;
        }
        // Catch-up prune for the skipped cycles [now, target - 1]: the
        // latest multiple-of-256 cycle in that range subsumes them all
        // (prunes are monotone in `now`). If it would misread a train's
        // receiver stamp, the jump stops right after it, the train
        // written back there.
        let last_skipped = target.as_u64() - 1;
        let prune_at = last_skipped - (last_skipped % 256);
        if prune_at >= now.as_u64() {
            let at = Cycle::new(prune_at);
            if self.trains.misled_by_prune(self.prune_horizon(at)) {
                target = at + 1;
            }
            self.prune_registries(at);
        }
        if trains {
            self.last_progress = Cycle::new(target.as_u64() - 1);
        }
        self.now = target;
    }

    // ------------------------------------------------------------------
    // Kill machinery
    // ------------------------------------------------------------------

    /// Kills `worm` at an in-fabric kill point (fault detection or
    /// path-wide stall): registry insert, then teardown in both
    /// directions. Source-timeout kills never come here — their kill
    /// point is the injection FIFO, and the injection kernel handles
    /// them whole.
    fn kill_worm_at(
        &mut self,
        now: Cycle,
        node: usize,
        port: PortId,
        vc: VcId,
        worm: WormId,
        cause: KillCause,
    ) {
        if self.trains.any() {
            self.train_before_teardown(node, port, now);
        }
        self.trains.forget_tail(worm);
        self.killed_mut().insert(worm, now);
        if cause == KillCause::Fault {
            self.counters.kills_fault += 1;
        }
        self.trace.emit(|| Event::Kill {
            at: now,
            node: NodeId::from_index(node),
            message: worm.message,
            attempt: worm.attempt,
            cause,
        });
        // Tear down from the kill point toward the destination.
        let released = self.flush_and_credit(node, port, vc, worm);
        match released {
            Some(RouteTarget::Link { port: op, vc: ov }) => {
                if let Some((next_node, next_port)) = self.downstream_of(node, op) {
                    self.fwd_tokens.push(Token {
                        worm,
                        node: next_node,
                        port: next_port,
                        vc: ov,
                    });
                }
            }
            Some(RouteTarget::Eject { .. }) => self.receivers[node].discard(worm),
            None => {}
        }
        // And from the kill point toward the source.
        let t = Token {
            worm,
            node,
            port,
            vc,
        };
        self.continue_backward(now, t);
    }

    /// Moves a backward token one hop toward the source; notifies the
    /// injector when it gets there (or when the chain has already
    /// drained behind the worm's tail).
    fn continue_backward(&mut self, now: Cycle, t: Token) {
        if self.routers[t.node].port_kind(t.port) == PortKind::Inject {
            let channel = t.port.index() - self.tables.topo.num_ports(NodeId::from_index(t.node));
            let retx = self.injector_on_killed(t.node, channel, now, t.worm);
            self.emit_retransmit(now, t.worm.message, retx);
            return;
        }
        let up = self.tables.in_upstream(t.node, t.port);
        if let Some((up_node, up_out)) = up {
            if let Some((ip, iv)) = self.routers[up_node].output_owner(up_out, t.vc) {
                if self.routers[up_node].worm_of(ip, iv) == Some(t.worm) {
                    self.bwd_tokens.push(Token {
                        worm: t.worm,
                        node: up_node,
                        port: ip,
                        vc: iv,
                    });
                    return;
                }
            }
        }
        // The upstream chain has already released (the tail passed):
        // notify the source directly.
        self.notify_source(now, t.worm);
    }

    fn notify_source(&mut self, now: Cycle, worm: WormId) {
        if let Some((sn, sc)) = self.source_of(worm.message) {
            let retx = self.injector_on_killed(sn, sc, now, worm);
            self.emit_retransmit(now, worm.message, retx);
        }
    }

    /// Emits a `RetransmitScheduled` event for an
    /// [`Injector::on_killed`] return value (no-op for `None`: stale
    /// and duplicate kill notifications schedule nothing).
    fn emit_retransmit(&mut self, now: Cycle, message: MessageId, retx: Option<(u32, Cycle)>) {
        if let Some((attempt, resume_at)) = retx {
            self.trace.emit(|| Event::RetransmitScheduled {
                at: now,
                message,
                attempt,
                resume_at,
            });
        }
    }

    fn flush_and_credit(
        &mut self,
        node: usize,
        port: PortId,
        vc: VcId,
        worm: WormId,
    ) -> Option<RouteTarget> {
        let res = self.routers[node].flush_worm(port, vc, worm);
        self.live_flits -= res.flushed;
        if self.routers[node].port_kind(port) == PortKind::Node {
            for _ in 0..res.flushed {
                self.credit_into(node, port, vc);
            }
            // Flits of the worm parked in the feeding channel's
            // latches go with the buffer contents.
            self.purge_link_into(node, port, vc, worm);
        }
        res.released
    }

    /// Returns one credit to the router feeding `(node, in_port, vc)`.
    fn credit_into(&mut self, node: usize, in_port: PortId, vc: VcId) {
        if let Some((up_node, up_out)) = self.tables.in_upstream(node, in_port) {
            self.routers[up_node].add_credit(up_out, vc);
        }
    }

    fn downstream_of(&self, node: usize, out_port: PortId) -> Option<(usize, PortId)> {
        let li = self.tables.out_link(node, out_port)?;
        Some(self.tables.link_head[li])
    }
}

impl Drop for Network {
    fn drop(&mut self) {
        // Shut the worker team down (its threads joined) before any
        // shard state is freed. The tasks own their chunks outright so
        // no worker can reference freed state even without this, but
        // the explicit order keeps teardown deterministic and lets the
        // no-thread-leak regression test assert it.
        self.team = None;
    }
}
