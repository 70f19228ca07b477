//! Fluent construction of a [`Network`].

use crate::config::{NetworkConfig, ProtocolKind, RoutingKind};
use crate::network::Network;
use crate::retransmit::RetransmitScheme;
use cr_faults::FaultModel;
use cr_sim::{NodeId, SimRng};
use cr_topology::{KAryNCube, Topology, TopologyKind};
use cr_traffic::{LengthDistribution, TrafficPattern, TrafficSource};

/// Builder for [`Network`] (non-consuming, per the Rust API
/// guidelines' builder pattern).
///
/// # Examples
///
/// The paper's canonical configuration — an 8×8 torus running CR over
/// minimal-adaptive routing with 16-flit messages:
///
/// ```
/// use cr_core::{NetworkBuilder, ProtocolKind, RoutingKind};
/// use cr_topology::KAryNCube;
/// use cr_traffic::{LengthDistribution, TrafficPattern};
///
/// let mut net = NetworkBuilder::new(KAryNCube::torus(8, 2))
///     .routing(RoutingKind::Adaptive { vcs: 1 })
///     .protocol(ProtocolKind::Cr)
///     .buffer_depth(2)
///     .traffic(TrafficPattern::Uniform, LengthDistribution::Fixed(16), 0.2)
///     .seed(42)
///     .build();
/// let report = net.run(5_000);
/// assert!(!report.deadlocked);
/// ```
#[derive(Debug)]
pub struct NetworkBuilder {
    topo: Box<dyn Topology>,
    cfg: NetworkConfig,
    faults: FaultModel,
    traffic: Option<(TrafficPattern, LengthDistribution, f64)>,
}

impl NetworkBuilder {
    /// Starts a builder over `topology`.
    pub fn new<T: Topology + 'static>(topology: T) -> Self {
        Self::new_boxed(Box::new(topology))
    }

    /// Starts a builder over an already-boxed topology (the form
    /// [`TopologyKind::build`] produces).
    pub fn new_boxed(topology: Box<dyn Topology>) -> Self {
        NetworkBuilder {
            topo: topology,
            cfg: NetworkConfig::default(),
            faults: FaultModel::new(),
            traffic: None,
        }
    }

    /// Inert: the sharded stepper this configured was removed, and
    /// every network steps on one serial driver. Kept only because the
    /// frozen benchmark (`cr-perf`) still calls it; due for deletion
    /// with ROADMAP item 5(b).
    #[doc(hidden)]
    pub fn shards(&mut self, _shards: usize) -> &mut Self {
        self
    }

    /// Starts a builder over the topology described by `kind` — the
    /// entry point for configs round-tripped through JSON.
    pub fn from_kind(kind: &TopologyKind) -> Self {
        Self::new_boxed(kind.build())
    }

    /// The paper's default testbed: an 8-ary 2-cube torus.
    pub fn paper_torus() -> Self {
        Self::new(KAryNCube::torus(8, 2))
    }

    /// Selects the routing algorithm.
    pub fn routing(&mut self, routing: RoutingKind) -> &mut Self {
        self.cfg.routing = routing;
        self
    }

    /// Selects the end-to-end protocol.
    pub fn protocol(&mut self, protocol: ProtocolKind) -> &mut Self {
        self.cfg.protocol = protocol;
        self
    }

    /// Flit-buffer depth per input virtual channel.
    pub fn buffer_depth(&mut self, depth: usize) -> &mut Self {
        self.cfg.buffer_depth = depth;
        self
    }

    /// Channel pipeline depth in cycles (network "depth" knob for the
    /// padding-overhead experiment).
    pub fn channel_latency(&mut self, cycles: u64) -> &mut Self {
        self.cfg.channel_latency = cycles;
        self
    }

    /// Number of injection ("source") channels per node.
    pub fn inject_channels(&mut self, n: usize) -> &mut Self {
        self.cfg.inject_channels = n;
        self
    }

    /// Injection FIFO depth.
    pub fn inject_depth(&mut self, depth: usize) -> &mut Self {
        self.cfg.inject_depth = depth;
        self
    }

    /// Number of ejection ("sink") channels per node.
    pub fn eject_channels(&mut self, n: usize) -> &mut Self {
        self.cfg.eject_channels = n;
        self
    }

    /// Source timeout in cycles (default: message length × VCs).
    pub fn timeout(&mut self, cycles: u64) -> &mut Self {
        self.cfg.timeout = Some(cycles);
        self
    }

    /// Retransmission gap policy.
    pub fn retransmit(&mut self, scheme: RetransmitScheme) -> &mut Self {
        self.cfg.retransmit = scheme;
        self
    }

    /// Enables the path-wide kill scheme with the given local stall
    /// threshold (the comparison experiment; normally off).
    pub fn path_wide(&mut self, threshold: u64) -> &mut Self {
        self.cfg.path_wide_threshold = Some(threshold);
        self
    }

    /// Warmup cycles excluded from measurements.
    pub fn warmup(&mut self, cycles: u64) -> &mut Self {
        self.cfg.warmup = cycles;
        self
    }

    /// Master random seed.
    pub fn seed(&mut self, seed: u64) -> &mut Self {
        self.cfg.seed = seed;
        self
    }

    /// Cycles without progress before declaring deadlock.
    pub fn deadlock_threshold(&mut self, cycles: u64) -> &mut Self {
        self.cfg.deadlock_threshold = cycles;
        self
    }

    /// Enables structured event tracing with a ring buffer of
    /// `capacity` events (see `cr_sim::trace`). Off by default; when
    /// off, the trace layer costs one branch per would-be emit and
    /// reports are byte-identical.
    pub fn trace(&mut self, capacity: usize) -> &mut Self {
        self.cfg.trace_capacity = Some(capacity);
        self
    }

    /// Applies research ablation switches (see [`crate::Ablations`]).
    pub fn ablations(&mut self, ablations: crate::Ablations) -> &mut Self {
        self.cfg.ablations = ablations;
        self
    }

    /// Installs a fault model.
    pub fn faults(&mut self, faults: FaultModel) -> &mut Self {
        self.faults = faults;
        self
    }

    /// Installs a live churn schedule (kill/revive events applied at
    /// cycle boundaries; see [`cr_faults::ChurnSchedule`]). Composes
    /// with [`NetworkBuilder::faults`]: call it after, or the new
    /// fault model replaces the schedule too.
    pub fn churn(&mut self, schedule: cr_faults::ChurnSchedule) -> &mut Self {
        self.faults.set_churn(schedule);
        self
    }

    /// Attaches open-loop Bernoulli traffic: `load` flits per node per
    /// cycle, destinations from `pattern`, lengths from `lengths`.
    pub fn traffic(
        &mut self,
        pattern: TrafficPattern,
        lengths: LengthDistribution,
        load: f64,
    ) -> &mut Self {
        self.traffic = Some((pattern, lengths, load));
        self
    }

    /// Builds the network.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is inconsistent: dimension-order
    /// routing on a topology without it, an invalid resource
    /// configuration, or traffic whose pattern needs a power-of-two
    /// node count on an incompatible topology.
    pub fn build(&mut self) -> Network {
        self.cfg.validate();
        if self.cfg.routing.needs_dimension_order() {
            assert!(
                self.topo.supports_dimension_order(),
                "{} does not support dimension-order routing",
                self.topo.label()
            );
        }
        if self.cfg.routing == RoutingKind::PlanarAdaptive {
            assert!(
                self.topo.max_ports() <= 4,
                "the planar-adaptive implementation covers 2-D meshes only"
            );
        }
        if self.cfg.protocol == ProtocolKind::Baseline {
            assert!(
                self.cfg.path_wide_threshold.is_none(),
                "path-wide kills require a CR protocol"
            );
        }
        let routing = self.cfg.routing.build(self.topo.as_ref());
        // The paper's timeout default needs the message length; apply
        // it here if traffic is attached and no explicit timeout given.
        if self.cfg.timeout.is_none() {
            if let Some((_, lengths, _)) = &self.traffic {
                self.cfg.timeout =
                    Some((lengths.mean().round() as u64).max(1) * routing.num_vcs() as u64);
            }
        }

        let n = self.topo.num_nodes();
        let root = SimRng::from_seed(self.cfg.seed);
        let mut sources = Vec::new();
        let mut offered = 0.0;
        if let Some((pattern, lengths, load)) = self.traffic {
            offered = load;
            if load > 0.0 {
                for i in 0..n {
                    sources.push(TrafficSource::new(
                        NodeId::new(i as u32),
                        n,
                        pattern,
                        lengths,
                        load,
                        root.split(3_000_000 + i as u64),
                    ));
                }
            }
        }

        Network::assemble(
            self.topo.clone(),
            self.cfg.clone(),
            routing,
            self.faults.clone(),
            sources,
            offered,
        )
    }
}
