//! Compressionless Routing (CR) and Fault-tolerant Compressionless
//! Routing (FCR) — the core contribution of Kim, Liu & Chien's ISCA'94 /
//! TPDS paper, reproduced as a cycle-accurate flit-level simulation.
//!
//! # The idea
//!
//! Wormhole networks couple routers tightly through per-flit flow
//! control: when a worm's header blocks, back-pressure reaches the
//! source within a bounded number of cycles. CR exploits exactly that
//! coupling:
//!
//! * messages are **padded** so the worm spans its whole path (it can
//!   never be fully "compressed" into network buffers — hence the name);
//! * the **injector** monitors injection progress. Once `I_min` flits
//!   (the path's total buffering) have entered the network, the header
//!   has provably reached the destination and the worm is *committed*;
//! * an **uncommitted** worm whose injection stalls past a timeout may
//!   be deadlocked, so the injector **kills** it — a teardown token
//!   walks the worm's path releasing channels — and **retransmits**
//!   after a backoff gap.
//!
//! Any potential deadlock cycle contains an uncommitted worm whose
//! source will kill it, so *fully adaptive minimal routing needs no
//! virtual channels for deadlock freedom*, even on tori.
//!
//! FCR adds per-flit error detection: a corrupted flit triggers a
//! forward kill (the receiver discards the partial message) and a
//! backward kill (the source retransmits) — end-to-end reliable
//! delivery with no acknowledgement packets and no software retry.
//!
//! # Quick start
//!
//! ```
//! use cr_core::{NetworkBuilder, ProtocolKind, RoutingKind};
//! use cr_topology::KAryNCube;
//! use cr_traffic::{LengthDistribution, TrafficPattern};
//!
//! let mut net = NetworkBuilder::new(KAryNCube::torus(4, 2))
//!     .routing(RoutingKind::Adaptive { vcs: 1 })
//!     .protocol(ProtocolKind::Cr)
//!     .traffic(TrafficPattern::Uniform, LengthDistribution::Fixed(8), 0.1)
//!     .warmup(200)
//!     .seed(7)
//!     .build();
//! let report = net.run(2_000);
//! assert!(report.counters.messages_delivered > 0);
//! assert_eq!(report.counters.corrupt_payload_delivered, 0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod builder;
mod config;
mod injector;
mod killmap;
mod link;
mod network;
mod receiver;
mod report;
mod retransmit;

pub use builder::NetworkBuilder;
pub use network::check_api;
pub use config::{Ablations, NetworkConfig, ProtocolKind, RoutingKind};
pub use injector::{Injector, InjectorState, PendingMessage};
pub use killmap::KilledMap;
pub use link::LinkState;
pub use network::{Network, TrainStats};
pub use receiver::{DeliveredMessage, Receiver};
pub use report::{ChurnEventReport, ChurnSummary, NetCounters, SimReport, TraceSummary};
pub use retransmit::RetransmitScheme;
