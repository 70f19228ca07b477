//! Wormhole router microarchitecture for the Compressionless Routing
//! reproduction.
//!
//! This crate models the router the paper assumes: an input-buffered
//! wormhole router with per-virtual-channel FIFO buffers, per-flit
//! flow control (credits standing in for the request/acknowledge
//! handshake — identical back-pressure semantics), a crossbar limited to
//! one flit per physical port per cycle, and pluggable routing
//! functions:
//!
//! * [`routing::DimensionOrder`] — the deterministic baseline, with
//!   dateline virtual-channel classes for deadlock freedom on tori
//!   (Dally & Seitz's torus routing chip scheme, paper reference \[28\]).
//! * [`routing::PlanarAdaptive`] — the authors' earlier
//!   partially-adaptive algorithm (2-D mesh variant), deadlock-free
//!   with two virtual channels.
//! * [`routing::MinimalAdaptive`] — fully adaptive minimal routing with
//!   **no** virtual-channel requirement: the routing function CR makes
//!   deadlock-free by recovery instead of avoidance. Optionally allows
//!   misrouting around dead links for fault tolerance.
//! * [`routing::DuatoProtocol`] — adaptive virtual channels backed by a
//!   dimension-order escape network; used to reproduce the paper's
//!   estimate of how often *potential deadlock situations* arise.
//! * [`routing::FullMeshOrdered`] — the HOTI'25 zero-virtual-channel
//!   ordered-detour scheme for diameter-1 (full-mesh) topologies, CR's
//!   modern competitor in the topology-zoo showdown.
//!
//! The [`Router`] itself is protocol-agnostic: kills, timeouts, padding
//! and retransmission live one layer up (the `cr-core` crate), which
//! drives routers through [`Router::accept`],
//! [`Router::route_and_allocate`], [`Router::traverse`] and
//! [`Router::flush_worm`].

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod flit;
pub mod router;
pub mod routing;

pub use flit::{Flit, FlitKind, WormId};
pub use router::{
    LinkStallStreak, LinkStats, LoneStream, NoStream, PortKind, RouteTarget, Router, RouterConfig,
    RouterCounters, Traversal,
};
pub use routing::{
    DimensionOrder, DuatoProtocol, FullMeshOrdered, MinimalAdaptive, PlanarAdaptive, RouteCtx,
    RoutingFunction,
};
