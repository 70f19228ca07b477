//! Simulation substrate for the Compressionless Routing reproduction.
//!
//! This crate holds the small, dependency-light building blocks shared by
//! every other crate in the workspace:
//!
//! * [`ids`] — strongly-typed identifiers for nodes, links, ports,
//!   virtual channels and messages ([`NodeId`], [`LinkId`], …).
//! * [`cycle`] — the [`Cycle`] newtype used as the simulation clock.
//! * [`rng`] — deterministic, splittable random-number generation
//!   ([`SimRng`], backed by an in-repo ChaCha8 keystream): every
//!   experiment in the reproduction is exactly reproducible from a
//!   single 64-bit seed.
//! * [`fifo`] — a bounded ring-buffer FIFO ([`Fifo`]) that owns its
//!   storage.
//! * [`ring`] — the same queue as a bare cursor ([`Ring`]) over slots
//!   its owner keeps in one slab, plus a small inline array
//!   ([`InlineArr`]) and a small set on top of it ([`BitSet`]): what
//!   router input VCs, worklists and link lanes are made of, so a flit
//!   hop follows no pointer per queue.
//! * [`json`] — a minimal JSON value/writer/parser for result dumps.
//! * [`check`] — a seeded property-testing mini-framework with
//!   shrinking, used by the workspace's `tests/properties.rs` suites.
//! * [`pool`] — a work-stealing task pool on scoped threads, used by
//!   the experiment harness to run sweep points in parallel while
//!   keeping results in submission order (bit-identical to serial).
//! * [`sched`] — two-level bitset active sets ([`sched::ActiveSet`])
//!   backing the network's skip-the-idle cycle scheduler.
//! * [`trace`] — typed protocol events ([`trace::Event`]) behind a
//!   bounded ring-buffer sink ([`trace::TraceSink`]) that is a no-op
//!   when disabled; the observability layer of the protocol crates.
//!
//! The crate depends on nothing outside `std` — it is the bottom of a
//! fully hermetic, offline-buildable workspace.
//!
//! # Examples
//!
//! ```
//! use cr_sim::{Cycle, Fifo, NodeId, Rng, SimRng};
//!
//! let mut rng = SimRng::from_seed(42);
//! let node = NodeId::new(rng.gen_range(0..64u32));
//! assert!(node.index() < 64);
//!
//! let mut fifo: Fifo<u32> = Fifo::with_capacity(2);
//! fifo.push(1).unwrap();
//! fifo.push(2).unwrap();
//! assert!(fifo.is_full());
//! assert_eq!(fifo.pop(), Some(1));
//!
//! let t = Cycle::ZERO + 10;
//! assert_eq!(t.as_u64(), 10);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod chacha;
pub mod check;
pub mod cycle;
pub mod fifo;
pub mod ids;
pub mod json;
pub mod pool;
pub mod ring;
pub mod rng;
pub mod sched;
pub mod shard;
pub mod trace;

pub use cycle::Cycle;
pub use fifo::{Fifo, FifoFullError};
pub use ids::{LinkId, MessageId, NodeId, PortId, VcId};
pub use json::Json;
pub use ring::{BitSet, InlineArr, Ring};
pub use rng::{Rng, SimRng};
