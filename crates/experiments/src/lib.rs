//! Experiment harness: regenerates every table and figure of the
//! Compressionless Routing paper's evaluation section.
//!
//! Each module implements one paper artifact (figure or table) as a
//! library function returning structured rows plus a paper-style
//! text rendering; each also has a runnable binary (`src/bin/`) and a
//! bench (`crates/bench`). The mapping to the paper is
//! documented per-module and indexed in `DESIGN.md`.
//!
//! | Module | Paper artifact |
//! |--------|----------------|
//! | [`fig09`] | Fig. 9 — CR latency vs offered load, several message lengths |
//! | [`fig10`] | Fig. 10 — sensitivity to the kill timeout |
//! | [`fig11`] | Fig. 11 — static retransmission gaps vs exponential backoff |
//! | [`fig12`] | Fig. 12 — source-based vs path-wide kill detection |
//! | [`fig14ab`] | Fig. 14(a),(b) — CR vs DOR across buffer depths |
//! | [`fig14cd`] | Fig. 14(c),(d) — CR vs DOR across virtual-channel counts |
//! | [`fig14ef`] | Fig. 14(e),(f) — interface (source/sink) bandwidth |
//! | [`fig15`] | Fig. 15 — FCR under transient fault rates |
//! | [`fig16`] | Fig. 16 — FCR with permanent link faults |
//! | [`tab_pds`] | PDS table — potential deadlock situations (Duato methodology) |
//! | [`tab_hardware`] | Section 5 — interface hardware-complexity estimates |
//! | [`ext_distribution`] | Section 7 — kill-induced latency-variance analysis |
//! | [`ext_ablation`] | Extension — per-mechanism ablation study |
//! | [`ext_par`] | Extension — DOR vs planar-adaptive vs CR on the mesh |
//! | [`tab_padding`] | Padding-overhead table — CR padding vs message length and network depth |
//! | [`ext_nonuniform`] | Extension — CR vs DOR on non-uniform traffic |
//! | [`showdown`] | Extension — topology-zoo showdown: CR vs DOR vs the zero-VC full-mesh scheme |
//! | [`churn`] | Extension — live fault churn: CR vs FCR vs DOR through a kill-and-revive storm |
//!
//! # Examples
//!
//! ```
//! use cr_experiments::{fig09, Scale};
//!
//! let results = fig09::run(&fig09::Config {
//!     scale: Scale::Tiny,
//!     ..Default::default()
//! });
//! assert!(!results.rows.is_empty());
//! println!("{results}");
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod churn;
pub mod ext_ablation;
pub mod ext_distribution;
pub mod ext_nonuniform;
pub mod ext_par;
pub mod fig09;
pub mod fig10;
pub mod fig11;
pub mod fig12;
pub mod fig14ab;
pub mod fig14cd;
pub mod fig14ef;
pub mod fig15;
pub mod fig16;
pub mod harness;
pub mod showdown;
pub mod tab_hardware;
pub mod tab_padding;
pub mod tab_pds;
pub mod table;

pub use harness::{
    churn_plan, run_report, set_churn_plan, set_dense, set_shards, set_trace_path, shards, sweep,
    trace_active, MeasuredPoint, Scale, SweepRunner,
};
pub use table::Table;
