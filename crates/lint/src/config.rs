//! Where each rule applies: the workspace layout and scoping tables.
//!
//! The rules are grounded in contracts this repo already enforces
//! dynamically (DESIGN.md §7 "Determinism & RNG", §8 "Observability &
//! tracing", `tests/hermetic.rs`); this module encodes *where* those
//! contracts bind. Scoping is path-based and deliberately explicit —
//! a new crate or a new hot-path module must be added here, in a
//! reviewed diff, to change what gets checked.

/// Crate directory names (under `crates/`) whose non-test sources are
/// result paths: anything nondeterministic here can change reported
/// numbers. `HashMap`/`HashSet` are banned in favour of `KilledMap`,
/// dense `Vec`s, or `BTreeMap`/`BTreeSet`.
pub const HASH_RULE_CRATES: &[&str] = &["sim", "router", "core", "faults", "experiments", "check"];

/// The one crate allowed to read wall clocks: the bench harness times
/// things by definition. Everything else must be cycle-driven.
pub const WALL_CLOCK_CRATE: &str = "bench";

/// The one module allowed to start threads: the deterministic
/// work-stealing pool. Sweep parallelism must flow through it so the
/// `--jobs`-invariance contract holds.
pub const SPAWN_EXEMPT_FILES: &[&str] = &["crates/sim/src/pool.rs"];

/// Cycle-loop hot-path modules (plus the two triaged satellite files,
/// `cr_faults` and the experiment harness) where `unwrap`/`expect`/
/// `panic!`/`todo!`/`unimplemented!` need a justification: a panic
/// here kills a whole sweep worker mid-run.
pub const PANIC_RULE_FILES: &[&str] = &[
    "crates/core/src/network.rs",
    "crates/core/src/network_phases.rs",
    "crates/core/src/network_kernel.rs",
    "crates/core/src/injector.rs",
    "crates/core/src/receiver.rs",
    "crates/core/src/killmap.rs",
    "crates/core/src/link.rs",
    "crates/router/src/router.rs",
    "crates/sim/src/ring.rs",
    "crates/sim/src/sched.rs",
    "crates/faults/src/lib.rs",
    "crates/faults/src/churn.rs",
    "crates/experiments/src/harness.rs",
    "crates/core/src/check_api.rs",
    "crates/check/src/model.rs",
];

/// Protocol and hot-path files where a bare `as` narrowing cast
/// (`as u8`/`u16`/`u32`/`i8`/`i16`/`i32`) is banned: a silently
/// wrapping cast on a flit count, credit tally or state encoding is
/// exactly the kind of bug the checker exists to rule out. Use
/// `try_from` (and handle or justify the failure) or annotate with
/// `// cr-lint: allow(integer-narrowing, reason = "…")`.
pub const NARROWING_RULE_FILES: &[&str] = &[
    "crates/core/src/network.rs",
    "crates/core/src/network_phases.rs",
    "crates/core/src/network_kernel.rs",
    "crates/core/src/injector.rs",
    "crates/core/src/receiver.rs",
    "crates/core/src/killmap.rs",
    "crates/core/src/link.rs",
    "crates/core/src/check_api.rs",
    "crates/router/src/router.rs",
    "crates/sim/src/ring.rs",
    "crates/sim/src/sched.rs",
    "crates/faults/src/lib.rs",
    "crates/faults/src/churn.rs",
    "crates/check/src/model.rs",
    "crates/check/src/hash.rs",
];

/// Path roots a `use`/`extern crate` may name: the language itself
/// plus every workspace member. Anything else would break the
/// offline, empty-registry build (`README` "Offline / hermetic
/// build") — this supersedes the manifest-level guard in
/// `tests/hermetic.rs` at the source level.
pub const ALLOWED_PATH_ROOTS: &[&str] = &[
    // Language/std roots.
    "std",
    "core",
    "alloc",
    "crate",
    "self",
    "super",
    // Workspace members.
    "cr_sim",
    "cr_topology",
    "cr_faults",
    "cr_traffic",
    "cr_router",
    "cr_core",
    "cr_metrics",
    "cr_experiments",
    "cr_bench",
    "cr_lint",
    "cr_check",
    "compressionless_routing",
];

/// Directory names never descended into. `corpus` holds this crate's
/// deliberately-bad lint fixtures.
pub const SKIP_DIRS: &[&str] = &["target", ".git", "corpus"];

/// Which part of a crate a file belongs to. Rules scope on this:
/// determinism and panic-discipline bind to shipping code only, while
/// hermeticity and `unsafe` bind everywhere.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Region {
    /// `src/` — shipping code (includes `src/bin/`).
    Src,
    /// `tests/` — integration tests.
    Test,
    /// `benches/` — benchmark drivers.
    Bench,
}

/// Everything the rule engine needs to know about one file.
#[derive(Debug, Clone)]
pub struct FileContext {
    /// Workspace-relative path, `/`-separated (stable across OSes).
    pub rel_path: String,
    /// Crate directory name (`sim`, `router`, …) or `root` for the
    /// top-level package.
    pub crate_name: String,
    /// Which tree the file lives in.
    pub region: Region,
    /// True for crate roots (`src/lib.rs`, `src/main.rs`), which must
    /// carry `#![forbid(unsafe_code)]`.
    pub is_crate_root: bool,
}

impl FileContext {
    /// Classifies a workspace-relative path. Returns `None` for paths
    /// outside the known layout (nothing to lint there).
    pub fn classify(rel_path: &str) -> Option<FileContext> {
        let parts: Vec<&str> = rel_path.split('/').collect();
        let (crate_name, tree_parts) = if parts.first() == Some(&"crates") {
            (parts.get(1)?.to_string(), &parts[2..])
        } else {
            ("root".to_string(), &parts[..])
        };
        let region = match tree_parts.first().copied() {
            Some("src") => Region::Src,
            Some("tests") => Region::Test,
            Some("benches") => Region::Bench,
            _ => return None,
        };
        let is_crate_root = region == Region::Src
            && tree_parts.len() == 2
            && matches!(tree_parts[1], "lib.rs" | "main.rs");
        Some(FileContext {
            rel_path: rel_path.to_string(),
            crate_name,
            region,
            is_crate_root,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classifies_crate_and_root_files() {
        let c = FileContext::classify("crates/core/src/network.rs").unwrap();
        assert_eq!(c.crate_name, "core");
        assert_eq!(c.region, Region::Src);
        assert!(!c.is_crate_root);

        let c = FileContext::classify("crates/sim/src/lib.rs").unwrap();
        assert!(c.is_crate_root);

        let c = FileContext::classify("src/lib.rs").unwrap();
        assert_eq!(c.crate_name, "root");
        assert!(c.is_crate_root);

        let c = FileContext::classify("crates/experiments/src/bin/fig09.rs").unwrap();
        assert_eq!(c.region, Region::Src);
        assert!(!c.is_crate_root);

        let c = FileContext::classify("tests/hermetic.rs").unwrap();
        assert_eq!(c.region, Region::Test);

        let c = FileContext::classify("crates/bench/benches/sweep.rs").unwrap();
        assert_eq!(c.region, Region::Bench);

        assert!(FileContext::classify("scripts/verify.sh").is_none());
    }
}
