//! The rule engine: token-sequence checks for the repo's contracts.
//!
//! Every rule is a short scan over the token stream of one file,
//! scoped by [`crate::config`]. The rules encode contracts the repo
//! otherwise only checks dynamically:
//!
//! | rule | contract |
//! |------|----------|
//! | `hash-collections`  | byte-identical results: no `HashMap`/`HashSet` in result-path crates |
//! | `wall-clock`        | cycle-driven simulation: no `Instant`/`SystemTime` outside `cr_bench` |
//! | `thread-spawn`      | `--jobs` invariance: threads only via `cr_sim::pool` |
//! | `hermeticity`       | offline build: `use` only std and workspace crates |
//! | `unsafe-code`       | no `unsafe` anywhere, `#![forbid(unsafe_code)]` in every crate root |
//! | `panic-discipline`  | no `unwrap`/`expect`/`panic!`/`todo!`/`unimplemented!` in hot paths |
//! | `trace-rng`         | record-only tracing: no RNG calls inside `TraceSink::emit` closures |
//! | `integer-narrowing` | no silently wrapping `as` casts to narrow ints in protocol files |
//! | `global-state`      | explicit run context: no interior-mutable `static` or `thread_local!` in result-path crates |
//!
//! Test code (`tests/`, `benches/`, `#[cfg(test)]` items) is exempt
//! from the determinism and panic rules — tests legitimately model
//! against `HashMap` (see `killmap.rs`) and assert with `unwrap` —
//! but hermeticity and `unsafe-code` bind everywhere: a registry
//! dependency or an `unsafe` block is no more acceptable in a test.
//!
//! To add a rule: pick an id, add it to [`RULES`], scope it in
//! `config.rs` if it is path-dependent, write the token scan here,
//! and add a known-bad fixture under `tests/corpus/` with its golden
//! `.expected` file (the corpus test will pick both up by name).

use crate::allow;
use crate::config::{
    FileContext, Region, HASH_RULE_CRATES, NARROWING_RULE_FILES, PANIC_RULE_FILES,
    SPAWN_EXEMPT_FILES, WALL_CLOCK_CRATE,
};
use crate::config::ALLOWED_PATH_ROOTS;
use crate::diagnostics::Diagnostic;
use crate::tokenizer::{lex, Tok, TokKind};

/// Every rule id, in documentation order. `unused-allow` and
/// `malformed-allow` police the escape comments themselves.
pub const RULES: &[&str] = &[
    "hash-collections",
    "wall-clock",
    "thread-spawn",
    "hermeticity",
    "unsafe-code",
    "panic-discipline",
    "trace-rng",
    "integer-narrowing",
    "global-state",
    "unused-allow",
    "malformed-allow",
];

/// Lints one file's source, returning unsorted findings with allow
/// directives already applied.
pub fn lint_file(ctx: &FileContext, src: &str) -> Vec<Diagnostic> {
    let lexed = lex(src);
    let (allows, mut malformed) = allow::parse(&ctx.rel_path, &lexed.comments);
    let test_ranges = if ctx.region == Region::Src {
        cfg_test_ranges(&lexed.toks)
    } else {
        Vec::new()
    };
    let scan = Scan {
        ctx,
        toks: &lexed.toks,
        test_ranges,
    };
    let mut diags = Vec::new();
    scan.hash_collections(&mut diags);
    scan.wall_clock(&mut diags);
    scan.thread_spawn(&mut diags);
    scan.hermeticity(&mut diags);
    scan.unsafe_code(&mut diags);
    scan.panic_discipline(&mut diags);
    scan.trace_rng(&mut diags);
    scan.integer_narrowing(&mut diags);
    scan.global_state(&mut diags);
    let mut out = allow::apply(&ctx.rel_path, allows, diags);
    out.append(&mut malformed);
    out
}

struct Scan<'a> {
    ctx: &'a FileContext,
    toks: &'a [Tok],
    /// Inclusive line ranges of `#[cfg(test)]` items.
    test_ranges: Vec<(u32, u32)>,
}

impl Scan<'_> {
    fn in_test(&self, line: u32) -> bool {
        self.test_ranges.iter().any(|&(a, b)| a <= line && line <= b)
    }

    /// Shipping code only: not `tests/`/`benches/`, not `#[cfg(test)]`.
    fn is_shipping(&self, line: u32) -> bool {
        self.ctx.region == Region::Src && !self.in_test(line)
    }

    fn diag(&self, out: &mut Vec<Diagnostic>, t: &Tok, rule: &'static str, message: String) {
        out.push(Diagnostic {
            file: self.ctx.rel_path.clone(),
            line: t.line,
            col: t.col,
            rule,
            message,
        });
    }

    fn prev_is(&self, i: usize, c: char) -> bool {
        i > 0 && self.toks[i - 1].is_punct(c)
    }

    fn next_is(&self, i: usize, c: char) -> bool {
        self.toks.get(i + 1).is_some_and(|t| t.is_punct(c))
    }

    fn hash_collections(&self, out: &mut Vec<Diagnostic>) {
        if !HASH_RULE_CRATES.contains(&self.ctx.crate_name.as_str()) {
            return;
        }
        for t in self.toks {
            if t.kind == TokKind::Ident
                && (t.text == "HashMap" || t.text == "HashSet")
                && self.is_shipping(t.line)
            {
                self.diag(
                    out,
                    t,
                    "hash-collections",
                    format!(
                        "`{}` in a result-path crate: iteration order is nondeterministic \
                         and can leak into reported numbers; use KilledMap, a dense Vec, \
                         or BTreeMap/BTreeSet",
                        t.text
                    ),
                );
            }
        }
    }

    fn wall_clock(&self, out: &mut Vec<Diagnostic>) {
        if self.ctx.crate_name == WALL_CLOCK_CRATE {
            return;
        }
        for t in self.toks {
            if t.kind == TokKind::Ident
                && (t.text == "Instant" || t.text == "SystemTime")
                && self.is_shipping(t.line)
            {
                self.diag(
                    out,
                    t,
                    "wall-clock",
                    format!(
                        "`{}` outside cr_bench: the simulator is cycle-driven and results \
                         must not depend on host timing",
                        t.text
                    ),
                );
            }
        }
    }

    fn thread_spawn(&self, out: &mut Vec<Diagnostic>) {
        if SPAWN_EXEMPT_FILES.contains(&self.ctx.rel_path.as_str()) {
            return;
        }
        for (i, t) in self.toks.iter().enumerate() {
            // Any `spawn(` call site counts — `.spawn(`,
            // `thread::spawn(`, and the bare `spawn(` a
            // `use std::thread::spawn;` import enables. Only a
            // `fn spawn(` definition is not a call.
            let spawn = t.is_ident("spawn")
                && self.next_is(i, '(')
                && !(i > 0 && self.toks[i - 1].is_ident("fn"));
            // `thread::scope` is a spawn in scoped clothing: sweep
            // points must go through the pool.
            let scope = t.is_ident("scope")
                && self.next_is(i, '(')
                && self.prev_is(i, ':')
                && i >= 3
                && self.toks[i - 3].is_ident("thread");
            if (spawn || scope) && self.is_shipping(t.line) {
                self.diag(
                    out,
                    t,
                    "thread-spawn",
                    format!(
                        "thread {} outside cr_sim::pool: parallelism must flow through \
                         the pool so results stay identical under any --jobs",
                        if spawn { "spawn" } else { "scope" }
                    ),
                );
            }
        }
    }

    fn hermeticity(&self, out: &mut Vec<Diagnostic>) {
        // Uniform paths (edition 2018+) let a `use` start with a
        // module declared in this file (`mod cycle; pub use
        // cycle::Cycle;` — the lib.rs re-export idiom), so locally
        // declared module names are legitimate path roots too.
        let local_mods: Vec<&str> = self
            .toks
            .iter()
            .enumerate()
            .filter(|(i, t)| {
                t.is_ident("mod")
                    && self
                        .toks
                        .get(i + 1)
                        .is_some_and(|n| n.kind == TokKind::Ident)
            })
            .map(|(i, _)| self.toks[i + 1].text.as_str())
            .collect();
        for (i, t) in self.toks.iter().enumerate() {
            let root = if t.is_ident("use") {
                // First identifier of the path, skipping leading `::`
                // and a leading `{` of a grouped import.
                self.toks[i + 1..]
                    .iter()
                    .take(4)
                    .find(|n| n.kind == TokKind::Ident)
            } else if t.is_ident("extern") && self.toks.get(i + 1).is_some_and(|n| n.is_ident("crate")) {
                self.toks.get(i + 2).filter(|n| n.kind == TokKind::Ident)
            } else {
                None
            };
            let Some(root) = root else { continue };
            if !ALLOWED_PATH_ROOTS.contains(&root.text.as_str())
                && !local_mods.contains(&root.text.as_str())
            {
                self.diag(
                    out,
                    root,
                    "hermeticity",
                    format!(
                        "import of non-workspace crate `{}`: the build must stay offline \
                         and registry-free (std and workspace crates only)",
                        root.text
                    ),
                );
            }
        }
    }

    fn unsafe_code(&self, out: &mut Vec<Diagnostic>) {
        for t in self.toks {
            if t.is_ident("unsafe") {
                self.diag(
                    out,
                    t,
                    "unsafe-code",
                    "`unsafe` is banned workspace-wide: every crate root carries \
                     #![forbid(unsafe_code)]"
                        .to_string(),
                );
            }
        }
        if self.ctx.is_crate_root && !self.has_forbid_unsafe() {
            out.push(Diagnostic {
                file: self.ctx.rel_path.clone(),
                line: 1,
                col: 1,
                rule: "unsafe-code",
                message: "crate root is missing #![forbid(unsafe_code)]".to_string(),
            });
        }
    }

    fn has_forbid_unsafe(&self) -> bool {
        self.toks.windows(3).any(|w| {
            w[0].is_ident("forbid") && w[1].is_punct('(') && w[2].is_ident("unsafe_code")
        })
    }

    fn panic_discipline(&self, out: &mut Vec<Diagnostic>) {
        if !PANIC_RULE_FILES.contains(&self.ctx.rel_path.as_str()) {
            return;
        }
        for (i, t) in self.toks.iter().enumerate() {
            if !self.is_shipping(t.line) || t.kind != TokKind::Ident {
                continue;
            }
            let hit = match t.text.as_str() {
                "unwrap" | "expect" => self.prev_is(i, '.') || self.prev_is(i, ':'),
                "panic" | "todo" | "unimplemented" => self.next_is(i, '!'),
                _ => false,
            };
            if hit {
                self.diag(
                    out,
                    t,
                    "panic-discipline",
                    format!(
                        "`{}` in a cycle-loop hot path: restructure with let-else/if-let, \
                         propagate an error, or justify with `// cr-lint: allow(...)`",
                        t.text
                    ),
                );
            }
        }
    }

    fn trace_rng(&self, out: &mut Vec<Diagnostic>) {
        let mut i = 0;
        while i < self.toks.len() {
            let t = &self.toks[i];
            if t.is_ident("emit") && self.next_is(i, '(') && self.is_shipping(t.line) {
                let end = self.matching_close(i + 1);
                for (j, inner) in self.toks[i + 2..end].iter().enumerate() {
                    let j = i + 2 + j;
                    let is_rng_name = inner.is_ident("rng")
                        || inner.is_ident("Rng")
                        || inner.is_ident("SimRng");
                    let is_rng_method = self.prev_is(j, '.')
                        && matches!(
                            inner.text.as_str(),
                            "chance" | "pick" | "pick_index" | "next_u32" | "next_u64" | "split"
                        );
                    if inner.kind == TokKind::Ident && (is_rng_name || is_rng_method) {
                        self.diag(
                            out,
                            inner,
                            "trace-rng",
                            format!(
                                "`{}` inside a TraceSink::emit closure: tracing is \
                                 record-only — drawing randomness here would make results \
                                 depend on whether tracing is enabled",
                                inner.text
                            ),
                        );
                    }
                }
                i = end;
            } else {
                i += 1;
            }
        }
    }

    fn integer_narrowing(&self, out: &mut Vec<Diagnostic>) {
        if !NARROWING_RULE_FILES.contains(&self.ctx.rel_path.as_str()) {
            return;
        }
        // Lexical by design: any `as` cast to a sub-64-bit integer
        // type is flagged, narrowing or not — a widening cast to a
        // narrow type reads as `u32::from(x)` just as well, and the
        // rule stays a two-token scan.
        for (i, t) in self.toks.iter().enumerate() {
            if !(t.is_ident("as") && self.is_shipping(t.line)) {
                continue;
            }
            let Some(ty) = self.toks.get(i + 1) else { continue };
            if ty.kind == TokKind::Ident
                && matches!(ty.text.as_str(), "u8" | "u16" | "u32" | "i8" | "i16" | "i32")
            {
                self.diag(
                    out,
                    t,
                    "integer-narrowing",
                    format!(
                        "`as {}` in a protocol file wraps silently on overflow: use \
                         `{}::try_from` (or `::from` when widening), or justify with \
                         `// cr-lint: allow(...)`",
                        ty.text, ty.text
                    ),
                );
            }
        }
    }

    fn global_state(&self, out: &mut Vec<Diagnostic>) {
        if !HASH_RULE_CRATES.contains(&self.ctx.crate_name.as_str()) {
            return;
        }
        let mut i = 0;
        while i < self.toks.len() {
            let t = &self.toks[i];
            if !self.is_shipping(t.line) {
                i += 1;
                continue;
            }
            if t.is_ident("thread_local") && self.next_is(i, '!') {
                self.diag(
                    out,
                    t,
                    "global-state",
                    "`thread_local!` in a result-path crate: per-thread state outlives the \
                     run that set it; pass it through a run context (cr_experiments::Run)"
                        .to_string(),
                );
                // One finding for the whole block, not one per static.
                i = self.matching_close(i + 2);
                continue;
            }
            // An item `static [mut] NAME: Type = …;` — the type runs from
            // the `:` to the `=`. (`'static` lexes as a lifetime.)
            let name = i + 1 + usize::from(self.toks.get(i + 1).is_some_and(|n| n.is_ident("mut")));
            if t.is_ident("static") && self.next_is(name, ':') {
                let cell = self.toks[name + 2..]
                    .iter()
                    .take_while(|n| !n.is_punct('=') && !n.is_punct(';'))
                    .find(|n| {
                        n.kind == TokKind::Ident
                            && (matches!(
                                n.text.as_str(),
                                "Mutex" | "RwLock" | "OnceLock" | "LazyLock" | "Cell" | "RefCell"
                            ) || n.text.starts_with("Atomic"))
                    });
                if let Some(cell) = cell {
                    self.diag(
                        out,
                        t,
                        "global-state",
                        format!(
                            "`static` of interior-mutable `{}` in a result-path crate: \
                             process-wide state couples every run in the process; pass it \
                             through a run context (cr_experiments::Run)",
                            cell.text
                        ),
                    );
                }
            }
            i += 1;
        }
    }

    /// Index of the bracket closing the `(`, `[` or `{` at `open` (or
    /// end of stream).
    fn matching_close(&self, open: usize) -> usize {
        let (o, c) = match self.toks.get(open).map(|t| &t.kind) {
            Some(TokKind::Punct('{')) => ('{', '}'),
            Some(TokKind::Punct('[')) => ('[', ']'),
            _ => ('(', ')'),
        };
        let mut depth = 0usize;
        for (i, t) in self.toks.iter().enumerate().skip(open) {
            match t.kind {
                TokKind::Punct(p) if p == o => depth += 1,
                TokKind::Punct(p) if p == c => {
                    depth -= 1;
                    if depth == 0 {
                        return i;
                    }
                }
                _ => {}
            }
        }
        self.toks.len()
    }
}

/// Inclusive line ranges covered by `#[cfg(test)]` items (usually a
/// whole `mod tests { … }` block, occasionally a single helper fn).
fn cfg_test_ranges(toks: &[Tok]) -> Vec<(u32, u32)> {
    let mut ranges = Vec::new();
    let mut i = 0;
    while i + 6 < toks.len() {
        let is_cfg_test = toks[i].is_punct('#')
            && toks[i + 1].is_punct('[')
            && toks[i + 2].is_ident("cfg")
            && toks[i + 3].is_punct('(')
            && toks[i + 4].is_ident("test")
            && toks[i + 5].is_punct(')')
            && toks[i + 6].is_punct(']');
        if !is_cfg_test {
            i += 1;
            continue;
        }
        let start_line = toks[i].line;
        // The item ends at the matching brace of its first top-level
        // `{`, or at a top-level `;` (use/const/tuple-struct forms).
        // Intervening attributes only contain (), [] pairs, which the
        // depth counter passes through.
        let mut k = i + 7;
        let mut depth = 0i32;
        let end_line = loop {
            let Some(t) = toks.get(k) else {
                break toks.last().map_or(start_line, |t| t.line);
            };
            match t.kind {
                TokKind::Punct('{') if depth == 0 => {
                    let mut bd = 1i32;
                    k += 1;
                    while bd > 0 {
                        let Some(t) = toks.get(k) else { break };
                        match t.kind {
                            TokKind::Punct('{') => bd += 1,
                            TokKind::Punct('}') => bd -= 1,
                            _ => {}
                        }
                        k += 1;
                    }
                    break toks.get(k - 1).map_or(start_line, |t| t.line);
                }
                TokKind::Punct(';') if depth == 0 => break t.line,
                TokKind::Punct('(') | TokKind::Punct('[') => depth += 1,
                TokKind::Punct(')') | TokKind::Punct(']') => depth -= 1,
                _ => {}
            }
            k += 1;
        };
        ranges.push((start_line, end_line));
        i = k.max(i + 7);
    }
    ranges
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ctx(rel: &str) -> FileContext {
        FileContext::classify(rel).expect("classifiable path")
    }

    fn rules_hit(rel: &str, src: &str) -> Vec<&'static str> {
        let mut d = lint_file(&ctx(rel), src);
        crate::diagnostics::sort(&mut d);
        d.into_iter().map(|d| d.rule).collect()
    }

    #[test]
    fn hash_collections_scoped_to_result_crates() {
        let src = "use std::collections::HashMap;\nfn f() { let m: HashMap<u32, u32>; }\n";
        assert_eq!(
            rules_hit("crates/core/src/x.rs", src),
            vec!["hash-collections", "hash-collections"]
        );
        // Topology is not a result-path crate.
        assert!(rules_hit("crates/topology/src/x.rs", src).is_empty());
        // Test region is exempt.
        assert!(rules_hit("crates/core/tests/x.rs", src).is_empty());
    }

    #[test]
    fn cfg_test_items_are_exempt_from_determinism_rules() {
        let src = "\
fn prod() {}
#[cfg(test)]
mod tests {
    use std::collections::HashMap;
    #[test]
    fn t() { let _ = foo().unwrap(); }
}
";
        assert!(rules_hit("crates/core/src/receiver.rs", src).is_empty());
    }

    #[test]
    fn cfg_test_single_item_exemption() {
        let src = "\
#[cfg(test)]
pub(crate) fn len(&self) -> usize { self.len }
fn prod() { x.unwrap(); }
";
        assert_eq!(rules_hit("crates/core/src/killmap.rs", src), vec!["panic-discipline"]);
    }

    #[test]
    fn wall_clock_exempts_bench() {
        let src = "fn f() { let t = std::time::Instant::now(); }\n";
        assert_eq!(rules_hit("crates/router/src/x.rs", src), vec!["wall-clock"]);
        assert!(rules_hit("crates/bench/src/x.rs", src).is_empty());
    }

    #[test]
    fn spawn_exempts_pool() {
        let src = "fn f() { std::thread::spawn(|| {}); }\n";
        assert_eq!(rules_hit("crates/topology/src/x.rs", src), vec!["thread-spawn"]);
        assert!(rules_hit("crates/sim/src/pool.rs", src).is_empty());
    }

    #[test]
    fn hermeticity_flags_registry_roots_everywhere() {
        let src = "use rand::Rng;\nuse std::fmt;\nuse cr_sim::Cycle;\nextern crate serde;\n";
        assert_eq!(
            rules_hit("crates/core/tests/x.rs", src),
            vec!["hermeticity", "hermeticity"]
        );
    }

    #[test]
    fn unsafe_and_missing_forbid() {
        let src = "fn f() { unsafe { std::hint::unreachable_unchecked() } }\n";
        assert_eq!(rules_hit("crates/metrics/src/x.rs", src), vec!["unsafe-code"]);
        // A crate root additionally needs the forbid attribute.
        assert_eq!(rules_hit("crates/metrics/src/lib.rs", "fn f() {}\n"), vec!["unsafe-code"]);
        assert!(rules_hit(
            "crates/metrics/src/lib.rs",
            "#![forbid(unsafe_code)]\nfn f() {}\n"
        )
        .is_empty());
    }

    #[test]
    fn panic_discipline_only_in_hot_paths() {
        let src = "fn f() { x.unwrap(); y.expect(\"m\"); panic!(\"n\"); todo!(); }\n";
        assert_eq!(rules_hit("crates/core/src/network.rs", src).len(), 4);
        // Same tokens elsewhere are fine (other rules permitting).
        assert!(rules_hit("crates/core/src/report.rs", src).is_empty());
    }

    #[test]
    fn trace_rng_flags_randomness_in_emit() {
        let src = "fn f() { sink.emit(|| Event::Kill { at: self.rng.pick_index(4) }); }\n";
        let hits = rules_hit("crates/core/src/x.rs", src);
        assert!(hits.iter().all(|r| *r == "trace-rng"));
        assert!(!hits.is_empty());
        // Randomness outside the emit closure is fine.
        let src = "fn f() { let v = self.rng.pick_index(4); sink.emit(|| Event::Kill { at: v }); }\n";
        assert!(rules_hit("crates/core/src/x.rs", src).is_empty());
    }

    #[test]
    fn integer_narrowing_scoped_and_lexical() {
        let src = "fn f(x: u64) -> u32 { x as u32 }\n";
        assert_eq!(
            rules_hit("crates/core/src/network.rs", src),
            vec!["integer-narrowing"]
        );
        // Outside the scoped protocol files the cast is fine.
        assert!(rules_hit("crates/core/src/report.rs", src).is_empty());
        // Tests are exempt.
        assert!(rules_hit("crates/core/tests/x.rs", src).is_empty());
        // Widening and usize casts are not flagged.
        let ok = "fn f(x: u8) -> u64 { (x as u64) + (x as usize as u64) }\n";
        assert!(rules_hit("crates/core/src/network.rs", ok).is_empty());
        // `use … as alias` does not trip the scan.
        let alias = "use std::fmt::Debug as Dbg;\nfn f(_d: &dyn Dbg) {}\n";
        assert!(rules_hit("crates/core/src/network.rs", alias).is_empty());
    }

    #[test]
    fn global_state_flags_interior_mutable_statics_in_shipping_code() {
        let src = "\
static JOBS: AtomicUsize = AtomicUsize::new(0);
pub(crate) static mut PLAN: Mutex<Option<u8>> = Mutex::new(None);
static NAMES: [&str; 2] = [\"a\", \"b\"];
thread_local! { static S: Cell<u8> = Cell::new(0); static T: RefCell<u8> = RefCell::new(0); }
fn f() -> &'static str { NAMES[0] }
";
        assert_eq!(
            rules_hit("crates/experiments/src/harness.rs", src),
            vec!["global-state"; 3]
        );
        // Outside the result-path crates, in tests and in
        // `#[cfg(test)]` items it is allowed.
        assert!(rules_hit("crates/bench/src/x.rs", src).is_empty());
        assert!(rules_hit("crates/core/tests/x.rs", src).is_empty());
        let test_only =
            "#[cfg(test)]\nmod tests {\n    static N: AtomicU64 = AtomicU64::new(0);\n}\n";
        assert!(rules_hit("crates/sim/src/pool.rs", test_only).is_empty());
    }

    #[test]
    fn allow_comment_suppresses_and_stale_allow_reports() {
        let src = "\
fn f() {
    // cr-lint: allow(panic-discipline, reason = \"documented invariant\")
    x.unwrap();
}
";
        assert!(rules_hit("crates/core/src/network.rs", src).is_empty());
        let stale = "// cr-lint: allow(panic-discipline, reason = \"nothing here\")\nfn f() {}\n";
        assert_eq!(rules_hit("crates/core/src/network.rs", stale), vec!["unused-allow"]);
    }
}
