//@ lint-as: crates/experiments/src/fixture.rs
use std::cell::RefCell;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, OnceLock};

// Process-wide knobs: every run in the process shares them.
static JOBS: AtomicUsize = AtomicUsize::new(0);
pub(crate) static TRACE: Mutex<Option<String>> = Mutex::new(None);
static PLAN: OnceLock<Vec<u64>> = OnceLock::new();

// One finding for the block, not one per static in it.
thread_local! {
    static SCRATCH: RefCell<Vec<u8>> = const { RefCell::new(Vec::new()) };
    static MARK: std::cell::Cell<usize> = const { std::cell::Cell::new(0) };
}

// Immutable statics and consts are plain data, and `'static` is a
// lifetime, not an item.
static NAMES: [&str; 2] = ["a", "b"];
const LIMIT: usize = 4;

fn label() -> &'static str {
    NAMES[LIMIT % 2]
}

fn jobs() -> usize {
    JOBS.load(Ordering::Relaxed)
}

#[cfg(test)]
mod tests {
    use std::sync::atomic::AtomicU64;

    // Test counters may be process-wide.
    static CASES: AtomicU64 = AtomicU64::new(0);
}
