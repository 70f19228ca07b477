//! Hermetic task parallelism: a scoped work-stealing pool for sweep
//! batches.
//!
//! The experiment sweeps are embarrassingly parallel: every point is an
//! independent deterministic simulation owning its own seed. [`run`]
//! executes such a batch across threads while keeping the *results*
//! exactly what a serial loop would produce — outputs come back in
//! submission order, so callers are bit-identical under any job count.
//!
//! # Model
//!
//! [`run`] takes a `Vec` of `FnOnce` tasks. With `jobs <= 1` (or a
//! single task) it executes them inline on the caller's thread — the
//! serial fallback is literally a `for` loop, not a one-worker pool.
//! Otherwise tasks are dealt round-robin onto per-worker deques; each
//! scoped worker pops its own deque from the front and, when empty,
//! *steals* from the back of the others, so uneven point costs (high
//! offered loads simulate slower) still balance. Each worker batches
//! its results locally and sends one `Vec` back over the channel when
//! it runs dry, tagged with submission indices.
//!
//! A panicking task does not hang or poison the pool: every task body
//! runs under [`std::panic::catch_unwind`], workers keep draining, and
//! [`try_run`] reports the lowest failing task index with its panic
//! message ([`run`] resurfaces it as a panic once all workers have
//! parked).
//!
//! # Examples
//!
//! ```
//! let tasks: Vec<_> = (0..8u64).map(|i| move || i * i).collect();
//! let squares = cr_sim::pool::run(4, tasks);
//! assert_eq!(squares, vec![0, 1, 4, 9, 16, 25, 36, 49]);
//! ```

use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::mpsc;
use std::sync::Mutex;

/// A task panicked inside the pool.
///
/// Carries the submission index of the failing task (the lowest one,
/// if several failed) and its panic message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PoolError {
    /// Submission index of the (first) failing task.
    pub task_index: usize,
    /// The panic payload, rendered to a string.
    pub message: String,
}

impl std::fmt::Display for PoolError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "pool task {} panicked: {}", self.task_index, self.message)
    }
}

impl std::error::Error for PoolError {}

/// Runs `tasks` on up to `jobs` threads, returning results in
/// submission order.
///
/// `jobs <= 1` executes inline on the caller's thread (no threads
/// spawned). The thread count is additionally capped at the task
/// count.
///
/// # Panics
///
/// Panics if any task panicked — after all workers have finished, with
/// the first failing task's index and message. Use [`try_run`] to
/// handle task panics as values.
pub fn run<T, F>(jobs: usize, tasks: Vec<F>) -> Vec<T>
where
    F: FnOnce() -> T + Send,
    T: Send,
{
    match try_run(jobs, tasks) {
        Ok(out) => out,
        Err(e) => panic!("{e}"),
    }
}

/// Like [`run`], but surfaces a worker panic as a [`PoolError`] instead
/// of resurfacing it.
///
/// On error the results of the tasks that did succeed are dropped; the
/// pool itself always drains every task (no hang, no leaked threads —
/// the scope joins all workers before this returns).
pub fn try_run<T, F>(jobs: usize, tasks: Vec<F>) -> Result<Vec<T>, PoolError>
where
    F: FnOnce() -> T + Send,
    T: Send,
{
    let n = tasks.len();
    if jobs <= 1 || n <= 1 {
        return run_inline(tasks);
    }

    let workers = jobs.min(n);
    // Deal tasks round-robin so every worker starts with local work;
    // stealing evens out whatever imbalance the deal leaves.
    let mut deques: Vec<VecDeque<(usize, F)>> = (0..workers).map(|_| VecDeque::new()).collect();
    for (i, task) in tasks.into_iter().enumerate() {
        deques[i % workers].push_back((i, task));
    }
    let deques: Vec<Mutex<VecDeque<(usize, F)>>> = deques.into_iter().map(Mutex::new).collect();
    let (tx, rx) = mpsc::channel::<Vec<(usize, Result<T, String>)>>();

    std::thread::scope(|scope| {
        for w in 0..workers {
            let deques = &deques;
            let tx = tx.clone();
            scope.spawn(move || {
                // Batch results locally and send one Vec per worker:
                // fine-grained sweep batches would otherwise pay one
                // channel wakeup per task.
                let mut results = Vec::new();
                while let Some((i, task)) = claim(deques, w) {
                    let result = catch_unwind(AssertUnwindSafe(task))
                        .map_err(|payload| panic_message(&payload));
                    results.push((i, result));
                }
                let _ = tx.send(results);
            });
        }
        drop(tx);
        // The channel closes only after every worker has reported.
        collect_in_order(n, rx.into_iter().flatten())
    })
}

/// The serial fallback of [`try_run`]: runs `tasks` in submission
/// order on the calling thread, stopping at the first panic.
fn run_inline<T, F: FnOnce() -> T>(tasks: Vec<F>) -> Result<Vec<T>, PoolError> {
    let mut out = Vec::with_capacity(tasks.len());
    for (i, task) in tasks.into_iter().enumerate() {
        match catch_unwind(AssertUnwindSafe(task)) {
            Ok(v) => out.push(v),
            Err(payload) => {
                return Err(PoolError {
                    task_index: i,
                    message: panic_message(&payload),
                })
            }
        }
    }
    Ok(out)
}

/// Puts the `n` index-tagged `results` of a parallel batch back into
/// submission order, or reports the lowest failing index.
fn collect_in_order<T>(
    n: usize,
    results: impl Iterator<Item = (usize, Result<T, String>)>,
) -> Result<Vec<T>, PoolError> {
    let mut out: Vec<Option<T>> = (0..n).map(|_| None).collect();
    let mut first_error: Option<PoolError> = None;
    for (i, result) in results {
        match result {
            Ok(v) => out[i] = Some(v),
            Err(message) => {
                if first_error.as_ref().is_none_or(|e| i < e.task_index) {
                    first_error = Some(PoolError {
                        task_index: i,
                        message,
                    });
                }
            }
        }
    }
    match first_error {
        Some(e) => Err(e),
        None => Ok(out
            .into_iter()
            .map(|v| v.expect("every task of the batch reported exactly once"))
            .collect()),
    }
}

/// Pops the next task for worker `w`: its own deque front first, then
/// the *back* of the other deques (classic work stealing — thieves take
/// the coldest work). Returns `None` when every deque is empty, which
/// is final: tasks never enqueue new tasks.
fn claim<E>(deques: &[Mutex<VecDeque<E>>], w: usize) -> Option<E> {
    // A worker panic cannot poison these mutexes (tasks run *after*
    // the lock is released), but be robust anyway.
    let mut own = deques[w].lock().unwrap_or_else(|p| p.into_inner());
    if let Some(task) = own.pop_front() {
        return Some(task);
    }
    drop(own);
    for offset in 1..deques.len() {
        let victim = (w + offset) % deques.len();
        let mut q = deques[victim].lock().unwrap_or_else(|p| p.into_inner());
        if let Some(task) = q.pop_back() {
            return Some(task);
        }
    }
    None
}

/// A fixed-width handle on [`try_run`]: every batch runs at the
/// team's parallelism, in submission order, with [`try_run`]'s panic
/// semantics.
///
/// Inert: nothing in the workspace dispatches through it. It stays
/// only because the frozen benchmark (`cr-perf`) still prices
/// `Team::run`, and is due for deletion with ROADMAP item 5(b).
#[doc(hidden)]
#[derive(Debug)]
pub struct Team {
    parallelism: usize,
}

impl Team {
    /// A team `parallelism` threads wide (at least one: the caller).
    pub fn new(parallelism: usize) -> Team {
        Team {
            parallelism: parallelism.max(1),
        }
    }

    /// The team's width.
    pub fn parallelism(&self) -> usize {
        self.parallelism
    }

    /// [`run`] at the team's width.
    pub fn run<T, F>(&self, tasks: Vec<F>) -> Vec<T>
    where
        F: FnOnce() -> T + Send + 'static,
        T: Send + 'static,
    {
        run(self.parallelism, tasks)
    }

    /// [`try_run`] at the team's width.
    pub fn try_run<T, F>(&self, tasks: Vec<F>) -> Result<Vec<T>, PoolError>
    where
        F: FnOnce() -> T + Send + 'static,
        T: Send + 'static,
    {
        try_run(self.parallelism, tasks)
    }
}

fn panic_message(payload: &Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "<non-string panic payload>".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn serial_path_spawns_no_threads() {
        // jobs=1 runs inline: thread-local state set by tasks is
        // visible to the caller afterwards.
        thread_local! {
            static MARK: std::cell::Cell<usize> = const { std::cell::Cell::new(0) };
        }
        let tasks: Vec<_> = (0..4usize)
            .map(|i| move || MARK.with(|m| m.set(m.get() + i)))
            .collect();
        run(1, tasks);
        assert_eq!(MARK.with(std::cell::Cell::get), 0 + 1 + 2 + 3);
    }

    #[test]
    fn parallel_results_in_submission_order() {
        let tasks: Vec<_> = (0..100u64).map(|i| move || i * 3).collect();
        let out = run(8, tasks);
        assert_eq!(out, (0..100u64).map(|i| i * 3).collect::<Vec<_>>());
    }

    #[test]
    fn more_jobs_than_tasks_is_fine() {
        let out = run(64, vec![|| 1u32, || 2, || 3]);
        assert_eq!(out, vec![1, 2, 3]);
    }

    #[test]
    fn empty_task_list() {
        let out: Vec<u32> = run(4, Vec::<fn() -> u32>::new());
        assert!(out.is_empty());
    }

    #[test]
    fn work_is_actually_shared_and_stolen() {
        // One deque gets all the slow tasks by the round-robin deal;
        // with stealing every task still completes and every result
        // lands in its slot.
        let executed = AtomicUsize::new(0);
        let tasks: Vec<_> = (0..40usize)
            .map(|i| {
                let executed = &executed;
                move || {
                    if i % 4 == 0 {
                        std::thread::sleep(std::time::Duration::from_millis(2));
                    }
                    executed.fetch_add(1, Ordering::Relaxed);
                    i
                }
            })
            .collect();
        let out = run(4, tasks);
        assert_eq!(executed.load(Ordering::Relaxed), 40);
        assert_eq!(out, (0..40).collect::<Vec<_>>());
    }

    #[test]
    fn panic_surfaces_as_error_with_lowest_index() {
        let tasks: Vec<Box<dyn FnOnce() -> u32 + Send>> = (0..16usize)
            .map(|i| {
                Box::new(move || {
                    if i == 5 || i == 11 {
                        panic!("boom at {i}");
                    }
                    i as u32
                }) as Box<dyn FnOnce() -> u32 + Send>
            })
            .collect();
        let err = try_run(4, tasks).unwrap_err();
        assert_eq!(err.task_index, 5);
        assert_eq!(err.message, "boom at 5");
    }

    #[test]
    fn serial_panic_surfaces_too() {
        let err = try_run(1, vec![|| panic!("inline boom")]).unwrap_err();
        assert_eq!(err.task_index, 0);
        assert_eq!(err.message, "inline boom");
        assert!(err.to_string().contains("pool task 0 panicked"));
    }

    #[test]
    fn team_results_in_submission_order() {
        let team = Team::new(4);
        assert_eq!(team.parallelism(), 4);
        let tasks: Vec<_> = (0..100u64).map(|i| move || i * 3).collect();
        let out = team.run(tasks);
        assert_eq!(out, (0..100u64).map(|i| i * 3).collect::<Vec<_>>());
    }

    #[test]
    fn team_survives_panicking_task() {
        let team = Team::new(4);
        let tasks: Vec<Box<dyn FnOnce() -> u32 + Send>> = (0..16usize)
            .map(|i| {
                Box::new(move || {
                    if i == 5 || i == 11 {
                        panic!("team boom at {i}");
                    }
                    i as u32
                }) as Box<dyn FnOnce() -> u32 + Send>
            })
            .collect();
        let err = team.try_run(tasks).unwrap_err();
        assert_eq!(err.task_index, 5);
        assert_eq!(err.message, "team boom at 5");
        // The team stays usable: a later batch runs to completion.
        let out = team.run((0..8u32).map(|i| move || i + 1).collect::<Vec<_>>());
        assert_eq!(out, (1..=8u32).collect::<Vec<_>>());
    }
}
