//! Hermetic task parallelism: a scoped work-stealing pool for sweep
//! batches, and a persistent worker [`Team`] for per-cycle shard
//! fan-outs.
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
//! # Persistent teams
//!
//! `std::thread::scope` is the wrong shape for the sharded stepper: a
//! simulated cycle dispatches a few tiny shard batches, and re-spawning
//! plus re-joining OS threads each time costs far more than the shard
//! work itself. [`Team`] amortizes that: it spawns its workers once
//! (this module is the single cr-lint-sanctioned thread-spawn site),
//! then dispatches each batch by publishing it under a mutex and
//! bumping an epoch. Workers claim task indices from the batch's
//! atomic cursor, run them, and go back to waiting — a short spin on
//! the epoch hint first, then a condvar park — so a batch dispatch is
//! a notify, not a spawn. The caller's thread claims from the same
//! cursor, which guarantees every batch completes even if no worker
//! wakes in time. Results come back in submission order with the same
//! panic semantics as [`try_run`].
//!
//! # Choosing a job count
//!
//! [`effective_jobs`] resolves, in order: an explicit request (e.g. a
//! `--jobs N` flag), the `CR_JOBS` environment variable, then
//! [`std::thread::available_parallelism`].
//!
//! # Examples
//!
//! ```
//! let tasks: Vec<_> = (0..8u64).map(|i| move || i * i).collect();
//! let squares = cr_sim::pool::run(4, tasks);
//! assert_eq!(squares, vec![0, 1, 4, 9, 16, 25, 36, 49]);
//!
//! let team = cr_sim::pool::Team::new(4);
//! let tasks: Vec<_> = (0..8u64).map(|i| move || i * i).collect();
//! assert_eq!(team.run(tasks), vec![0, 1, 4, 9, 16, 25, 36, 49]);
//! ```

use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc;
use std::sync::{Arc, Condvar, Mutex, MutexGuard};

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

/// Resolves how many worker threads a sweep should use.
///
/// Priority: `request` (if `Some` and non-zero) → the `CR_JOBS`
/// environment variable (if set and parseable as a non-zero integer) →
/// [`std::thread::available_parallelism`] → 1.
pub fn effective_jobs(request: Option<usize>) -> usize {
    if let Some(n) = request {
        if n > 0 {
            return n;
        }
    }
    if let Some(n) = std::env::var("CR_JOBS")
        .ok()
        .and_then(|v| v.parse::<usize>().ok())
        .filter(|&n| n > 0)
    {
        return n;
    }
    std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1)
}

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

/// The serial fallback shared by [`try_run`] and [`Team::try_run`]:
/// runs `tasks` in submission order on the calling thread, stopping at
/// the first panic.
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

/// A task queued on a [`Team`]: result delivery is baked into the
/// closure, so workers need no knowledge of the result type.
type TeamJob = Box<dyn FnOnce() + Send>;

/// One published batch: tasks behind per-slot mutexes plus the atomic
/// cursor workers claim indices from.
struct TeamBatch {
    jobs: Vec<Mutex<Option<TeamJob>>>,
    cursor: AtomicUsize,
}

/// Dispatch state shared between the orchestrator and the workers.
struct TeamShared {
    state: Mutex<TeamState>,
    cv: Condvar,
    /// Mirror of `state.epoch` that parked-adjacent workers can spin on
    /// without taking the mutex.
    epoch_hint: AtomicU64,
}

struct TeamState {
    /// Bumped once per published batch (and once at shutdown); workers
    /// use it to tell a fresh publication from a spurious wakeup.
    epoch: u64,
    batch: Option<Arc<TeamBatch>>,
    shutdown: bool,
}

/// How long a worker spins on the epoch hint before parking on the
/// condvar. Per-cycle shard dispatch arrives within microseconds, so a
/// short spin usually skips the futex round-trip entirely.
const TEAM_SPIN: u32 = 1024;

/// A persistent worker team with epoch-ticketed batch dispatch.
///
/// Built for the sharded stepper's per-cycle fan-outs: threads are
/// spawned once at construction and reused for every batch, so the
/// per-dispatch cost is a mutex publish plus a condvar notify instead
/// of a full `thread::scope` spawn/join round trip. See the module
/// docs for the protocol.
///
/// `Team::new(1)` (or fewer) spawns no threads at all; every batch then
/// runs inline on the caller. Batches of one task also run inline.
///
/// Dropping the team sets the shutdown flag and joins every worker, so
/// a `Team` owned by a simulation never outlives it.
pub struct Team {
    shared: Arc<TeamShared>,
    workers: Vec<std::thread::JoinHandle<()>>,
}

impl std::fmt::Debug for Team {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Team")
            .field("parallelism", &self.parallelism())
            .finish()
    }
}

/// Locks a team mutex, shrugging off poisoning: task panics are caught
/// inside the job closures, and no invariant-bearing state is mutated
/// under these locks anyway.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|p| p.into_inner())
}

/// Claims and runs tasks from `batch` until its cursor runs past the
/// end. Runs on workers *and* on the dispatching thread, so batch
/// completion never depends on a worker waking up.
fn team_run_batch(batch: &TeamBatch) {
    loop {
        let i = batch.cursor.fetch_add(1, Ordering::Relaxed);
        if i >= batch.jobs.len() {
            return;
        }
        let job = lock(&batch.jobs[i]).take();
        if let Some(job) = job {
            job();
        }
    }
}

impl Team {
    /// Creates a team of `parallelism - 1` worker threads (the
    /// dispatching thread is the final member: it claims tasks from
    /// every batch it publishes).
    pub fn new(parallelism: usize) -> Team {
        let shared = Arc::new(TeamShared {
            state: Mutex::new(TeamState {
                epoch: 0,
                batch: None,
                shutdown: false,
            }),
            cv: Condvar::new(),
            epoch_hint: AtomicU64::new(0),
        });
        let workers = (1..parallelism.max(1))
            .map(|_| {
                let shared = Arc::clone(&shared);
                std::thread::spawn(move || Team::worker_loop(&shared))
            })
            .collect();
        Team { shared, workers }
    }

    /// The team's total parallelism: worker threads plus the
    /// dispatching caller.
    pub fn parallelism(&self) -> usize {
        self.workers.len() + 1
    }

    fn worker_loop(shared: &TeamShared) {
        let mut seen = 0u64;
        loop {
            // Spin briefly before parking: in steady-state stepping the
            // next batch lands microseconds after the last one retired.
            let mut spins = 0;
            while shared.epoch_hint.load(Ordering::Acquire) == seen && spins < TEAM_SPIN {
                std::hint::spin_loop();
                spins += 1;
            }
            let batch = {
                let mut state = lock(&shared.state);
                loop {
                    if state.shutdown {
                        return;
                    }
                    if state.epoch != seen {
                        seen = state.epoch;
                        if let Some(b) = &state.batch {
                            break Arc::clone(b);
                        }
                        // The epoch advanced but its batch already
                        // retired (the orchestrator and the other
                        // workers finished it): keep waiting.
                    }
                    state = shared.cv.wait(state).unwrap_or_else(|p| p.into_inner());
                }
            };
            team_run_batch(&batch);
        }
    }

    /// Runs `tasks` on the team, returning results in submission order.
    ///
    /// # Panics
    ///
    /// Panics if any task panicked — after the whole batch has drained,
    /// with the first failing task's index and message. Use
    /// [`Team::try_run`] to handle task panics as values.
    pub fn run<T, F>(&self, tasks: Vec<F>) -> Vec<T>
    where
        F: FnOnce() -> T + Send + 'static,
        T: Send + 'static,
    {
        match self.try_run(tasks) {
            Ok(out) => out,
            Err(e) => panic!("{e}"),
        }
    }

    /// Like [`Team::run`], but surfaces a task panic as a [`PoolError`]
    /// (lowest failing index) instead of resurfacing it.
    ///
    /// Every batch drains fully before this returns — a panicking task
    /// neither hangs the batch nor wedges the team, and later batches
    /// dispatch normally.
    pub fn try_run<T, F>(&self, tasks: Vec<F>) -> Result<Vec<T>, PoolError>
    where
        F: FnOnce() -> T + Send + 'static,
        T: Send + 'static,
    {
        let n = tasks.len();
        if self.workers.is_empty() || n <= 1 {
            return run_inline(tasks);
        }

        // Result delivery rides inside each job, so the shared batch
        // stays untyped. The channel also provides the happens-before
        // edge: once all `n` results are received, every task closure
        // (and everything it captured) has been dropped.
        let (tx, rx) = mpsc::channel::<(usize, Result<T, String>)>();
        let jobs: Vec<Mutex<Option<TeamJob>>> = tasks
            .into_iter()
            .enumerate()
            .map(|(i, task)| {
                let tx = tx.clone();
                let job: TeamJob = Box::new(move || {
                    let result = catch_unwind(AssertUnwindSafe(task))
                        .map_err(|payload| panic_message(&payload));
                    let _ = tx.send((i, result));
                });
                Mutex::new(Some(job))
            })
            .collect();
        drop(tx);
        let batch = Arc::new(TeamBatch {
            jobs,
            cursor: AtomicUsize::new(0),
        });

        {
            let mut state = lock(&self.shared.state);
            state.epoch = state.epoch.wrapping_add(1);
            state.batch = Some(Arc::clone(&batch));
            self.shared.epoch_hint.store(state.epoch, Ordering::Release);
            self.shared.cv.notify_all();
        }

        // The dispatcher is a team member too: claim from the same
        // cursor so the batch completes even if every worker is still
        // parked.
        team_run_batch(&batch);

        let results = collect_in_order(
            n,
            (0..n).map(|_| {
                rx.recv()
                    .expect("every team job sends exactly one result before dropping its sender")
            }),
        );
        // Retire the batch so no worker holds it across the gap to the
        // next dispatch (its task slots are already empty).
        lock(&self.shared.state).batch = None;
        results
    }
}

impl Drop for Team {
    fn drop(&mut self) {
        {
            let mut state = lock(&self.shared.state);
            state.shutdown = true;
            state.epoch = state.epoch.wrapping_add(1);
            self.shared.epoch_hint.store(state.epoch, Ordering::Release);
            self.shared.cv.notify_all();
        }
        for handle in self.workers.drain(..) {
            // A worker can only terminate by observing `shutdown`; if
            // one somehow panicked the team is already compromised, so
            // surfacing that here is correct.
            if handle.join().is_err() {
                panic!("team worker panicked outside a task");
            }
        }
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
    fn effective_jobs_explicit_request_wins() {
        assert_eq!(effective_jobs(Some(3)), 3);
        // A zero request falls through to the environment/default.
        assert!(effective_jobs(Some(0)) >= 1);
        assert!(effective_jobs(None) >= 1);
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
    fn team_of_one_spawns_no_threads() {
        // parallelism <= 1 runs batches inline: thread-local state set
        // by tasks is visible to the caller afterwards.
        thread_local! {
            static MARK: std::cell::Cell<usize> = const { std::cell::Cell::new(0) };
        }
        let team = Team::new(1);
        assert_eq!(team.parallelism(), 1);
        let tasks: Vec<_> = (0..4usize)
            .map(|i| move || MARK.with(|m| m.set(m.get() + i)))
            .collect();
        team.run(tasks);
        assert_eq!(MARK.with(std::cell::Cell::get), 0 + 1 + 2 + 3);
    }

    #[test]
    fn team_reused_across_many_batches() {
        // The whole point of the team: many small batches on the same
        // threads. 200 batches of 8 tasks must all come back correct.
        let team = Team::new(4);
        for round in 0..200u64 {
            let tasks: Vec<_> = (0..8u64).map(|i| move || round * 100 + i).collect();
            let out = team.run(tasks);
            assert_eq!(out, (0..8u64).map(|i| round * 100 + i).collect::<Vec<_>>());
        }
    }

    #[test]
    fn team_empty_batch() {
        let team = Team::new(4);
        let out: Vec<u32> = team.run(Vec::<fn() -> u32>::new());
        assert!(out.is_empty());
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

    #[test]
    fn prop_team_panic_reports_lowest_index_and_team_stays_usable() {
        // Property: for random batch sizes and random panic subsets,
        // try_run reports the lowest panicking index, and the very next
        // batch on the same team completes correctly.
        let team = Team::new(3);
        crate::check::check(
            "pool::prop_team_panic_reports_lowest_index_and_team_stays_usable",
            crate::check::Config::cases(32),
            |src| {
                let n = src.usize_in(1..24);
                let mut panics = Vec::new();
                for i in 0..n {
                    if src.usize_in(0..4) == 0 {
                        panics.push(i);
                    }
                }
                let panic_set = panics.clone();
                let tasks: Vec<Box<dyn FnOnce() -> usize + Send>> = (0..n)
                    .map(|i| {
                        let boom = panic_set.contains(&i);
                        Box::new(move || {
                            if boom {
                                panic!("prop boom {i}");
                            }
                            i * 7
                        }) as Box<dyn FnOnce() -> usize + Send>
                    })
                    .collect();
                match team.try_run(tasks) {
                    Ok(out) => {
                        assert!(panics.is_empty(), "panicking batch reported Ok");
                        assert_eq!(out, (0..n).map(|i| i * 7).collect::<Vec<_>>());
                    }
                    Err(e) => {
                        assert_eq!(Some(e.task_index), panics.first().copied());
                        assert_eq!(e.message, format!("prop boom {}", e.task_index));
                    }
                }
                // Later batches still run.
                let out = team.run((0..4usize).map(|i| move || i + 1).collect::<Vec<_>>());
                assert_eq!(out, vec![1, 2, 3, 4]);
            },
        );
    }

    #[test]
    fn team_drop_joins_workers() {
        // Dropping a team must not leave threads behind. A spawned
        // thread inherits its creator's `comm`, so tagging this thread
        // makes the census count this test's threads only (sibling
        // tests run teams of their own meanwhile). /proc is the only
        // std-visible census; skip quietly where absent.
        const TAG: &str = "join-census";
        if std::fs::write("/proc/thread-self/comm", TAG).is_err() {
            return;
        }
        let count_threads = || -> usize {
            std::fs::read_dir("/proc/self/task")
                .expect("thread census available above")
                .filter_map(|task| std::fs::read_to_string(task.ok()?.path().join("comm")).ok())
                .filter(|comm| comm.trim_end() == TAG)
                .count()
        };
        let before = count_threads();
        for _ in 0..20 {
            let team = Team::new(4);
            let out = team.run((0..8u32).map(|i| move || i).collect::<Vec<_>>());
            assert_eq!(out.len(), 8);
        }
        // A joined thread can outlive its join in /proc by a moment;
        // a leaked one never goes away.
        let mut after = count_threads();
        for _ in 0..200 {
            if after <= before {
                break;
            }
            std::thread::sleep(std::time::Duration::from_millis(10));
            after = count_threads();
        }
        assert!(
            after <= before,
            "team drops leaked threads: {before} -> {after}"
        );
    }
}
