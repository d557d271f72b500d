//! Partition execution vehicles.
//!
//! Every partitioned call — the generic and SIMD norm engines, the
//! whitening group partitioner — splits its work into contiguous parts
//! itself and hands the parts to a [`PartitionRunner`], the one
//! fork-join seam in the crate:
//!
//! - [`PartitionRunner`] is the seam the engines partition through: a
//!   width (how many parts to split into) and a `run(parts, task)`
//!   that executes `task(0..parts)` concurrently and returns when all
//!   parts finished. The engines keep owning the *partition math*
//!   (contiguous runs via `worker_rows`); the runner only supplies the
//!   execution vehicle, so output bits cannot depend on which runner
//!   ran.
//! - [`SerialRunner`] runs parts in a loop on the caller.
//! - [`ScopedRunner`] spawns per-call `std::thread::scope` workers. It
//!   is the vehicle behind the thread-count entry points
//!   ([`NormBackend::normalize_batch_bits`](crate::NormBackend::normalize_batch_bits),
//!   [`WhitenExec::whiten_groups`](crate::WhitenExec::whiten_groups)),
//!   which one-shot callers (CLI, benches, tests) use, and the only
//!   place in the crate's non-test code that spawns a scoped thread.
//! - [`PartitionPool`] is the resident vehicle: N helper threads spawn
//!   once, park on a condvar, execute claimed parts when a round
//!   arrives, and park again. The caller participates as the
//!   (N+1)-th worker, so a pool of `t-1` helpers gives the same
//!   `t`-way partition as `ScopedRunner(t)`.
//!   Idle helpers burn zero CPU (no busy-spin — proven by the
//!   wake-up counter the thread-hygiene tests read), and
//!   [`PartitionPool::shutdown`]/`Drop` joins every helper.
//!
//! Panic containment: a part that panics inside a pool round is caught
//! on the helper, recorded, and re-raised on the *calling* thread once
//! the round completes (every other part still runs). The pool itself
//! stays serviceable — the next round runs normally — which is what
//! lets the service layer translate a panicking request into its
//! fail-closed shutdown protocol instead of deadlocking on a dead
//! helper.

// The resident pool smuggles a borrowed task reference to parked
// helper threads, which requires one lifetime transmute (see the
// SAFETY argument at the erasure site). Everything else stays safe.
#![allow(unsafe_code)]

use std::any::Any;
use std::fmt;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;

/// The execution vehicle behind the engines' batch partitioning: a
/// fixed width and a fork-join `run`. Implementations must execute
/// every part index in `0..parts` exactly once and return only after
/// all of them finished; a panicking part must propagate to the caller
/// of [`run`](PartitionRunner::run) (after the surviving parts
/// completed), never be swallowed.
///
/// The engines split work into contiguous per-part chunks *before*
/// calling `run`, using the same `worker_rows` split for every
/// implementation — so the bits an engine produces are identical for
/// any runner, resident or scoped or serial.
pub trait PartitionRunner: Send + Sync {
    /// How many parts this runner wants work split into (callers may
    /// pass fewer parts to [`run`](PartitionRunner::run) when the
    /// batch is smaller). Always ≥ 1.
    fn width(&self) -> usize;

    /// Execute `task(part)` for every `part in 0..parts`, concurrently
    /// where the vehicle allows, returning once all parts completed.
    fn run(&self, parts: usize, task: &(dyn Fn(usize) + Sync));
}

/// Runs every part on the calling thread, in index order. The
/// `threads == 1` execution vehicle.
#[derive(Debug, Clone, Copy, Default)]
pub struct SerialRunner;

impl PartitionRunner for SerialRunner {
    fn width(&self) -> usize {
        1
    }

    fn run(&self, parts: usize, task: &(dyn Fn(usize) + Sync)) {
        for part in 0..parts.max(1) {
            task(part);
        }
    }
}

/// Per-call `std::thread::scope` workers, one spawned thread per part
/// beyond the caller's own: the vehicle behind the thread-count entry
/// points ([`NormBackend::normalize_batch_bits`](crate::NormBackend::normalize_batch_bits),
/// [`WhitenExec::whiten_groups`](crate::WhitenExec::whiten_groups)),
/// where a call is too rare to justify a resident pool. The serving path
/// runs on [`PartitionPool`] instead.
#[derive(Debug, Clone, Copy)]
pub struct ScopedRunner(pub usize);

impl PartitionRunner for ScopedRunner {
    fn width(&self) -> usize {
        self.0.max(1)
    }

    fn run(&self, parts: usize, task: &(dyn Fn(usize) + Sync)) {
        if parts <= 1 {
            task(0);
            return;
        }
        std::thread::scope(|scope| {
            for part in 1..parts {
                scope.spawn(move || task(part));
            }
            task(0);
        });
    }
}

/// One round of pool work, protected by the job mutex. The task
/// reference is lifetime-erased (see the SAFETY argument in
/// [`PartitionPool::run`]); it is `Some` strictly between a round's
/// publication and its retirement, both of which happen under this
/// mutex.
struct PoolJob {
    task: Option<&'static (dyn Fn(usize) + Sync)>,
    /// Next part index to claim. Parts are claimed one at a time under
    /// the lock; `next == parts` means the round is fully claimed (but
    /// not necessarily finished — see `remaining`).
    next: usize,
    parts: usize,
    /// Parts claimed but whose `task(part)` call has not returned yet,
    /// plus parts not yet claimed. `0` means the round is done.
    remaining: usize,
    /// First panic payload caught in this round; re-raised on the
    /// calling thread at round end.
    panic: Option<Box<dyn Any + Send>>,
    shutdown: bool,
    /// Times a parked helper woke from its condvar wait. An idle pool
    /// must not accumulate wake-ups — the thread-hygiene suite pins
    /// this (no busy-spin, no periodic polling).
    wakeups: u64,
}

struct PoolShared {
    job: Mutex<PoolJob>,
    /// Helpers park here; a published round (or shutdown) notifies.
    work_cv: Condvar,
    /// The round's caller parks here; the last completed part notifies.
    done_cv: Condvar,
    /// Callers wanting to publish a round park here while a previous
    /// round is still retiring (concurrent `run` calls are legal).
    idle_cv: Condvar,
}

impl PoolShared {
    /// Job-lock accessor recovering from poisoning: the pool's own
    /// locked sections never panic (task panics are caught *outside*
    /// the lock), so a poisoned job mutex still holds consistent state.
    fn job(&self) -> MutexGuard<'_, PoolJob> {
        self.job.lock().unwrap_or_else(PoisonError::into_inner)
    }

    fn wait_work<'a>(&self, guard: MutexGuard<'a, PoolJob>) -> MutexGuard<'a, PoolJob> {
        self.work_cv
            .wait(guard)
            .unwrap_or_else(PoisonError::into_inner)
    }

    fn wait_done<'a>(&self, guard: MutexGuard<'a, PoolJob>) -> MutexGuard<'a, PoolJob> {
        self.done_cv
            .wait(guard)
            .unwrap_or_else(PoisonError::into_inner)
    }

    fn wait_idle<'a>(&self, guard: MutexGuard<'a, PoolJob>) -> MutexGuard<'a, PoolJob> {
        self.idle_cv
            .wait(guard)
            .unwrap_or_else(PoisonError::into_inner)
    }
}

/// A resident fork-join pool: `helpers` threads spawned once at
/// construction, parked on a condvar between rounds. The caller of
/// [`run`](PartitionPool::run) participates in the round it publishes,
/// so [`width`](PartitionRunner::width) is `helpers + 1` and a pool
/// built with `helpers = t - 1` replaces `threads = t` scoped workers
/// one for one.
///
/// Concurrent `run` calls from different threads are serialized: a
/// second caller parks until the first round retired. (The service
/// layer already serializes rounds through its backend mutex; this
/// guard makes the pool safe for the per-request path, where a
/// normalize and a whiten call can race on the same shard's pool.)
pub struct PartitionPool {
    shared: Arc<PoolShared>,
    helpers: usize,
    handles: Mutex<Vec<JoinHandle<()>>>,
}

impl fmt::Debug for PartitionPool {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("PartitionPool")
            .field("helpers", &self.helpers)
            .finish_non_exhaustive()
    }
}

impl PartitionPool {
    /// Spawn `helpers` parked helper threads. `helpers == 0` is a valid
    /// degenerate pool (width 1, every round runs serially on the
    /// caller). Thread names are `{label}h{index}`, truncated by the OS
    /// to 15 bytes — the thread-hygiene tests count threads by this
    /// prefix, so keep `label` short and unique per owner.
    pub fn new(helpers: usize, label: &str) -> Self {
        let shared = Arc::new(PoolShared {
            job: Mutex::new(PoolJob {
                task: None,
                next: 0,
                parts: 0,
                remaining: 0,
                panic: None,
                shutdown: false,
                wakeups: 0,
            }),
            work_cv: Condvar::new(),
            done_cv: Condvar::new(),
            idle_cv: Condvar::new(),
        });
        let mut handles = Vec::with_capacity(helpers);
        for i in 0..helpers {
            let shared = Arc::clone(&shared);
            let handle = std::thread::Builder::new()
                .name(format!("{label}h{i}"))
                .spawn(move || helper_loop(&shared))
                .expect("spawning a pool helper thread failed");
            handles.push(handle);
        }
        PartitionPool {
            shared,
            helpers,
            handles: Mutex::new(handles),
        }
    }

    /// Total wake-ups parked helpers have experienced. A pool that is
    /// idle over a window must not accumulate any (beyond the rare
    /// spurious condvar wake) — the hygiene tests pin this.
    pub fn wakeups(&self) -> u64 {
        self.shared.job().wakeups
    }

    /// Ask every helper to exit and join them. Idempotent; also run by
    /// `Drop`. Never called from inside a round.
    pub fn shutdown(&self) {
        {
            let mut job = self.shared.job();
            job.shutdown = true;
        }
        self.shared.work_cv.notify_all();
        let mut handles = self.handles.lock().unwrap_or_else(PoisonError::into_inner);
        for handle in handles.drain(..) {
            // A helper that panicked outside a task (impossible by
            // construction, but join returns Result) has already
            // terminated; either way the thread is gone.
            drop(handle.join());
        }
    }
}

impl Drop for PartitionPool {
    fn drop(&mut self) {
        self.shutdown();
    }
}

impl PartitionRunner for PartitionPool {
    fn width(&self) -> usize {
        self.helpers + 1
    }

    fn run(&self, parts: usize, task: &(dyn Fn(usize) + Sync)) {
        if parts <= 1 {
            task(0);
            return;
        }
        let shared = &self.shared;
        let mut job = shared.job();
        // Serialize concurrent rounds: publish only into an idle pool.
        while job.task.is_some() {
            job = shared.wait_idle(job);
        }
        // SAFETY: the task reference is only dereferenced by helpers
        // between this publication and the retirement below, both under
        // the job mutex. A helper copies the reference out only while
        // `task.is_some() && next < parts` holds, and signals it is done
        // with the call by decrementing `remaining` *after* `task(part)`
        // returned. `participate` does not return until `remaining == 0`
        // and it has set `task = None` back under the lock — so no
        // dereference can happen after `run` returns, which is exactly
        // the borrow the caller handed us. The erased reference never
        // escapes the pool.
        let erased: &'static (dyn Fn(usize) + Sync) =
            // SAFETY: see the invariant argument directly above.
            unsafe { std::mem::transmute::<&(dyn Fn(usize) + Sync), _>(task) };
        job.task = Some(erased);
        job.next = 0;
        job.parts = parts;
        job.remaining = parts;
        drop(job);
        shared.work_cv.notify_all();
        if let Some(payload) = self.participate() {
            resume_unwind(payload);
        }
    }
}

impl PartitionPool {
    /// The calling thread's share of the round it just published: claim
    /// parts alongside the helpers, then wait for the stragglers,
    /// retire the task pointer, and hand back any caught panic.
    fn participate(&self) -> Option<Box<dyn Any + Send>> {
        let shared = &self.shared;
        let mut job = shared.job();
        loop {
            while job.next < job.parts {
                let part = job.next;
                job.next += 1;
                let Some(task) = job.task else { break };
                drop(job);
                let result = catch_unwind(AssertUnwindSafe(|| task(part)));
                job = shared.job();
                if let Err(payload) = result {
                    if job.panic.is_none() {
                        job.panic = Some(payload);
                    }
                }
                job.remaining -= 1;
            }
            if job.remaining == 0 {
                break;
            }
            job = shared.wait_done(job);
        }
        // Retire the round: after this no helper can observe the erased
        // reference, so the borrow `run` was given may end.
        job.task = None;
        let payload = job.panic.take();
        drop(job);
        shared.idle_cv.notify_all();
        payload
    }
}

/// A parked helper: wake on published work (or shutdown), claim parts
/// one at a time, run each outside the lock with panics caught, park
/// again when the round is fully claimed.
fn helper_loop(shared: &PoolShared) {
    let mut job = shared.job();
    loop {
        while !job.shutdown && (job.task.is_none() || job.next >= job.parts) {
            job = shared.wait_work(job);
            job.wakeups += 1;
        }
        if job.shutdown {
            return;
        }
        let part = job.next;
        job.next += 1;
        let Some(task) = job.task else {
            continue;
        };
        drop(job);
        let result = catch_unwind(AssertUnwindSafe(|| task(part)));
        job = shared.job();
        if let Err(payload) = result {
            if job.panic.is_none() {
                job.panic = Some(payload);
            }
        }
        job.remaining -= 1;
        if job.remaining == 0 {
            shared.done_cv.notify_all();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::time::Duration;

    fn count_parts(runner: &dyn PartitionRunner, parts: usize) -> Vec<usize> {
        let hits: Vec<AtomicUsize> = (0..parts).map(|_| AtomicUsize::new(0)).collect();
        runner.run(parts, &|part| {
            hits[part].fetch_add(1, Ordering::SeqCst);
        });
        hits.into_iter().map(|h| h.into_inner()).collect()
    }

    #[test]
    fn every_runner_executes_each_part_exactly_once() {
        let pool = PartitionPool::new(3, "xt1-");
        let runners: [&dyn PartitionRunner; 3] = [&SerialRunner, &ScopedRunner(4), &pool];
        for runner in runners {
            for parts in [1, 2, 3, 4, 7] {
                assert_eq!(count_parts(runner, parts), vec![1; parts]);
            }
        }
    }

    #[test]
    fn pool_width_counts_the_caller() {
        assert_eq!(PartitionPool::new(0, "xt2-").width(), 1);
        assert_eq!(PartitionPool::new(3, "xt3-").width(), 4);
        assert_eq!(SerialRunner.width(), 1);
        assert_eq!(ScopedRunner(0).width(), 1);
        assert_eq!(ScopedRunner(5).width(), 5);
    }

    #[test]
    fn pool_survives_many_rounds_and_shutdown_is_idempotent() {
        let pool = PartitionPool::new(2, "xt4-");
        for round in 0..100 {
            let sum = AtomicUsize::new(0);
            pool.run(3, &|part| {
                sum.fetch_add(part + round, Ordering::SeqCst);
            });
            assert_eq!(sum.into_inner(), 3 + 3 * round);
        }
        pool.shutdown();
        pool.shutdown();
    }

    #[test]
    fn panicking_part_reaches_the_caller_after_other_parts_ran() {
        let pool = PartitionPool::new(2, "xt5-");
        let ran = AtomicUsize::new(0);
        let caught = catch_unwind(AssertUnwindSafe(|| {
            pool.run(3, &|part| {
                ran.fetch_add(1, Ordering::SeqCst);
                assert!(part != 1, "boom in part 1");
            });
        }));
        assert!(caught.is_err(), "the part's panic must reach the caller");
        assert_eq!(ran.load(Ordering::SeqCst), 3, "surviving parts still ran");
        // The pool is still serviceable after a panicked round.
        assert_eq!(count_parts(&pool, 3), vec![1; 3]);
    }

    #[test]
    fn zero_helper_pool_runs_on_the_caller() {
        let pool = PartitionPool::new(0, "xt6-");
        let caller = std::thread::current().id();
        pool.run(1, &|_| assert_eq!(std::thread::current().id(), caller));
        // Even over-split rounds complete (serially, on the caller).
        assert_eq!(count_parts(&pool, 4), vec![1; 4]);
    }

    #[test]
    fn idle_pool_accumulates_no_wakeups() {
        let pool = PartitionPool::new(2, "xt7-");
        let after_spawn = pool.wakeups();
        std::thread::sleep(Duration::from_millis(60));
        // Spurious wakes are permitted by condvar semantics but never
        // systematic; an idle pool must not poll.
        assert!(
            pool.wakeups() - after_spawn <= 2,
            "idle pool woke {} times over an idle window",
            pool.wakeups() - after_spawn
        );
    }
}
