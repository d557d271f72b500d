//! The crate's one fork-join vehicle.
//!
//! Every partitioned call — the generic and SIMD norm engines, the
//! whitening group partitioner — splits its work into contiguous parts
//! itself (the *partition math*, via `split_rows` or whole-group
//! chunks) and hands the parts to [`fork`], so output bits cannot depend
//! on how the parts were executed. `fork` spawns per-call
//! `std::thread::scope` workers; it is the vehicle behind the
//! thread-count entry points
//! ([`NormBackend::normalize_batch_bits`](crate::NormBackend::normalize_batch_bits),
//! [`WhitenExec::whiten_groups`](crate::WhitenExec::whiten_groups),
//! [`Normalizer::normalize_batch_parallel`](crate::Normalizer::normalize_batch_parallel)),
//! which one-shot callers (CLI, benches, tests) use, and the only place
//! in the crate's non-test code that spawns a scoped thread. The serving
//! path never forks: each shard's one resident driver runs the serial
//! kernels, and shards are the service's parallelism.

/// Run `task(part)` for every item of `parts`, the first on the calling
/// thread and each other on its own scoped thread, returning once all of
/// them finished. A panicking part propagates to the caller after the
/// surviving parts completed (the `std::thread::scope` contract).
pub(crate) fn fork<T: Send>(parts: Vec<T>, task: impl Fn(T) + Sync) {
    let mut parts = parts.into_iter();
    let Some(first) = parts.next() else {
        return;
    };
    let task = &task;
    std::thread::scope(|scope| {
        for part in parts {
            scope.spawn(move || task(part));
        }
        task(first);
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::panic::{catch_unwind, AssertUnwindSafe};
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn fork_executes_each_part_exactly_once() {
        for parts in [0, 1, 2, 3, 7] {
            let hits: Vec<AtomicUsize> = (0..parts).map(|_| AtomicUsize::new(0)).collect();
            fork((0..parts).collect(), |part: usize| {
                hits[part].fetch_add(1, Ordering::SeqCst);
            });
            let hits: Vec<usize> = hits.into_iter().map(AtomicUsize::into_inner).collect();
            assert_eq!(hits, vec![1; parts]);
        }
    }

    #[test]
    fn first_part_runs_on_the_caller() {
        let caller = std::thread::current().id();
        fork(vec![()], |()| {
            assert_eq!(std::thread::current().id(), caller)
        });
        let ids = std::sync::Mutex::new(Vec::new());
        fork(vec![0, 1, 2], |part: usize| {
            ids.lock()
                .unwrap()
                .push((part, std::thread::current().id()));
        });
        for (part, id) in ids.into_inner().unwrap() {
            assert_eq!(id == caller, part == 0, "part {part}");
        }
    }

    #[test]
    fn panicking_part_reaches_the_caller_after_other_parts_ran() {
        let ran = AtomicUsize::new(0);
        let caught = catch_unwind(AssertUnwindSafe(|| {
            fork(vec![0, 1, 2], |part: usize| {
                ran.fetch_add(1, Ordering::SeqCst);
                assert!(part != 1, "boom in part 1");
            });
        }));
        assert!(caught.is_err(), "the part's panic must reach the caller");
        assert_eq!(ran.load(Ordering::SeqCst), 3, "surviving parts still ran");
    }
}
