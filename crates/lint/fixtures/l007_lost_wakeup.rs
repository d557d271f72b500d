// Fixture: L007 fires when a condvar is notified after an atomic flag
// store with no lock taken in between, but not once the mutex is taken.
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Condvar, Mutex, PoisonError};

pub struct Shard {
    pub queue: Mutex<Vec<u64>>,
    pub work_cv: Condvar,
}

pub fn lost(flag: &AtomicBool, shards: &[Shard]) {
    flag.store(true, Ordering::SeqCst);
    for shard in shards {
        shard.work_cv.notify_all();
    }
}

pub fn locked_between(flag: &AtomicBool, shards: &[Shard]) {
    flag.store(true, Ordering::SeqCst);
    for shard in shards {
        drop(shard.queue.lock().unwrap_or_else(PoisonError::into_inner));
        shard.work_cv.notify_all();
    }
}

pub fn store_only(flag: &AtomicBool) {
    flag.store(true, Ordering::SeqCst);
}

pub fn notify_only(shard: &Shard) {
    shard.work_cv.notify_one();
}
