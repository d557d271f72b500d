//! The resident shard driver: the one thread per shard that drains its
//! combining queue, runs each round as one in-place backend call per
//! request kind, and contains a backend panic.

// normlint: module(no-panic)
// A panic here unwinds inside the shard protocol and poisons shard
// locks: recover, fail closed through `Core::torn_state`, or attach a
// justified waiver.

use std::any::Any;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::Instant;

use super::request::RequestKind;
use super::serve::{execute, Core, PendingEntry, Served, Shard, Work};
use super::stats::RoundStats;
use super::ticket::{ReadyWaker, Slot, SlotFail, SlotOutcome, SlotResult};
use crate::error::NormError;

/// A round's outcome for one entry, held back until the driver has
/// folded the round's stats and released the shard's claim.
type Fill = (Arc<Slot>, SlotOutcome);

/// The resident driver loop for shard `idx` — the only thread that
/// drains this shard's combining queue and runs its rounds. Parks on
/// `work_cv` while the queue is empty or an inline caller holds the
/// shard's claim (zero wake-ups over an idle window — the
/// thread-hygiene suite pins this), holds the claim for the whole
/// round, and exits once shutdown is requested *and* the queue is
/// empty — work admitted before shutdown always executes. A round runs
/// as soon as the driver drains it: requests that queue while a round
/// runs join the next one, and no round is held back to wait for more.
///
/// A round's slots are filled only after its stats are folded and the
/// claim is cleared: a woken submitter then finds its request in
/// [`NormService::stats`](super::NormService::stats), and its next
/// request on the now idle shard runs inline instead of queueing behind
/// a round that already ended.
pub(super) fn driver_loop(core: &Core, idx: usize) {
    let shard = &core.shards[idx];
    // Reused across rounds, so steady-state serving does not allocate.
    let mut fills: Vec<Fill> = Vec::new();
    loop {
        let mut queue = core.queue_of(shard);
        while queue.pending.is_empty() || queue.claimed {
            if queue.pending.is_empty() && core.shutdown.load(Ordering::SeqCst) {
                return;
            }
            let idle_from = Instant::now();
            queue = match shard.work_cv.wait(queue) {
                Ok(guard) => guard,
                Err(poisoned) => {
                    core.shutdown.store(true, Ordering::SeqCst);
                    poisoned.into_inner()
                }
            };
            queue.stats.worker_wakeups += 1;
            queue.stats.worker_idle += idle_from.elapsed();
        }
        let busy_from = Instant::now();
        queue.claimed = true;
        // Drain the whole waiting line: drained entries leave it, so the
        // queue-depth bound sees only genuinely waiting requests — an
        // in-flight round never occupies a depth slot. The line is
        // already in class order (`enqueue` puts a high-priority arrival
        // at the end of the high prefix), so the round runs high first,
        // FIFO within a class.
        let entries = std::mem::take(&mut queue.pending);
        let failed = queue.failed;
        drop(queue);

        let round = if failed {
            fail_entries(shard, entries, &mut fills);
            RoundStats::default()
        } else {
            run_round(core, shard, entries, &mut fills)
        };
        {
            let mut queue = core.queue_of(shard);
            queue.stats.batches += round.batches;
            queue.stats.rows += round.rows;
            queue.stats.whiten_rows += round.whiten_rows;
            queue.stats.coalesced_requests += round.coalesced_requests;
            queue.stats.queue_wait += round.queue_wait;
            queue.stats.execute += round.execute;
            queue.stats.worker_busy += busy_from.elapsed();
            queue.claimed = false;
        }
        let wakers: Vec<ReadyWaker> = fills
            .drain(..)
            .filter_map(|(slot, outcome)| slot.fill(outcome))
            .collect();
        // Wakers are caller code: run them after every shard lock is
        // released, contain their panics, and count the containments —
        // one throwing callback must not take down the driver or block
        // the other tickets' callbacks.
        let mut waker_panics = 0u64;
        for waker in wakers {
            if catch_unwind(AssertUnwindSafe(waker)).is_err() {
                waker_panics += 1;
            }
        }
        if waker_panics > 0 {
            core.queue_of(shard).stats.waker_panics += waker_panics;
        }
    }
}

/// Fail every entry with [`NormError::ServiceShutdown`], recycling its
/// payload buffer — the drain path for a shard whose backend tore.
fn fail_entries(shard: &Shard, entries: Vec<PendingEntry>, fills: &mut Vec<Fill>) {
    for entry in entries {
        shard.pool.give_back(entry.bits);
        fills.push((entry.slot, Err(SlotFail::Err(NormError::ServiceShutdown))));
    }
}

/// Contain a backend panic caught mid-round: mark the service shut down
/// and the shard failed, wake the drivers, and queue the payload for the
/// round's first *blocking* waiter — its submitter re-raises it on its
/// own thread, preserving the panicking-backend contract the resilience
/// suite pins — while every other waiter observes
/// [`NormError::ServiceShutdown`]. If the round held only tickets, the
/// payload is dropped and every ticket reports shutdown.
fn deliver_panic(
    core: &Core,
    shard: &Shard,
    payload: Box<dyn Any + Send>,
    entries: Vec<PendingEntry>,
    fills: &mut Vec<Fill>,
) {
    core.queue_of(shard).failed = true;
    core.request_shutdown();
    let mut payload = Some(payload);
    for entry in entries {
        shard.pool.give_back(entry.bits);
        let fail = match payload.take() {
            Some(caught) if entry.blocking => SlotFail::Panic(caught),
            recovered => {
                payload = recovered;
                SlotFail::Err(NormError::ServiceShutdown)
            }
        };
        fills.push((entry.slot, Err(fail)));
    }
}

/// Run one combining round: execute the drained entries and queue each
/// waiter's outcome on `fills`. The entries are
/// partitioned by [`RequestKind`] — normalization rows and whitening
/// groups execute through different backend calls, so a mixed round
/// issues one sub-batch per kind present (arrival order preserved within
/// each). Panic-safe: a backend panic is caught and contained via
/// [`deliver_panic`] — the driver thread itself never unwinds.
fn run_round(
    core: &Core,
    shard: &Shard,
    entries: Vec<PendingEntry>,
    fills: &mut Vec<Fill>,
) -> RoundStats {
    let (whiten, norm): (Vec<_>, Vec<_>) = entries
        .into_iter()
        .partition(|entry| entry.kind == RequestKind::Whiten);
    let mut round = RoundStats::default();
    if !norm.is_empty() {
        let sub = run_subround(core, shard, norm, RequestKind::Normalize, fills);
        round.absorb(sub);
    }
    if !whiten.is_empty() {
        // A normalization panic earlier in this same round failed the
        // shard; its whitening share must fail too, not execute on torn
        // state.
        if core.queue_of(shard).failed {
            fail_entries(shard, whiten, fills);
        } else {
            let sub = run_subround(core, shard, whiten, RequestKind::Whiten, fills);
            round.absorb(sub);
        }
    }
    round
}

/// Execute one kind's share of a combining round as a single backend
/// call and queue its waiters' outcomes on `fills`.
///
/// One path for one entry or many: the call runs **in place** over the
/// entries' own payload buffers (encoded at enqueue and owned by the
/// round), and each buffer is handed to its slot as the reply. There is
/// no concatenated input, no output lease and no split-back copy, and
/// the bits equal one call over their concatenation. A failed call
/// fails every entry and returns its buffer to the pool — a partly
/// overwritten buffer is never delivered — and a panic goes through
/// [`deliver_panic`].
fn run_subround(
    core: &Core,
    shard: &Shard,
    mut entries: Vec<PendingEntry>,
    kind: RequestKind,
    fills: &mut Vec<Fill>,
) -> RoundStats {
    let d = core.config.d;
    let batch_requests = entries.len();
    let batch_rows = entries.iter().map(|e| e.bits.len()).sum::<usize>() / d;
    let mut sub = RoundStats {
        batches: 1,
        // Requests share a batch only within their own sub-batch — a
        // lone whitening group riding a round with two normalization
        // requests did not share its backend call with anything.
        coalesced_requests: if batch_requests > 1 {
            batch_requests as u64
        } else {
            0
        },
        ..RoundStats::default()
    };
    let exec = catch_unwind(AssertUnwindSafe(|| {
        let mut segments: Vec<&mut [u32]> =
            entries.iter_mut().map(|e| e.bits.as_mut_slice()).collect();
        execute(core, shard, kind, Work::InPlace(&mut segments))
    }));
    match exec {
        Ok(Ok(e)) => {
            sub.queue_wait = entries
                .iter()
                .map(|entry| e.exec_start.duration_since(entry.accepted))
                .sum();
            sub.execute = e.execute;
            // Stats count rows actually processed: a failed sub-batch
            // issued a backend call but produced nothing.
            sub.rows = batch_rows as u64;
            if kind == RequestKind::Whiten {
                sub.whiten_rows = batch_rows as u64;
            }
            for entry in entries {
                let served = Served {
                    rows: entry.bits.len() / d,
                    batch_rows,
                    batch_requests,
                };
                let result = SlotResult {
                    bits: entry.bits,
                    served,
                };
                fills.push((entry.slot, Ok(result)));
            }
        }
        Ok(Err(err)) => {
            for entry in entries {
                shard.pool.give_back(entry.bits);
                fills.push((entry.slot, Err(SlotFail::Err(err.clone()))));
            }
        }
        Err(payload) => deliver_panic(core, shard, payload, entries, fills),
    }
    sub
}
