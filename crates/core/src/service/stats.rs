//! Execution counters: [`ServiceStats`], its export form
//! [`ServiceStatsSnapshot`], and the per-round tally the shard drivers
//! fold in.

// normlint: module(no-panic)
// A panic here unwinds inside the shard protocol and poisons shard
// locks: recover, fail closed through `Core::torn_state`, or attach a
// justified waiver.

use std::time::{Duration, Instant};

use super::request::RequestKind;
use super::serve::Executed;
use crate::error::NormError;

/// Counters describing how a service has executed its traffic so far.
/// For a sharded service this is the aggregate over all shards.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ServiceStats {
    /// Requests accepted (valid shape, not rejected at the door).
    pub requests: u64,
    /// Backend batch calls issued.
    pub batches: u64,
    /// Requests that shared a batch with at least one other request.
    pub coalesced_requests: u64,
    /// Total rows normalized.
    pub rows: u64,
    /// Requests rejected with [`NormError::QueueFull`] because their
    /// shard's waiting line was at the configured depth. Blocking and
    /// async submissions are counted alike — both are admitted through
    /// the same per-shard bound.
    pub queue_full_rejections: u64,
    /// [`NormTicket`](super::NormTicket)s dropped before their result was taken. The
    /// abandoned request still executes (it was already accepted), but
    /// its response buffer goes straight back to the shard's pool instead
    /// of to a caller — a steadily growing count means some caller is
    /// submitting work it never collects.
    pub abandoned_tickets: u64,
    /// Cumulative time accepted requests spent between acceptance and the
    /// start of the backend execution that served them, **measured at the
    /// executing thread**: the resident driver (or, for an inline
    /// request, the submitting thread) stamps the moment its backend call
    /// begins, so the span covers queueing, the driver hand-off and the
    /// backend-lock wait — and nothing of the execution itself. Summed
    /// per request; like
    /// [`rows`](ServiceStats::rows), counted only for requests whose
    /// backend call actually ran.
    pub queue_wait: Duration,
    /// Cumulative wall time spent inside backend batch calls (the
    /// normalize call itself, after the backend lock was acquired).
    /// Summed per batch, so `queue_wait + execute` does not double-count
    /// a coalesced batch's execution once per member request.
    pub execute: Duration,
    /// Accepted requests that were whitening groups
    /// ([`NormRequest::whiten_group`](super::NormRequest::whiten_group)) — a subset of
    /// [`requests`](ServiceStats::requests), so normalization traffic is
    /// `requests − whiten_requests`.
    pub whiten_requests: u64,
    /// Rows whitened — a subset of [`rows`](ServiceStats::rows), counted
    /// the same way (only for requests whose backend call actually ran).
    pub whiten_rows: u64,
    /// Cumulative wall time the resident shard drivers spent awake —
    /// draining queues, executing rounds and firing completion
    /// callbacks. With [`worker_idle`](ServiceStats::worker_idle) this is
    /// the executor's utilization split.
    pub worker_busy: Duration,
    /// Cumulative wall time the resident shard drivers spent parked
    /// waiting for work — executor headroom. An idle service accumulates
    /// only idle time.
    pub worker_idle: Duration,
    /// Times a resident shard driver was woken from its park. A service
    /// with no traffic accumulates ~none: the drivers never busy-spin.
    pub worker_wakeups: u64,
    /// [`NormTicket::on_ready`](super::NormTicket::on_ready) callbacks that panicked. The panic is
    /// contained in the driver (it never takes the executor down); a
    /// growing count means some caller's completion handler is buggy.
    pub waker_panics: u64,
}

impl ServiceStats {
    /// Fold another shard's counters into this aggregate.
    pub(super) fn merge(&mut self, other: &ServiceStats) {
        self.requests += other.requests;
        self.batches += other.batches;
        self.coalesced_requests += other.coalesced_requests;
        self.rows += other.rows;
        self.queue_full_rejections += other.queue_full_rejections;
        self.abandoned_tickets += other.abandoned_tickets;
        self.queue_wait += other.queue_wait;
        self.execute += other.execute;
        self.whiten_requests += other.whiten_requests;
        self.whiten_rows += other.whiten_rows;
        self.worker_busy += other.worker_busy;
        self.worker_idle += other.worker_idle;
        self.worker_wakeups += other.worker_wakeups;
        self.waker_panics += other.waker_panics;
    }

    /// Count one accepted request.
    pub(super) fn accept(&mut self, kind: RequestKind) {
        self.requests += 1;
        if kind == RequestKind::Whiten {
            self.whiten_requests += 1;
        }
    }

    /// Fold in a request that ran as its own backend call on the calling
    /// thread. Rows, wait and execution count on success only: `rows` is
    /// rows actually processed, and the wait runs up to the moment
    /// execution began — backend-lock waits charge to `queue_wait`.
    pub(super) fn record_lone(
        &mut self,
        kind: RequestKind,
        rows: usize,
        accepted: Instant,
        executed: &Result<Executed, NormError>,
    ) {
        self.batches += 1;
        if let Ok(exec) = executed {
            self.queue_wait += exec.exec_start.duration_since(accepted);
            self.execute += exec.execute;
            self.rows += rows as u64;
            if kind == RequestKind::Whiten {
                self.whiten_rows += rows as u64;
            }
        }
    }

    /// Freeze these counters into the stable export form every external
    /// consumer (metrics text, bench JSON) reads. Durations become
    /// microseconds so the snapshot is plain integers end to end.
    pub fn snapshot(&self) -> ServiceStatsSnapshot {
        let us = |d: Duration| u64::try_from(d.as_micros()).unwrap_or(u64::MAX);
        ServiceStatsSnapshot {
            requests: self.requests,
            batches: self.batches,
            coalesced_requests: self.coalesced_requests,
            rows: self.rows,
            queue_full_rejections: self.queue_full_rejections,
            abandoned_tickets: self.abandoned_tickets,
            queue_wait_us: us(self.queue_wait),
            execute_us: us(self.execute),
            whiten_requests: self.whiten_requests,
            whiten_rows: self.whiten_rows,
            worker_busy_us: us(self.worker_busy),
            worker_idle_us: us(self.worker_idle),
            worker_wakeups: self.worker_wakeups,
            waker_panics: self.waker_panics,
        }
    }
}

/// A stable, explicitly named snapshot of [`ServiceStats`] for export.
///
/// This is the *one* bridge between the service's counters and anything
/// serialized outside the process — the network server's `/metrics` text
/// and the bench suite's `BENCH_server.json` both iterate
/// [`fields`](ServiceStatsSnapshot::fields) rather than naming counters
/// ad hoc, so the two formats cannot silently drift apart (or from the
/// counters themselves) when a field is added or renamed.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
#[must_use = "a stats snapshot is pure data; dropping it unread observed nothing"]
pub struct ServiceStatsSnapshot {
    /// Requests accepted (valid shape, not rejected at the door).
    pub requests: u64,
    /// Backend batch calls issued.
    pub batches: u64,
    /// Requests that shared a batch with at least one other request.
    pub coalesced_requests: u64,
    /// Total rows normalized.
    pub rows: u64,
    /// Requests shed with [`NormError::QueueFull`].
    pub queue_full_rejections: u64,
    /// [`NormTicket`](super::NormTicket)s dropped before their result was taken.
    pub abandoned_tickets: u64,
    /// Cumulative queue wait (acceptance → backend execution start), µs.
    pub queue_wait_us: u64,
    /// Cumulative backend execution wall time, µs.
    pub execute_us: u64,
    /// Accepted whitening-group requests (subset of `requests`).
    pub whiten_requests: u64,
    /// Rows whitened (subset of `rows`).
    pub whiten_rows: u64,
    /// Cumulative resident-driver awake time, µs.
    pub worker_busy_us: u64,
    /// Cumulative resident-driver parked time, µs.
    pub worker_idle_us: u64,
    /// Resident shard-driver park wake-ups.
    pub worker_wakeups: u64,
    /// Contained [`NormTicket::on_ready`](super::NormTicket::on_ready) callback panics.
    pub waker_panics: u64,
}

impl ServiceStatsSnapshot {
    /// Every counter as a `(name, value)` pair, in a fixed order.
    /// Exporters iterate this instead of naming fields, so field coverage
    /// is total by construction.
    pub fn fields(&self) -> [(&'static str, u64); 14] {
        [
            ("requests", self.requests),
            ("batches", self.batches),
            ("coalesced_requests", self.coalesced_requests),
            ("rows", self.rows),
            ("queue_full_rejections", self.queue_full_rejections),
            ("abandoned_tickets", self.abandoned_tickets),
            ("queue_wait_us", self.queue_wait_us),
            ("execute_us", self.execute_us),
            ("whiten_requests", self.whiten_requests),
            ("whiten_rows", self.whiten_rows),
            ("worker_busy_us", self.worker_busy_us),
            ("worker_idle_us", self.worker_idle_us),
            ("worker_wakeups", self.worker_wakeups),
            ("waker_panics", self.waker_panics),
        ]
    }
}

/// What one combining round executed (for the driver's stats update).
/// A mixed round issues up to two backend calls — one per
/// [`RequestKind`] — so the batch count is carried here instead of being
/// assumed to be one.
#[derive(Default)]
pub(super) struct RoundStats {
    pub(super) batches: u64,
    pub(super) coalesced_requests: u64,
    pub(super) rows: u64,
    pub(super) whiten_rows: u64,
    pub(super) queue_wait: Duration,
    pub(super) execute: Duration,
}

impl RoundStats {
    pub(super) fn absorb(&mut self, sub: RoundStats) {
        self.batches += sub.batches;
        self.coalesced_requests += sub.coalesced_requests;
        self.rows += sub.rows;
        self.whiten_rows += sub.whiten_rows;
        self.queue_wait += sub.queue_wait;
        self.execute += sub.execute;
    }
}
