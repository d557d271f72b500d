//! Completion: each queued request's [`Slot`] mailbox, the
//! [`NormTicket`] a `submit_async` caller collects through, and
//! [`TicketSet`] for collecting many tickets in completion order.

// normlint: module(no-panic)
// A panic here unwinds inside the shard protocol and poisons shard
// locks: recover, fail closed through `Core::torn_state`, or attach a
// justified waiver.

use std::any::Any;
use std::collections::VecDeque;
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::time::{Duration, Instant};

use super::request::{BufferPool, NormResponse};
use super::serve::{Core, Served};
use crate::error::NormError;

/// Why a slot's request failed: an ordinary error, or the payload of a
/// panic the executing driver caught. A contained panic is delivered to
/// exactly one waiter — the failed round's first *blocking* submitter,
/// whose submit call re-raises it on the submitting thread (panics never
/// silently vanish into a worker); every other waiter of the round sees
/// [`NormError::ServiceShutdown`].
pub(super) enum SlotFail {
    Err(NormError),
    Panic(Box<dyn Any + Send>),
}

impl SlotFail {
    /// The error a ticket reports: a ticket cannot re-raise a contained
    /// panic into its submitter (that thread has long moved on), so it
    /// observes the shutdown the panic caused instead.
    pub(super) fn into_error(self) -> NormError {
        match self {
            SlotFail::Err(err) => err,
            SlotFail::Panic(_) => NormError::ServiceShutdown,
        }
    }
}

pub(super) type SlotOutcome = Result<SlotResult, SlotFail>;

/// A ticket's completion callback, handed to the driver by
/// [`Slot::fill`] and invoked outside every service lock.
pub(super) type ReadyWaker = Box<dyn FnOnce() + Send>;

pub(super) struct SlotResult {
    pub(super) bits: Vec<u32>,
    pub(super) served: Served,
}

/// One waiting submitter's mailbox, and the only place a submitter of a
/// queued request waits. Filled by the shard's resident driver once its
/// round's stats are folded and the shard's claim is cleared, so a
/// waiter that wakes finds its round already counted and the shard free
/// for its next request. A parked waiter sleeps on the slot's own
/// condvar — completion wakes exactly the waiter it served and never
/// touches the shard's queue lock. The slot lock protects plain one-shot
/// state, so a poisoned guard is recovered and used as-is — a panic
/// cannot leave that state inconsistent.
///
/// The `abandoned` flag is the async path's leak guard: a [`NormTicket`]
/// dropped before its round ran sets it, and the eventual [`fill`](Slot::fill)
/// then returns the result buffer to the shard's pool instead of parking
/// it in a mailbox nobody will ever read.
///
/// The `waker` is the waker-native ticket seam
/// ([`NormTicket::on_ready`] / [`TicketSet`]): exactly one of
/// [`fill`](Slot::fill) and [`set_waker`](Slot::set_waker) hands the
/// callback back to its caller for invocation (whichever runs second
/// under the slot lock), so a registered waker fires exactly once no
/// matter how registration races completion.
pub(super) struct Slot {
    state: Mutex<SlotState>,
    /// Wakes the slot's one parked waiter when [`fill`](Slot::fill) lands
    /// the outcome.
    filled: Condvar,
    /// The shard pool an abandoned outcome's buffer returns to.
    pool: Arc<BufferPool>,
}

#[derive(Default)]
struct SlotState {
    outcome: Option<SlotOutcome>,
    abandoned: bool,
    waker: Option<ReadyWaker>,
}

impl Slot {
    pub(super) fn new(pool: Arc<BufferPool>) -> Arc<Self> {
        Arc::new(Slot {
            state: Mutex::new(SlotState::default()),
            filled: Condvar::new(),
            pool,
        })
    }

    /// Deliver the outcome. Returns a registered waker for the caller to
    /// invoke **after releasing its own locks** — the callback is caller
    /// code and must never run under a shard lock.
    #[must_use = "a returned waker must be invoked (outside all locks)"]
    pub(super) fn fill(&self, outcome: SlotOutcome) -> Option<ReadyWaker> {
        let mut state = self.state.lock().unwrap_or_else(PoisonError::into_inner);
        if state.abandoned {
            // Nobody will take this result: recycle its buffer now.
            if let Ok(result) = outcome {
                self.pool.give_back(result.bits);
            }
            return None;
        }
        state.outcome = Some(outcome);
        let waker = state.waker.take();
        drop(state);
        // A slot has one owner, so there is at most one parked waiter.
        self.filled.notify_one();
        waker
    }

    /// Register a completion callback. If the outcome already arrived,
    /// the waker is handed straight back for the caller to invoke (it is
    /// never stored *and* fired) — the exactly-once contract.
    #[must_use = "a returned waker must be invoked (the outcome is already here)"]
    fn set_waker(&self, waker: ReadyWaker) -> Option<ReadyWaker> {
        let mut state = self.state.lock().unwrap_or_else(PoisonError::into_inner);
        if state.outcome.is_some() || state.abandoned {
            return Some(waker);
        }
        state.waker = Some(waker);
        None
    }

    /// Take the outcome, parking on the slot per `mode` until the driver
    /// fills it. `None` only when `mode` gave up first.
    pub(super) fn take(&self, mode: WaitMode) -> Option<SlotOutcome> {
        let mut state = self.state.lock().unwrap_or_else(PoisonError::into_inner);
        loop {
            if let Some(outcome) = state.outcome.take() {
                return Some(outcome);
            }
            state = match mode {
                WaitMode::Poll => return None,
                WaitMode::Forever => self
                    .filled
                    .wait(state)
                    .unwrap_or_else(PoisonError::into_inner),
                WaitMode::Until(deadline) => {
                    let now = Instant::now();
                    if now >= deadline {
                        return None;
                    }
                    self.filled
                        .wait_timeout(state, deadline - now)
                        .unwrap_or_else(PoisonError::into_inner)
                        .0
                }
            };
        }
    }

    /// Mark the slot abandoned (its ticket was dropped), returning any
    /// already-delivered outcome so the caller can recycle its buffer.
    fn abandon(&self) -> Option<SlotOutcome> {
        let mut state = self.state.lock().unwrap_or_else(PoisonError::into_inner);
        state.abandoned = true;
        state.waker = None;
        state.outcome.take()
    }
}

/// How a collect is willing to wait for its slot's outcome.
#[derive(Clone, Copy)]
pub(super) enum WaitMode {
    /// Return `None` the moment progress would require parking.
    Poll,
    /// Park until the outcome arrives.
    Forever,
    /// Park until the outcome arrives or the deadline passes.
    Until(Instant),
}

/// A ticket's backing state.
pub(super) enum TicketRepr {
    /// The request ran inline at submit time on an idle shard; the
    /// finished outcome is parked here until a collect method takes it.
    Immediate(Option<Result<NormResponse, NormError>>),
    /// A combining-queue entry: the slot is filled by the shard's
    /// resident driver when its round serves the request.
    Queued {
        slot: Arc<Slot>,
        /// When the request was accepted — the ticket-side start of the
        /// response's all-in `elapsed()` span.
        accepted: Instant,
    },
}

/// The poll/wait handle returned by [`NormService::submit_async`](super::NormService::submit_async): the
/// submitted request's claim on a future [`NormResponse`].
///
/// A ticket whose shard was idle at submit time comes back already
/// complete: its request ran inline on the submitting thread. Otherwise
/// its request is executed by the shard's **resident driver** — the
/// ticket never runs rounds itself, so every collect method is pure
/// waiting: [`try_take`](NormTicket::try_take) peeks the mailbox,
/// [`wait`](NormTicket::wait) / [`wait_timeout`](NormTicket::wait_timeout)
/// park on the request's own slot (never on shard state), and
/// [`on_ready`](NormTicket::on_ready)
/// registers a callback the driver invokes the moment the outcome lands
/// (see also [`TicketSet`] for collecting many tickets without polling).
///
/// Dropping a ticket without collecting is safe and leak-free: the
/// request's pooled payload and response buffers return to the shard's
/// pool (immediately if the request already ran, otherwise when it does),
/// and the drop is counted in [`ServiceStats::abandoned_tickets`](super::ServiceStats::abandoned_tickets). A
/// ticket holds the service's shared state alive, but **not** its driver
/// threads — those are owned by the service handles, so work accepted
/// before the last handle drops still completes (the drivers drain their
/// queues before exiting), and a ticket collected afterwards reads the
/// parked outcome without needing any thread.
///
/// The result is delivered **exactly once**: after any collect method has
/// returned `Some`/`Ok`/`Err`, the ticket is spent and further collect
/// calls panic. See [`NormService::submit_async`](super::NormService::submit_async) for an example.
#[must_use = "dropping a NormTicket discards the submitted request's result"]
pub struct NormTicket {
    pub(super) core: Arc<Core>,
    pub(super) shard_idx: usize,
    pub(super) rows: usize,
    pub(super) delivered: bool,
    pub(super) repr: TicketRepr,
}

impl core::fmt::Debug for NormTicket {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("NormTicket")
            .field("shard", &self.shard_idx)
            .field("rows", &self.rows)
            .field("delivered", &self.delivered)
            .finish_non_exhaustive()
    }
}

impl NormTicket {
    /// Number of rows the submitted request carries.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// The shard index the request was placed on (see
    /// [`NormService::shard_for`](super::NormService::shard_for) for the request-hash mapping).
    pub fn shard(&self) -> usize {
        self.shard_idx
    }

    /// Non-blocking poll: `Some` with the request's outcome if the
    /// resident driver has delivered it, `None` while the round is still
    /// pending or in flight. Never parks and never executes work — a
    /// caller that must not poll registers [`on_ready`](NormTicket::on_ready)
    /// instead.
    ///
    /// # Panics
    ///
    /// Panics if the outcome was already taken by a previous collect
    /// call — a spent ticket is a caller bug, not a recoverable state.
    pub fn try_take(&mut self) -> Option<Result<NormResponse, NormError>> {
        self.poll(WaitMode::Poll)
    }

    /// Block until the resident driver delivers the request's outcome
    /// and return it.
    ///
    /// # Errors
    ///
    /// Whatever the request's execution produced — the
    /// [`submit`](super::NormService::submit) error set, including
    /// [`NormError::ServiceShutdown`] when the service was shut down (or
    /// forced down by a panicking request) before the request executed.
    ///
    /// # Panics
    ///
    /// Panics if the outcome was already taken by a previous collect
    /// call.
    pub fn wait(&mut self) -> Result<NormResponse, NormError> {
        self.poll(WaitMode::Forever)
            // normlint: allow(L001) — infallible by construction: only the
            // Poll/Until modes can return None, Forever always parks until
            // an outcome arrives (and the delivered-twice case is the
            // documented `# Panics` contract, asserted inside poll).
            .expect("WaitMode::Forever parks until the outcome arrives")
    }

    /// [`wait`](NormTicket::wait) bounded by `timeout`: `None` if the
    /// outcome is still pending when the deadline passes. The request
    /// itself is not withdrawn — the driver's round completes it
    /// regardless, and a later collect call picks it up.
    ///
    /// # Panics
    ///
    /// Panics if the outcome was already taken by a previous collect
    /// call.
    pub fn wait_timeout(&mut self, timeout: Duration) -> Option<Result<NormResponse, NormError>> {
        // A timeout too large for the clock to represent (the
        // `Duration::MAX` "effectively forever" idiom) is an unbounded
        // wait, not an overflow panic.
        let mode = match Instant::now().checked_add(timeout) {
            Some(deadline) => WaitMode::Until(deadline),
            None => WaitMode::Forever,
        };
        self.poll(mode)
    }

    /// The shared collect protocol: check the mailbox, park on the slot
    /// according to `mode` until the resident driver fills it.
    fn poll(&mut self, mode: WaitMode) -> Option<Result<NormResponse, NormError>> {
        assert!(
            !self.delivered,
            "NormTicket result already taken; a ticket delivers exactly once"
        );
        let outcome = match &mut self.repr {
            TicketRepr::Immediate(outcome) => Some(
                outcome
                    .take()
                    // normlint: allow(L001) — unreachable: the assert above
                    // rejects a delivered ticket, and an undelivered
                    // immediate ticket holds its outcome by construction.
                    .expect("undelivered immediate ticket holds its outcome"),
            ),
            // Admitted entries are always driven to completion (the
            // drivers drain their queues even through shutdown), so
            // parking cannot strand the collector.
            TicketRepr::Queued { slot, accepted } => {
                let shard = &self.core.shards[self.shard_idx];
                slot.take(mode).map(|outcome| match outcome {
                    Ok(result) => {
                        Ok(self
                            .core
                            .respond(shard, result.bits, &result.served, *accepted))
                    }
                    // Tickets never re-raise a contained panic (the
                    // collector may be an event loop that outlives the
                    // service); they observe the same clean shutdown
                    // error every other waiter gets.
                    Err(fail) => Err(fail.into_error()),
                })
            }
        };
        if outcome.is_some() {
            self.delivered = true;
        }
        outcome
    }

    /// Register `callback` to run with the completed ticket the moment
    /// its outcome is delivered — the waker-native alternative to
    /// polling. Consumes the ticket; the callback receives it back with
    /// the outcome guaranteed collectable, so
    /// `ticket.try_take()` inside the callback always returns `Some`.
    ///
    /// If the outcome is already there (a ticket whose request ran inline,
    /// or a round that completed before registration), the
    /// callback runs **synchronously on this thread** before `on_ready`
    /// returns. Otherwise it runs on the shard's resident driver thread,
    /// after the driver has released every shard lock — the callback may
    /// call back into the service (even drop the last handle; the driver
    /// detaches itself rather than self-join), but it should stay short:
    /// it runs on the thread that serves this shard's traffic.
    ///
    /// A panicking callback is contained by the driver and counted in
    /// [`ServiceStats::waker_panics`](super::ServiceStats::waker_panics); it never takes the service down.
    /// (A synchronous invocation propagates the panic to this caller
    /// directly — the caller's own code on the caller's own thread.)
    /// The callback fires **exactly once**, no matter how registration
    /// races completion.
    pub fn on_ready(self, callback: impl FnOnce(NormTicket) + Send + 'static) {
        match &self.repr {
            TicketRepr::Immediate(_) => callback(self),
            TicketRepr::Queued { slot, .. } => {
                let slot = Arc::clone(slot);
                let mut ticket = Some(self);
                let mut callback = Some(callback);
                let waker: ReadyWaker = Box::new(move || {
                    if let (Some(ticket), Some(callback)) = (ticket.take(), callback.take()) {
                        callback(ticket);
                    }
                });
                // If the outcome landed before our registration, the slot
                // hands the waker straight back: fire it here.
                if let Some(waker) = slot.set_waker(waker) {
                    waker();
                }
            }
        }
    }

    /// [`on_ready`](NormTicket::on_ready) without consuming the ticket —
    /// the [`TicketSet`] building block. The waker fires exactly once,
    /// possibly synchronously (when the outcome already landed).
    fn register_waker(&self, waker: ReadyWaker) {
        match &self.repr {
            TicketRepr::Immediate(_) => waker(),
            TicketRepr::Queued { slot, .. } => {
                if let Some(waker) = slot.set_waker(waker) {
                    waker();
                }
            }
        }
    }
}

impl Drop for NormTicket {
    fn drop(&mut self) {
        if self.delivered {
            return;
        }
        let shard = &self.core.shards[self.shard_idx];
        match &mut self.repr {
            // The response's own Drop returns its pooled buffer.
            TicketRepr::Immediate(outcome) => drop(outcome.take()),
            TicketRepr::Queued { slot, .. } => {
                // Mark the mailbox abandoned so a still-coming fill
                // recycles its buffer; reclaim an already-delivered one
                // ourselves.
                if let Some(Ok(result)) = slot.abandon() {
                    shard.pool.give_back(result.bits);
                }
            }
        }
        self.core.queue_of(shard).stats.abandoned_tickets += 1;
    }
}

/// The waker-backed ready queue a [`TicketSet`] collects through: each
/// inserted ticket registers a waker that pushes its index here when the
/// resident driver delivers its outcome.
struct ReadyQueue {
    queue: Mutex<VecDeque<usize>>,
    cv: Condvar,
}

impl ReadyQueue {
    fn push(&self, index: usize) {
        self.queue
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .push_back(index);
        self.cv.notify_all();
    }

    fn pop_wait(&self) -> usize {
        let mut queue = self.queue.lock().unwrap_or_else(PoisonError::into_inner);
        loop {
            if let Some(index) = queue.pop_front() {
                return index;
            }
            queue = match self.cv.wait(queue) {
                Ok(guard) => guard,
                Err(poisoned) => poisoned.into_inner(),
            };
        }
    }
}

/// Collects many [`NormTicket`]s **in completion order, without
/// polling** — the event-loop shape: insert every outstanding ticket,
/// then call [`wait_any`](TicketSet::wait_any) until it returns `None`.
///
/// Each inserted ticket registers a waker (via the same exactly-once slot
/// protocol as [`NormTicket::on_ready`]) that records the ticket's index
/// on an internal ready queue when the resident driver delivers its
/// outcome; `wait_any` parks on that queue instead of spinning over
/// tickets. Tickets from different shards — even different services —
/// mix freely in one set.
///
/// ```
/// use iterl2norm::{NormRequest, ServiceConfig, TicketSet};
///
/// # fn main() -> Result<(), iterl2norm::NormError> {
/// let service = ServiceConfig::new(8).build()?;
/// let data = vec![0x3f80_0000u32; 8];
/// let mut set = TicketSet::new();
/// let a = set.insert(service.submit_async(NormRequest::bits(&data))?);
/// let b = set.insert(service.submit_async(NormRequest::bits(&data))?);
/// let mut seen = Vec::new();
/// while let Some((index, result)) = set.wait_any() {
///     result?;
///     seen.push(index);
/// }
/// seen.sort_unstable();
/// assert_eq!(seen, vec![a, b]);
/// # Ok(())
/// # }
/// ```
pub struct TicketSet {
    /// Tickets by index, the front one holding index `base`. A collected
    /// ticket leaves `None` behind until every ticket before it has been
    /// collected too, then the front is trimmed: the set keeps the span
    /// from its oldest outstanding ticket to its newest, not every ticket
    /// it ever held (a server connection keeps one set for its lifetime).
    pub(super) tickets: VecDeque<Option<NormTicket>>,
    base: usize,
    ready: Arc<ReadyQueue>,
    outstanding: usize,
}

impl core::fmt::Debug for TicketSet {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("TicketSet")
            .field("outstanding", &self.outstanding)
            .finish_non_exhaustive()
    }
}

impl Default for TicketSet {
    fn default() -> Self {
        Self::new()
    }
}

impl TicketSet {
    /// An empty set.
    pub fn new() -> Self {
        TicketSet {
            tickets: VecDeque::new(),
            base: 0,
            ready: Arc::new(ReadyQueue {
                queue: Mutex::new(VecDeque::new()),
                cv: Condvar::new(),
            }),
            outstanding: 0,
        }
    }

    /// Add a ticket, returning its stable index (the handle
    /// [`wait_any`](TicketSet::wait_any) identifies it by). The ticket's
    /// completion waker is registered here — if it already completed,
    /// the index is immediately ready.
    pub fn insert(&mut self, ticket: NormTicket) -> usize {
        let index = self.base + self.tickets.len();
        let ready = Arc::clone(&self.ready);
        ticket.register_waker(Box::new(move || ready.push(index)));
        self.tickets.push_back(Some(ticket));
        self.outstanding += 1;
        index
    }

    /// Tickets inserted but not yet returned by
    /// [`wait_any`](TicketSet::wait_any).
    pub fn outstanding(&self) -> usize {
        self.outstanding
    }

    /// `true` when every inserted ticket has been collected.
    pub fn is_empty(&self) -> bool {
        self.outstanding == 0
    }

    /// Park until any outstanding ticket completes and return its index
    /// and outcome; `None` once every inserted ticket has been returned.
    /// Completion order, not insertion order — a fast shard's tickets
    /// surface before a slow shard's regardless of when they were
    /// inserted.
    pub fn wait_any(&mut self) -> Option<(usize, Result<NormResponse, NormError>)> {
        loop {
            if self.outstanding == 0 {
                return None;
            }
            let index = self.ready.pop_wait();
            // A waker only fires after its slot's outcome is stored (the
            // same lock serializes both), so a freshly popped index
            // always collects without parking. A `None` entry or `None`
            // take can only follow a duplicate push, which the
            // exactly-once waker protocol rules out — loop rather than
            // trust that with a panic.
            let Some(slot) = index
                .checked_sub(self.base)
                .and_then(|at| self.tickets.get_mut(at))
            else {
                continue;
            };
            let Some(mut ticket) = slot.take() else {
                continue;
            };
            let Some(result) = ticket.try_take() else {
                *slot = Some(ticket);
                continue;
            };
            self.outstanding -= 1;
            while let Some(None) = self.tickets.front() {
                self.tickets.pop_front();
                self.base += 1;
            }
            return Some((index, result));
        }
    }
}
