//! The serving core: the [`NormService`] entry points, admission, the
//! idle-shard inline path and the shard state they run on. The inline
//! hot path — `serve`, `admit`, `run_inline`, `execute_on_caller`,
//! [`InlineClaim`], [`Shard`] and [`Core`] — stays in this one file (one
//! codegen unit): the closed-loop inline benchmark is sensitive to how
//! it is laid out.

// normlint: module(no-panic)
// A panic here unwinds inside the shard protocol and poisons shard
// locks: recover, fail closed through `Core::torn_state`, or attach a
// justified waiver.

use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use super::config::{Placement, ServiceConfig};
use super::driver::driver_loop;
use super::request::{BufferPool, NormRequest, NormResponse, Payload, Priority, RequestKind};
use super::stats::ServiceStats;
use super::ticket::{NormTicket, Slot, SlotFail, SlotResult, TicketRepr, WaitMode};
use crate::backend::{BackendKind, FormatKind, NormBackend};
use crate::engine::MethodSpec;
use crate::error::NormError;
use crate::simd::SimdLevel;
use crate::whiten::{build_whiten, WhitenExec};

/// SplitMix64's finalizer: a cheap, well-mixed `u64 -> u64` hash for
/// request-hash placement. Sequential keys (the common caller pattern:
/// layer index, session id) must spread across shards instead of
/// clustering, and the mapping must be stable across runs — no
/// `RandomState` seeding.
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// A successful backend call's timing: when execution actually began
/// (after the backend lock was acquired, so callers charge lock waits to
/// queue-wait) and how long the call itself ran.
pub(super) struct Executed {
    pub(super) exec_start: Instant,
    pub(super) execute: Duration,
}

/// Where a served request's bits land. [`NormService::submit_into`]
/// writes into the caller's pre-validated buffer; [`NormService::submit`]
/// gets a pool lease as its reply — filled at execution time, so
/// admission rejections (shutdown, [`NormError::QueueFull`]) never pay
/// request-sized work on the fail-fast path.
enum Sink<'a> {
    /// A caller-provided buffer of exactly the request's length.
    Caller(&'a mut [u32]),
    /// The reply buffer. Inline, a pool lease of the request's length: a
    /// bit payload is normalized out of place from the caller's slice
    /// straight into it (no payload copy), an `f32` payload is encoded
    /// into it and normalized in place. Queued, the round's reply.
    Leased(&'a mut Vec<u32>),
}

/// What the shared submission protocol reports back to the public entry
/// points: the request's own rows plus how it was executed.
pub(super) struct Served {
    pub(super) rows: usize,
    pub(super) batch_rows: usize,
    pub(super) batch_requests: usize,
}

impl Served {
    /// A request that ran as its own backend call.
    fn alone(rows: usize) -> Self {
        Served {
            rows,
            batch_rows: rows,
            batch_requests: 1,
        }
    }
}

/// What [`NormService::admit`] decided for an arrival.
enum Admission<'s> {
    /// Run on the calling thread under this claim.
    Inline(InlineClaim<'s>),
    /// Hand off to the driver through the combining queue.
    Queue,
}

/// A caller's hold on its idle shard's claim while it runs its own
/// request inline. [`release`](InlineClaim::release) gives the claim
/// back and folds in the request's stats under one queue lock, then
/// wakes the driver if entries queued behind the claim. Dropped
/// unreleased — the backend call unwound — the guard fails the shard the
/// way the driver's `deliver_panic` does: the claim is cleared, the
/// shard marked failed and the service shut down, and the woken driver
/// fails whatever queued behind the claim instead of stranding it. The
/// panic itself keeps unwinding on the caller's own thread (a ticket
/// catches it; see [`NormService::inline_ticket`]).
struct InlineClaim<'s> {
    core: &'s Core,
    shard: &'s Shard,
    released: bool,
}

impl InlineClaim<'_> {
    fn release(
        mut self,
        kind: RequestKind,
        rows: usize,
        accepted: Instant,
        executed: &Result<Executed, NormError>,
    ) {
        self.released = true;
        let mut queue = self.core.queue_of(self.shard);
        queue.claimed = false;
        queue.stats.record_lone(kind, rows, accepted, executed);
        let queued = !queue.pending.is_empty();
        drop(queue);
        if queued {
            self.shard.work_cv.notify_all();
        }
    }
}

impl Drop for InlineClaim<'_> {
    fn drop(&mut self) {
        if self.released {
            return;
        }
        {
            let mut queue = self.core.queue_of(self.shard);
            queue.claimed = false;
            queue.failed = true;
        }
        self.core.request_shutdown();
    }
}

/// Deliver a round-served result into the caller's sink. A pooled sink
/// takes ownership of the result buffer outright — zero copy, zero pool
/// traffic; a caller-provided buffer gets a copy and the result buffer
/// returns to the pool.
fn finish(result: SlotResult, sink: &mut Sink<'_>, pool: &BufferPool) -> Result<Served, NormError> {
    match sink {
        Sink::Caller(out) => {
            out.copy_from_slice(&result.bits);
            pool.give_back(result.bits);
        }
        Sink::Leased(vec) => **vec = result.bits,
    }
    Ok(result.served)
}

/// A request parked in a shard's combining queue. Entries keep their
/// class so a new high-priority arrival can find the end of the high
/// prefix — the queue is always high-class entries first, each class in
/// arrival order.
pub(super) struct PendingEntry {
    pub(super) bits: Vec<u32>,
    pub(super) slot: Arc<Slot>,
    pub(super) accepted: Instant,
    pub(super) priority: Priority,
    pub(super) kind: RequestKind,
    /// A [`NormService::submit`]/`submit_into` caller parked on the slot,
    /// not a [`NormService::submit_async`] ticket. Panic delivery re-raises
    /// the payload on the round's first blocking entry; tickets observe
    /// [`NormError::ServiceShutdown`] instead.
    pub(super) blocking: bool,
}

#[derive(Default)]
pub(super) struct QueueState {
    pub(super) pending: Vec<PendingEntry>,
    /// Set by panic delivery: the shard's backend tore mid-round. The
    /// driver fails everything it drains from then on.
    pub(super) failed: bool,
    /// Held by whichever thread is executing on the shard: the driver
    /// for the whole of a round, or a submitter running its own request
    /// inline on an idle shard. Set and cleared only under the queue
    /// lock.
    pub(super) claimed: bool,
    pub(super) stats: ServiceStats,
}

impl QueueState {
    /// Requests genuinely *waiting* — what the queue-depth bound applies
    /// to. The driver drains entries out of `pending` before executing
    /// them, so an in-flight round never occupies a waiting-line slot.
    fn waiting(&self) -> usize {
        self.pending.len()
    }
}

/// One independent backend + combining-queue + buffer-pool instance,
/// served by its own resident driver thread.
///
/// Aligned to 128 bytes (a cache-line pair, which adjacent-line
/// prefetch moves together) so that neighbouring shards in the
/// service's `Vec` never share a line: otherwise one shard's queue
/// or backend lock can sit on the line another shard's submitters
/// write, and shards that should run independently contend.
#[repr(align(128))]
pub(super) struct Shard {
    pub(super) queue: Mutex<QueueState>,
    /// Wakes the shard's resident driver: new work arrived, an inline
    /// caller released the claim with work queued behind it, or shutdown
    /// was requested. The driver is the only thread that parks on it —
    /// submitters park on their own [`Slot`].
    pub(super) work_cv: Condvar,
    backend: Mutex<Box<dyn NormBackend>>,
    /// The shard's whitening executor, built from the config on the first
    /// whitening request this shard sees (`None` until then — a service
    /// that never whitens never builds one). Own mutex so whitening
    /// rounds and custom-backend services stay decoupled from the
    /// normalization backend lock.
    whiten: Mutex<Option<Box<dyn WhitenExec>>>,
    /// Shard-local buffer pool; responses hold an [`Arc`] to it so a
    /// buffer always returns to the shard that leased it.
    pub(super) pool: Arc<BufferPool>,
}

/// A custom whitening-executor factory
/// ([`ServiceConfig::build_with_backends_and_whiten`]).
pub(super) type MakeWhiten = Box<dyn Fn() -> Box<dyn WhitenExec> + Send + Sync>;

/// The service's shared state — everything the resident drivers, the
/// submitters and outstanding [`NormTicket`]s reference. Tickets hold
/// `Arc<Core>` directly (not the [`Inner`] wrapper) so an outstanding
/// ticket never keeps driver threads alive past the last service handle.
pub(super) struct Core {
    pub(super) config: ServiceConfig,
    label: String,
    /// Test-oriented whitening-executor factory: when set (via
    /// [`ServiceConfig::build_with_backends_and_whiten`]), `whiten_of`
    /// builds through it instead of the config. Lets resilience tests
    /// inject executors that panic mid-whitening; `None` in production.
    make_whiten: Option<MakeWhiten>,
    /// The resolved SIMD level of shard 0's backend (uniform across
    /// shards), stamped onto every response.
    simd_level: SimdLevel,
    pub(super) shards: Vec<Shard>,
    /// Round-robin placement cursor (wraps on overflow, which is fine —
    /// placement only needs to spread load, not count).
    next_shard: AtomicUsize,
    /// Service-wide refusal flag: set by [`NormService::shutdown`] and by
    /// poison/panic recovery. Checked at the door of every entry point.
    pub(super) shutdown: AtomicBool,
}

/// [`Core`] plus the resident driver handles. Dropping the last service
/// handle drops this, which requests shutdown and joins every driver —
/// the spawn-once/join-on-drop half of the thread-hygiene contract.
/// `Deref`s to [`Core`] so service methods read `self.inner.config` etc.
/// without caring about the split.
struct Inner {
    core: Arc<Core>,
    drivers: Vec<JoinHandle<()>>,
}

impl std::ops::Deref for Inner {
    type Target = Core;

    fn deref(&self) -> &Core {
        &self.core
    }
}

impl Drop for Inner {
    fn drop(&mut self) {
        self.core.request_shutdown();
        let me = std::thread::current().id();
        for driver in self.drivers.drain(..) {
            // A waker callback can own the last service clone, putting
            // this drop *on* a driver thread — joining ourselves would
            // deadlock. That driver is already past its round loop (it
            // only runs wakers on the way out of a round) and exits on
            // its own via the shutdown flag; its spawn closure's
            // `Arc<Core>` keeps the shared state alive until then.
            if driver.thread().id() == me {
                continue;
            }
            let _ = driver.join();
        }
    }
}

impl Core {
    /// Set the service-wide refusal flag and wake every parked driver.
    /// Each shard's queue lock is taken between the store and that
    /// shard's notify: drivers check the flag under that lock before
    /// parking, so each one either sees the flag or is already parked
    /// when the notify lands — none can sit between its check and its
    /// wait and miss both (the lost-wakeup race). Submitters need no
    /// wakeup: the drivers drain every admitted entry through shutdown,
    /// and each fill wakes its own slot. Callers must hold no queue lock.
    pub(super) fn request_shutdown(&self) {
        self.shutdown.store(true, Ordering::SeqCst);
        for shard in &self.shards {
            drop(self.queue_of(shard));
            shard.work_cv.notify_all();
        }
    }

    /// Lock a shard's queue, recovering a poisoned guard. The queue state
    /// is plain data mutated only in short internal critical sections, so
    /// the recovered state is usable — but a poisoned queue lock means
    /// some request panicked mid-protocol, so the service is marked shut
    /// down as a precaution (new work is refused; accepted work drains).
    pub(super) fn queue_of<'s>(&self, shard: &'s Shard) -> MutexGuard<'s, QueueState> {
        match shard.queue.lock() {
            Ok(guard) => guard,
            Err(poisoned) => {
                self.shutdown.store(true, Ordering::SeqCst);
                poisoned.into_inner()
            }
        }
    }

    /// Lock a shard's backend. A poisoned backend mutex means a backend
    /// call panicked and may have left internal scratch mid-mutation —
    /// executing on it could produce wrong bits, so the service is marked
    /// shut down and the request fails with
    /// [`NormError::ServiceShutdown`] instead.
    #[allow(clippy::type_complexity)]
    fn backend_of<'s>(
        &self,
        shard: &'s Shard,
    ) -> Result<MutexGuard<'s, Box<dyn NormBackend>>, NormError> {
        match shard.backend.lock() {
            Ok(guard) => Ok(guard),
            Err(poisoned) => {
                drop(poisoned);
                self.request_shutdown();
                Err(NormError::ServiceShutdown)
            }
        }
    }

    /// Lock a shard's whitening executor, building it from the config on
    /// first use. Build errors (an impossible backend/format/SIMD combo
    /// for whitening) surface to the whitening submitter only — they do
    /// not shut the service down, and normalization traffic is
    /// unaffected. Poison is handled like [`backend_of`](Core::backend_of):
    /// a panic mid-whitening may have left executor scratch inconsistent.
    #[allow(clippy::type_complexity)]
    fn whiten_of<'s>(
        &self,
        shard: &'s Shard,
    ) -> Result<MutexGuard<'s, Option<Box<dyn WhitenExec>>>, NormError> {
        let mut guard = match shard.whiten.lock() {
            Ok(guard) => guard,
            Err(poisoned) => {
                drop(poisoned);
                self.request_shutdown();
                return Err(NormError::ServiceShutdown);
            }
        };
        if guard.is_none() {
            let config = &self.config;
            *guard = match &self.make_whiten {
                Some(make) => Some(make()),
                None => Some(build_whiten(
                    config.backend,
                    config.format,
                    config.d,
                    config.whiten,
                    config.simd,
                )?),
            };
        }
        Ok(guard)
    }

    /// Fail closed on a state invariant the protocol guarantees but this
    /// call found violated (a slot left unserved by a finished round, a
    /// built whitening executor missing behind a held lock): some thread
    /// panicked mid-protocol in a way poison recovery did not catch, so
    /// shard state can no longer be trusted. Marks the service shut
    /// down, wakes every parked driver, and returns the error the caller
    /// surfaces — never a panic, which would poison the locks the
    /// recovery helpers just rescued.
    fn torn_state(&self) -> NormError {
        self.request_shutdown();
        NormError::ServiceShutdown
    }

    /// The public response for a request `shard` served into `bits`,
    /// stamped with the all-in span since the request was accepted.
    pub(super) fn respond(
        &self,
        shard: &Shard,
        bits: Vec<u32>,
        served: &Served,
        accepted: Instant,
    ) -> NormResponse {
        NormResponse {
            bits,
            pool: Arc::clone(&shard.pool),
            format: self.config.format,
            rows: served.rows,
            batch_rows: served.batch_rows,
            batch_requests: served.batch_requests,
            elapsed: accepted.elapsed(),
            simd: self.simd_level,
        }
    }
}

/// What one backend call runs over: a request's bits into a
/// caller-provided buffer (the inline [`NormService::submit_into`] path),
/// or buffers the call owns, normalized where they sit — one per request,
/// whole rows for normalization and one group each for whitening.
pub(super) enum Work<'a, 'b> {
    Into { bits: &'a [u32], out: &'a mut [u32] },
    InPlace(&'a mut [&'b mut [u32]]),
}

/// One serial backend call of `kind` over `work`. The returned
/// [`Executed`] reports when
/// execution began — *after* the backend (or whitening executor) lock
/// was acquired, so callers charge lock waits to queue-wait, not
/// execution — and how long the call itself took.
pub(super) fn execute(
    core: &Core,
    shard: &Shard,
    kind: RequestKind,
    work: Work<'_, '_>,
) -> Result<Executed, NormError> {
    let timed = |exec_start: Instant| Executed {
        exec_start,
        execute: exec_start.elapsed(),
    };
    match kind {
        RequestKind::Normalize => {
            let mut backend = core.backend_of(shard)?;
            let exec_start = Instant::now();
            match work {
                Work::Into { bits, out } => backend.normalize_batch_bits(bits, out, 1),
                Work::InPlace(segments) => backend.normalize_in_place(segments),
            }?;
            Ok(timed(exec_start))
        }
        RequestKind::Whiten => {
            let mut guard = core.whiten_of(shard)?;
            // `whiten_of` guarantees `Some` on `Ok`; `None` here means torn
            // shard state — fail closed instead of panicking under the lock.
            let Some(exec) = guard.as_mut() else {
                return Err(core.torn_state());
            };
            let exec_start = Instant::now();
            match work {
                Work::Into { bits, out } => {
                    let rows = bits.len() / core.config.d;
                    exec.whiten_groups(bits, out, &[rows], 1)
                }
                Work::InPlace(groups) => exec.whiten_in_place(groups),
            }?;
            Ok(timed(exec_start))
        }
    }
}

/// The type-erased serving front door: one shared execution point that any
/// number of threads submit normalization work to. Cloning is cheap (the
/// clones share the same shards, plans, scratch and coalescing queues).
/// See the [module docs](super) for the contract and an example.
#[derive(Clone)]
pub struct NormService {
    inner: Arc<Inner>,
}

impl core::fmt::Debug for NormService {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("NormService")
            .field("label", &self.inner.label)
            .field("d", &self.inner.config.d)
            .field("shards", &self.inner.config.shards)
            .finish_non_exhaustive()
    }
}

impl NormService {
    /// Spawn one resident driver per backend and assemble the service
    /// around them — [`ServiceConfig`]'s build methods end here.
    pub(super) fn start(
        config: ServiceConfig,
        backends: Vec<Box<dyn NormBackend>>,
        make_whiten: Option<MakeWhiten>,
    ) -> NormService {
        // Distinguishes driver threads across services in one process:
        // thread names (`ns{sid}s{shard}d`, ≤ 15 bytes for /proc comm)
        // are how the hygiene suite counts this service's residents.
        static SERVICE_ID: AtomicUsize = AtomicUsize::new(0);
        let sid = SERVICE_ID.fetch_add(1, Ordering::Relaxed);
        let label = backends[0].label();
        // Every shard was built from the same config, so the resolved
        // level is uniform — record it once for response metadata.
        let simd_level = backends[0].simd_level();
        let shards = backends
            .into_iter()
            .map(|backend| Shard {
                queue: Mutex::new(QueueState::default()),
                work_cv: Condvar::new(),
                backend: Mutex::new(backend),
                // Lazily built on the shard's first whitening request —
                // see [`Core::whiten_of`].
                whiten: Mutex::new(None),
                // Per shard on purpose: a single service-wide pool mutex
                // would reintroduce the global serialization point that
                // sharding exists to remove.
                pool: Arc::default(),
            })
            .collect();
        let core = Arc::new(Core {
            label,
            simd_level,
            config,
            make_whiten,
            shards,
            next_shard: AtomicUsize::new(0),
            shutdown: AtomicBool::new(false),
        });
        let drivers = (0..core.shards.len())
            .map(|i| {
                let core = Arc::clone(&core);
                std::thread::Builder::new()
                    .name(format!("ns{sid}s{i}d"))
                    .spawn(move || driver_loop(&core, i))
                    // normlint: allow(L001) — spawn fails only on resource
                    // exhaustion at build time; a service cannot exist
                    // without its resident drivers.
                    .expect("spawn resident shard driver")
            })
            .collect();
        NormService {
            inner: Arc::new(Inner { core, drivers }),
        }
    }

    /// The configuration this service was built from.
    pub fn config(&self) -> &ServiceConfig {
        &self.inner.config
    }

    /// The vector length `d`.
    pub fn d(&self) -> usize {
        self.inner.config.d
    }

    /// The format.
    pub fn format(&self) -> FormatKind {
        self.inner.config.format
    }

    /// The backend kind.
    pub fn backend(&self) -> BackendKind {
        self.inner.config.backend
    }

    /// The scale method.
    pub fn method(&self) -> MethodSpec {
        self.inner.config.method
    }

    /// The number of independent shards requests are placed across.
    pub fn shards(&self) -> usize {
        self.inner.config.shards
    }

    /// Combined report label, e.g. `"native-f32/FP32/iterl2[5]"`.
    pub fn label(&self) -> &str {
        &self.inner.label
    }

    /// The *resolved* SIMD level this service's backends execute — never
    /// [`SimdLevel::Auto`] (auto is resolved at build time);
    /// [`SimdLevel::Scalar`] when the generic engine runs (forced scalar,
    /// the emulated backend, or a custom backend without a vector path).
    pub fn simd_level(&self) -> SimdLevel {
        self.inner.simd_level
    }

    /// Execution counters so far, aggregated over all shards.
    pub fn stats(&self) -> ServiceStats {
        let mut total = ServiceStats::default();
        for shard in &self.inner.shards {
            total.merge(&self.inner.queue_of(shard).stats);
        }
        total
    }

    /// Refuse all future requests. Requests already accepted are still
    /// completed — the resident drivers execute their remaining queues
    /// before exiting; subsequent [`submit`](NormService::submit) calls
    /// return [`NormError::ServiceShutdown`]. Parked submitters and
    /// drivers are woken so none can miss the flag (see the
    /// shutdown-race stress test in `tests/service_resilience.rs`).
    pub fn shutdown(&self) {
        self.inner.request_shutdown();
    }

    /// `true` once [`shutdown`](NormService::shutdown) has been called
    /// (or the service shut itself down recovering from a panic).
    pub fn is_shutdown(&self) -> bool {
        self.inner.shutdown.load(Ordering::SeqCst)
    }

    /// Normalize one request. Blocks until the result is ready. On an idle
    /// shard the request runs inline on this thread; otherwise it queues
    /// for the shard's driver, and requests from concurrent submitters may
    /// be executed together in one backend batch (see the
    /// [module docs](super)) — the output bits are identical either way.
    ///
    /// # Errors
    ///
    /// [`NormError::ServiceShutdown`] after [`shutdown`](NormService::shutdown)
    /// (or after a panicking request forced the service down),
    /// [`NormError::QueueFull`] when the target shard's waiting line is at
    /// the configured depth, [`NormError::EmptyRequest`] for a zero-row
    /// request, [`NormError::BatchLengthMismatch`] when the data is not
    /// whole `d`-length rows, plus any backend execution error.
    pub fn submit(&self, request: NormRequest<'_>) -> Result<NormResponse, NormError> {
        self.validate_shape(&request)?;
        let accepted = Instant::now();
        let shard = &self.inner.shards[self.pick_shard(request.key())];
        let mut out = Vec::new();
        let served = self.serve(&request, &mut Sink::Leased(&mut out), shard, accepted);
        self.reply(shard, out, served, accepted)
    }

    /// [`submit`](NormService::submit) writing the normalized bits into a
    /// caller-provided buffer instead of allocating a response — the
    /// hot-path variant for callers that reuse buffers across calls (the
    /// transformer's forward pass). When the request runs on the calling
    /// thread — on an idle shard — bit requests execute straight into `out`
    /// with **zero** service-layer allocations, copies or condvar waits.
    /// A request that queues behind other work rides a resident-driver
    /// round and the served result is copied into `out`. Returns the
    /// number of rows. Output bits are identical to
    /// [`submit`](NormService::submit) on every path.
    ///
    /// # Errors
    ///
    /// The [`submit`](NormService::submit) errors, plus
    /// [`NormError::OutputLengthMismatch`] when `out` differs in length.
    pub fn submit_into(
        &self,
        request: NormRequest<'_>,
        out: &mut [u32],
    ) -> Result<usize, NormError> {
        self.validate_shape(&request)?;
        if out.len() != request.len() {
            return Err(NormError::OutputLengthMismatch {
                expected: request.len(),
                actual: out.len(),
            });
        }
        let shard = &self.inner.shards[self.pick_shard(request.key())];
        let accepted = Instant::now();
        Ok(self
            .serve(&request, &mut Sink::Caller(out), shard, accepted)?
            .rows)
    }

    /// Non-blocking submission: returns a [`NormTicket`] without parking
    /// the submitting thread on its shard. When the shard is idle — the
    /// rule the blocking [`submit`](NormService::submit) runs inline by —
    /// the request executes right here on the calling thread, out of
    /// place from the borrowed payload into a pooled reply, and the
    /// returned ticket is already complete: no payload copy and no driver
    /// hand-off. When the shard is busy the payload is encoded into a
    /// pooled buffer and queued for the shard's resident driver, and this
    /// call returns without doing the work. Either way the borrowed
    /// request data is free to be reused as soon as this returns. The
    /// caller collects the result through [`NormTicket::try_take`] /
    /// [`wait`](NormTicket::wait) / [`wait_timeout`](NormTicket::wait_timeout)
    /// — the pipelining shape an inference loop wants (submit the next
    /// layer's norm, keep computing, join before the result is needed),
    /// which overlaps work whenever the ticket queued.
    ///
    /// A queued ticket composes with every blocking-path mechanism: its
    /// request coalesces into the same resident-driver rounds as queued
    /// blocking submits (a concurrent [`submit`](NormService::submit) may
    /// share its backend batch), and it is admitted through the same
    /// per-shard queue-depth bound — a full shard rejects **here, at
    /// enqueue time**, not at collect time. Output bits are identical to
    /// [`submit`](NormService::submit) and to serial execution on every
    /// path (enforced by `tests/service_bit_identity.rs` and
    /// `tests/inline_submit.rs`).
    ///
    /// An accepted request executes whether or not its ticket is ever
    /// collected — a dropped, never-collected ticket's buffers return to
    /// the shard pool (see [`NormTicket`]). Event loops that would rather
    /// be called than poll register a callback with
    /// [`NormTicket::on_ready`] or collect many tickets through a
    /// [`TicketSet`](super::TicketSet). A backend panic during an inline run never
    /// unwinds into the submitter: the service shuts down, as it does for
    /// a panic in a driver round, and the ticket holds
    /// [`NormError::ServiceShutdown`].
    ///
    /// # Errors
    ///
    /// [`NormError::ServiceShutdown`] after [`shutdown`](NormService::shutdown),
    /// [`NormError::QueueFull`] when the target shard's waiting line is at
    /// the configured depth, [`NormError::EmptyRequest`] /
    /// [`NormError::BatchLengthMismatch`] for malformed shapes. Execution
    /// errors surface later, from the ticket's collect methods.
    pub fn submit_async(&self, request: NormRequest<'_>) -> Result<NormTicket, NormError> {
        self.validate_shape(&request)?;
        if self.inner.shutdown.load(Ordering::SeqCst) {
            return Err(NormError::ServiceShutdown);
        }
        let accepted = Instant::now();
        let shard_idx = self.pick_shard(request.key());
        let shard = &self.inner.shards[shard_idx];
        let repr = match self.admit(shard, &request)? {
            Admission::Inline(claim) => {
                TicketRepr::Immediate(Some(self.inline_ticket(&request, shard, claim, accepted)))
            }
            Admission::Queue => {
                let slot = self.enqueue(shard, &request, accepted, false)?;
                TicketRepr::Queued { slot, accepted }
            }
        };
        Ok(NormTicket {
            core: Arc::clone(&self.inner.core),
            shard_idx,
            rows: request.len() / self.inner.config.d,
            delivered: false,
            repr,
        })
    }

    /// The shard index [`Placement::RequestHash`] sends `key` to —
    /// deterministic for a fixed key and shard count, so a caller can
    /// predict (and tests can assert) where its keyed traffic lands.
    /// Always in `0..shards()`; on a round-robin service this is what the
    /// placement *would* be if the config switched to request-hash.
    pub fn shard_for(&self, key: u64) -> usize {
        (splitmix64(key) % self.inner.shards.len() as u64) as usize
    }

    /// Placement: keyed requests stick to [`shard_for`](NormService::shard_for)
    /// under [`Placement::RequestHash`]; everything else goes round-robin
    /// via the atomic cursor. Every shard executes the identical plan, so
    /// placement affects only contention, never output bits.
    fn pick_shard(&self, key: Option<u64>) -> usize {
        let n = self.inner.shards.len();
        if n == 1 {
            return 0;
        }
        if let (Placement::RequestHash, Some(key)) = (self.inner.config.placement, key) {
            return self.shard_for(key);
        }
        self.inner.next_shard.fetch_add(1, Ordering::Relaxed) % n
    }

    /// The submission protocol [`submit`](NormService::submit) and
    /// [`submit_into`](NormService::submit_into) share, writing the
    /// normalized bits into `sink`: run on the calling thread when
    /// [`admit`](NormService::admit) grants it, otherwise hand off to
    /// [`serve_queued`](NormService::serve_queued). The driver stays the
    /// only thread that runs queued work, and an inline caller runs only
    /// its own request, so no submitter is ever held serving other
    /// callers' traffic.
    fn serve(
        &self,
        request: &NormRequest<'_>,
        sink: &mut Sink<'_>,
        shard: &Shard,
        accepted: Instant,
    ) -> Result<Served, NormError> {
        if self.inner.shutdown.load(Ordering::SeqCst) {
            return Err(NormError::ServiceShutdown);
        }
        if let Admission::Inline(claim) = self.admit(shard, request)? {
            return self.run_inline(request, sink, shard, claim, accepted);
        }
        self.serve_queued(request, sink, shard, accepted)
    }

    /// The queued half of [`serve`](NormService::serve): enqueue (subject
    /// to the shard's queue-depth bound), then park on the request's own
    /// slot until the resident driver's round fills it. Out of line and
    /// cold, so the inline path that an idle shard takes stays small:
    /// with this wait inlined into `serve`, the closed-loop inline
    /// benchmark's p99 read worse.
    #[cold]
    #[inline(never)]
    fn serve_queued(
        &self,
        request: &NormRequest<'_>,
        sink: &mut Sink<'_>,
        shard: &Shard,
        accepted: Instant,
    ) -> Result<Served, NormError> {
        let slot = self.enqueue(shard, request, accepted, true)?;
        // The driver is guaranteed to serve every admitted entry (enqueue
        // re-checks shutdown under the queue lock), so parking here
        // cannot strand us.
        match slot.take(WaitMode::Forever) {
            Some(Ok(result)) => finish(result, sink, &shard.pool),
            Some(Err(SlotFail::Err(err))) => Err(err),
            // The round that served us caught a backend panic and elected
            // this blocking waiter to re-raise it: the panic surfaces on
            // a submitter thread, never silently in the driver.
            Some(Err(SlotFail::Panic(payload))) => resume_unwind(payload),
            // A forever wait returns only with the outcome.
            None => Err(self.inner.torn_state()),
        }
    }

    /// Decide, under the shard's queue lock, whether an arrival runs
    /// inline on the calling thread: inline when the service is up, the
    /// shard has nothing queued and no thread holds its claim. On success
    /// the caller holds the claim and the request is already counted in
    /// `requests`, exactly as a queued request is counted before it
    /// parks.
    fn admit<'s>(
        &'s self,
        shard: &'s Shard,
        request: &NormRequest<'_>,
    ) -> Result<Admission<'s>, NormError> {
        let mut queue = self.inner.queue_of(shard);
        if self.inner.shutdown.load(Ordering::SeqCst) {
            return Err(NormError::ServiceShutdown);
        }
        if queue.claimed || queue.failed || !queue.pending.is_empty() {
            return Ok(Admission::Queue);
        }
        queue.claimed = true;
        queue.stats.accept(request.kind());
        Ok(Admission::Inline(InlineClaim {
            core: &self.inner.core,
            shard,
            released: false,
        }))
    }

    /// Run `request` as its own backend call on the calling thread,
    /// straight into `sink`, then release `claim` with the call's stats.
    fn run_inline(
        &self,
        request: &NormRequest<'_>,
        sink: &mut Sink<'_>,
        shard: &Shard,
        claim: InlineClaim<'_>,
        accepted: Instant,
    ) -> Result<Served, NormError> {
        let rows = request.len() / self.inner.config.d;
        let executed = self.execute_on_caller(request, sink, shard);
        claim.release(request.kind(), rows, accepted, &executed);
        executed?;
        Ok(Served::alone(rows))
    }

    /// The one inline-ticket path: run the request under `claim` into a
    /// pooled reply and
    /// return the finished outcome. A backend panic is contained here,
    /// never unwinding into the submitter: the claim's drop fails the
    /// shard and shuts the service down, and the ticket reports
    /// [`NormError::ServiceShutdown`] — the outcome a panic contained in
    /// a driver round gives every ticket.
    fn inline_ticket(
        &self,
        request: &NormRequest<'_>,
        shard: &Shard,
        claim: InlineClaim<'_>,
        accepted: Instant,
    ) -> Result<NormResponse, NormError> {
        let mut out = Vec::new();
        let served = catch_unwind(AssertUnwindSafe(|| {
            self.run_inline(request, &mut Sink::Leased(&mut out), shard, claim, accepted)
        }))
        .unwrap_or(Err(NormError::ServiceShutdown));
        self.reply(shard, out, served, accepted)
    }

    /// Wrap an outcome served into the reply lease `out` as the public
    /// result; a failed request's lease returns to the pool.
    fn reply(
        &self,
        shard: &Shard,
        out: Vec<u32>,
        served: Result<Served, NormError>,
        accepted: Instant,
    ) -> Result<NormResponse, NormError> {
        match served {
            Ok(served) => Ok(self.inner.respond(shard, out, &served, accepted)),
            Err(err) => {
                shard.pool.give_back(out);
                Err(err)
            }
        }
    }

    /// Run `request` as its own backend call on the calling thread,
    /// straight into the sink: the caller's buffer, or a pool lease of the
    /// request's length (no zero-fill once the pool holds a buffer of that
    /// length). A bit payload is read where the caller holds it and
    /// written out of place — no payload copy. An `f32` payload needs a
    /// conversion pass anyway: it is encoded into the sink and normalized
    /// there in place.
    fn execute_on_caller(
        &self,
        request: &NormRequest<'_>,
        sink: &mut Sink<'_>,
        shard: &Shard,
    ) -> Result<Executed, NormError> {
        let core = &self.inner.core;
        let kind = request.kind();
        let out: &mut [u32] = match sink {
            Sink::Caller(out) => out,
            Sink::Leased(reply) => {
                **reply = shard.pool.lease(request.len());
                reply
            }
        };
        match request.payload {
            Payload::Bits(bits) => execute(core, shard, kind, Work::Into { bits, out }),
            Payload::F32(_) => {
                request.encode_into(self.inner.config.format, out);
                execute(core, shard, kind, Work::InPlace(&mut [out]))
            }
        }
    }

    /// The combining queue's one admission + enqueue protocol, shared by
    /// blocking ([`serve`](NormService::serve)) and async
    /// ([`submit_async`](NormService::submit_async)) submission — the two
    /// paths cannot diverge on depth accounting or stats by construction.
    /// Cheap depth pre-check first (a full shard sheds load without
    /// paying the encode), then the payload is encoded into a pooled
    /// buffer *outside* the queue lock so concurrent submitters'
    /// per-element format conversions overlap instead of serializing,
    /// then a re-check under the lock (the line may have filled while we
    /// encoded) before the entry parks. Returns the entry's mailbox.
    ///
    /// [`Priority::High`] requests are admitted against a relaxed bound
    /// (`2 × depth` — the reserved overflow region normal traffic cannot
    /// touch) and park ahead of every already-waiting normal request but
    /// behind earlier high-priority ones, so the class jumps the line
    /// while staying FIFO within itself.
    fn enqueue(
        &self,
        shard: &Shard,
        request: &NormRequest<'_>,
        accepted: Instant,
        blocking: bool,
    ) -> Result<Arc<Slot>, NormError> {
        let depth = self.inner.config.queue_depth;
        let limit = match request.priority() {
            Priority::Normal => depth,
            Priority::High => depth.saturating_mul(2),
        };
        {
            let mut queue = self.inner.queue_of(shard);
            if queue.waiting() >= limit {
                queue.stats.queue_full_rejections += 1;
                return Err(NormError::QueueFull { depth });
            }
        }
        let mut bits = shard.pool.lease(request.len());
        request.encode_into(self.inner.config.format, &mut bits);
        let slot = Slot::new(Arc::clone(&shard.pool));
        let mut queue = self.inner.queue_of(shard);
        // Re-checked *under the queue lock*: the driver only exits after
        // observing the shutdown flag under this same lock, so an entry
        // admitted here is guaranteed a live driver to execute it.
        if self.inner.shutdown.load(Ordering::SeqCst) {
            drop(queue);
            shard.pool.give_back(bits);
            return Err(NormError::ServiceShutdown);
        }
        if queue.waiting() >= limit {
            // Shed after all, returning the payload lease.
            queue.stats.queue_full_rejections += 1;
            drop(queue);
            shard.pool.give_back(bits);
            return Err(NormError::QueueFull { depth });
        }
        queue.stats.accept(request.kind());
        let entry = PendingEntry {
            bits,
            slot: Arc::clone(&slot),
            accepted,
            priority: request.priority(),
            kind: request.kind(),
            blocking,
        };
        match request.priority() {
            Priority::Normal => queue.pending.push(entry),
            // Jump ahead of every waiting normal request but stay FIFO
            // within the class: insert at the end of the high prefix,
            // never at index 0, or sustained high traffic would keep
            // pushing its own oldest request back. Within one drained
            // round batch layout is queue order, so the high-class rows
            // lead the next backend call in arrival order.
            Priority::High => {
                let at = queue
                    .pending
                    .iter()
                    .position(|e| e.priority == Priority::Normal)
                    .unwrap_or(queue.pending.len());
                queue.pending.insert(at, entry);
            }
        }
        drop(queue);
        // Wake the resident driver (submitters park on their slots, so
        // `work_cv` wakes only the driver) — an arrival while a round
        // runs joins the next one; otherwise this starts a round.
        shard.work_cv.notify_all();
        Ok(slot)
    }

    /// Reject malformed requests at the door, before they can touch a
    /// queue — shape errors are therefore independent of coalescing,
    /// sharding and load.
    fn validate_shape(&self, request: &NormRequest<'_>) -> Result<(), NormError> {
        if request.is_empty() {
            return Err(NormError::EmptyRequest);
        }
        let d = self.inner.config.d;
        let len = request.len();
        if !len.is_multiple_of(d) {
            return Err(match request.kind() {
                RequestKind::Normalize => NormError::BatchLengthMismatch {
                    rows: len / d,
                    d,
                    actual: len,
                },
                RequestKind::Whiten => NormError::GroupShapeMismatch {
                    rows: len / d,
                    d,
                    actual: len,
                },
            });
        }
        Ok(())
    }
}
