//! The type-erased normalization serving API: one front door over
//! format × method × backend, with request micro-batching, sharding and
//! bounded backpressure.
//!
//! The execution layer underneath ([`backend`](crate::backend)) is already
//! runtime-polymorphic, but every caller still had to monomorphize its own
//! dispatch (the CLI's old `with_exec!` macro, the transformer's typed
//! per-layer plans). [`NormService`] removes that: a [`ServiceConfig`]
//! names the whole execution point — dimension, format, scale method,
//! backend, reduction order, affine parameters, shards — and
//! [`ServiceConfig::build`] erases it behind one object. Callers submit
//! [`NormRequest`]s (row-major `u32` storage bits, or native `f32` slices)
//! and get [`NormResponse`]s with per-request execution metadata. No
//! generic parameters, no macros.
//!
//! # The resident shard executor
//!
//! Each shard owns exactly one **resident driver** thread, spawned once at
//! [`ServiceConfig::build`] and joined when the service shuts down or the
//! last clone drops. The driver parks on the shard's work condvar, drains
//! the combining queue and runs the backend calls with the serial
//! kernels; shards are the service's only parallelism. An idle driver
//! parks — no busy-spin — and shutdown joins every driver, so a
//! built-then-dropped service leaks nothing (proven by
//! `tests/executor_hygiene.rs`).
//!
//! # The idle-shard inline path
//!
//! Handing a request to the driver and back costs a condvar round trip —
//! several times the kernel for a small request — plus, for a queued
//! request, a copy of its payload into a pooled buffer. So every entry
//! point ([`NormService::submit`], [`NormService::submit_into`] and
//! [`NormService::submit_async`]) that finds its shard idle runs inline:
//! nothing queued, no thread executing on the shard, and a zero
//! coalescing window. The caller takes the shard's claim, runs its own
//! request on the shard's backend — reading a bit payload where the
//! caller holds it and writing straight into a `submit_into` buffer or
//! a pooled reply — and gives the claim back. An
//! inline `submit_async` returns an already-complete ticket. While the claim is held, other arrivals
//! queue and the driver waits; the releasing caller wakes it if anything
//! queued. Submitters still never execute other callers' work: an inline
//! caller runs only its own request, and the driver is the only thread
//! that runs queued work. A panic in an inline call fails the shard and
//! shuts the service down exactly like a driver-round panic; it surfaces
//! on a blocking caller's own thread, and an inline ticket holds
//! [`NormError::ServiceShutdown`] instead.
//!
//! # Micro-batching
//!
//! A service is [`Clone`] + [`Sync`]: concurrent callers share the same
//! plans, scratch and backends. Requests that are waiting in a shard's
//! queue when its driver starts a round — or that arrive within the
//! configured coalescing [`window`](ServiceConfig::with_window) — run as
//! **one** [`normalize_in_place`](crate::NormBackend::normalize_in_place)
//! call over the requests' own payload buffers, each normalized where it
//! sits and handed back as that caller's reply. Rows are independent and
//! the engine processes each row the same way wherever it lives, so the
//! coalesced output bits are
//! **identical** to serial per-request execution (enforced across
//! formats × methods × shard counts × submitter counts by
//! `tests/service_bit_identity.rs`). Coalescing therefore changes only
//! throughput, never results; the wins show up only under concurrent
//! load — a single submitting thread's request is drained alone and runs
//! as its own batch.
//!
//! # Async submission
//!
//! [`NormService::submit`] parks the submitting thread until its result is
//! ready. [`NormService::submit_async`] does not: on a busy shard it
//! enqueues into the shard's combining queue and returns a [`NormTicket`]
//! immediately, so a caller can overlap its own work with normalization
//! the way an inference loop overlaps layers, then collect through
//! [`NormTicket::try_take`] (poll), [`NormTicket::wait`] (park),
//! [`NormTicket::wait_timeout`] (bounded park) or — waker-native —
//! [`NormTicket::on_ready`] (a completion callback the driver invokes) and
//! [`TicketSet::wait_any`] (collect a batch of tickets in completion
//! order, without polling). On an idle shard the ticket's request runs
//! inline (above) and the ticket comes back already complete — the
//! collect methods then return at once. Queued async requests ride the
//! *same* driver rounds as queued blocking ones, so async, blocking
//! (inline or queued) and serial per-request execution are all
//! bit-identical (enforced by `tests/service_bit_identity.rs` and
//! `tests/inline_submit.rs`). Backpressure applies at enqueue time: a
//! full shard fails `submit_async` with [`NormError::QueueFull`] before
//! any request-sized work is done.
//!
//! ```
//! use iterl2norm::service::{NormRequest, ServiceConfig};
//!
//! # fn main() -> Result<(), iterl2norm::NormError> {
//! let d = 64;
//! let service = ServiceConfig::new(d).build()?;
//! let rows: Vec<u32> = (0..2 * d as u32).map(|i| f32::to_bits(0.5 + i as f32)).collect();
//!
//! // Enqueue without blocking, overlap other work, collect later.
//! let mut ticket = service.submit_async(NormRequest::bits(&rows))?;
//! let overlapped_work = 6 * 7; // ... the caller's own computation ...
//! let response = ticket.wait()?;
//! assert_eq!(overlapped_work, 42);
//! assert_eq!(response.rows(), 2);
//!
//! // Bit-identical to the blocking path.
//! let blocking = service.submit(NormRequest::bits(&rows))?;
//! assert_eq!(response.bits(), blocking.bits());
//! # Ok(())
//! # }
//! ```
//!
//! # Sharding, placement and backpressure
//!
//! One combining queue over one backend mutex serializes *all* traffic on
//! a single lock. [`ServiceConfig::with_shards`] splits the service into N
//! independent shards — each owns its own backend instance (built from the
//! identical plan), combining queue and coalescing state — and requests
//! are placed across shards by the configured [`Placement`]: round-robin
//! by default, or sticky request-hash
//! ([`ServiceConfig::with_placement`] + [`NormRequest::with_key`]), which
//! keeps a hot caller's traffic on one shard so that shard's backend
//! scratch and buffer pool stay warm. Because every shard executes the
//! same plan with the same arithmetic, output bits are independent of the
//! shard count, the placement policy and of which shard served a request.
//!
//! Each shard's waiting line is bounded by
//! [`ServiceConfig::with_queue_depth`]: a request that arrives when the
//! shard's queue is full fails fast with [`NormError::QueueFull`] instead
//! of buffering unboundedly behind a slow backend. Response buffers are
//! leased from a small per-shard pool and returned when the
//! [`NormResponse`] drops, so steady-state serving does not allocate a fresh output buffer per
//! request — and the pool's lock is shard-local, not another global
//! serialization point.
//!
//! # Failure containment
//!
//! No internal lock acquisition panics on poison. If a backend call
//! panics mid-execution (a backend bug, an allocation failure), the
//! resident driver **contains** the panic: the service marks itself shut
//! down, the panic payload is re-raised on the submitting thread of the
//! failed round's first blocking waiter (panics do not silently vanish
//! into a worker), and every other waiter fails with
//! [`NormError::ServiceShutdown`] — one panicking request never leaves
//! other callers parked forever, panicking on a poisoned mutex, or served
//! by a dead driver. A panic in an inline call is contained the same
//! way by the caller's claim guard: the service shuts down, entries that
//! queued behind the claim fail with [`NormError::ServiceShutdown`], and
//! the payload unwinds on a blocking caller's own thread — an inline
//! ticket catches it and reports [`NormError::ServiceShutdown`], so
//! `submit_async` never unwinds. A panicking
//! [`NormTicket::on_ready`] callback is likewise contained in the driver
//! and counted ([`ServiceStats::waker_panics`]). Plain-data caches
//! (result slots, the pool's service cache) recover the poisoned guard
//! and continue, since a panic cannot leave their state inconsistent.
//!
//! Every path that sets the shutdown flag — [`NormService::shutdown`],
//! the last handle's drop, poison and panic recovery — takes each
//! shard's queue lock between the store and the condvar notifies, so a
//! driver between its flag check and its park can never miss the wakeup.
//!
//! # Example
//!
//! ```
//! use iterl2norm::service::{NormRequest, ServiceConfig};
//! use iterl2norm::{BackendKind, FormatKind, MethodSpec};
//!
//! # fn main() -> Result<(), iterl2norm::NormError> {
//! let d = 64;
//! let service = ServiceConfig::new(d)
//!     .with_format(FormatKind::Fp32)
//!     .with_backend(BackendKind::Native)
//!     .with_method(MethodSpec::iterl2(5))
//!     .with_shards(2)
//!     .with_queue_depth(256)
//!     .build()?;
//!
//! // Native f32 traffic straight in; two rows in one request.
//! let rows: Vec<f32> = (0..2 * d).map(|i| (i as f32 * 0.37).sin()).collect();
//! let response = service.submit(NormRequest::f32(&rows))?;
//! assert_eq!(response.rows(), 2);
//! assert_eq!(response.bits().len(), 2 * d);
//! # Ok(())
//! # }
//! ```

// normlint: module(no-panic)
// Every non-test panic path in this file is a lint violation: a panic
// here unwinds inside the shard round protocol and poisons the very
// shard locks the PR 4 recovery helpers exist to rescue. Recover, fail
// closed through `Core::torn_state`, or attach a justified waiver.

use std::any::Any;
use std::collections::{HashMap, VecDeque};
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use softfloat::{Bf16, Float, Fp16, Fp32, HostF32};

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

use crate::backend::{build_backend_affine, BackendKind, FormatKind, NormBackend, RowMoments};
use crate::config::IterConfig;
use crate::engine::MethodSpec;
use crate::error::NormError;
use crate::hworder::ReduceOrder;
use crate::iteration::iterate;
use crate::layernorm::{layer_norm, LayerNormInputs};
use crate::simd::SimdLevel;
use crate::whiten::{build_whiten, WhitenDetail, WhitenExec, WhitenSpec};

/// Dispatch a body over the concrete [`Float`] type a validated
/// `(backend, format)` pair executes. Only reachable after
/// [`ServiceConfig::build`] has rejected native + non-FP32, so the native
/// arm is unconditionally `HostF32`. This is the single place the
/// type-erasure boundary is crossed back into generics.
macro_rules! with_exec_float {
    ($backend:expr, $format:expr, $f:ident => $body:expr) => {
        match ($backend, $format) {
            (BackendKind::Native, _) => {
                type $f = HostF32;
                $body
            }
            (BackendKind::Emulated, FormatKind::Fp32) => {
                type $f = Fp32;
                $body
            }
            (BackendKind::Emulated, FormatKind::Fp16) => {
                type $f = Fp16;
                $body
            }
            (BackendKind::Emulated, FormatKind::Bf16) => {
                type $f = Bf16;
                $body
            }
        }
    };
}

/// Default per-shard bound on queued (not-yet-executing) requests.
pub const DEFAULT_QUEUE_DEPTH: usize = 1024;

/// Everything that defines one normalization execution point. Built with
/// [`ServiceConfig::new`] plus `with_*` steps, validated once by
/// [`ServiceConfig::build`].
#[derive(Debug, Clone)]
pub struct ServiceConfig {
    d: usize,
    format: FormatKind,
    method: MethodSpec,
    backend: BackendKind,
    reduce: ReduceOrder,
    gamma_bits: Option<Vec<u32>>,
    beta_bits: Option<Vec<u32>>,
    window: Duration,
    shards: usize,
    queue_depth: usize,
    placement: Placement,
    simd: SimdLevel,
    whiten: WhitenSpec,
}

impl ServiceConfig {
    /// Defaults for vectors of length `d`: emulated FP32, `iterl2[5]`,
    /// hardware-tree reduction, no affine parameters,
    /// opportunistic coalescing with a zero window, one shard with a
    /// [`DEFAULT_QUEUE_DEPTH`]-request queue bound, pooled response
    /// buffers.
    pub fn new(d: usize) -> Self {
        ServiceConfig {
            d,
            format: FormatKind::default(),
            method: MethodSpec::iterl2(5),
            backend: BackendKind::default(),
            reduce: ReduceOrder::default(),
            gamma_bits: None,
            beta_bits: None,
            window: Duration::ZERO,
            shards: 1,
            queue_depth: DEFAULT_QUEUE_DEPTH,
            placement: Placement::default(),
            simd: SimdLevel::Auto,
            whiten: WhitenSpec::default(),
        }
    }

    /// Same config with a different float format.
    pub fn with_format(mut self, format: FormatKind) -> Self {
        self.format = format;
        self
    }

    /// Same config with a different scale method.
    pub fn with_method(mut self, method: MethodSpec) -> Self {
        self.method = method;
        self
    }

    /// Same config with a different execution backend.
    pub fn with_backend(mut self, backend: BackendKind) -> Self {
        self.backend = backend;
        self
    }

    /// Same config with a different reduction order.
    pub fn with_reduce(mut self, reduce: ReduceOrder) -> Self {
        self.reduce = reduce;
        self
    }

    /// Same config with per-element scale γ, given as storage bit
    /// patterns (length validated at build).
    pub fn with_gamma_bits(mut self, gamma: &[u32]) -> Self {
        self.gamma_bits = Some(gamma.to_vec());
        self
    }

    /// Same config with per-element shift β, given as storage bit
    /// patterns (length validated at build).
    pub fn with_beta_bits(mut self, beta: &[u32]) -> Self {
        self.beta_bits = Some(beta.to_vec());
        self
    }

    /// Same config with both affine parameters as storage bit patterns.
    pub fn with_affine_bits(self, gamma: &[u32], beta: &[u32]) -> Self {
        self.with_gamma_bits(gamma).with_beta_bits(beta)
    }

    /// Same config with a coalescing window: the shard's resident driver
    /// holds a drained round open this long before executing it, so
    /// requests from other threads can join the batch. Zero (the
    /// default) never delays a round — coalescing then happens only
    /// opportunistically, for requests that queue up while the driver
    /// is executing an earlier round.
    pub fn with_window(mut self, window: Duration) -> Self {
        self.window = window;
        self
    }

    /// Same config sharded across `shards` independent backend instances,
    /// each with its own combining queue;
    /// [`with_placement`](ServiceConfig::with_placement) decides which
    /// shard a request goes to.
    /// Every shard executes the identical plan, so output bits do not
    /// depend on the shard count or on which shard served a request
    /// (enforced by `tests/service_bit_identity.rs`). More shards remove
    /// the single backend mutex as the serialization point under
    /// concurrent load, at the cost of fewer coalescing opportunities per
    /// shard. Validated ≥ 1 at build.
    pub fn with_shards(mut self, shards: usize) -> Self {
        self.shards = shards;
        self
    }

    /// Same config with a different per-shard queue-depth bound: the
    /// maximum number of requests allowed to *wait* in a shard's combining
    /// queue (the request currently executing does not count). A submit
    /// that arrives at a full shard fails fast with
    /// [`NormError::QueueFull`] instead of buffering unboundedly behind a
    /// slow backend. Validated ≥ 1 at build (a zero depth would reject
    /// every request under a coalescing window); `usize::MAX` effectively
    /// disables the bound.
    pub fn with_queue_depth(mut self, queue_depth: usize) -> Self {
        self.queue_depth = queue_depth;
        self
    }

    /// Same config with a different shard-placement policy.
    /// [`Placement::RoundRobin`] (the default) spreads requests evenly;
    /// [`Placement::RequestHash`] pins requests that carry a
    /// [`key`](NormRequest::with_key) to one shard, keeping that shard's
    /// backend scratch warm for a hot caller (keyless requests still go
    /// round-robin). On a single-shard service both policies are the
    /// identity. Placement never changes output bits.
    pub fn with_placement(mut self, placement: Placement) -> Self {
        self.placement = placement;
        self
    }

    /// Same config with a different SIMD level for the native backend.
    /// [`SimdLevel::Auto`] (the default) picks the widest kernel the host
    /// supports; a forced level either runs exactly that tier or fails
    /// [`build`](ServiceConfig::build) with
    /// [`NormError::SimdUnsupported`] — never a silent downgrade. The
    /// resolved level is reported by
    /// [`NormService::simd_level`] and on every [`NormResponse`]. Output
    /// bits are identical at every level.
    pub fn with_simd(mut self, simd: SimdLevel) -> Self {
        self.simd = simd;
        self
    }

    /// Same config with a different whitening spec — the iteration count,
    /// covariance ridge and group mode that
    /// [`NormRequest::whiten_group`] requests execute under. Whitening
    /// shares this config's backend, format and SIMD level;
    /// the executor itself is built lazily, on the first whitening
    /// request a shard sees, so services that never whiten pay nothing.
    pub fn with_whiten(mut self, whiten: WhitenSpec) -> Self {
        self.whiten = whiten;
        self
    }

    /// The vector length `d`.
    pub fn d(&self) -> usize {
        self.d
    }

    /// The float format.
    pub fn format(&self) -> FormatKind {
        self.format
    }

    /// The scale method.
    pub fn method(&self) -> MethodSpec {
        self.method
    }

    /// The execution backend.
    pub fn backend(&self) -> BackendKind {
        self.backend
    }

    /// The reduction order.
    pub fn reduce(&self) -> ReduceOrder {
        self.reduce
    }

    /// The coalescing window.
    pub fn window(&self) -> Duration {
        self.window
    }

    /// The number of independent shards.
    pub fn shards(&self) -> usize {
        self.shards
    }

    /// The per-shard queue-depth bound.
    pub fn queue_depth(&self) -> usize {
        self.queue_depth
    }

    /// The shard-placement policy.
    pub fn placement(&self) -> Placement {
        self.placement
    }

    /// The *requested* SIMD level (possibly [`SimdLevel::Auto`]); the
    /// resolved level a built service actually runs is
    /// [`NormService::simd_level`].
    pub fn simd(&self) -> SimdLevel {
        self.simd
    }

    /// The whitening spec [`NormRequest::whiten_group`] requests run.
    pub fn whiten(&self) -> WhitenSpec {
        self.whiten
    }

    /// Validate the configuration and erase it behind a [`NormService`].
    ///
    /// # Errors
    ///
    /// [`NormError::EmptyInput`] when `d == 0`, [`NormError::ZeroShards`]
    /// when `shards == 0`, [`NormError::ZeroQueueDepth`] when
    /// `queue_depth == 0`, [`NormError::BackendFormatMismatch`] for
    /// native + non-FP32, and the γ/β length-mismatch variants.
    pub fn build(self) -> Result<NormService, NormError> {
        self.validate_counts()?;
        let mut backends = Vec::with_capacity(self.shards);
        for _ in 0..self.shards {
            backends.push(build_backend_affine(
                self.backend,
                self.format,
                self.d,
                &self.method,
                self.reduce,
                self.gamma_bits.as_deref(),
                self.beta_bits.as_deref(),
                self.simd,
            )?);
        }
        Ok(self.assemble(backends, None))
    }

    /// [`build`](ServiceConfig::build) with caller-supplied backends: the
    /// extension point for custom [`NormBackend`] implementations (and how
    /// the resilience test suite injects panicking or deliberately slow
    /// backends). `make` is called once per shard; every instance must
    /// execute the same computation or the sharded bit-identity guarantee
    /// is the caller's problem. The config's format/backend fields are
    /// kept for reporting but not validated against the custom backends.
    ///
    /// # Errors
    ///
    /// [`NormError::EmptyInput`] when `d == 0`, [`NormError::ZeroShards`]
    /// when `shards == 0`, [`NormError::ZeroQueueDepth`] when
    /// `queue_depth == 0`.
    pub fn build_with_backends(
        self,
        mut make: impl FnMut() -> Box<dyn NormBackend>,
    ) -> Result<NormService, NormError> {
        self.validate_counts()?;
        if self.d == 0 {
            return Err(NormError::EmptyInput);
        }
        let backends = (0..self.shards).map(|_| make()).collect();
        Ok(self.assemble(backends, None))
    }

    /// [`build_with_backends`](ServiceConfig::build_with_backends) plus a
    /// custom whitening-executor factory: each shard's executor is built
    /// through `make_whiten` on its first whitening request instead of
    /// from the config. The same bit-identity caveat applies. Exists so
    /// resilience tests can inject executors that fail or panic
    /// mid-whitening and observe the service's poison recovery.
    ///
    /// # Errors
    ///
    /// Same set as [`build_with_backends`](ServiceConfig::build_with_backends).
    pub fn build_with_backends_and_whiten(
        self,
        mut make: impl FnMut() -> Box<dyn NormBackend>,
        make_whiten: impl Fn() -> Box<dyn WhitenExec> + Send + Sync + 'static,
    ) -> Result<NormService, NormError> {
        self.validate_counts()?;
        if self.d == 0 {
            return Err(NormError::EmptyInput);
        }
        let backends = (0..self.shards).map(|_| make()).collect();
        Ok(self.assemble(backends, Some(Box::new(make_whiten))))
    }

    fn validate_counts(&self) -> Result<(), NormError> {
        if self.shards == 0 {
            return Err(NormError::ZeroShards);
        }
        if self.queue_depth == 0 {
            return Err(NormError::ZeroQueueDepth);
        }
        Ok(())
    }

    fn assemble(
        self,
        backends: Vec<Box<dyn NormBackend>>,
        make_whiten: Option<Box<dyn Fn() -> Box<dyn WhitenExec> + Send + Sync>>,
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
                queue_cv: Condvar::new(),
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
            config: self,
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
}

/// Where a sharded service places incoming requests. Every shard executes
/// the identical plan, so placement affects only contention and cache
/// warmth — **never output bits** (enforced by
/// `tests/service_bit_identity.rs`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Placement {
    /// Spread requests across shards with an atomic cursor (the default):
    /// even load, no caller cooperation needed.
    #[default]
    RoundRobin,
    /// Sticky placement: a request carrying a
    /// [`key`](NormRequest::with_key) always lands on the same shard
    /// (`hash(key) mod shards`), keeping one shard's backend scratch and
    /// buffer pool warm for a hot caller. Requests *without* a key fall
    /// back to round-robin.
    RequestHash,
}

impl Placement {
    /// Every placement policy, for sweeps and CLI help.
    pub const ALL: [Placement; 2] = [Placement::RoundRobin, Placement::RequestHash];

    /// Parse a placement name (`"round-robin"`/`"rr"`,
    /// `"request-hash"`/`"hash"`), case-insensitively — CLI flags and
    /// config files should not care about capitalization. Returns `None`
    /// for anything else.
    pub fn parse(text: &str) -> Option<Self> {
        match text.to_ascii_lowercase().as_str() {
            "round-robin" | "roundrobin" | "rr" => Some(Placement::RoundRobin),
            "request-hash" | "requesthash" | "hash" => Some(Placement::RequestHash),
            _ => None,
        }
    }

    /// Canonical name (`"round-robin"` / `"request-hash"`).
    pub fn name(self) -> &'static str {
        match self {
            Placement::RoundRobin => "round-robin",
            Placement::RequestHash => "request-hash",
        }
    }
}

impl core::fmt::Display for Placement {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.write_str(self.name())
    }
}

/// How urgently a shard's combining queue treats a request. Priority is a
/// *scheduling* property: it decides where a request parks in the waiting
/// line and how the queue-depth bound applies to it — **never output
/// bits** (every request executes the identical plan).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Priority {
    /// The default class: admitted while the shard's waiting line is
    /// below the configured queue depth, served in arrival order.
    #[default]
    Normal,
    /// Jump the combining queue: a high-priority request is inserted
    /// ahead of every parked normal request (but behind earlier
    /// high-priority requests — each class is served in its own arrival
    /// order) and is admitted even when the line is nominally full, up
    /// to a reserved overflow of one extra queue-depth that normal
    /// traffic can never occupy (beyond `2 × depth` waiting requests
    /// even high-priority work is shed with [`NormError::QueueFull`],
    /// so backpressure stays bounded). Quota policy for *who may use*
    /// this class belongs to the layer above — the network server's
    /// per-tenant admission control.
    High,
}

impl Priority {
    /// Every priority class, for sweeps and CLI help.
    pub const ALL: [Priority; 2] = [Priority::Normal, Priority::High];

    /// Parse a priority name (`"normal"`, `"high"`), case-insensitively.
    /// Returns `None` for anything else.
    pub fn parse(text: &str) -> Option<Self> {
        match text.to_ascii_lowercase().as_str() {
            "normal" => Some(Priority::Normal),
            "high" => Some(Priority::High),
            _ => None,
        }
    }

    /// Canonical name (`"normal"` / `"high"`).
    pub fn name(self) -> &'static str {
        match self {
            Priority::Normal => "normal",
            Priority::High => "high",
        }
    }
}

impl core::fmt::Display for Priority {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.write_str(self.name())
    }
}

/// One unit of normalization work: row-major data with stride `d`, plus
/// an optional placement key.
///
/// Bits are the service's exchange currency (every format stores one `u32`
/// per element); native `f32` slices are accepted as a convenience for
/// FP32-shaped serving traffic — for an FP32 service they are re-tagged
/// bit for bit, for FP16/BF16 they are rounded into the format. A
/// [`key`](NormRequest::with_key) makes the request sticky under
/// [`Placement::RequestHash`]; services on any other placement ignore it.
#[derive(Debug, Clone, Copy)]
pub struct NormRequest<'a> {
    payload: Payload<'a>,
    key: Option<u64>,
    priority: Priority,
    kind: RequestKind,
}

/// Which workload a [`NormRequest`] carries. Both kinds ride the same
/// shard queues, coalescing rounds, tickets and backpressure; they differ
/// only in how the payload is interpreted (independent `d`-length rows vs
/// one `m × d` group) and which executor serves them.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum RequestKind {
    /// Row-wise normalization: every `d`-length row is independent.
    #[default]
    Normalize,
    /// Group whitening: the payload is one `m × d` group, whitened as a
    /// unit with the service's [`WhitenSpec`] (Newton–Schulz `Σ^{-1/2}`).
    Whiten,
}

/// The two accepted payload encodings.
#[derive(Debug, Clone, Copy)]
enum Payload<'a> {
    /// Row-major storage bit patterns (`rows × d` elements).
    Bits(&'a [u32]),
    /// Row-major native `f32` values (`rows × d` elements).
    F32(&'a [f32]),
}

impl<'a> NormRequest<'a> {
    /// Request over raw storage bit patterns.
    pub fn bits(data: &'a [u32]) -> Self {
        NormRequest {
            payload: Payload::Bits(data),
            key: None,
            priority: Priority::Normal,
            kind: RequestKind::Normalize,
        }
    }

    /// Request over native `f32` values.
    pub fn f32(data: &'a [f32]) -> Self {
        NormRequest {
            payload: Payload::F32(data),
            key: None,
            priority: Priority::Normal,
            kind: RequestKind::Normalize,
        }
    }

    /// A whitening request: `data` is one row-major `m × d` group of
    /// storage bit patterns, whitened as a unit under the service's
    /// [`WhitenSpec`] ([`ServiceConfig::with_whiten`]). Rides the same
    /// shard queues, coalescing rounds, tickets and stats as
    /// normalization traffic.
    pub fn whiten_group(data: &'a [u32]) -> Self {
        NormRequest {
            payload: Payload::Bits(data),
            key: None,
            priority: Priority::Normal,
            kind: RequestKind::Whiten,
        }
    }

    /// [`whiten_group`](NormRequest::whiten_group) over native `f32`
    /// values (re-tagged bit for bit on FP32 services, rounded in on
    /// narrower formats).
    pub fn whiten_group_f32(data: &'a [f32]) -> Self {
        NormRequest {
            payload: Payload::F32(data),
            key: None,
            priority: Priority::Normal,
            kind: RequestKind::Whiten,
        }
    }

    /// Same request tagged with a placement key. Under
    /// [`Placement::RequestHash`] every request with the same key lands on
    /// the same shard ([`NormService::shard_for`] tells you which);
    /// under [`Placement::RoundRobin`] the key is ignored. Keys never
    /// affect output bits.
    pub fn with_key(mut self, key: u64) -> Self {
        self.key = Some(key);
        self
    }

    /// The placement key, if one was set with
    /// [`with_key`](NormRequest::with_key).
    pub fn key(&self) -> Option<u64> {
        self.key
    }

    /// Same request in the given scheduling class.
    /// [`Priority::High`] requests jump the shard's combining queue and
    /// may use its reserved overflow region (see [`Priority`]); priority
    /// never affects output bits.
    pub fn with_priority(mut self, priority: Priority) -> Self {
        self.priority = priority;
        self
    }

    /// The request's scheduling class ([`Priority::Normal`] unless set
    /// with [`with_priority`](NormRequest::with_priority)).
    pub fn priority(&self) -> Priority {
        self.priority
    }

    /// The workload this request carries ([`RequestKind::Normalize`]
    /// unless built with one of the `whiten_group` constructors).
    pub fn kind(&self) -> RequestKind {
        self.kind
    }

    /// Number of `u32`/`f32` elements in the request.
    pub fn len(&self) -> usize {
        match self.payload {
            Payload::Bits(b) => b.len(),
            Payload::F32(v) => v.len(),
        }
    }

    /// `true` when the request carries no elements.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Encode into the service's storage bits, overwriting `out` (exactly
    /// [`len`](NormRequest::len) elements, typically a pool lease). FP32
    /// keeps `f32` payloads bit for bit; narrower formats round each
    /// value in.
    fn encode_into(&self, format: FormatKind, out: &mut [u32]) {
        match self.payload {
            Payload::Bits(b) => out.copy_from_slice(b),
            Payload::F32(v) => match format {
                FormatKind::Fp32 => {
                    for (o, x) in out.iter_mut().zip(v) {
                        *o = x.to_bits();
                    }
                }
                _ => {
                    for (o, &x) in out.iter_mut().zip(v) {
                        *o = format.encode_f64(f64::from(x));
                    }
                }
            },
        }
    }
}

/// A lease/return free list of `u32` buffers: response buffers and the
/// coalescer's round-scoped scratch are leased here and handed back when
/// done (a [`NormResponse`] returns its buffer on drop), closing the
/// per-request allocation overhead on large uncontended requests. One
/// pool per shard, so the free-list lock never couples shards. A
/// poisoned free-list lock is recovered by skipping the pool (allocation
/// fallback) — the pool is an optimization, never a correctness
/// dependency.
#[derive(Debug, Default)]
struct BufferPool {
    free: Mutex<Vec<Vec<u32>>>,
}

impl BufferPool {
    /// Buffers retained at most; beyond this, returns are dropped.
    const MAX_POOLED: usize = 32;

    /// Largest per-buffer capacity (in `u32`s) worth retaining — 4 MiB.
    /// Without this cap, one burst of huge requests would pin
    /// `MAX_POOLED × largest-request` bytes per shard for the service's
    /// lifetime (Vec capacity never shrinks on reuse).
    const MAX_POOLED_CAPACITY: usize = 1 << 20;

    /// A buffer of exactly `len` elements, reusing a returned buffer when
    /// one is available. Its contents are unspecified — every caller
    /// overwrites all of it. Returned buffers keep their length, so the
    /// resize writes only a tail the buffer grows by: a steady stream of
    /// same-sized requests leases without any zero-fill.
    fn lease(&self, len: usize) -> Vec<u32> {
        let mut buf = self
            .free
            .lock()
            .map(|mut free| free.pop())
            .unwrap_or_default()
            .unwrap_or_default();
        buf.resize(len, 0);
        buf
    }

    /// Return a leased buffer (length and capacity) to the free list.
    fn give_back(&self, buf: Vec<u32>) {
        if buf.capacity() == 0 || buf.capacity() > Self::MAX_POOLED_CAPACITY {
            return;
        }
        if let Ok(mut free) = self.free.lock() {
            if free.len() < Self::MAX_POOLED {
                free.push(buf);
            }
        }
    }
}

/// The result of one request: normalized storage bits plus metadata about
/// how the request was executed (useful for observing coalescing). On drop
/// the bit buffer is returned to the service's pool for reuse.
#[derive(Debug, Clone)]
#[must_use = "a NormResponse carries the normalized bits and returns its buffer to the pool"]
pub struct NormResponse {
    bits: Vec<u32>,
    pool: Arc<BufferPool>,
    format: FormatKind,
    rows: usize,
    batch_rows: usize,
    batch_requests: usize,
    elapsed: Duration,
    simd: SimdLevel,
}

impl Drop for NormResponse {
    fn drop(&mut self) {
        self.pool.give_back(std::mem::take(&mut self.bits));
    }
}

impl NormResponse {
    /// The normalized rows as storage bit patterns, row-major.
    pub fn bits(&self) -> &[u32] {
        &self.bits
    }

    /// Consume the response, keeping the bit buffer (it is then owned by
    /// the caller and no longer returns to the service's pool).
    pub fn into_bits(mut self) -> Vec<u32> {
        std::mem::take(&mut self.bits)
    }

    /// Number of rows in this request.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Total rows of the backend batch this request executed in
    /// (`>= rows()`; larger means the request was coalesced).
    pub fn batch_rows(&self) -> usize {
        self.batch_rows
    }

    /// Number of requests that shared the backend batch (1 = ran alone).
    pub fn batch_requests(&self) -> usize {
        self.batch_requests
    }

    /// The *resolved* SIMD level the serving backend runs — never
    /// [`SimdLevel::Auto`]; [`SimdLevel::Scalar`] for the generic engine.
    /// Metadata only: output bits are identical at every level.
    pub fn simd_level(&self) -> SimdLevel {
        self.simd
    }

    /// Wall-clock time of this request **measured from acceptance to
    /// response construction**: the span starts after shape validation
    /// passes (a rejected request is never timed) and covers queueing,
    /// any coalescing window, backend execution and the result copy.
    /// For aggregate queue-wait vs execute accounting — which this
    /// all-in span deliberately does not separate — see
    /// [`ServiceStats::queue_wait`] and [`ServiceStats::execute`].
    pub fn elapsed(&self) -> Duration {
        self.elapsed
    }

    /// The output decoded to `f64` (exact widening of every format).
    pub fn to_f64_vec(&self) -> Vec<f64> {
        self.bits
            .iter()
            .map(|&b| self.format.decode_f64(b))
            .collect()
    }

    /// The output as native `f32` values (exact for FP32 services; for
    /// FP16/BF16 this is the exact widening of the narrow result).
    pub fn to_f32_vec(&self) -> Vec<f32> {
        match self.format {
            FormatKind::Fp32 => self.bits.iter().map(|&b| f32::from_bits(b)).collect(),
            _ => self
                .bits
                .iter()
                .map(|&b| self.format.decode_f64(b) as f32)
                .collect(),
        }
    }
}

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
    /// [`NormTicket`]s dropped before their result was taken. The
    /// abandoned request still executes (it was already accepted), but
    /// its response buffer goes straight back to the shard's pool instead
    /// of to a caller — a steadily growing count means some caller is
    /// submitting work it never collects.
    pub abandoned_tickets: u64,
    /// Cumulative time accepted requests spent between acceptance and the
    /// start of the backend execution that served them, **measured at the
    /// executing thread**: the resident driver (or, for an inline
    /// request, the submitting thread) stamps the moment its backend call
    /// begins, so the span covers queueing, any coalescing window, the
    /// driver hand-off and the backend-lock wait — and nothing of the
    /// execution itself. Summed per request; like
    /// [`rows`](ServiceStats::rows), counted only for requests whose
    /// backend call actually ran.
    pub queue_wait: Duration,
    /// Cumulative wall time spent inside backend batch calls (the
    /// normalize call itself, after the backend lock was acquired).
    /// Summed per batch, so `queue_wait + execute` does not double-count
    /// a coalesced batch's execution once per member request.
    pub execute: Duration,
    /// Accepted requests that were whitening groups
    /// ([`NormRequest::whiten_group`]) — a subset of
    /// [`requests`](ServiceStats::requests), so normalization traffic is
    /// `requests − whiten_requests`.
    pub whiten_requests: u64,
    /// Rows whitened — a subset of [`rows`](ServiceStats::rows), counted
    /// the same way (only for requests whose backend call actually ran).
    pub whiten_rows: u64,
    /// Cumulative wall time the resident shard drivers spent awake —
    /// draining queues, waiting out coalescing windows, executing rounds
    /// and firing completion callbacks. With
    /// [`worker_idle`](ServiceStats::worker_idle) this is the executor's
    /// utilization split.
    pub worker_busy: Duration,
    /// Cumulative wall time the resident shard drivers spent parked
    /// waiting for work — executor headroom. An idle service accumulates
    /// only idle time.
    pub worker_idle: Duration,
    /// Times a resident shard driver was woken from its park. A service
    /// with no traffic accumulates ~none: the drivers never busy-spin.
    pub worker_wakeups: u64,
    /// [`NormTicket::on_ready`] callbacks that panicked. The panic is
    /// contained in the driver (it never takes the executor down); a
    /// growing count means some caller's completion handler is buggy.
    pub waker_panics: u64,
}

impl ServiceStats {
    /// Fold another shard's counters into this aggregate.
    fn merge(&mut self, other: &ServiceStats) {
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
    fn accept(&mut self, kind: RequestKind) {
        self.requests += 1;
        if kind == RequestKind::Whiten {
            self.whiten_requests += 1;
        }
    }

    /// Fold in a request that ran as its own backend call on the calling
    /// thread. Rows, wait and execution count on success only: `rows` is
    /// rows actually processed, and the wait runs up to the moment
    /// execution began — backend-lock waits charge to `queue_wait`.
    fn record_lone(
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
    /// [`NormTicket`]s dropped before their result was taken.
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
    /// Contained [`NormTicket::on_ready`] callback panics.
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

/// The scalar `1/√m` iteration trace, widened to `f64` — what the CLI's
/// `rsqrt` subcommand reports. See [`NormService::rsqrt_trace`].
#[derive(Debug, Clone, PartialEq)]
pub struct ScalarTrace {
    /// `m` after rounding into the service's format.
    pub m: f64,
    /// The exponent-derived seed `a₀` (paper Eq. 6).
    pub a0: f64,
    /// The exponent-derived rate λ (paper Eq. 10).
    pub lambda: f64,
    /// The iterate after each step.
    pub steps: Vec<f64>,
}

/// Why a slot's request failed: an ordinary error, or the payload of a
/// panic the executing driver caught. A contained panic is delivered to
/// exactly one waiter — the failed round's first *blocking* submitter,
/// whose submit call re-raises it on the submitting thread (panics never
/// silently vanish into a worker); every other waiter of the round sees
/// [`NormError::ServiceShutdown`].
enum SlotFail {
    Err(NormError),
    Panic(Box<dyn Any + Send>),
}

impl SlotFail {
    /// The error a ticket reports: a ticket cannot re-raise a contained
    /// panic into its submitter (that thread has long moved on), so it
    /// observes the shutdown the panic caused instead.
    fn into_error(self) -> NormError {
        match self {
            SlotFail::Err(err) => err,
            SlotFail::Panic(_) => NormError::ServiceShutdown,
        }
    }
}

type SlotOutcome = Result<SlotResult, SlotFail>;

/// A ticket's completion callback, handed to the driver by
/// [`Slot::fill`] and invoked outside every service lock.
type ReadyWaker = Box<dyn FnOnce() + Send>;

struct SlotResult {
    bits: Vec<u32>,
    served: Served,
}

/// What one combining round executed (for the driver's stats update).
/// A mixed round issues up to two backend calls — one per
/// [`RequestKind`] — so the batch count is carried here instead of being
/// assumed to be one.
#[derive(Default)]
struct RoundStats {
    batches: u64,
    coalesced_requests: u64,
    rows: u64,
    whiten_rows: u64,
    queue_wait: Duration,
    execute: Duration,
}

impl RoundStats {
    fn absorb(&mut self, sub: RoundStats) {
        self.batches += sub.batches;
        self.coalesced_requests += sub.coalesced_requests;
        self.rows += sub.rows;
        self.whiten_rows += sub.whiten_rows;
        self.queue_wait += sub.queue_wait;
        self.execute += sub.execute;
    }
}

/// A successful backend call's timing: when execution actually began
/// (after the backend lock was acquired, so callers charge lock waits to
/// queue-wait) and how long the call itself ran.
struct Executed {
    exec_start: Instant,
    execute: Duration,
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
struct Served {
    rows: usize,
    batch_rows: usize,
    batch_requests: usize,
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
/// request inline. [`release`](InlineClaim::release) gives the claim back and folds in
/// the request's stats under one queue lock, then wakes the driver if
/// entries queued behind the claim. Dropped unreleased — the backend
/// call unwound — the guard fails the shard the way [`deliver_panic`]
/// does: the claim is cleared, the shard marked failed and the service
/// shut down, and the woken driver fails whatever queued behind the
/// claim instead of stranding it. The panic itself keeps unwinding on
/// the caller's own thread (a ticket catches it; see
/// [`NormService::inline_ticket`]).
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

/// One waiting submitter's mailbox. Filled by the shard's resident
/// driver when its round serves the request; parked waiters are woken
/// through the shard-level condvar (`Shard::queue_cv`), not per slot.
/// The slot lock protects plain one-shot state, so a poisoned guard is
/// recovered and used as-is — a panic cannot leave that state
/// inconsistent.
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
struct Slot {
    state: Mutex<SlotState>,
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
    fn new(pool: Arc<BufferPool>) -> Arc<Self> {
        Arc::new(Slot {
            state: Mutex::new(SlotState::default()),
            pool,
        })
    }

    /// Deliver the outcome. Returns a registered waker for the caller to
    /// invoke **after releasing its own locks** — the callback is caller
    /// code and must never run under a shard lock.
    #[must_use = "a returned waker must be invoked (outside all locks)"]
    fn fill(&self, outcome: SlotOutcome) -> Option<ReadyWaker> {
        let mut state = self.state.lock().unwrap_or_else(PoisonError::into_inner);
        if state.abandoned {
            // Nobody will take this result: recycle its buffer now.
            if let Ok(result) = outcome {
                self.pool.give_back(result.bits);
            }
            return None;
        }
        state.outcome = Some(outcome);
        state.waker.take()
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

    fn take(&self) -> Option<SlotOutcome> {
        self.state
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .outcome
            .take()
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

/// How a pending entry's submitter waits for its outcome — the driver
/// uses this during panic delivery to pick the one *blocking* waiter
/// whose thread re-raises the payload ([`NormTicket`] holders observe
/// [`NormError::ServiceShutdown`] instead).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Waiter {
    /// A [`NormService::submit`]/`submit_into` caller parked on the
    /// shard's `queue_cv`.
    Blocking,
    /// A [`NormService::submit_async`] ticket — collected later, maybe
    /// never.
    Ticket,
}

/// A request parked in a shard's combining queue. Entries keep their
/// class so a new high-priority arrival can find the end of the high
/// prefix — the queue is always high-class entries first, each class in
/// arrival order.
struct PendingEntry {
    bits: Vec<u32>,
    slot: Arc<Slot>,
    accepted: Instant,
    priority: Priority,
    kind: RequestKind,
    waiter: Waiter,
}

#[derive(Default)]
struct QueueState {
    pending: Vec<PendingEntry>,
    /// Set by panic delivery: the shard's backend tore mid-round. The
    /// driver stops opening windows and fails everything it drains.
    failed: bool,
    /// Held by whichever thread is executing on the shard: the driver
    /// for the whole of a round (window included), or a blocking
    /// submitter running its own request inline on an idle shard. Set
    /// and cleared only under the queue lock.
    claimed: bool,
    stats: ServiceStats,
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
struct Shard {
    queue: Mutex<QueueState>,
    /// Wakes waiting submitters when a round completes and their slot may
    /// be filled.
    queue_cv: Condvar,
    /// Wakes the shard's resident driver: new work arrived, an inline
    /// caller released the claim with work queued behind it, or shutdown
    /// was requested. Separate from `queue_cv` so submitter wakeups never
    /// stampede the driver and vice versa.
    work_cv: Condvar,
    backend: Mutex<Box<dyn NormBackend>>,
    /// The shard's whitening executor, built from the config on the first
    /// whitening request this shard sees (`None` until then — a service
    /// that never whitens never builds one). Own mutex so whitening
    /// rounds and custom-backend services stay decoupled from the
    /// normalization backend lock.
    whiten: Mutex<Option<Box<dyn WhitenExec>>>,
    /// Shard-local buffer pool; responses hold an [`Arc`] to it so a
    /// buffer always returns to the shard that leased it.
    pool: Arc<BufferPool>,
}

/// The service's shared state — everything the resident drivers, the
/// submitters and outstanding [`NormTicket`]s reference. Tickets hold
/// `Arc<Core>` directly (not the [`Inner`] wrapper) so an outstanding
/// ticket never keeps driver threads alive past the last service handle.
struct Core {
    config: ServiceConfig,
    label: String,
    /// Test-oriented whitening-executor factory: when set (via
    /// [`ServiceConfig::build_with_backends_and_whiten`]), `whiten_of`
    /// builds through it instead of the config. Lets resilience tests
    /// inject executors that panic mid-whitening; `None` in production.
    make_whiten: Option<Box<dyn Fn() -> Box<dyn WhitenExec> + Send + Sync>>,
    /// The resolved SIMD level of shard 0's backend (uniform across
    /// shards), stamped onto every response.
    simd_level: SimdLevel,
    shards: Vec<Shard>,
    /// Round-robin placement cursor (wraps on overflow, which is fine —
    /// placement only needs to spread load, not count).
    next_shard: AtomicUsize,
    /// Service-wide refusal flag: set by [`NormService::shutdown`] and by
    /// poison/panic recovery. Checked at the door of every entry point.
    shutdown: AtomicBool,
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
    /// Set the service-wide refusal flag and wake every parked driver and
    /// waiter. Each shard's queue lock is taken between the store and
    /// that shard's notifies: drivers check the flag under that lock
    /// before parking, so each one either sees the flag or is already
    /// parked when the notify lands — none can sit between its check and
    /// its wait and miss both (the lost-wakeup race). Callers must hold
    /// no queue lock.
    fn request_shutdown(&self) {
        self.shutdown.store(true, Ordering::SeqCst);
        for shard in &self.shards {
            drop(self.queue_of(shard));
            shard.work_cv.notify_all();
            shard.queue_cv.notify_all();
        }
    }

    /// Lock a shard's queue, recovering a poisoned guard. The queue state
    /// is plain data mutated only in short internal critical sections, so
    /// the recovered state is usable — but a poisoned queue lock means
    /// some request panicked mid-protocol, so the service is marked shut
    /// down as a precaution (new work is refused; accepted work drains).
    fn queue_of<'s>(&self, shard: &'s Shard) -> MutexGuard<'s, QueueState> {
        match shard.queue.lock() {
            Ok(guard) => guard,
            Err(poisoned) => {
                self.shutdown.store(true, Ordering::SeqCst);
                poisoned.into_inner()
            }
        }
    }

    /// Block on a shard's condvar, recovering a poisoned guard the same
    /// way [`queue_of`](Core::queue_of) does.
    fn wait_on<'s>(
        &self,
        shard: &'s Shard,
        guard: MutexGuard<'s, QueueState>,
    ) -> MutexGuard<'s, QueueState> {
        match shard.queue_cv.wait(guard) {
            Ok(guard) => guard,
            Err(poisoned) => {
                self.shutdown.store(true, Ordering::SeqCst);
                poisoned.into_inner()
            }
        }
    }

    /// [`wait_on`](Core::wait_on) bounded by `timeout` — the building
    /// block of [`NormTicket::wait_timeout`]. Spurious wakeups and
    /// timeouts look the same to the caller (a returned guard); the
    /// caller re-checks its deadline against the clock.
    fn wait_timeout_on<'s>(
        &self,
        shard: &'s Shard,
        guard: MutexGuard<'s, QueueState>,
        timeout: Duration,
    ) -> MutexGuard<'s, QueueState> {
        match shard.queue_cv.wait_timeout(guard, timeout) {
            Ok((guard, _)) => guard,
            Err(poisoned) => {
                self.shutdown.store(true, Ordering::SeqCst);
                poisoned.into_inner().0
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
    /// down, wakes every parked waiter, and returns the error the caller
    /// surfaces — never a panic, which would poison the locks the
    /// recovery helpers just rescued.
    fn torn_state(&self) -> NormError {
        self.request_shutdown();
        NormError::ServiceShutdown
    }

    /// The public response for a request `shard` served into `bits`,
    /// stamped with the all-in span since the request was accepted.
    fn respond(
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

/// Everything one driver round produced besides filled slots: the
/// counters to fold into the shard stats and the ticket wakers to invoke
/// once every lock is released.
#[derive(Default)]
struct RoundOutput {
    stats: RoundStats,
    wakers: Vec<ReadyWaker>,
}

/// The resident driver loop for shard `idx` — the only thread that
/// drains this shard's combining queue and runs its rounds. Parks on
/// `work_cv` while the queue is empty or an inline caller holds the
/// shard's claim (zero wake-ups over an idle window — the
/// thread-hygiene suite pins this), holds the claim for the whole
/// round, holds the coalescing window open when one is configured, and
/// exits once shutdown is requested *and* the queue is empty — work
/// admitted before shutdown always executes.
fn driver_loop(core: &Core, idx: usize) {
    let shard = &core.shards[idx];
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
        // Drain before any window: drained entries leave the waiting
        // line, so the queue-depth bound sees only genuinely waiting
        // requests — an in-flight round never occupies a depth slot.
        let mut entries = std::mem::take(&mut queue.pending);
        let hold_window =
            !queue.failed && !core.config.window.is_zero() && !core.shutdown.load(Ordering::SeqCst);
        if hold_window {
            // Hold the batch open for the configured window so
            // concurrent submitters can join. Arrivals notify `work_cv`
            // and simply re-arm the wait — only the deadline (or
            // shutdown) closes the window.
            if let Some(deadline) = Instant::now().checked_add(core.config.window) {
                loop {
                    let now = Instant::now();
                    if now >= deadline || core.shutdown.load(Ordering::SeqCst) {
                        break;
                    }
                    queue = match shard.work_cv.wait_timeout(queue, deadline - now) {
                        Ok((guard, _)) => guard,
                        Err(poisoned) => {
                            core.shutdown.store(true, Ordering::SeqCst);
                            poisoned.into_inner().0
                        }
                    };
                }
            }
            // Merge the window's arrivals, then restore the class
            // invariant (high first, FIFO within a class) with a stable
            // sort — arrival order within each class is preserved.
            entries.append(&mut queue.pending);
            entries.sort_by_key(|e| matches!(e.priority, Priority::Normal) as u8);
        }
        let failed = queue.failed;
        drop(queue);

        let output = if failed {
            let mut output = RoundOutput::default();
            fail_entries(shard, entries, &mut output.wakers);
            output
        } else {
            run_round(core, shard, entries)
        };
        {
            let mut queue = core.queue_of(shard);
            queue.stats.batches += output.stats.batches;
            queue.stats.rows += output.stats.rows;
            queue.stats.whiten_rows += output.stats.whiten_rows;
            queue.stats.coalesced_requests += output.stats.coalesced_requests;
            queue.stats.queue_wait += output.stats.queue_wait;
            queue.stats.execute += output.stats.execute;
            queue.stats.worker_busy += busy_from.elapsed();
            queue.claimed = false;
        }
        shard.queue_cv.notify_all();
        // Wakers are caller code: run them after every shard lock is
        // released, contain their panics, and count the containments —
        // one throwing callback must not take down the driver or block
        // the other tickets' callbacks.
        let mut waker_panics = 0u64;
        for waker in output.wakers {
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
fn fail_entries(shard: &Shard, entries: Vec<PendingEntry>, wakers: &mut Vec<ReadyWaker>) {
    for entry in entries {
        let PendingEntry { bits, slot, .. } = entry;
        shard.pool.give_back(bits);
        wakers.extend(slot.fill(Err(SlotFail::Err(NormError::ServiceShutdown))));
    }
}

/// Contain a backend panic caught mid-round: mark the service shut down
/// and the shard failed, wake everything, and deliver the payload to the
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
    wakers: &mut Vec<ReadyWaker>,
) {
    core.queue_of(shard).failed = true;
    core.request_shutdown();
    let mut payload = Some(payload);
    for entry in entries {
        let PendingEntry {
            bits, slot, waiter, ..
        } = entry;
        shard.pool.give_back(bits);
        let fail = match payload.take() {
            Some(caught) if waiter == Waiter::Blocking => SlotFail::Panic(caught),
            recovered => {
                payload = recovered;
                SlotFail::Err(NormError::ServiceShutdown)
            }
        };
        wakers.extend(slot.fill(Err(fail)));
    }
}

/// What one backend call runs over: a request's bits into a
/// caller-provided buffer (the inline [`NormService::submit_into`] path),
/// or buffers the call owns, normalized where they sit — one per request,
/// whole rows for normalization and one group each for whitening.
enum Work<'a, 'b> {
    Into { bits: &'a [u32], out: &'a mut [u32] },
    InPlace(&'a mut [&'b mut [u32]]),
}

/// One serial backend call of `kind` over `work`. The returned
/// [`Executed`] reports when
/// execution began — *after* the backend (or whitening executor) lock
/// was acquired, so callers charge lock waits to queue-wait, not
/// execution — and how long the call itself took.
fn execute(
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

/// Run one combining round: execute the drained entries, split the
/// output back per caller and fill the waiters' slots. The entries are
/// partitioned by [`RequestKind`] — normalization rows and whitening
/// groups execute through different backend calls, so a mixed round
/// issues one sub-batch per kind present (arrival order preserved within
/// each). Panic-safe: a backend panic is caught and contained via
/// [`deliver_panic`] — the driver thread itself never unwinds.
fn run_round(core: &Core, shard: &Shard, entries: Vec<PendingEntry>) -> RoundOutput {
    let (whiten, norm): (Vec<_>, Vec<_>) = entries
        .into_iter()
        .partition(|entry| entry.kind == RequestKind::Whiten);
    let mut output = RoundOutput::default();
    if !norm.is_empty() {
        let sub = run_subround(
            core,
            shard,
            norm,
            RequestKind::Normalize,
            &mut output.wakers,
        );
        output.stats.absorb(sub);
    }
    if !whiten.is_empty() {
        // A normalization panic earlier in this same round failed the
        // shard; its whitening share must fail too, not execute on torn
        // state.
        if core.queue_of(shard).failed {
            fail_entries(shard, whiten, &mut output.wakers);
        } else {
            let sub = run_subround(core, shard, whiten, RequestKind::Whiten, &mut output.wakers);
            output.stats.absorb(sub);
        }
    }
    output
}

/// Execute one kind's share of a combining round as a single backend
/// call and fill its waiters' slots, collecting any registered ticket
/// wakers into `wakers` for the driver to invoke lock-free.
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
    wakers: &mut Vec<ReadyWaker>,
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
                wakers.extend(entry.slot.fill(Ok(SlotResult {
                    bits: entry.bits,
                    served,
                })));
            }
        }
        Ok(Err(err)) => {
            for entry in entries {
                shard.pool.give_back(entry.bits);
                wakers.extend(entry.slot.fill(Err(SlotFail::Err(err.clone()))));
            }
        }
        Err(payload) => deliver_panic(core, shard, payload, entries, wakers),
    }
    sub
}

/// The type-erased serving front door: one shared execution point that any
/// number of threads submit normalization work to. Cloning is cheap (the
/// clones share the same shards, plans, scratch and coalescing queues).
/// See the [module docs](self) for the contract and an example.
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
    /// [module docs](self)) — the output bits are identical either way.
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
    /// [`TicketSet`]. A backend panic during an inline run never
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
                let slot = self.enqueue(shard, &request, accepted, Waiter::Ticket)?;
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
    /// [`admit`](NormService::admit) grants it, otherwise enqueue (subject
    /// to the shard's queue-depth bound) and park on the shard condvar
    /// until the resident driver's round serves us. The driver stays the
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
        let slot = self.enqueue(shard, request, accepted, Waiter::Blocking)?;
        let mut queue = self.inner.queue_of(shard);
        loop {
            if let Some(outcome) = slot.take() {
                drop(queue);
                return match outcome {
                    Ok(result) => finish(result, sink, &shard.pool),
                    Err(SlotFail::Err(err)) => Err(err),
                    // The round that served us caught a backend panic and
                    // elected this blocking waiter to re-raise it: the
                    // panic surfaces on a submitter thread exactly as it
                    // did when submitters ran rounds themselves.
                    Err(SlotFail::Panic(payload)) => resume_unwind(payload),
                };
            }
            // The driver is guaranteed to serve every admitted entry
            // (enqueue re-checks shutdown under the queue lock), so
            // parking here cannot strand us.
            queue = self.inner.wait_on(shard, queue);
        }
    }

    /// Decide whether an arrival runs inline on the calling thread. A
    /// non-zero coalescing window always queues the arrival, so the
    /// driver can hold the round open. Otherwise the decision is made
    /// under the shard's queue lock: inline when the service is up, the
    /// shard has nothing queued and no thread holds its claim. On success
    /// the caller holds the claim and the request is already counted in
    /// `requests`, exactly as a queued request is counted before it
    /// parks.
    fn admit<'s>(
        &'s self,
        shard: &'s Shard,
        request: &NormRequest<'_>,
    ) -> Result<Admission<'s>, NormError> {
        if !self.inner.config.window.is_zero() {
            return Ok(Admission::Queue);
        }
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
        waiter: Waiter,
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
            waiter,
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
        // Wake the resident driver (it parks on `work_cv`, never on the
        // submitters' `queue_cv`) — an arrival during an open window
        // lands in the batch; otherwise this starts a round.
        shard.work_cv.notify_all();
        Ok(slot)
    }

    /// Normalize exactly one `d`-length row — or whiten exactly one
    /// `m × d` group, for a [`NormRequest::whiten_group`] request —
    /// additionally returning the scalar intermediates ([`RowMoments`]):
    /// the reporting path behind the CLI's `normalize`, `demo` and
    /// `whiten`. For a whitening request the moments are the group's
    /// diagnostics — `mean` is the all-element mean, `m` is `trace(Σ)`
    /// and `scale` is the global `√(1/trace)` folded into the whiten
    /// matrix (see [`WhitenDetail`]). Runs directly on a shard's
    /// executor (never coalesced — the batch path does not surface
    /// per-request stats); the output bits are identical to
    /// [`submit`](NormService::submit). Timing starts after the empty
    /// check, like [`submit`](NormService::submit).
    ///
    /// # Errors
    ///
    /// [`NormError::ServiceShutdown`] after shutdown,
    /// [`NormError::EmptyRequest`] for an empty request,
    /// [`NormError::InputLengthMismatch`] when a normalization request is
    /// not exactly one row, [`NormError::GroupShapeMismatch`] when a
    /// whitening request is not whole `d`-length rows.
    pub fn submit_detailed(
        &self,
        request: NormRequest<'_>,
    ) -> Result<(NormResponse, RowMoments), NormError> {
        if request.is_empty() {
            return Err(NormError::EmptyRequest);
        }
        if self.inner.shutdown.load(Ordering::SeqCst) {
            return Err(NormError::ServiceShutdown);
        }
        let start = Instant::now();
        let shard = &self.inner.shards[self.pick_shard(request.key())];
        let pool = &shard.pool;
        let mut bits = pool.lease(request.len());
        request.encode_into(self.inner.config.format, &mut bits);
        let rows = bits.len() / self.inner.config.d.max(1);
        let mut out = pool.lease(bits.len());
        let exec_start;
        let moments = match request.kind() {
            RequestKind::Normalize => {
                let mut backend = match self.inner.backend_of(shard) {
                    Ok(guard) => guard,
                    Err(err) => {
                        pool.give_back(bits);
                        pool.give_back(out);
                        return Err(err);
                    }
                };
                // Timed after the lock lands, like `execute`: the
                // wait for the backend belongs to queue_wait, not execute.
                exec_start = Instant::now();
                backend.normalize_row_bits_detailed(&bits, &mut out)
            }
            RequestKind::Whiten => {
                let mut guard = match self.inner.whiten_of(shard) {
                    Ok(guard) => guard,
                    Err(err) => {
                        pool.give_back(bits);
                        pool.give_back(out);
                        return Err(err);
                    }
                };
                // As in `execute`: `None` behind an `Ok`
                // guard is torn state — return the buffers and fail closed.
                let exec = match guard.as_mut() {
                    Some(exec) => exec,
                    None => {
                        pool.give_back(bits);
                        pool.give_back(out);
                        return Err(self.inner.torn_state());
                    }
                };
                exec_start = Instant::now();
                exec.whiten_group_detailed(&bits, &mut out)
                    .map(|detail| RowMoments {
                        mean: detail.mean,
                        m: detail.trace,
                        scale: detail.scale,
                    })
            }
        };
        let execute = exec_start.elapsed();
        pool.give_back(bits);
        let moments = match moments {
            Ok(m) => m,
            Err(err) => {
                pool.give_back(out);
                return Err(err);
            }
        };
        let served_rows = match request.kind() {
            RequestKind::Normalize => 1,
            RequestKind::Whiten => rows,
        };
        let mut queue = self.inner.queue_of(shard);
        queue.stats.requests += 1;
        queue.stats.batches += 1;
        queue.stats.rows += served_rows as u64;
        if request.kind() == RequestKind::Whiten {
            queue.stats.whiten_requests += 1;
            queue.stats.whiten_rows += served_rows as u64;
        }
        queue.stats.queue_wait += exec_start.duration_since(start);
        queue.stats.execute += execute;
        drop(queue);
        // The detailed path runs the scalar engine (it reports
        // intermediates), but the response carries the service's tier —
        // what callers care about, and bits are identical either way.
        let response = self
            .inner
            .respond(shard, out, &Served::alone(served_rows), start);
        Ok((response, moments))
    }

    /// Whiten one group directly on shard 0's executor with a
    /// convergence bar — the diagnostic companion of
    /// [`submit_detailed`](NormService::submit_detailed), reporting the
    /// full [`WhitenDetail`] (including the Newton–Schulz residual) and
    /// failing with [`NormError::WhitenNotConverged`] when the residual
    /// misses `tol`. Output bits land in `out` either way (the
    /// unconverged result is inspectable). Bits are identical to
    /// [`NormRequest::whiten_group`] through
    /// [`submit`](NormService::submit).
    ///
    /// # Errors
    ///
    /// [`NormError::ServiceShutdown`] after shutdown, the whitening shape
    /// errors, and [`NormError::WhitenNotConverged`].
    pub fn whiten_check(
        &self,
        group_bits: &[u32],
        out: &mut [u32],
        tol: f64,
    ) -> Result<WhitenDetail, NormError> {
        if self.inner.shutdown.load(Ordering::SeqCst) {
            return Err(NormError::ServiceShutdown);
        }
        let shard = &self.inner.shards[0];
        let mut guard = self.inner.whiten_of(shard)?;
        // `whiten_of` guarantees `Some` on `Ok`; fail closed otherwise.
        let Some(exec) = guard.as_mut() else {
            return Err(self.inner.torn_state());
        };
        exec.whiten_group_checked(group_bits, out, tol)
    }

    /// The one-shot compatibility path: normalize one `d`-length row the
    /// way pre-engine callers did — constants re-rounded and buffers
    /// allocated per call, honoring this service's method, reduction
    /// order and affine parameters. Exists so benchmarks (the CLI `batch`
    /// subcommand) can measure the engine against its historical baseline
    /// without re-implementing format dispatch.
    ///
    /// # Errors
    ///
    /// [`NormError::EmptyRequest`] for an empty row, plus the shape errors
    /// of [`layer_norm`].
    pub fn normalize_per_call(&self, row_bits: &[u32]) -> Result<Vec<u32>, NormError> {
        if row_bits.is_empty() {
            return Err(NormError::EmptyRequest);
        }
        let config = &self.inner.config;
        with_exec_float!(config.backend, config.format, F => {
            let x: Vec<F> = row_bits.iter().map(|&b| F::from_bits(b)).collect();
            let gamma: Option<Vec<F>> = config
                .gamma_bits
                .as_ref()
                .map(|g| g.iter().map(|&b| F::from_bits(b)).collect());
            let beta: Option<Vec<F>> = config
                .beta_bits
                .as_ref()
                .map(|b| b.iter().map(|&bit| F::from_bits(bit)).collect());
            let mut inputs = LayerNormInputs::unscaled(&x).with_reduce(config.reduce);
            inputs.gamma = gamma.as_deref();
            inputs.beta = beta.as_deref();
            let z = layer_norm(inputs, &config.method.build::<F>())?;
            Ok(z.iter().map(|v| v.to_bits()).collect())
        })
    }

    /// The scalar `1/√m` iteration trace in this service's format and
    /// backend arithmetic (bit-identical between the two backends for
    /// FP32) — the runtime-polymorphic replacement for the CLI's old
    /// per-format `rsqrt` dispatch.
    pub fn rsqrt_trace(&self, m: f64, steps: u32) -> ScalarTrace {
        let config = &self.inner.config;
        with_exec_float!(config.backend, config.format, F => {
            let mf = F::from_f64(m);
            let trace = iterate(mf, &IterConfig::fixed_steps(steps));
            ScalarTrace {
                m: mf.to_f64(),
                a0: trace.a0.to_f64(),
                lambda: trace.lambda.to_f64(),
                steps: trace.steps.iter().map(|a| a.to_f64()).collect(),
            }
        })
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

/// How a ticket poll is willing to wait for its outcome.
enum WaitMode {
    /// Return `None` the moment progress would require parking.
    Poll,
    /// Park until the outcome arrives.
    Forever,
    /// Park until the outcome arrives or the deadline passes.
    Until(Instant),
}

/// A ticket's backing state.
enum TicketRepr {
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

/// The poll/wait handle returned by [`NormService::submit_async`]: the
/// submitted request's claim on a future [`NormResponse`].
///
/// A ticket whose shard was idle at submit time comes back already
/// complete: its request ran inline on the submitting thread. Otherwise
/// its request is executed by the shard's **resident driver** — the
/// ticket never runs rounds itself, so every collect method is pure
/// waiting: [`try_take`](NormTicket::try_take) peeks the mailbox,
/// [`wait`](NormTicket::wait) / [`wait_timeout`](NormTicket::wait_timeout)
/// park on the shard condvar, and [`on_ready`](NormTicket::on_ready)
/// registers a callback the driver invokes the moment the outcome lands
/// (see also [`TicketSet`] for collecting many tickets without polling).
///
/// Dropping a ticket without collecting is safe and leak-free: the
/// request's pooled payload and response buffers return to the shard's
/// pool (immediately if the request already ran, otherwise when it does),
/// and the drop is counted in [`ServiceStats::abandoned_tickets`]. A
/// ticket holds the service's shared state alive, but **not** its driver
/// threads — those are owned by the service handles, so work accepted
/// before the last handle drops still completes (the drivers drain their
/// queues before exiting), and a ticket collected afterwards reads the
/// parked outcome without needing any thread.
///
/// The result is delivered **exactly once**: after any collect method has
/// returned `Some`/`Ok`/`Err`, the ticket is spent and further collect
/// calls panic. See [`NormService::submit_async`] for an example.
#[must_use = "dropping a NormTicket discards the submitted request's result"]
pub struct NormTicket {
    core: Arc<Core>,
    shard_idx: usize,
    rows: usize,
    delivered: bool,
    repr: TicketRepr,
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
    /// [`NormService::shard_for`] for the request-hash mapping).
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
    /// [`submit`](NormService::submit) error set, including
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

    /// The shared collect protocol: check the mailbox, park according to
    /// `mode` until the resident driver fills it.
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
            TicketRepr::Queued { .. } => self.poll_queued(mode),
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
    /// [`ServiceStats::waker_panics`]; it never takes the service down.
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

    /// The combining-queue side of [`poll`](NormTicket::poll). Mirrors the
    /// waiter loop of the blocking path: check the mailbox, park on the
    /// shard condvar until the resident driver's round fills it.
    fn poll_queued(&self, mode: WaitMode) -> Option<Result<NormResponse, NormError>> {
        let TicketRepr::Queued { slot, accepted } = &self.repr else {
            unreachable!("poll_queued is only called on queued tickets");
        };
        let core = &self.core;
        let shard = &core.shards[self.shard_idx];
        let mut queue = core.queue_of(shard);
        loop {
            if let Some(outcome) = slot.take() {
                drop(queue);
                return Some(self.deliver(outcome, *accepted));
            }
            queue = match mode {
                WaitMode::Poll => return None,
                // Admitted entries are always driven to completion (the
                // drivers drain their queues even through shutdown), so
                // parking here cannot strand the collector.
                WaitMode::Forever => core.wait_on(shard, queue),
                WaitMode::Until(deadline) => {
                    let now = Instant::now();
                    if now >= deadline {
                        return None;
                    }
                    core.wait_timeout_on(shard, queue, deadline - now)
                }
            };
        }
    }

    /// Wrap a served outcome as the public response, stamping the all-in
    /// elapsed span (acceptance at submit to delivery here).
    fn deliver(&self, outcome: SlotOutcome, accepted: Instant) -> Result<NormResponse, NormError> {
        let result = match outcome {
            Ok(result) => result,
            // Tickets never re-raise a contained panic (the collector may
            // be an event loop that outlives the service); they observe
            // the same clean shutdown error every other waiter gets.
            Err(fail) => return Err(fail.into_error()),
        };
        let shard = &self.core.shards[self.shard_idx];
        Ok(self
            .core
            .respond(shard, result.bits, &result.served, accepted))
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
    tickets: VecDeque<Option<NormTicket>>,
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

/// A pool of [`NormService`]s over one layer shape: each *site* is a set
/// of affine parameters (one per LayerNorm location in a model), and
/// services are materialized lazily per `(site, method)` and cached — so
/// every forward pass, from any thread, shares the same service objects.
/// This is what the transformer's per-layer cached plans became. The
/// template's sharding/backpressure knobs flow through to every built
/// service.
#[derive(Debug)]
pub struct NormServicePool {
    template: ServiceConfig,
    sites: Vec<Site>,
    cache: Mutex<HashMap<(usize, String), Arc<NormService>>>,
}

#[derive(Debug)]
struct Site {
    gamma_bits: Option<Vec<u32>>,
    beta_bits: Option<Vec<u32>>,
}

impl NormServicePool {
    /// Pool whose services share `template`'s dimension, format, backend,
    /// reduction order and sharding/backpressure knobs (the
    /// template's own affine parameters and method are ignored — sites and
    /// lookups supply those).
    pub fn new(template: ServiceConfig) -> Self {
        NormServicePool {
            template,
            sites: Vec::new(),
            cache: Mutex::new(HashMap::new()),
        }
    }

    /// Register a normalization site with its affine parameters (storage
    /// bit patterns), returning its id.
    pub fn add_site(&mut self, gamma_bits: Option<&[u32]>, beta_bits: Option<&[u32]>) -> usize {
        self.sites.push(Site {
            gamma_bits: gamma_bits.map(<[u32]>::to_vec),
            beta_bits: beta_bits.map(<[u32]>::to_vec),
        });
        self.sites.len() - 1
    }

    /// Number of registered sites.
    pub fn len(&self) -> usize {
        self.sites.len()
    }

    /// `true` when no site has been registered.
    pub fn is_empty(&self) -> bool {
        self.sites.is_empty()
    }

    /// The shared vector length `d`.
    pub fn d(&self) -> usize {
        self.template.d
    }

    /// The service for `(site, method)`, built on first use and shared
    /// afterwards. The cache lock recovers from poisoning (a panic during
    /// a build leaves the map itself intact), so one panicked build never
    /// turns every later lookup into a panic.
    ///
    /// # Errors
    ///
    /// The [`ServiceConfig::build`] errors (a site whose affine lengths
    /// disagree with `d` surfaces here).
    ///
    /// # Panics
    ///
    /// Panics if `site` was never returned by
    /// [`add_site`](NormServicePool::add_site) — a wiring bug, not input.
    pub fn service(&self, site: usize, method: &MethodSpec) -> Result<Arc<NormService>, NormError> {
        assert!(site < self.sites.len(), "unknown norm site {site}");
        let key = (site, method.label());
        let mut cache = self.cache.lock().unwrap_or_else(PoisonError::into_inner);
        if let Some(service) = cache.get(&key) {
            return Ok(Arc::clone(service));
        }
        let params = &self.sites[site];
        let mut config = self.template.clone().with_method(*method);
        config.gamma_bits = params.gamma_bits.clone();
        config.beta_bits = params.beta_bits.clone();
        let service = Arc::new(config.build()?);
        cache.insert(key, Arc::clone(&service));
        Ok(service)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::build_backend;

    fn row_bits(d: usize, salt: u64) -> Vec<u32> {
        (0..d as u64)
            .map(|i| {
                Fp32::from_f64(
                    (((i.wrapping_mul(2654435761).wrapping_add(salt)) % 1000) as f64) / 250.0 - 2.0,
                )
                .to_bits()
            })
            .collect()
    }

    #[test]
    fn shards_never_share_a_cache_line_pair() {
        // Shards sit side by side in one `Vec`: a 128-byte alignment and a
        // size that is a whole number of 128-byte pairs keep each shard's
        // locks off every neighbour's lines.
        assert!(core::mem::align_of::<Shard>() >= 128);
        assert_eq!(core::mem::size_of::<Shard>() % 128, 0);
    }

    #[test]
    fn config_validation_errors_surface_at_build() {
        assert_eq!(
            ServiceConfig::new(0).build().unwrap_err(),
            NormError::EmptyInput
        );
        assert_eq!(
            ServiceConfig::new(8).with_shards(0).build().unwrap_err(),
            NormError::ZeroShards
        );
        // Depth 0 would reject every request under a window — refused up
        // front instead of misbehaving at runtime.
        assert_eq!(
            ServiceConfig::new(8)
                .with_queue_depth(0)
                .build()
                .unwrap_err(),
            NormError::ZeroQueueDepth
        );
        assert_eq!(
            ServiceConfig::new(8)
                .with_backend(BackendKind::Native)
                .with_format(FormatKind::Fp16)
                .build()
                .unwrap_err(),
            NormError::BackendFormatMismatch {
                backend: "native-f32",
                format: "FP16",
            }
        );
        assert_eq!(
            ServiceConfig::new(8)
                .with_gamma_bits(&[0; 7])
                .build()
                .unwrap_err(),
            NormError::GammaLengthMismatch {
                expected: 8,
                actual: 7
            }
        );
    }

    #[test]
    fn executor_knobs_round_trip_and_build() {
        let config = ServiceConfig::new(8)
            .with_shards(2)
            .with_window(Duration::from_micros(250));
        assert_eq!(config.shards(), 2);
        assert_eq!(
            config.window(),
            Duration::from_micros(250),
            "window knob reads back"
        );
        let service = config.build().unwrap();
        let bits = row_bits(8, 1);
        let response = service.submit(NormRequest::bits(&bits)).unwrap();
        assert_eq!(response.rows(), 1);
    }

    #[test]
    fn config_reports_sharding_and_backpressure_knobs() {
        let config = ServiceConfig::new(8).with_shards(4).with_queue_depth(7);
        assert_eq!(config.shards(), 4);
        assert_eq!(config.queue_depth(), 7);
        let service = config.build().unwrap();
        assert_eq!(service.shards(), 4);
        assert_eq!(service.config().queue_depth(), 7);
        // Defaults: one shard, bounded queue.
        let default = ServiceConfig::new(8);
        assert_eq!(default.shards(), 1);
        assert_eq!(default.queue_depth(), DEFAULT_QUEUE_DEPTH);
    }

    #[test]
    fn submit_matches_direct_backend_execution() {
        let d = 24;
        let service = ServiceConfig::new(d).build().unwrap();
        let bits: Vec<u32> = (0..3).flat_map(|r| row_bits(d, r)).collect();
        let response = service.submit(NormRequest::bits(&bits)).unwrap();
        assert_eq!(response.rows(), 3);
        assert_eq!(response.batch_requests(), 1);

        let mut reference = build_backend(
            BackendKind::Emulated,
            FormatKind::Fp32,
            d,
            &MethodSpec::iterl2(5),
            ReduceOrder::HwTree,
        )
        .unwrap();
        let mut expect = vec![0u32; bits.len()];
        reference
            .normalize_batch_bits(&bits, &mut expect, 1)
            .unwrap();
        assert_eq!(response.bits(), &expect[..]);

        let stats = service.stats();
        assert_eq!(stats.requests, 1);
        assert_eq!(stats.batches, 1);
        assert_eq!(stats.rows, 3);
        assert_eq!(stats.queue_full_rejections, 0);
        assert!(stats.execute > Duration::ZERO, "execute time was recorded");
    }

    #[test]
    fn sharded_services_are_bitwise_equivalent_to_single_shard() {
        let d = 24;
        let bits: Vec<u32> = (0..3).flat_map(|r| row_bits(d, r)).collect();
        let expect = ServiceConfig::new(d)
            .build()
            .unwrap()
            .submit(NormRequest::bits(&bits))
            .unwrap()
            .into_bits();
        for shards in [2, 4] {
            let service = ServiceConfig::new(d).with_shards(shards).build().unwrap();
            // Several submits so round-robin visits every shard.
            for _ in 0..2 * shards {
                let response = service.submit(NormRequest::bits(&bits)).unwrap();
                assert_eq!(response.bits(), &expect[..], "shards={shards}");
            }
            let stats = service.stats();
            assert_eq!(stats.requests, 2 * shards as u64, "stats aggregate shards");
            assert_eq!(stats.rows, 6 * shards as u64);
        }
    }

    #[test]
    fn pooled_responses_return_buffers_for_reuse() {
        let d = 16;
        let service = ServiceConfig::new(d).build().unwrap();
        let bits = row_bits(d, 3);
        // Drop responses between submits: a reused pooled buffer is
        // refilled from the request and fully overwritten.
        let first = service
            .submit(NormRequest::bits(&bits))
            .unwrap()
            .into_bits();
        for _ in 0..5 {
            let response = service.submit(NormRequest::bits(&bits)).unwrap();
            assert_eq!(response.bits(), &first[..]);
        }
        // into_bits detaches the buffer from the pool: the caller owns it.
        let owned = service
            .submit(NormRequest::bits(&bits))
            .unwrap()
            .into_bits();
        assert_eq!(owned, first);
    }

    #[test]
    fn f32_requests_match_bits_requests() {
        let d = 16;
        let service = ServiceConfig::new(d)
            .with_backend(BackendKind::Native)
            .build()
            .unwrap();
        let values: Vec<f32> = (0..2 * d).map(|i| (i as f32 * 0.71).sin()).collect();
        let bits: Vec<u32> = values.iter().map(|v| v.to_bits()).collect();
        let via_f32 = service.submit(NormRequest::f32(&values)).unwrap();
        let via_bits = service.submit(NormRequest::bits(&bits)).unwrap();
        assert_eq!(via_f32.bits(), via_bits.bits());
        assert_eq!(via_f32.to_f32_vec().len(), 2 * d);
        // f64 decode agrees with the f32 view.
        for (a, b) in via_f32.to_f64_vec().iter().zip(via_f32.to_f32_vec()) {
            assert_eq!(*a, f64::from(b));
        }
    }

    #[test]
    fn empty_and_ragged_requests_are_rejected_up_front() {
        let d = 8;
        let service = ServiceConfig::new(d).build().unwrap();
        assert_eq!(
            service.submit(NormRequest::bits(&[])).unwrap_err(),
            NormError::EmptyRequest
        );
        assert_eq!(
            service.submit(NormRequest::f32(&[])).unwrap_err(),
            NormError::EmptyRequest
        );
        let ragged = vec![0u32; d + 1];
        assert_eq!(
            service.submit(NormRequest::bits(&ragged)).unwrap_err(),
            NormError::BatchLengthMismatch {
                rows: 1,
                d,
                actual: d + 1
            }
        );
        assert_eq!(
            service.submit_detailed(NormRequest::bits(&[])).unwrap_err(),
            NormError::EmptyRequest
        );
        // Rejections never count as accepted traffic.
        assert_eq!(service.stats().requests, 0);
    }

    #[test]
    fn shutdown_refuses_new_work() {
        let d = 8;
        let service = ServiceConfig::new(d).with_shards(2).build().unwrap();
        let bits = row_bits(d, 1);
        let _ = service.submit(NormRequest::bits(&bits)).unwrap();
        assert!(!service.is_shutdown());
        service.shutdown();
        assert!(service.is_shutdown());
        assert_eq!(
            service.submit(NormRequest::bits(&bits)).unwrap_err(),
            NormError::ServiceShutdown
        );
        assert_eq!(
            service
                .submit_detailed(NormRequest::bits(&bits))
                .unwrap_err(),
            NormError::ServiceShutdown
        );
        // A clone shares the shutdown state.
        assert!(service.clone().is_shutdown());
    }

    #[test]
    fn detailed_row_agrees_with_submit_and_reports_moments() {
        let d = 32;
        for backend in BackendKind::ALL {
            let service = ServiceConfig::new(d).with_backend(backend).build().unwrap();
            let bits = row_bits(d, 5);
            let plain = service.submit(NormRequest::bits(&bits)).unwrap();
            let (detailed, moments) = service.submit_detailed(NormRequest::bits(&bits)).unwrap();
            assert_eq!(plain.bits(), detailed.bits(), "{backend:?}");
            assert!(moments.m > 0.0 && moments.scale.is_finite());
            // Multi-row requests are a single-row API misuse.
            let two = [bits.clone(), bits.clone()].concat();
            assert_eq!(
                service
                    .submit_detailed(NormRequest::bits(&two))
                    .unwrap_err(),
                NormError::InputLengthMismatch {
                    expected: d,
                    actual: 2 * d
                }
            );
        }
    }

    #[test]
    fn submit_into_matches_submit_and_validates_shapes() {
        let d = 20;
        let service = ServiceConfig::new(d).build().unwrap();
        let bits: Vec<u32> = (0..2).flat_map(|r| row_bits(d, r)).collect();
        let expect = service.submit(NormRequest::bits(&bits)).unwrap();
        let mut out = vec![0u32; bits.len()];
        assert_eq!(
            service
                .submit_into(NormRequest::bits(&bits), &mut out)
                .unwrap(),
            2
        );
        assert_eq!(&out[..], expect.bits());
        let mut short = vec![0u32; d];
        assert_eq!(
            service
                .submit_into(NormRequest::bits(&bits), &mut short)
                .unwrap_err(),
            NormError::OutputLengthMismatch {
                expected: 2 * d,
                actual: d
            }
        );
        assert_eq!(
            service
                .submit_into(NormRequest::bits(&[]), &mut [])
                .unwrap_err(),
            NormError::EmptyRequest
        );
        service.shutdown();
        let bits = row_bits(d, 1);
        let mut out = vec![0u32; d];
        assert_eq!(
            service
                .submit_into(NormRequest::bits(&bits), &mut out)
                .unwrap_err(),
            NormError::ServiceShutdown
        );
    }

    #[test]
    fn per_call_path_matches_service_path() {
        let d = 40;
        for backend in BackendKind::ALL {
            for spec in MethodSpec::REGISTRY {
                let service = ServiceConfig::new(d)
                    .with_backend(backend)
                    .with_method(spec)
                    .build()
                    .unwrap();
                let bits = row_bits(d, 9);
                let via_service = service.submit(NormRequest::bits(&bits)).unwrap();
                let via_per_call = service.normalize_per_call(&bits).unwrap();
                assert_eq!(via_service.bits(), &via_per_call[..], "{}", service.label());
            }
        }
        let service = ServiceConfig::new(d).build().unwrap();
        assert_eq!(
            service.normalize_per_call(&[]).unwrap_err(),
            NormError::EmptyRequest
        );
    }

    #[test]
    fn rsqrt_trace_matches_typed_iteration() {
        let service = ServiceConfig::new(1)
            .with_format(FormatKind::Fp16)
            .build()
            .unwrap();
        let trace = service.rsqrt_trace(10.5, 4);
        let typed = iterate(Fp16::from_f64(10.5), &IterConfig::fixed_steps(4));
        assert_eq!(trace.m, Fp16::from_f64(10.5).to_f64());
        assert_eq!(trace.a0, typed.a0.to_f64());
        assert_eq!(trace.lambda, typed.lambda.to_f64());
        assert_eq!(trace.steps.len(), 4);
        for (a, b) in trace.steps.iter().zip(&typed.steps) {
            assert_eq!(*a, b.to_f64());
        }
    }

    #[test]
    fn pool_caches_services_and_applies_site_affine() {
        let d = 12;
        let gamma: Vec<u32> = (0..d)
            .map(|i| Fp32::from_f64(1.0 + i as f64 * 0.05).to_bits())
            .collect();
        let beta: Vec<u32> = (0..d)
            .map(|i| Fp32::from_f64(i as f64 * 0.01).to_bits())
            .collect();
        let mut pool = NormServicePool::new(ServiceConfig::new(d));
        assert!(pool.is_empty());
        let plain = pool.add_site(None, None);
        let affine = pool.add_site(Some(&gamma), Some(&beta));
        assert_eq!(pool.len(), 2);
        assert_eq!(pool.d(), d);

        let spec = MethodSpec::iterl2(5);
        let first = pool.service(affine, &spec).unwrap();
        let again = pool.service(affine, &spec).unwrap();
        assert!(
            Arc::ptr_eq(&first, &again),
            "cache must return the same service"
        );
        let other = pool.service(plain, &spec).unwrap();
        assert!(!Arc::ptr_eq(&first, &other));

        // The affine site's output matches a directly built affine service.
        let bits = row_bits(d, 3);
        let expect = ServiceConfig::new(d)
            .with_affine_bits(&gamma, &beta)
            .build()
            .unwrap()
            .submit(NormRequest::bits(&bits))
            .unwrap();
        let got = first.submit(NormRequest::bits(&bits)).unwrap();
        assert_eq!(got.bits(), expect.bits());
        let got_plain = other.submit(NormRequest::bits(&bits)).unwrap();
        assert_ne!(got_plain.bits(), expect.bits(), "affine must matter");
    }

    #[test]
    fn sharded_pool_template_flows_through_to_services() {
        let d = 12;
        let gamma: Vec<u32> = (0..d)
            .map(|i| Fp32::from_f64(1.0 + i as f64 * 0.05).to_bits())
            .collect();
        let mut pool =
            NormServicePool::new(ServiceConfig::new(d).with_shards(2).with_queue_depth(16));
        let site = pool.add_site(Some(&gamma), None);
        let spec = MethodSpec::iterl2(5);
        let service = pool.service(site, &spec).unwrap();
        assert_eq!(service.shards(), 2);
        let bits = row_bits(d, 4);
        let expect = ServiceConfig::new(d)
            .with_gamma_bits(&gamma)
            .build()
            .unwrap()
            .submit(NormRequest::bits(&bits))
            .unwrap();
        let got = service.submit(NormRequest::bits(&bits)).unwrap();
        assert_eq!(got.bits(), expect.bits(), "sharded pool service bits");
    }

    #[test]
    #[should_panic(expected = "unknown norm site")]
    fn pool_rejects_unknown_site() {
        let pool = NormServicePool::new(ServiceConfig::new(4));
        let _ = pool.service(0, &MethodSpec::iterl2(5));
    }

    #[test]
    fn submit_async_matches_blocking_submit() {
        let d = 24;
        let service = ServiceConfig::new(d).build().unwrap();
        let bits: Vec<u32> = (0..3).flat_map(|r| row_bits(d, r)).collect();
        let expect = service.submit(NormRequest::bits(&bits)).unwrap();

        // wait() parks until the resident driver's round delivers.
        let mut ticket = service.submit_async(NormRequest::bits(&bits)).unwrap();
        assert_eq!(ticket.rows(), 3);
        let waited = ticket.wait().unwrap();
        assert_eq!(waited.bits(), expect.bits());
        assert_eq!(waited.rows(), 3);

        // try_take() never parks; the resident driver completes the
        // round on its own schedule — poll under a generous deadline.
        let mut ticket = service.submit_async(NormRequest::bits(&bits)).unwrap();
        let deadline = Instant::now() + Duration::from_secs(10);
        let polled = loop {
            if let Some(result) = ticket.try_take() {
                break result;
            }
            assert!(Instant::now() < deadline, "driver never served the ticket");
            std::thread::yield_now();
        };
        assert_eq!(polled.unwrap().bits(), expect.bits());

        // wait_timeout() within budget delivers the same bits.
        let mut ticket = service.submit_async(NormRequest::bits(&bits)).unwrap();
        let timed = ticket
            .wait_timeout(Duration::from_secs(5))
            .expect("bounded wait covers the driver's round");
        assert_eq!(timed.unwrap().bits(), expect.bits());

        // The "effectively forever" idiom must wait, not overflow-panic.
        let mut ticket = service.submit_async(NormRequest::bits(&bits)).unwrap();
        let forever = ticket
            .wait_timeout(Duration::MAX)
            .expect("an unbounded wait always delivers");
        assert_eq!(forever.unwrap().bits(), expect.bits());
    }

    #[test]
    fn submit_async_rejects_bad_shapes_and_shutdown_at_the_door() {
        let d = 8;
        let service = ServiceConfig::new(d).build().unwrap();
        assert_eq!(
            service.submit_async(NormRequest::bits(&[])).unwrap_err(),
            NormError::EmptyRequest
        );
        let ragged = vec![0u32; d + 1];
        assert_eq!(
            service
                .submit_async(NormRequest::bits(&ragged))
                .unwrap_err(),
            NormError::BatchLengthMismatch {
                rows: 1,
                d,
                actual: d + 1
            }
        );
        service.shutdown();
        let bits = row_bits(d, 1);
        assert_eq!(
            service.submit_async(NormRequest::bits(&bits)).unwrap_err(),
            NormError::ServiceShutdown
        );
    }

    #[test]
    #[should_panic(expected = "result already taken")]
    fn spent_ticket_panics_on_reuse() {
        let d = 8;
        let service = ServiceConfig::new(d).build().unwrap();
        let bits = row_bits(d, 1);
        let mut ticket = service.submit_async(NormRequest::bits(&bits)).unwrap();
        let _ = ticket.wait();
        let _ = ticket.try_take();
    }

    #[test]
    fn ticket_set_holds_only_the_outstanding_span() {
        let d = 8;
        let service = ServiceConfig::new(d).build().unwrap();
        let bits = row_bits(d, 5);
        let mut set = TicketSet::new();
        for expect in 0..1000usize {
            let index = set.insert(service.submit_async(NormRequest::bits(&bits)).unwrap());
            assert_eq!(index, expect, "indices count up from zero");
            let (got, result) = set.wait_any().unwrap();
            assert_eq!(got, index);
            assert_eq!(result.unwrap().rows(), 1);
            assert!(set.tickets.is_empty(), "a collected front is trimmed");
        }
        assert!(set.wait_any().is_none());
    }

    #[test]
    fn abandoned_tickets_are_counted_and_service_keeps_working() {
        let d = 16;
        let service = ServiceConfig::new(d).build().unwrap();
        let bits = row_bits(d, 4);
        let expect = service.submit(NormRequest::bits(&bits)).unwrap();

        // Dropped before collection: the resident driver still executes
        // the orphaned entry, and the abandoned slot recycles its result
        // buffer instead of stranding it.
        let ticket = service.submit_async(NormRequest::bits(&bits)).unwrap();
        drop(ticket);
        assert_eq!(service.stats().abandoned_tickets, 1);
        let after = service.submit(NormRequest::bits(&bits)).unwrap();
        assert_eq!(after.bits(), expect.bits());

        // Dropped after its round ran: the delivered outcome is reclaimed
        // at drop time. The blocking submit returning proves the earlier
        // ticket's entry was already served — the driver drains the whole
        // queue every round, in order.
        let ticket = service.submit_async(NormRequest::bits(&bits)).unwrap();
        let kicked = service.submit(NormRequest::bits(&bits)).unwrap();
        assert_eq!(kicked.bits(), expect.bits());
        drop(ticket);
        assert_eq!(service.stats().abandoned_tickets, 2);
        // The service stays fully usable.
        let last = service.submit(NormRequest::bits(&bits)).unwrap();
        assert_eq!(last.bits(), expect.bits());
    }

    #[test]
    fn request_hash_placement_is_deterministic_and_in_range() {
        let d = 8;
        let service = ServiceConfig::new(d)
            .with_shards(4)
            .with_placement(Placement::RequestHash)
            .build()
            .unwrap();
        assert_eq!(service.config().placement(), Placement::RequestHash);
        for key in [0u64, 1, 7, 0xDEAD_BEEF, u64::MAX] {
            let shard = service.shard_for(key);
            assert!(shard < 4);
            for _ in 0..3 {
                assert_eq!(service.shard_for(key), shard, "sticky for key {key}");
            }
        }
        // Distinct keys spread: 64 sequential keys must not all collapse
        // onto one shard (splitmix64 mixes sequential inputs).
        let hit: std::collections::BTreeSet<usize> =
            (0..64u64).map(|k| service.shard_for(k)).collect();
        assert!(hit.len() > 1, "sequential keys all landed on one shard");
        // Keyed submissions produce the same bits as unkeyed ones.
        let bits = row_bits(d, 6);
        let unkeyed = service.submit(NormRequest::bits(&bits)).unwrap();
        let keyed = service
            .submit(NormRequest::bits(&bits).with_key(42))
            .unwrap();
        assert_eq!(unkeyed.bits(), keyed.bits());
        let mut ticket = service
            .submit_async(NormRequest::bits(&bits).with_key(42))
            .unwrap();
        assert_eq!(ticket.shard(), service.shard_for(42));
        assert_eq!(ticket.wait().unwrap().bits(), unkeyed.bits());
    }

    #[test]
    fn placement_parses_and_displays() {
        assert_eq!(Placement::parse("round-robin"), Some(Placement::RoundRobin));
        assert_eq!(Placement::parse("RR"), Some(Placement::RoundRobin));
        assert_eq!(
            Placement::parse("Request-Hash"),
            Some(Placement::RequestHash)
        );
        assert_eq!(Placement::parse("hash"), Some(Placement::RequestHash));
        assert_eq!(Placement::parse("random"), None);
        for placement in Placement::ALL {
            assert_eq!(Placement::parse(placement.name()), Some(placement));
            assert_eq!(placement.to_string(), placement.name());
        }
        assert_eq!(Placement::default(), Placement::RoundRobin);
    }

    #[test]
    fn request_key_accessors_round_trip() {
        let data = [0u32; 4];
        let plain = NormRequest::bits(&data);
        assert_eq!(plain.key(), None);
        assert_eq!(plain.with_key(9).key(), Some(9));
        let values = [0.0f32; 4];
        assert_eq!(NormRequest::f32(&values).with_key(3).key(), Some(3));
    }

    #[test]
    fn priority_parses_and_displays() {
        assert_eq!(Priority::parse("normal"), Some(Priority::Normal));
        assert_eq!(Priority::parse("HIGH"), Some(Priority::High));
        assert_eq!(Priority::parse("urgent"), None);
        for priority in Priority::ALL {
            assert_eq!(Priority::parse(priority.name()), Some(priority));
            assert_eq!(priority.to_string(), priority.name());
        }
        assert_eq!(Priority::default(), Priority::Normal);
    }

    #[test]
    fn request_priority_accessors_round_trip() {
        let data = [0u32; 4];
        assert_eq!(NormRequest::bits(&data).priority(), Priority::Normal);
        assert_eq!(
            NormRequest::bits(&data)
                .with_priority(Priority::High)
                .priority(),
            Priority::High
        );
        // Priority composes with keys and never affects output bits.
        let d = 8;
        let service = ServiceConfig::new(d).build().unwrap();
        let bits = row_bits(d, 3);
        let normal = service.submit(NormRequest::bits(&bits)).unwrap();
        let high = service
            .submit(
                NormRequest::bits(&bits)
                    .with_priority(Priority::High)
                    .with_key(5),
            )
            .unwrap();
        assert_eq!(normal.bits(), high.bits());
    }

    #[test]
    fn stats_snapshot_mirrors_every_counter() {
        let stats = ServiceStats {
            requests: 1,
            batches: 2,
            coalesced_requests: 3,
            rows: 4,
            queue_full_rejections: 5,
            abandoned_tickets: 6,
            queue_wait: Duration::from_micros(7),
            execute: Duration::from_micros(8),
            whiten_requests: 9,
            whiten_rows: 10,
            worker_busy: Duration::from_micros(11),
            worker_idle: Duration::from_micros(12),
            worker_wakeups: 13,
            waker_panics: 14,
        };
        let snap = stats.snapshot();
        assert_eq!(snap.queue_wait_us, 7);
        assert_eq!(snap.execute_us, 8);
        // fields() covers each counter exactly once, in declaration
        // order, with the struct's own values.
        let fields = snap.fields();
        let expect = [
            ("requests", 1u64),
            ("batches", 2),
            ("coalesced_requests", 3),
            ("rows", 4),
            ("queue_full_rejections", 5),
            ("abandoned_tickets", 6),
            ("queue_wait_us", 7),
            ("execute_us", 8),
            ("whiten_requests", 9),
            ("whiten_rows", 10),
            ("worker_busy_us", 11),
            ("worker_idle_us", 12),
            ("worker_wakeups", 13),
            ("waker_panics", 14),
        ];
        assert_eq!(fields, expect);
        let mut names: Vec<&str> = fields.iter().map(|(n, _)| *n).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), fields.len(), "duplicate field name");
    }

    #[test]
    fn stats_snapshot_saturates_on_absurd_durations() {
        let stats = ServiceStats {
            queue_wait: Duration::MAX,
            ..ServiceStats::default()
        };
        assert_eq!(stats.snapshot().queue_wait_us, u64::MAX);
    }

    #[test]
    fn live_service_snapshot_tracks_traffic() {
        let d = 8;
        let service = ServiceConfig::new(d).build().unwrap();
        let bits = row_bits(d, 1);
        let _ = service.submit(NormRequest::bits(&bits)).unwrap();
        let _ = service.submit(NormRequest::bits(&bits)).unwrap();
        let snap = service.stats().snapshot();
        assert_eq!(snap.requests, 2);
        assert_eq!(snap.rows, 2);
        assert_eq!(snap.queue_full_rejections, 0);
    }
}
