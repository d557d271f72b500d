//! [`ServiceConfig`] — the execution point a [`NormService`] serves —
//! and the shard [`Placement`] policy.

// normlint: module(no-panic)
// A panic here unwinds inside the shard protocol and poisons shard
// locks: recover, fail closed through `Core::torn_state`, or attach a
// justified waiver.

use super::serve::{MakeWhiten, NormService};
use crate::backend::{build_backend_affine, BackendKind, FormatKind, NormBackend};
use crate::engine::MethodSpec;
use crate::error::NormError;
use crate::hworder::ReduceOrder;
use crate::simd::SimdLevel;
use crate::whiten::{WhitenExec, WhitenSpec};

/// Default per-shard bound on queued (not-yet-executing) requests.
pub const DEFAULT_QUEUE_DEPTH: usize = 1024;

/// Everything that defines one normalization execution point. Built with
/// [`ServiceConfig::new`] plus `with_*` steps, validated once by
/// [`ServiceConfig::build`].
#[derive(Debug, Clone)]
pub struct ServiceConfig {
    pub(super) d: usize,
    pub(super) format: FormatKind,
    pub(super) method: MethodSpec,
    pub(super) backend: BackendKind,
    reduce: ReduceOrder,
    gamma_bits: Option<Vec<u32>>,
    beta_bits: Option<Vec<u32>>,
    pub(super) shards: usize,
    pub(super) queue_depth: usize,
    pub(super) placement: Placement,
    pub(super) simd: SimdLevel,
    pub(super) whiten: WhitenSpec,
}

impl ServiceConfig {
    /// Defaults for vectors of length `d`: emulated FP32, `iterl2[5]`,
    /// hardware-tree reduction, no affine parameters, one shard with a
    /// [`DEFAULT_QUEUE_DEPTH`]-request queue bound, pooled response
    /// buffers. Coalescing is always opportunistic: requests that queue
    /// while a round runs join the shard's next round, and no round is
    /// ever held back to wait for more.
    pub fn new(d: usize) -> Self {
        ServiceConfig {
            d,
            format: FormatKind::default(),
            method: MethodSpec::iterl2(5),
            backend: BackendKind::default(),
            reduce: ReduceOrder::default(),
            gamma_bits: None,
            beta_bits: None,
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
    /// every request that finds its shard busy); `usize::MAX` effectively
    /// disables the bound.
    pub fn with_queue_depth(mut self, queue_depth: usize) -> Self {
        self.queue_depth = queue_depth;
        self
    }

    /// Same config with a different shard-placement policy.
    /// [`Placement::RoundRobin`] (the default) spreads requests evenly;
    /// [`Placement::RequestHash`] pins requests that carry a
    /// [`key`](super::NormRequest::with_key) to one shard, keeping that shard's
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
    /// [`NormService::simd_level`] and on every [`NormResponse`](super::NormResponse). Output
    /// bits are identical at every level.
    pub fn with_simd(mut self, simd: SimdLevel) -> Self {
        self.simd = simd;
        self
    }

    /// Same config with a different whitening spec — the iteration count,
    /// covariance ridge and group mode that
    /// [`NormRequest::whiten_group`](super::NormRequest::whiten_group) requests execute under. Whitening
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

    /// The whitening spec [`NormRequest::whiten_group`](super::NormRequest::whiten_group) requests run.
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
        Ok(NormService::start(self, backends, None))
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
        make: impl FnMut() -> Box<dyn NormBackend>,
    ) -> Result<NormService, NormError> {
        self.build_custom(make, None)
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
        make: impl FnMut() -> Box<dyn NormBackend>,
        make_whiten: impl Fn() -> Box<dyn WhitenExec> + Send + Sync + 'static,
    ) -> Result<NormService, NormError> {
        self.build_custom(make, Some(Box::new(make_whiten)))
    }

    fn build_custom(
        self,
        mut make: impl FnMut() -> Box<dyn NormBackend>,
        make_whiten: Option<MakeWhiten>,
    ) -> Result<NormService, NormError> {
        self.validate_counts()?;
        if self.d == 0 {
            return Err(NormError::EmptyInput);
        }
        let backends = (0..self.shards).map(|_| make()).collect();
        Ok(NormService::start(self, backends, make_whiten))
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
    /// [`key`](super::NormRequest::with_key) always lands on the same shard
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
