//! What goes in and comes out: [`NormRequest`] with its [`Priority`]
//! and [`RequestKind`], [`NormResponse`], and the per-shard buffer pool
//! responses lease from.

// normlint: module(no-panic)
// A panic here unwinds inside the shard protocol and poisons shard
// locks: recover, fail closed through `Core::torn_state`, or attach a
// justified waiver.

use std::sync::{Arc, Mutex};
use std::time::Duration;

use crate::backend::FormatKind;
use crate::simd::SimdLevel;

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
    /// even high-priority work is shed with [`NormError::QueueFull`](crate::NormError::QueueFull),
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
/// [`Placement::RequestHash`](super::Placement::RequestHash); services on any other placement ignore it.
#[derive(Debug, Clone, Copy)]
pub struct NormRequest<'a> {
    pub(super) payload: Payload<'a>,
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
    /// unit with the service's [`WhitenSpec`](crate::WhitenSpec) (Newton–Schulz `Σ^{-1/2}`).
    Whiten,
}

/// The two accepted payload encodings.
#[derive(Debug, Clone, Copy)]
pub(super) enum Payload<'a> {
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
    /// [`WhitenSpec`](crate::WhitenSpec) ([`ServiceConfig::with_whiten`](super::ServiceConfig::with_whiten)). Rides the same
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
    /// [`Placement::RequestHash`](super::Placement::RequestHash) every request with the same key lands on
    /// the same shard ([`NormService::shard_for`](super::NormService::shard_for) tells you which);
    /// under [`Placement::RoundRobin`](super::Placement::RoundRobin) the key is ignored. Keys never
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
    pub(super) fn encode_into(&self, format: FormatKind, out: &mut [u32]) {
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
pub(super) struct BufferPool {
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
    pub(super) fn lease(&self, len: usize) -> Vec<u32> {
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
    pub(super) fn give_back(&self, buf: Vec<u32>) {
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
    pub(super) bits: Vec<u32>,
    pub(super) pool: Arc<BufferPool>,
    pub(super) format: FormatKind,
    pub(super) rows: usize,
    pub(super) batch_rows: usize,
    pub(super) batch_requests: usize,
    pub(super) elapsed: Duration,
    pub(super) simd: SimdLevel,
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
    /// backend execution and the result copy.
    /// For aggregate queue-wait vs execute accounting — which this
    /// all-in span deliberately does not separate — see
    /// [`ServiceStats::queue_wait`](super::ServiceStats::queue_wait) and [`ServiceStats::execute`](super::ServiceStats::execute).
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
