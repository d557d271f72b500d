//! SIMD execution tier for the native-f32 backend.
//!
//! The generic engine ([`Normalizer`](crate::Normalizer) over
//! [`softfloat::HostF32`]) executes one scalar lane at a time. This module
//! adds vector kernels that run the *identical* float operation DAG — and
//! therefore produce identical bits — across multiple lanes at once:
//!
//! * **Reduction kernel**: the hardware-order sum / sum-of-squares
//!   ([`crate::hworder`]) is already shaped like a SIMD reduction — eight
//!   8-input L1 adder trees per 64-element chunk, then one L2 tree. The
//!   AVX2 kernel runs eight trees at once as *pair steps*: a
//!   `_mm256_shuffle_ps` pair gathers the even and the odd lanes of two
//!   registers and one add sums each adjacent pair, left operand first.
//!   Two pair levels and two `vperm2f128` turn a chunk's eight group
//!   registers into one register whose lane `g` is L1 tree `g` (14
//!   shuffle µops per chunk, against 24 for an 8×8 transpose). The same
//!   tree over eight chunks' L1 registers puts those chunks' L2 sums in
//!   one register, and the chunk sums stream into a fixed-size fold that
//!   reproduces `fold_partials` without a buffer. The SSE2 and portable
//!   tiers keep a 4×4 transpose and plain-Rust trees per chunk. Short
//!   tail chunks are padded with `+0.0`: the scalar path substitutes
//!   `+0` for every missing tree input and leaves fully-empty L1 slots
//!   at `+0`, and `+0 + +0 = +0` under round-to-nearest-even, so the
//!   padded full-width kernel reproduces the scalar short-chunk
//!   semantics bit for bit.
//! * **Fused shift stage**: each row is read three times — the row sum,
//!   then one chunk walk that shifts every element (`x − mean`), stores
//!   it to the output and feeds its square to the trees, then the
//!   scale/γ/β pass. Every tier runs this one stage through its own
//!   chunk primitive; only the tail chunk's real elements are shifted,
//!   so its padding stays `+0.0`.
//! * **Multi-row lane kernel**: the Newton update of the IterL2Norm
//!   iteration and the scale/affine application are per-row independent,
//!   so a register holds one *row* per lane (8 rows for AVX2, 4 per
//!   `__m128` for SSE2) and every lanewise `mul`/`sub`/`add` is the same
//!   IEEE-754 operation the scalar code performs on that row.
//!
//! Three kernels implement this, selected through [`SimdLevel`]:
//! `x86-64` AVX2+FMA and SSE2 [`core::arch`] kernels behind runtime
//! [`std::arch::is_x86_feature_detected!`] dispatch, plus a portable
//! fixed-width-chunk kernel written so the autovectorizer can do the same
//! transformation on any architecture. `SimdLevel::Auto` degrades
//! gracefully (AVX2 → SSE2 → portable); forcing a level the host cannot
//! run is a clean [`NormError::SimdUnsupported`], never a silent
//! downgrade.
//!
//! Why bit-identity survives vectorization: every vector instruction used
//! here (`vaddps`, `vmulps`, `vsubps` and their SSE forms) performs the
//! same IEEE-754 binary32 round-to-nearest-even operation per lane as its
//! scalar counterpart; no FMA contraction is introduced (the update step
//! is the paper's `UpdateStyle::Separate` — explicit mul then add — and
//! Rust never contracts float expressions); and the kernels never
//! *reassociate* — they only re-bracket work that the hardware reduction
//! order already brackets that way. Shuffles only move values: each pair
//! add, `vperm2f128` join and L2 lane computes exactly one add of the
//! scalar tree, with the same two operands. Fusing the shift into the
//! sum-of-squares walk changes when an element is computed, not how:
//! each still sees `x − mean`, then `y·y` into the same tree slot. (LLVM
//! may emit `vhaddps` for a shuffle/add pair — `fadd` commutes in its IR —
//! which adds the same two operands; only the payload chosen when *both*
//! are NaN can differ, and the suites leave mixed-payload NaNs unpinned.)
//! The oracle suite (`tests/backend_bit_identity.rs`) enforces SIMD ≡
//! scalar ≡ emulated for every method × dimension × reduce order × forced
//! level.
#![allow(unsafe_code)]

use core::fmt;

use softfloat::HostF32;
use std::sync::{Mutex, PoisonError};

use crate::backend::{check_segments, BackendKind};
use crate::config::{IterConfig, StopRule};
use crate::engine::{split_segments, worker_rows, NormPlan, ScaleMethod};
use crate::error::NormError;
use crate::executor::PartitionRunner;
use crate::hworder::{ReduceOrder, CHUNK, TREE_WIDTH};
use crate::iteration::{a0_from_exponent, lambda_from_exponent};
use crate::layernorm::{DimConsts, RsqrtScale};

/// Which SIMD tier the native backend executes.
///
/// `Auto` (the default) picks the widest kernel the host supports and
/// never fails; every other value is a *forced* selection that either
/// runs exactly that tier or fails backend construction with
/// [`NormError::SimdUnsupported`] — requesting `avx2` on a host without
/// AVX2 must be an error, not a silent downgrade, or benchmark points
/// get mislabeled. The resolved level is reported by
/// [`NormBackend::simd_level`](crate::backend::NormBackend::simd_level)
/// and in [`NormResponse`](crate::service::NormResponse) metadata.
///
/// Output bits are identical across every level — the levels differ only
/// in throughput (enforced by `tests/backend_bit_identity.rs`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum SimdLevel {
    /// Pick the widest supported kernel (AVX2 → SSE2 → portable). Never
    /// fails to resolve; the emulated backend reports `Scalar`.
    #[default]
    Auto,
    /// Force the generic scalar engine (the pre-SIMD path).
    Scalar,
    /// Force the portable fixed-width-chunk kernel (any architecture;
    /// written so the autovectorizer can widen it).
    Portable,
    /// Force the x86-64 SSE2 kernel (4 lanes; baseline on every x86-64).
    Sse2,
    /// Force the x86-64 AVX2+FMA kernel (8 lanes; runtime-detected).
    Avx2,
}

impl SimdLevel {
    /// All levels, for sweeps and CLI help.
    pub const ALL: [SimdLevel; 5] = [
        SimdLevel::Auto,
        SimdLevel::Scalar,
        SimdLevel::Portable,
        SimdLevel::Sse2,
        SimdLevel::Avx2,
    ];

    /// Parse a level name (`"auto"`, `"scalar"`, `"portable"`, `"sse2"`,
    /// `"avx2"`), case-insensitively. Returns `None` for anything else.
    pub fn parse(text: &str) -> Option<Self> {
        match text.to_ascii_lowercase().as_str() {
            "auto" => Some(SimdLevel::Auto),
            "scalar" => Some(SimdLevel::Scalar),
            "portable" => Some(SimdLevel::Portable),
            "sse2" => Some(SimdLevel::Sse2),
            "avx2" => Some(SimdLevel::Avx2),
            _ => None,
        }
    }

    /// Canonical name (`"auto"` / `"scalar"` / `"portable"` / `"sse2"` /
    /// `"avx2"`).
    pub fn name(self) -> &'static str {
        match self {
            SimdLevel::Auto => "auto",
            SimdLevel::Scalar => "scalar",
            SimdLevel::Portable => "portable",
            SimdLevel::Sse2 => "sse2",
            SimdLevel::Avx2 => "avx2",
        }
    }
}

impl fmt::Display for SimdLevel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// A concrete vector kernel the host can actually run (`Scalar` is the
/// absence of one — the generic engine).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum SimdKernel {
    Portable,
    Sse2,
    Avx2,
}

impl SimdKernel {
    /// The level this kernel reports (never `Auto`).
    pub(crate) fn level(self) -> SimdLevel {
        match self {
            SimdKernel::Portable => SimdLevel::Portable,
            SimdKernel::Sse2 => SimdLevel::Sse2,
            SimdKernel::Avx2 => SimdLevel::Avx2,
        }
    }
}

#[cfg(target_arch = "x86_64")]
fn host_has_avx2_fma() -> bool {
    std::arch::is_x86_feature_detected!("avx2") && std::arch::is_x86_feature_detected!("fma")
}

/// Resolve a requested level against the backend kind and the running
/// host. `Ok(None)` means the scalar generic engine; `Ok(Some(kernel))`
/// names the vector kernel to run.
///
/// # Errors
///
/// [`NormError::SimdUnsupported`] when a forced level cannot run: any
/// vector level on the emulated backend (softfloat arithmetic has no
/// vector form), or an x86 level on a host that lacks it.
pub(crate) fn resolve(
    level: SimdLevel,
    backend: BackendKind,
) -> Result<Option<SimdKernel>, NormError> {
    let unsupported = || {
        Err(NormError::SimdUnsupported {
            level: level.name(),
            backend: backend.name(),
        })
    };
    match backend {
        BackendKind::Emulated => match level {
            SimdLevel::Auto | SimdLevel::Scalar => Ok(None),
            _ => unsupported(),
        },
        BackendKind::Native => match level {
            SimdLevel::Scalar => Ok(None),
            SimdLevel::Portable => Ok(Some(SimdKernel::Portable)),
            SimdLevel::Sse2 => {
                #[cfg(target_arch = "x86_64")]
                {
                    // SSE2 is part of the x86-64 baseline: no detection.
                    Ok(Some(SimdKernel::Sse2))
                }
                #[cfg(not(target_arch = "x86_64"))]
                {
                    unsupported()
                }
            }
            SimdLevel::Avx2 => {
                #[cfg(target_arch = "x86_64")]
                {
                    if host_has_avx2_fma() {
                        Ok(Some(SimdKernel::Avx2))
                    } else {
                        unsupported()
                    }
                }
                #[cfg(not(target_arch = "x86_64"))]
                {
                    unsupported()
                }
            }
            SimdLevel::Auto => {
                #[cfg(target_arch = "x86_64")]
                {
                    if host_has_avx2_fma() {
                        Ok(Some(SimdKernel::Avx2))
                    } else {
                        Ok(Some(SimdKernel::Sse2))
                    }
                }
                #[cfg(not(target_arch = "x86_64"))]
                {
                    Ok(Some(SimdKernel::Portable))
                }
            }
        },
    }
}

/// Rows processed per block: one row per lane of the widest kernel. The
/// SSE2 kernel runs the same 8-row blocks as two 4-lane registers.
const ROW_LANES: usize = 8;

/// The SIMD batch executor carried by
/// [`NativeF32`](crate::backend::NativeF32): a resolved kernel plus
/// `f32` copies of the plan's affine parameters (the plan stores
/// [`HostF32`], which is not layout-guaranteed to cast as a slice) and
/// the vectorizable iteration step count, if the method is the standard
/// fixed-step IterL2Norm.
#[derive(Debug, Clone)]
pub(crate) struct SimdNative {
    kernel: SimdKernel,
    /// `Some(n)` when the scale method is the paper's fixed-step
    /// iteration with the hardware seed/rate rules — the configuration
    /// the multi-row lane kernel implements. Anything else (FISR, LUT,
    /// exact, a custom iteration config) computes its scale per row via
    /// [`RsqrtScale`], which is bit-identical by reuse.
    iter_steps: Option<u32>,
    gamma: Option<Vec<f32>>,
    beta: Option<Vec<f32>>,
}

impl SimdNative {
    pub(crate) fn new(kernel: SimdKernel, plan: &NormPlan<HostF32>, method: &ScaleMethod) -> Self {
        let iter_steps = match method {
            ScaleMethod::IterL2(norm) => match norm.config.stop {
                StopRule::FixedSteps(n) if norm.config == IterConfig::fixed_steps(n) => Some(n),
                _ => None,
            },
            _ => None,
        };
        let to_f32 = |v: &[HostF32]| v.iter().map(|h| h.0).collect::<Vec<f32>>();
        SimdNative {
            kernel,
            iter_steps,
            gamma: plan.gamma().map(to_f32),
            beta: plan.beta().map(to_f32),
        }
    }

    pub(crate) fn level(&self) -> SimdLevel {
        self.kernel.level()
    }

    /// The per-row constants of `plan` under `method`, for every kernel.
    fn ctx<'a>(&'a self, plan: &'a NormPlan<HostF32>, method: &'a ScaleMethod) -> RowCtx<'a> {
        RowCtx {
            d: plan.d(),
            inv_d: plan.inv_d().0,
            sqrt_d: plan.sqrt_d().0,
            reduce: plan.reduce(),
            iter_steps: self.iter_steps,
            method,
            dims: plan.dims(),
            gamma: self.gamma.as_deref(),
            beta: self.beta.as_deref(),
        }
    }

    /// The SIMD counterpart of the generic bits engine: same validation
    /// order, same worker partitioning (contiguous runs, first
    /// `rows % workers` workers take one extra row), bit-identical output.
    /// Operates on the storage bits in place of a decode/encode pass —
    /// `u32` and `f32` share size, alignment and total bit-pattern
    /// validity, so the cast is free.
    pub(crate) fn normalize_batch(
        &self,
        plan: &NormPlan<HostF32>,
        method: &ScaleMethod,
        input: &[u32],
        out: &mut [u32],
        threads: usize,
    ) -> Result<usize, NormError> {
        if out.len() != input.len() {
            return Err(NormError::OutputLengthMismatch {
                expected: input.len(),
                actual: out.len(),
            });
        }
        if threads == 0 {
            return Err(NormError::ZeroThreads);
        }
        let rows = plan.rows_of(input.len())?;
        let d = plan.d();
        let ctx = self.ctx(plan, method);
        let x = bits_as_f32(input);
        let o = bits_as_f32_mut(out);
        let workers = threads.min(rows);
        if workers <= 1 {
            self.process_rows(&ctx, Some(x), o);
            return Ok(rows);
        }
        std::thread::scope(|scope| {
            let mut x_rest = x;
            let mut o_rest = o;
            for wi in 0..workers {
                let take = worker_rows(rows, workers, wi) * d;
                let (x_chunk, x_tail) = x_rest.split_at(take);
                let (o_chunk, o_tail) = o_rest.split_at_mut(take);
                x_rest = x_tail;
                o_rest = o_tail;
                let ctx = &ctx;
                scope.spawn(move || self.process_rows(ctx, Some(x_chunk), o_chunk));
            }
        });
        Ok(rows)
    }

    /// [`normalize_batch`](SimdNative::normalize_batch) over an injected
    /// [`PartitionRunner`]: identical validation, identical
    /// [`worker_rows`] partition at the runner's width, identical output
    /// bits — only the execution vehicle changes (the serving path's
    /// resident pool instead of per-call scoped threads).
    pub(crate) fn normalize_batch_runner(
        &self,
        plan: &NormPlan<HostF32>,
        method: &ScaleMethod,
        input: &[u32],
        out: &mut [u32],
        runner: &dyn PartitionRunner,
    ) -> Result<usize, NormError> {
        if out.len() != input.len() {
            return Err(NormError::OutputLengthMismatch {
                expected: input.len(),
                actual: out.len(),
            });
        }
        let rows = plan.rows_of(input.len())?;
        let d = plan.d();
        let ctx = self.ctx(plan, method);
        let x = bits_as_f32(input);
        let o = bits_as_f32_mut(out);
        let workers = runner.width().min(rows);
        if workers <= 1 {
            self.process_rows(&ctx, Some(x), o);
            return Ok(rows);
        }
        // Same per-part mutex hand-off as the generic engine's runner
        // path: disjoint chunks parked one per part, claimed by index.
        let mut chunks: Vec<crate::engine::PartChunk<'_, f32>> = Vec::with_capacity(workers);
        let mut x_rest = x;
        let mut o_rest = o;
        for wi in 0..workers {
            let take = worker_rows(rows, workers, wi) * d;
            let (x_chunk, x_tail) = x_rest.split_at(take);
            let (o_chunk, o_tail) = o_rest.split_at_mut(take);
            x_rest = x_tail;
            o_rest = o_tail;
            chunks.push(Mutex::new(Some((x_chunk, o_chunk))));
        }
        runner.run(workers, &|wi| {
            let taken = chunks[wi]
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .take();
            let Some((x_chunk, o_chunk)) = taken else {
                return;
            };
            self.process_rows(&ctx, Some(x_chunk), o_chunk);
        });
        Ok(rows)
    }

    /// Normalize whole-row `segments` where they sit, over `runner`: the
    /// rows are split across parts exactly as
    /// [`normalize_batch_runner`](SimdNative::normalize_batch_runner)
    /// splits their concatenation ([`split_segments`]), and each row runs
    /// the same block pipeline reading from its own output slice. Rows are
    /// independent, so the bits equal the out-of-place call's.
    pub(crate) fn normalize_in_place_runner(
        &self,
        plan: &NormPlan<HostF32>,
        method: &ScaleMethod,
        segments: &mut [&mut [u32]],
        runner: &dyn PartitionRunner,
    ) -> Result<usize, NormError> {
        let rows = check_segments(plan.d(), segments)?;
        let ctx = self.ctx(plan, method);
        let workers = runner.width().min(rows);
        if workers <= 1 {
            for seg in segments.iter_mut() {
                self.process_rows(&ctx, None, bits_as_f32_mut(seg));
            }
            return Ok(rows);
        }
        let parts: Vec<Mutex<Option<Vec<&mut [u32]>>>> =
            split_segments(segments, plan.d(), rows, workers)
                .into_iter()
                .map(|part| Mutex::new(Some(part)))
                .collect();
        runner.run(workers, &|wi| {
            let taken = parts[wi]
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .take();
            for piece in taken.into_iter().flatten() {
                self.process_rows(&ctx, None, bits_as_f32_mut(piece));
            }
        });
        Ok(rows)
    }

    /// Run the kernel over whole rows into `o`, reading from `x` — or,
    /// when `x` is `None`, from `o` itself (in place).
    fn process_rows(&self, ctx: &RowCtx<'_>, x: Option<&[f32]>, o: &mut [f32]) {
        match self.kernel {
            // SAFETY: the portable kernel has no instruction-set requirement.
            SimdKernel::Portable => unsafe { process_rows_portable(ctx, x, o) },
            #[cfg(target_arch = "x86_64")]
            // SAFETY: `resolve` yields Sse2 only on x86-64, where SSE2 is baseline.
            SimdKernel::Sse2 => unsafe { x86::process_rows_sse2(ctx, x, o) },
            #[cfg(target_arch = "x86_64")]
            // SAFETY: `resolve` yields Avx2 only after runtime-detecting AVX2+FMA.
            SimdKernel::Avx2 => unsafe { x86::process_rows_avx2(ctx, x, o) },
            #[cfg(not(target_arch = "x86_64"))]
            SimdKernel::Sse2 | SimdKernel::Avx2 => {
                unreachable!("x86 kernels are never resolved off x86-64")
            }
        }
    }
}

/// Bundle of the per-row constants every kernel needs.
struct RowCtx<'a> {
    d: usize,
    inv_d: f32,
    sqrt_d: f32,
    reduce: ReduceOrder,
    iter_steps: Option<u32>,
    method: &'a ScaleMethod,
    dims: &'a DimConsts<HostF32>,
    gamma: Option<&'a [f32]>,
    beta: Option<&'a [f32]>,
}

/// View storage bits as host floats without copying.
///
/// `u32` and `f32` have identical size (4) and alignment (4), and every
/// 32-bit pattern is a valid `f32` (NaN payloads included), so the
/// reinterpretation is sound in both directions.
fn bits_as_f32(bits: &[u32]) -> &[f32] {
    // SAFETY: same layout, every bit pattern valid (see above); the
    // returned slice borrows `bits`, so aliasing rules are upheld.
    unsafe { core::slice::from_raw_parts(bits.as_ptr().cast::<f32>(), bits.len()) }
}

/// Mutable counterpart of [`bits_as_f32`].
fn bits_as_f32_mut(bits: &mut [u32]) -> &mut [f32] {
    // SAFETY: as `bits_as_f32`; exclusivity carries over from `&mut`.
    unsafe { core::slice::from_raw_parts_mut(bits.as_mut_ptr().cast::<f32>(), bits.len()) }
}

/// One kernel tier: the chunk primitives of the hardware-order reduction
/// plus the multi-row iteration. The row pipeline
/// ([`process_block_rows`]) and the chunk walk ([`reduce_row`]) are
/// shared; a tier supplies only what it executes in its own registers.
///
/// Methods are `unsafe` because implementations may use instructions the
/// host must support — callers reach them only through the dispatch in
/// [`SimdNative::process_rows`], which guarantees the kernel was
/// runtime-resolved for this host.
trait RowReduce {
    /// One chunk's eight L1 tree sums, in the tier's own representation.
    type L1: Copy;

    /// Initial value of the pending-chunk slots a [`ChunkWalk`] keeps.
    /// Its lanes are never read back into a result.
    const L1_ZERO: Self::L1;

    /// Load one full chunk from `src`; with `shift = Some((mean, dst))`,
    /// subtract `mean` from every element and store the differences to
    /// `dst` (which may equal `src`); square the values when `square`;
    /// return the chunk's eight L1 tree sums (group `g` =
    /// `((v₀+v₁)+(v₂+v₃))+((v₄+v₅)+(v₆+v₇))` over elements `8g..8g+8`).
    ///
    /// # Safety
    ///
    /// Callable only on a host that supports the implementing kernel's
    /// instruction set (`resolve` guarantees the match). `src` must point
    /// at [`CHUNK`] readable `f32`s and `dst`, when given, at `CHUNK`
    /// writable ones that no live reference covers.
    unsafe fn chunk_l1(
        &self,
        src: *const f32,
        shift: Option<(f32, *mut f32)>,
        square: bool,
    ) -> Self::L1;

    /// The L2 tree of up to [`TREE_WIDTH`] chunks at once: entry `c` of
    /// the result is the hardware-order sum of the chunk whose L1 sums
    /// are `l1[c]`. Entries are independent, so a slot holding a stale
    /// or zero value only spoils its own entry.
    ///
    /// # Safety
    ///
    /// Same instruction-set contract as [`RowReduce::chunk_l1`].
    unsafe fn chunk_sums(&self, l1: &[Self::L1; TREE_WIDTH]) -> [f32; TREE_WIDTH];

    /// The fixed-step IterL2Norm iteration for [`ROW_LANES`] independent
    /// rows, one per lane: seeds and rates come from the scalar bit-field
    /// rules (`a0_from_exponent` / `lambda_from_exponent`), the update
    /// steps run lanewise, and `scales[l] = a∞[l] · √d`.
    ///
    /// # Safety
    ///
    /// Same instruction-set contract as [`RowReduce::chunk_l1`].
    unsafe fn iter_scales(
        &self,
        m: &[f32; ROW_LANES],
        steps: u32,
        sqrt_d: f32,
        scales: &mut [f32; ROW_LANES],
    );
}

/// The block pipeline every kernel runs, three passes over each row:
/// (1) the row sum → mean; (2) the fused stage — shift `y = x − mean`,
/// store `y` to `o`, and reduce `m = Σ y²` in the same chunk walk
/// ([`reduce_row`]); then, per block of up to [`ROW_LANES`] rows, the
/// scale — lanewise iteration for the standard IterL2Norm, per-row
/// [`RsqrtScale`] otherwise — and (3) one scale/γ/β pass. Every element
/// sees the operation chain of `normalize_row_into`: `x − mean`, `y·y`
/// into the same trees, `y·s`, `·γ`, `+β`. Unused lanes are padded with
/// `m = 1` (lane independence: their results are simply never stored).
///
/// With `x = None` the pipeline runs in place: passes (1)–(2) read the
/// row from `o`, which already holds the input, and (2) writes each
/// chunk back where it read it.
///
/// # Safety
///
/// The caller must guarantee `r`'s instruction requirements hold on this
/// host (see [`RowReduce`]). Shapes: `o.len()` (and `x.len()`, when
/// given) is the same multiple of `ctx.d`, and γ/β (when present) have
/// length `ctx.d`.
#[inline(always)]
unsafe fn process_block_rows<R: RowReduce>(
    r: &R,
    ctx: &RowCtx<'_>,
    x: Option<&[f32]>,
    o: &mut [f32],
) {
    let d = ctx.d;
    let block = ROW_LANES * d;
    let mut walk = ChunkWalk::<R>::new();
    for (bi, ob) in o.chunks_mut(block).enumerate() {
        let n = ob.len() / d;
        // Pad unused lanes with a benign finite m: the iteration runs on
        // them (lanewise, independently) and the result is discarded.
        let mut m = [1.0f32; ROW_LANES];
        for (ri, mi) in m.iter_mut().enumerate().take(n) {
            let dst = ob[ri * d..(ri + 1) * d].as_mut_ptr();
            let src = match x {
                Some(x) => x[bi * block + ri * d..][..d].as_ptr(),
                None => dst.cast_const(),
            };
            // SAFETY: `src` and `dst` each cover `d` elements of a live
            // row (the same row in place); no reference to it is held
            // across the two calls.
            let mean = reduce_row(r, &mut walk, src, None, d, ctx.reduce) * ctx.inv_d;
            // SAFETY: as above.
            *mi = reduce_row(r, &mut walk, src, Some((mean, dst)), d, ctx.reduce);
        }
        let mut scales = [0.0f32; ROW_LANES];
        match ctx.iter_steps {
            Some(steps) => r.iter_scales(&m, steps, ctx.sqrt_d, &mut scales),
            None => {
                for (scale, &mi) in scales.iter_mut().zip(&m).take(n) {
                    *scale = ctx.method.scale_with(HostF32(mi), ctx.dims).0;
                }
            }
        }
        for (or, &s) in ob.chunks_exact_mut(d).zip(&scales) {
            match (ctx.gamma, ctx.beta) {
                (None, None) => or.iter_mut().for_each(|v| *v *= s),
                (Some(g), None) => {
                    for (v, &gi) in or.iter_mut().zip(g) {
                        *v = *v * s * gi;
                    }
                }
                (None, Some(b)) => {
                    for (v, &bi) in or.iter_mut().zip(b) {
                        *v = *v * s + bi;
                    }
                }
                (Some(g), Some(b)) => {
                    for ((v, &gi), &bi) in or.iter_mut().zip(g).zip(b) {
                        *v = *v * s * gi + bi;
                    }
                }
            }
        }
    }
}

/// One reduction pass over a `len`-element row at `src`, in the plan's
/// order: the row sum when `shift` is `None`; the fused stage when it is
/// `Some((mean, dst))` — every element is shifted (`x − mean`), stored to
/// `dst` and squared, and the squares are summed.
///
/// `HwTree` walks full chunks through the tier's [`RowReduce::chunk_l1`],
/// runs the L2 trees of [`TREE_WIDTH`] chunks at a time and streams the
/// chunk sums into a [`ChunkFold`]. The tail chunk's real elements are
/// shifted here, into a `+0.0`-padded buffer the primitive then reduces
/// unshifted — padding must stay `+0.0`, not become `0 − mean`. `Linear`
/// stays a scalar left-to-right fold, a loop-carried chain no
/// bit-preserving vectorization can break.
///
/// # Safety
///
/// `r`'s instruction requirements must hold. `src` must point at `len`
/// readable `f32`s and `dst`, when given, at `len` writable ones (the
/// same ones in place) that no live reference covers.
#[inline(always)]
unsafe fn reduce_row<R: RowReduce>(
    r: &R,
    walk: &mut ChunkWalk<R>,
    src: *const f32,
    shift: Option<(f32, *mut f32)>,
    len: usize,
    reduce: ReduceOrder,
) -> f32 {
    let square = shift.is_some();
    let elem = |i: usize| {
        let v = *src.add(i);
        match shift {
            Some((mean, dst)) => {
                let y = v - mean;
                *dst.add(i) = y;
                y
            }
            None => v,
        }
    };
    if reduce == ReduceOrder::Linear {
        return (0..len).fold(0.0f32, |acc, i| {
            let y = elem(i);
            acc + if square { y * y } else { y }
        });
    }
    let full = len / CHUNK;
    let ChunkWalk { l1, fold } = walk;
    fold.reset();
    let mut pending = 0;
    for c in 0..full {
        let at = c * CHUNK;
        let chunk_shift = shift.map(|(mean, dst)| (mean, dst.add(at)));
        l1[pending] = r.chunk_l1(src.add(at), chunk_shift, square);
        pending += 1;
        if pending == TREE_WIDTH {
            fold.push_all(&r.chunk_sums(l1));
            pending = 0;
        }
    }
    let rem = len - full * CHUNK;
    if rem > 0 {
        let mut buf = [0.0f32; CHUNK];
        for (i, slot) in buf[..rem].iter_mut().enumerate() {
            *slot = elem(full * CHUNK + i);
        }
        l1[pending] = r.chunk_l1(buf.as_ptr(), None, square);
        pending += 1;
    }
    if pending > 0 {
        fold.push_all(&r.chunk_sums(l1)[..pending]);
    }
    fold.finish()
}

/// The chunk walk's working storage: the pending chunks' L1 sums and the
/// fold. [`process_block_rows`] builds it once per call and every pass of
/// every row reuses it, so a row pays no per-pass initialization; stale
/// L1 slots only spoil L2 lanes that are never pushed.
struct ChunkWalk<R: RowReduce> {
    l1: [R::L1; TREE_WIDTH],
    fold: ChunkFold,
}

impl<R: RowReduce> ChunkWalk<R> {
    #[inline(always)]
    fn new() -> Self {
        ChunkWalk {
            l1: [R::L1_ZERO; TREE_WIDTH],
            fold: ChunkFold::new(),
        }
    }
}

/// Scalar 8-input adder tree, `((v₀+v₁)+(v₂+v₃))+((v₄+v₅)+(v₆+v₇))` —
/// [`crate::hworder::tree_sum8`] on host floats.
#[inline(always)]
fn tree8(v: &[f32; TREE_WIDTH]) -> f32 {
    ((v[0] + v[1]) + (v[2] + v[3])) + ((v[4] + v[5]) + (v[6] + v[7]))
}

/// Pending-sum levels of a [`ChunkFold`]: rows shorter than
/// `CHUNK · 8^10` = 2³⁶ elements (256 GiB of `f32`); a longer row would
/// index past the last level and panic.
const FOLD_LEVELS: usize = 10;

/// `fold_partials` as a stream, in fixed storage: chunk sums arrive in
/// row order, every full group of [`TREE_WIDTH`] at a level is tree-summed
/// into the level above at once, and [`ChunkFold::finish`] flushes the
/// partial groups exactly as the buffer fold meets them — a level with
/// one value is the result (the `len == 1` early return, no `+0` add),
/// and a short group is tree-summed with its missing inputs at `+0`.
/// Only `fill` and `count` carry state between rows: a level's slots are
/// written before they are read.
struct ChunkFold {
    pending: [[f32; TREE_WIDTH]; FOLD_LEVELS],
    fill: [u8; FOLD_LEVELS],
    /// Chunk sums pushed since the last reset (level-0 values).
    count: usize,
}

impl ChunkFold {
    #[inline(always)]
    fn new() -> Self {
        ChunkFold {
            pending: [[0.0; TREE_WIDTH]; FOLD_LEVELS],
            fill: [0; FOLD_LEVELS],
            count: 0,
        }
    }

    /// Start a new row.
    #[inline(always)]
    fn reset(&mut self) {
        self.fill = [0; FOLD_LEVELS];
        self.count = 0;
    }

    /// Append chunk sums in row order. A full group arriving at an empty
    /// level 0 (every full L2 batch of [`reduce_row`]) is tree-summed
    /// straight into level 1 — what pushing its eight sums one by one
    /// would do. Kept out of line: it runs once per eight chunks, and
    /// inlining its level walk into every pass of every tier nearly
    /// doubled the kernels' code (AVX2 entry 8 → 14.7 KB).
    #[inline(never)]
    fn push_all(&mut self, sums: &[f32]) {
        self.count += sums.len();
        match <&[f32; TREE_WIDTH]>::try_from(sums) {
            Ok(group) if self.fill[0] == 0 => self.push_at(1, tree8(group)),
            _ => {
                for &v in sums {
                    self.push_at(0, v);
                }
            }
        }
    }

    fn push_at(&mut self, mut level: usize, mut v: f32) {
        loop {
            let f = usize::from(self.fill[level]);
            self.pending[level][f] = v;
            if f + 1 < TREE_WIDTH {
                self.fill[level] += 1;
                return;
            }
            self.fill[level] = 0;
            v = tree8(&self.pending[level]);
            level += 1;
        }
    }

    /// The folded row sum (`+0.0` for no chunks).
    fn finish(&mut self) -> f32 {
        let mut count = self.count;
        if count == 0 {
            return 0.0;
        }
        let mut level = 0;
        while count > 1 {
            let f = usize::from(self.fill[level]);
            if f > 0 {
                let mut tree = [0.0f32; TREE_WIDTH];
                tree[..f].copy_from_slice(&self.pending[level][..f]);
                self.push_at(level + 1, tree8(&tree));
            }
            count = count.div_ceil(TREE_WIDTH);
            level += 1;
        }
        self.pending[level][0]
    }
}

/// The L2 trees of tiers whose L1 sums sit in a `[f32; 8]`: one scalar
/// tree per chunk.
#[inline(always)]
fn scalar_chunk_sums(l1: &[[f32; TREE_WIDTH]; TREE_WIDTH]) -> [f32; TREE_WIDTH] {
    l1.map(|groups| tree8(&groups))
}

// --------------------------------------------------------------------
// Portable kernel: fixed-width chunks in plain Rust. The explicit
// 8-group structure below is the same shape the x86 kernels implement
// with shuffles, laid out so the autovectorizer can widen it on any
// architecture — and it is the fallback semantics the oracle tests pin.
// --------------------------------------------------------------------

struct PortableReduce;

impl RowReduce for PortableReduce {
    type L1 = [f32; TREE_WIDTH];
    const L1_ZERO: Self::L1 = [0.0; TREE_WIDTH];

    // SAFETY: portable kernel — no target-specific instructions; pointer
    // validity is the caller's contract.
    #[inline(always)]
    unsafe fn chunk_l1(
        &self,
        src: *const f32,
        shift: Option<(f32, *mut f32)>,
        square: bool,
    ) -> Self::L1 {
        let mut buf = [0.0f32; CHUNK];
        for (i, slot) in buf.iter_mut().enumerate() {
            let mut v = *src.add(i);
            if let Some((mean, dst)) = shift {
                v -= mean;
                *dst.add(i) = v;
            }
            *slot = if square { v * v } else { v };
        }
        let mut l1 = [0.0f32; TREE_WIDTH];
        for (slot, group) in l1.iter_mut().zip(buf.chunks_exact(TREE_WIDTH)) {
            *slot = tree8(group.try_into().expect("TREE_WIDTH-sized group"));
        }
        l1
    }

    // SAFETY: portable kernel — scalar adds only.
    #[inline(always)]
    unsafe fn chunk_sums(&self, l1: &[Self::L1; TREE_WIDTH]) -> [f32; TREE_WIDTH] {
        scalar_chunk_sums(l1)
    }

    // SAFETY: portable kernel — no target-specific instructions.
    #[inline(always)]
    unsafe fn iter_scales(
        &self,
        m: &[f32; ROW_LANES],
        steps: u32,
        sqrt_d: f32,
        scales: &mut [f32; ROW_LANES],
    ) {
        let mut a = [0.0f32; ROW_LANES];
        let mut lam = [0.0f32; ROW_LANES];
        for l in 0..ROW_LANES {
            // Seeds and rates are pure exponent-field bit arithmetic —
            // scalar per lane, exactly the functions the scalar engine
            // calls.
            a[l] = a0_from_exponent(HostF32(m[l])).0;
            lam[l] = lambda_from_exponent(HostF32(m[l])).0;
        }
        // normlint: kernel-begin
        for _ in 0..steps {
            // One `UpdateStyle::Separate` step per lane, in the macro's
            // operation order (`update_step` + the `a + Δa` apply).
            for l in 0..ROW_LANES {
                let t1 = m[l] * a[l];
                let t2 = t1 * a[l];
                let t3 = 1.0f32 - t2;
                let t4 = lam[l] * t1;
                a[l] += t4 * t3;
            }
        }
        // normlint: kernel-end
        for l in 0..ROW_LANES {
            scales[l] = a[l] * sqrt_d;
        }
    }
}

/// Portable-kernel entry (safe to run on any host; the `unsafe` is only
/// the shared [`RowReduce`] plumbing).
///
/// # Safety
///
/// No instruction requirements; shapes per [`process_block_rows`].
unsafe fn process_rows_portable(ctx: &RowCtx<'_>, x: Option<&[f32]>, o: &mut [f32]) {
    process_block_rows(&PortableReduce, ctx, x, o);
}

// --------------------------------------------------------------------
// x86-64 kernels.
// --------------------------------------------------------------------

#[cfg(target_arch = "x86_64")]
mod x86 {
    use core::arch::x86_64::{
        __m128, __m256, _mm256_add_ps, _mm256_loadu_ps, _mm256_mul_ps, _mm256_permute2f128_ps,
        _mm256_set1_ps, _mm256_shuffle_ps, _mm256_storeu_ps, _mm256_sub_ps, _mm_add_ps,
        _mm_loadu_ps, _mm_movehl_ps, _mm_movelh_ps, _mm_mul_ps, _mm_set1_ps, _mm_storeu_ps,
        _mm_sub_ps, _mm_unpackhi_ps, _mm_unpacklo_ps,
    };

    use softfloat::HostF32;

    use super::{process_block_rows, scalar_chunk_sums, RowCtx, RowReduce, ROW_LANES};
    use crate::hworder::TREE_WIDTH;
    use crate::iteration::{a0_from_exponent, lambda_from_exponent};

    /// One pair level of the adder trees: `_mm256_shuffle_ps` gathers the
    /// even and the odd lanes of `a` and `b` (per 128-bit half:
    /// `[a₀ a₂ b₀ b₂]` and `[a₁ a₃ b₁ b₃]`) and one add sums every
    /// adjacent pair, left operand first — `[a₀+a₁, a₂+a₃, b₀+b₁, b₂+b₃]`
    /// per half. No `vhaddps`: its operand order is not the tree's.
    ///
    /// # Safety
    ///
    /// Requires AVX.
    #[inline(always)]
    unsafe fn pair_sums(a: __m256, b: __m256) -> __m256 {
        let even = _mm256_shuffle_ps::<0b10_00_10_00>(a, b);
        let odd = _mm256_shuffle_ps::<0b11_01_11_01>(a, b);
        _mm256_add_ps(even, odd)
    }

    /// Eight 8-input adder trees at once: lane `k` of the result is
    /// `((v₀+v₁)+(v₂+v₃))+((v₄+v₅)+(v₆+v₇))` over the lanes of `r[k]`.
    /// Two pair levels leave, per 128-bit half, the `(v₀..v₃)` sums of
    /// four registers in the low half and their `(v₄..v₇)` sums in the
    /// high half; two `vperm2f128` line those halves up and the last add
    /// joins them. 14 shuffle µops in all, against 24 for a transpose.
    ///
    /// # Safety
    ///
    /// Requires AVX.
    #[inline(always)]
    unsafe fn tree8x8(r: &[__m256; TREE_WIDTH]) -> __m256 {
        // p0 = [g0:01 g0:23 g1:01 g1:23 | g0:45 g0:67 g1:45 g1:67], …
        let p0 = pair_sums(r[0], r[1]);
        let p1 = pair_sums(r[2], r[3]);
        let p2 = pair_sums(r[4], r[5]);
        let p3 = pair_sums(r[6], r[7]);
        // q0 = [g0:0-3 g1:0-3 g2:0-3 g3:0-3 | g0:4-7 g1:4-7 g2:4-7 g3:4-7].
        let q0 = pair_sums(p0, p1);
        let q1 = pair_sums(p2, p3);
        let lo = _mm256_permute2f128_ps::<0x20>(q0, q1);
        let hi = _mm256_permute2f128_ps::<0x31>(q0, q1);
        _mm256_add_ps(lo, hi)
    }

    /// Hardware-order L1 sums of one full 64-element chunk with SSE2: per
    /// quad of groups, transpose the 4 low halves and the 4 high halves
    /// (4×4 each), run the tree vertically, and sum low + high per lane.
    ///
    /// # Safety
    ///
    /// Requires SSE2 (the x86-64 baseline); pointers per
    /// [`RowReduce::chunk_l1`].
    #[inline(always)]
    unsafe fn sse2_chunk_l1(
        p: *const f32,
        shift: Option<(f32, *mut f32)>,
        square: bool,
    ) -> [f32; TREE_WIDTH] {
        // SAFETY: SSE2 shuffle/unpack only, same baseline the enclosing fn requires.
        #[inline(always)]
        unsafe fn transpose4(r0: __m128, r1: __m128, r2: __m128, r3: __m128) -> [__m128; 4] {
            let t0 = _mm_unpacklo_ps(r0, r1);
            let t1 = _mm_unpacklo_ps(r2, r3);
            let t2 = _mm_unpackhi_ps(r0, r1);
            let t3 = _mm_unpackhi_ps(r2, r3);
            [
                _mm_movelh_ps(t0, t1),
                _mm_movehl_ps(t1, t0),
                _mm_movelh_ps(t2, t3),
                _mm_movehl_ps(t3, t2),
            ]
        }
        // SAFETY: SSE2 load/sub/store/mul; pointers per the enclosing fn.
        #[inline(always)]
        unsafe fn load(
            p: *const f32,
            at: usize,
            shift: Option<(f32, *mut f32)>,
            square: bool,
        ) -> __m128 {
            let mut v = _mm_loadu_ps(p.add(at));
            if let Some((mean, dst)) = shift {
                v = _mm_sub_ps(v, _mm_set1_ps(mean));
                _mm_storeu_ps(dst.add(at), v);
            }
            if square {
                _mm_mul_ps(v, v)
            } else {
                v
            }
        }
        let mut groups = [0.0f32; TREE_WIDTH];
        for quad in 0..2 {
            let mut lo = [_mm_set1_ps(0.0); 4];
            let mut hi = [_mm_set1_ps(0.0); 4];
            for i in 0..4 {
                let g = quad * 4 + i;
                lo[i] = load(p, TREE_WIDTH * g, shift, square);
                hi[i] = load(p, TREE_WIDTH * g + 4, shift, square);
            }
            let cl = transpose4(lo[0], lo[1], lo[2], lo[3]);
            let ch = transpose4(hi[0], hi[1], hi[2], hi[3]);
            // Lane i = group 4·quad+i: ((v0+v1)+(v2+v3)) + ((v4+v5)+(v6+v7)).
            let lo_sum = _mm_add_ps(_mm_add_ps(cl[0], cl[1]), _mm_add_ps(cl[2], cl[3]));
            let hi_sum = _mm_add_ps(_mm_add_ps(ch[0], ch[1]), _mm_add_ps(ch[2], ch[3]));
            _mm_storeu_ps(
                groups.as_mut_ptr().add(quad * 4),
                _mm_add_ps(lo_sum, hi_sum),
            );
        }
        groups
    }

    struct Avx2Reduce;

    impl RowReduce for Avx2Reduce {
        type L1 = __m256;
        // SAFETY: `__m256` is eight plain `f32`s with no invalid bit
        // patterns, so the all-zero array is a valid value of it.
        const L1_ZERO: __m256 = unsafe { core::mem::transmute([0.0f32; TREE_WIDTH]) };

        // SAFETY: AVX load/sub/store/mul plus the pair tree, under the
        // caller's AVX2+FMA guarantee; pointers per the trait contract.
        #[inline(always)]
        unsafe fn chunk_l1(
            &self,
            src: *const f32,
            shift: Option<(f32, *mut f32)>,
            square: bool,
        ) -> __m256 {
            let mut r = [Self::L1_ZERO; TREE_WIDTH];
            for (k, reg) in r.iter_mut().enumerate() {
                let mut v = _mm256_loadu_ps(src.add(TREE_WIDTH * k));
                if let Some((mean, dst)) = shift {
                    v = _mm256_sub_ps(v, _mm256_set1_ps(mean));
                    _mm256_storeu_ps(dst.add(TREE_WIDTH * k), v);
                }
                *reg = if square { _mm256_mul_ps(v, v) } else { v };
            }
            // Register k holds group k, so lane g of the result is L1 tree g.
            tree8x8(&r)
        }

        // SAFETY: the pair tree and one store, under the caller's AVX2 guarantee.
        #[inline(always)]
        unsafe fn chunk_sums(&self, l1: &[__m256; TREE_WIDTH]) -> [f32; TREE_WIDTH] {
            // Register c holds chunk c's L1 sums, so lane c of the same
            // tree is chunk c's L2 tree.
            let mut sums = [0.0f32; TREE_WIDTH];
            _mm256_storeu_ps(sums.as_mut_ptr(), tree8x8(l1));
            sums
        }

        // SAFETY: AVX2 lanewise mul/add/sub only, under the caller’s AVX2 guarantee.
        #[inline(always)]
        unsafe fn iter_scales(
            &self,
            m: &[f32; ROW_LANES],
            steps: u32,
            sqrt_d: f32,
            scales: &mut [f32; ROW_LANES],
        ) {
            let (a, lam) = seed_lanes(m);
            let mv = _mm256_loadu_ps(m.as_ptr());
            let lv = _mm256_loadu_ps(lam.as_ptr());
            let mut av = _mm256_loadu_ps(a.as_ptr());
            let one = _mm256_set1_ps(1.0);
            // normlint: kernel-begin
            for _ in 0..steps {
                // `UpdateStyle::Separate`, one row per lane: explicit
                // mul/sub/mul/mul then add — never an FMA, so the
                // rounding sequence matches the scalar update exactly.
                let t1 = _mm256_mul_ps(mv, av);
                let t2 = _mm256_mul_ps(t1, av);
                let t3 = _mm256_sub_ps(one, t2);
                let t4 = _mm256_mul_ps(lv, t1);
                av = _mm256_add_ps(av, _mm256_mul_ps(t4, t3));
            }
            // normlint: kernel-end
            av = _mm256_mul_ps(av, _mm256_set1_ps(sqrt_d));
            _mm256_storeu_ps(scales.as_mut_ptr(), av);
        }
    }

    struct Sse2Reduce;

    impl RowReduce for Sse2Reduce {
        type L1 = [f32; TREE_WIDTH];
        const L1_ZERO: Self::L1 = [0.0; TREE_WIDTH];

        // SAFETY: forwards to `sse2_chunk_l1` (x86-64 baseline); pointers per the trait contract.
        #[inline(always)]
        unsafe fn chunk_l1(
            &self,
            src: *const f32,
            shift: Option<(f32, *mut f32)>,
            square: bool,
        ) -> Self::L1 {
            sse2_chunk_l1(src, shift, square)
        }

        // SAFETY: scalar adds only.
        #[inline(always)]
        unsafe fn chunk_sums(&self, l1: &[Self::L1; TREE_WIDTH]) -> [f32; TREE_WIDTH] {
            scalar_chunk_sums(l1)
        }

        // SAFETY: SSE2 lanewise ops only (x86-64 baseline).
        #[inline(always)]
        unsafe fn iter_scales(
            &self,
            m: &[f32; ROW_LANES],
            steps: u32,
            sqrt_d: f32,
            scales: &mut [f32; ROW_LANES],
        ) {
            let (a, lam) = seed_lanes(m);
            // 8-row blocks as two 4-lane registers: 4 independent rows
            // per register, same lanewise operation order.
            let one = _mm_set1_ps(1.0);
            let sd = _mm_set1_ps(sqrt_d);
            for half in 0..2 {
                let off = half * 4;
                let mv = _mm_loadu_ps(m.as_ptr().add(off));
                let lv = _mm_loadu_ps(lam.as_ptr().add(off));
                let mut av = _mm_loadu_ps(a.as_ptr().add(off));
                // normlint: kernel-begin
                for _ in 0..steps {
                    let t1 = _mm_mul_ps(mv, av);
                    let t2 = _mm_mul_ps(t1, av);
                    let t3 = _mm_sub_ps(one, t2);
                    let t4 = _mm_mul_ps(lv, t1);
                    av = _mm_add_ps(av, _mm_mul_ps(t4, t3));
                }
                // normlint: kernel-end
                _mm_storeu_ps(scales.as_mut_ptr().add(off), _mm_mul_ps(av, sd));
            }
        }
    }

    /// Per-lane seed `a₀` and rate λ from the exponent-field bit rules —
    /// scalar bit arithmetic, shared by both x86 iteration kernels.
    #[inline(always)]
    fn seed_lanes(m: &[f32; ROW_LANES]) -> ([f32; ROW_LANES], [f32; ROW_LANES]) {
        let mut a = [0.0f32; ROW_LANES];
        let mut lam = [0.0f32; ROW_LANES];
        for l in 0..ROW_LANES {
            a[l] = a0_from_exponent(HostF32(m[l])).0;
            lam[l] = lambda_from_exponent(HostF32(m[l])).0;
        }
        (a, lam)
    }

    /// AVX2+FMA entry: the whole block pipeline compiles inside this
    /// `target_feature` context, so the elementwise stages autovectorize
    /// at 8 lanes too (lanewise ops — bit-safe under any width).
    ///
    /// # Safety
    ///
    /// The host must support AVX2 and FMA; shapes per
    /// [`process_block_rows`].
    #[target_feature(enable = "avx2,fma")]
    pub(super) unsafe fn process_rows_avx2(ctx: &RowCtx<'_>, x: Option<&[f32]>, o: &mut [f32]) {
        process_block_rows(&Avx2Reduce, ctx, x, o);
    }

    /// SSE2 entry (the x86-64 floor — every x86-64 host runs this).
    ///
    /// # Safety
    ///
    /// The host must support SSE2 (always true on x86-64); shapes per
    /// [`process_block_rows`].
    #[target_feature(enable = "sse2")]
    pub(super) unsafe fn process_rows_sse2(ctx: &RowCtx<'_>, x: Option<&[f32]>, o: &mut [f32]) {
        process_block_rows(&Sse2Reduce, ctx, x, o);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::MethodSpec;
    use crate::hworder::{linear_sum, linear_sum_sq};
    use softfloat::Float;

    #[test]
    fn level_parsing_round_trips_case_insensitively() {
        for level in SimdLevel::ALL {
            assert_eq!(SimdLevel::parse(level.name()), Some(level));
            assert_eq!(
                SimdLevel::parse(level.name().to_uppercase().as_str()),
                Some(level)
            );
            assert_eq!(level.to_string(), level.name());
        }
        assert_eq!(SimdLevel::parse("AVX2"), Some(SimdLevel::Avx2));
        for text in ["", "avx512", "sse", "neon", " auto", "auto "] {
            assert_eq!(SimdLevel::parse(text), None, "{text:?} must be rejected");
        }
        assert_eq!(SimdLevel::default(), SimdLevel::Auto);
    }

    #[test]
    fn auto_always_resolves() {
        // Auto must never error, on either backend kind.
        assert!(resolve(SimdLevel::Auto, BackendKind::Native)
            .unwrap()
            .is_some());
        assert!(resolve(SimdLevel::Auto, BackendKind::Emulated)
            .unwrap()
            .is_none());
        assert!(resolve(SimdLevel::Scalar, BackendKind::Native)
            .unwrap()
            .is_none());
    }

    #[test]
    fn emulated_rejects_forced_vector_levels() {
        for level in [SimdLevel::Portable, SimdLevel::Sse2, SimdLevel::Avx2] {
            assert_eq!(
                resolve(level, BackendKind::Emulated).unwrap_err(),
                NormError::SimdUnsupported {
                    level: level.name(),
                    backend: "emulated",
                }
            );
        }
    }

    #[test]
    fn resolved_kernels_report_their_own_level() {
        assert_eq!(SimdKernel::Portable.level(), SimdLevel::Portable);
        assert_eq!(SimdKernel::Sse2.level(), SimdLevel::Sse2);
        assert_eq!(SimdKernel::Avx2.level(), SimdLevel::Avx2);
    }

    /// `len` rounding-sensitive values with ±0 and subnormals mixed in.
    fn sample_row(len: usize) -> Vec<f32> {
        (0..len)
            .map(|i| {
                let base = ((i * 37 + 11) % 101) as f32 / 17.0 - 2.0;
                if i % 9 == 0 {
                    -0.0
                } else if i % 7 == 0 {
                    f32::from_bits(i as u32 + 1) // subnormal
                } else {
                    base + (i as f32) * 5.0e-8
                }
            })
            .collect()
    }

    /// The portable tier's two reduction passes over `vals`: the row sum,
    /// and the fused stage at `mean` (its sum of squares and the shifted
    /// row it stores).
    fn portable_passes(vals: &[f32], mean: f32, reduce: ReduceOrder) -> (f32, f32, Vec<f32>) {
        let mut shifted = vec![f32::NAN; vals.len()];
        let mut walk = ChunkWalk::new();
        // SAFETY: the portable kernel has no instruction requirements; the
        // pointers cover `vals.len()` elements of two live buffers.
        unsafe {
            let sum = reduce_row(
                &PortableReduce,
                &mut walk,
                vals.as_ptr(),
                None,
                vals.len(),
                reduce,
            );
            let sum_sq = reduce_row(
                &PortableReduce,
                &mut walk,
                vals.as_ptr(),
                Some((mean, shifted.as_mut_ptr())),
                vals.len(),
                reduce,
            );
            (sum, sum_sq, shifted)
        }
    }

    #[test]
    fn portable_chunk_matches_scalar_hworder_bitwise() {
        use crate::hworder::{hw_sum, hw_sum_sq};
        // Every chunk length (remainder straddling both tree levels),
        // then rows whose chunk count straddles the eight-chunk L2 batch
        // and the partial-sum fold levels.
        let lens = [1usize, 2, 7, 8, 9, 15, 16, 17, 33, 63, 64];
        for len in lens.into_iter().chain([65, 448, 511, 512, 513, 576, 4097]) {
            let vals = sample_row(len);
            let host: Vec<HostF32> = vals.iter().map(|&v| HostF32(v)).collect();
            let mean = 0.375f32;
            let (sum, sum_sq, shifted) = portable_passes(&vals, mean, ReduceOrder::HwTree);
            assert_eq!(sum.to_bits(), hw_sum(&host).0.to_bits(), "sum len {len}");
            let want: Vec<HostF32> = host.iter().map(|&v| v - HostF32(mean)).collect();
            let got: Vec<u32> = shifted.iter().map(|v| v.to_bits()).collect();
            let want_bits: Vec<u32> = want.iter().map(|v| v.0.to_bits()).collect();
            assert_eq!(got, want_bits, "shifted row len {len}");
            assert_eq!(
                sum_sq.to_bits(),
                hw_sum_sq(&want).0.to_bits(),
                "sum_sq len {len}"
            );
            let (lin, lin_sq, lin_shifted) = portable_passes(&vals, mean, ReduceOrder::Linear);
            assert_eq!(
                lin.to_bits(),
                linear_sum(&host).0.to_bits(),
                "linear len {len}"
            );
            assert_eq!(
                lin_sq.to_bits(),
                linear_sum_sq(&want).0.to_bits(),
                "linear sum_sq len {len}"
            );
            assert_eq!(lin_shifted, shifted, "linear shifted row len {len}");
        }
    }

    #[test]
    fn chunk_fold_matches_fold_partials_bitwise() {
        use crate::hworder::fold_partials;
        // All −0 partial sums stay −0 only through full trees and the
        // one-value return, so they pin the padding rules; the mixed sums
        // pin the operand order.
        let mut fold = ChunkFold::new();
        for n in (0usize..=600).chain([4095, 4096, 4097, 32_768, 32_769]) {
            for negative_zero in [false, true] {
                let sums: Vec<f32> = (0..n)
                    .map(|i| {
                        if negative_zero {
                            -0.0
                        } else {
                            ((i * 73 + 5) % 251) as f32 / 41.0 - 3.0 + (i as f32) * 3.0e-8
                        }
                    })
                    .collect();
                let mut partials: Vec<HostF32> = sums.iter().map(|&v| HostF32(v)).collect();
                let want = fold_partials(&mut partials).0;
                // Push in batches of up to eight, as `reduce_row` does,
                // into one fold reset per row like the kernels reuse it.
                fold.reset();
                for batch in sums.chunks(TREE_WIDTH) {
                    fold.push_all(batch);
                }
                assert_eq!(
                    fold.finish().to_bits(),
                    want.to_bits(),
                    "n {n} negative_zero {negative_zero}"
                );
            }
        }
    }

    #[cfg(target_arch = "x86_64")]
    #[test]
    fn x86_kernels_match_portable_reduction_bitwise() {
        // The x86 kernels (pair tree, eight-chunk L2 tree, fused shift)
        // must give the portable (== scalar) reduction's rows for every
        // row length, including padded tails and partial L2 batches.
        for d in [
            1usize, 7, 8, 9, 63, 64, 65, 127, 129, 384, 448, 500, 511, 512, 513, 4097,
        ] {
            let clean: Vec<u32> = (0..d)
                .map(|i| (((i * 73 + 5) % 251) as f32 / 41.0 - 3.0 + (i as f32) * 3.0e-8).to_bits())
                .collect();
            let mut bits = clean;
            bits.extend(edge_rows(3, d));
            bits.extend(std::iter::repeat_n((-0.0f32).to_bits(), d));
            for reduce in [ReduceOrder::HwTree, ReduceOrder::Linear] {
                let plan = NormPlan::<HostF32>::new(d).unwrap().with_reduce(reduce);
                let spec = MethodSpec::iterl2(5);
                let method = spec.build::<HostF32>();
                let run = |kernel| {
                    let simd = SimdNative::new(kernel, &plan, &method);
                    let mut out = vec![0u32; bits.len()];
                    simd.normalize_batch(&plan, &method, &bits, &mut out, 1)
                        .unwrap();
                    out
                };
                let portable = run(SimdKernel::Portable);
                let mut engine =
                    crate::engine::Normalizer::for_plan(spec.build::<HostF32>(), &plan);
                let decoded: Vec<HostF32> = bits.iter().map(|&b| HostF32::from_bits(b)).collect();
                let mut out_scalar = vec![HostF32(0.0); bits.len()];
                engine
                    .normalize_batch(&plan, &decoded, &mut out_scalar)
                    .unwrap();
                let scalar: Vec<u32> = out_scalar.iter().map(|v| v.to_bits()).collect();
                for kernel in [SimdKernel::Sse2, SimdKernel::Avx2] {
                    if kernel == SimdKernel::Avx2 && !host_has_avx2_fma() {
                        eprintln!("skipping avx2 reduction check: host lacks avx2+fma");
                        continue;
                    }
                    let out = run(kernel);
                    for (i, ((&got, &want), &oracle)) in
                        out.iter().zip(&portable).zip(&scalar).enumerate()
                    {
                        // A row mixing ∞ − ∞ with an input NaN carries
                        // whichever payload an add's first operand held,
                        // and LLVM may commute scalar adds: only the NaN
                        // itself is pinned there, not its payload.
                        let nan = |b: u32| f32::from_bits(b).is_nan();
                        for (reference, name) in [(want, "portable"), (oracle, "scalar")] {
                            assert!(
                                got == reference || (nan(got) && nan(reference)),
                                "kernel {kernel:?} vs {name}: d {d} {reduce:?} row {} element {}: {got:#010x} vs {reference:#010x}",
                                i / d,
                                i % d
                            );
                        }
                    }
                }
            }
        }
    }

    /// Row `r` of a `rows × d` batch: ordinary values with ±0 and
    /// subnormals mixed in; every third row also carries ±∞ or NaN.
    fn edge_rows(rows: usize, d: usize) -> Vec<u32> {
        (0..rows * d)
            .map(|i| {
                let (r, j) = (i / d, i % d);
                let v = match (r % 3, j % 11) {
                    (2, 3) => [f32::INFINITY, f32::NEG_INFINITY, f32::NAN][(r / 3 + j) % 3],
                    (_, 1) => -0.0,
                    (_, 2) => 0.0,
                    (_, 5) => f32::from_bits(1 + (i as u32 % 977)), // subnormal
                    (_, 7) => -f32::from_bits(0x0040_0000 + i as u32 % 4096),
                    _ => ((i * 37 + 11) % 101) as f32 / 17.0 - 2.0 + r as f32 * 0.25,
                };
                v.to_bits()
            })
            .collect()
    }

    #[test]
    fn in_place_matches_out_of_place_bit_for_bit() {
        use crate::backend::{build_backend_affine, FormatKind};
        use crate::executor::{ScopedRunner, SerialRunner};
        let levels: Vec<SimdLevel> = [
            SimdLevel::Scalar,
            SimdLevel::Portable,
            SimdLevel::Sse2,
            SimdLevel::Avx2,
        ]
        .into_iter()
        .filter(|&level| resolve(level, BackendKind::Native).is_ok())
        .collect();
        assert!(levels.len() >= 2, "the scalar engine and a vector tier");
        let methods = [MethodSpec::iterl2(5), MethodSpec::Fisr { newton: 1 }];
        for d in [1usize, 63, 64, 65, 448, 511, 512, 513, 768, 4096, 4097] {
            let gamma: Vec<u32> = (0..d).map(|j| (1.0 + j as f32 * 1e-3).to_bits()).collect();
            let beta: Vec<u32> = (0..d).map(|j| (j as f32 * 1e-4 - 0.5).to_bits()).collect();
            for rows in [1usize, 7, 8, 9, 17] {
                let input = edge_rows(rows, d);
                // Uneven segments, so blocks and parts straddle them.
                let cuts: Vec<usize> = [0, rows / 3, rows / 3 + rows.div_ceil(2), rows]
                    .into_iter()
                    .map(|r| r.min(rows) * d)
                    .collect();
                for (affine, reduce, spec, &level) in [false, true]
                    .into_iter()
                    .flat_map(|a| [ReduceOrder::HwTree, ReduceOrder::Linear].map(|r| (a, r)))
                    .flat_map(|(a, r)| methods.map(|m| (a, r, m)))
                    .flat_map(|(a, r, m)| levels.iter().map(move |l| (a, r, m, l)))
                {
                    let (g, b) = if affine {
                        (Some(&gamma[..]), Some(&beta[..]))
                    } else {
                        (None, None)
                    };
                    let mut backend = build_backend_affine(
                        BackendKind::Native,
                        FormatKind::Fp32,
                        d,
                        &spec,
                        reduce,
                        g,
                        b,
                        level,
                    )
                    .unwrap();
                    let runners: [&dyn PartitionRunner; 2] = [&SerialRunner, &ScopedRunner(3)];
                    for runner in runners {
                        let mut expect = vec![0u32; input.len()];
                        backend
                            .normalize_batch_runner(&input, &mut expect, runner)
                            .unwrap();
                        let mut got = input.clone();
                        let mut segments: Vec<&mut [u32]> = Vec::new();
                        let mut rest = got.as_mut_slice();
                        for w in cuts.windows(2) {
                            let (head, tail) = rest.split_at_mut(w[1] - w[0]);
                            segments.push(head);
                            rest = tail;
                        }
                        let served = backend
                            .normalize_in_place_runner(&mut segments, runner)
                            .unwrap();
                        assert_eq!(served, rows);
                        assert_eq!(
                            got,
                            expect,
                            "{level:?} d {d} rows {rows} affine {affine} {reduce:?} {spec:?} width {}",
                            runner.width()
                        );
                    }
                }
            }
        }
    }
}
