//! SIMD execution tier for the native-f32 backend.
//!
//! The generic engine ([`Normalizer`](crate::Normalizer) over
//! [`softfloat::HostF32`]) executes one scalar lane at a time. This module
//! adds vector kernels that run the *identical* float operation DAG — and
//! therefore produce identical bits — across multiple lanes at once:
//!
//! * **Reduction kernel**: the hardware-order sum / sum-of-squares
//!   ([`crate::hworder`]) is already shaped like a SIMD reduction — eight
//!   8-input L1 adder trees per 64-element chunk, then one L2 tree. An
//!   8×8 register transpose turns the eight L1 trees into *lanewise*
//!   vector adds (lane `g` of the accumulator is exactly L1 tree `g`),
//!   so the operation tree is unchanged, only executed eight trees at a
//!   time. Short tail chunks are padded with `+0.0`: the scalar path
//!   substitutes `+0` for every missing tree input and leaves
//!   fully-empty L1 slots at `+0`, and `+0 + +0 = +0` under
//!   round-to-nearest-even, so the padded full-width kernel reproduces
//!   the scalar short-chunk semantics bit for bit.
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
//! order already brackets that way. The oracle suite
//! (`tests/backend_bit_identity.rs`) enforces SIMD ≡ scalar ≡ emulated
//! for every method × dimension × reduce order × forced level.
#![allow(unsafe_code)]

use core::fmt;

use softfloat::HostF32;
use std::sync::{Mutex, PoisonError};

use crate::backend::{check_segments, BackendKind};
use crate::config::{IterConfig, StopRule};
use crate::engine::{split_segments, worker_rows, NormPlan, ScaleMethod};
use crate::error::NormError;
use crate::executor::PartitionRunner;
use crate::hworder::{fold_partials, ReduceOrder, CHUNK, TREE_WIDTH};
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

/// One kernel tier: the row reductions plus the multi-row iteration.
///
/// Methods are `unsafe` because implementations may use instructions the
/// host must support — callers reach them only through the dispatch in
/// [`SimdNative::process_rows`], which guarantees the kernel was
/// runtime-resolved for this host.
trait RowReduce {
    /// Row sum in the plan's reduce order (hwtree chunk sums through this
    /// kernel, linear stays a scalar left-to-right fold — a loop-carried
    /// dependence no bit-preserving vectorization can break).
    ///
    /// # Safety
    ///
    /// Callable only on a host that supports the implementing kernel's
    /// instruction set (`resolve` guarantees the match).
    unsafe fn sum(&self, x: &[f32], scratch: &mut Vec<HostF32>, reduce: ReduceOrder) -> f32;

    /// Row sum of squares, same contract as [`RowReduce::sum`].
    ///
    /// # Safety
    ///
    /// Same contract as [`RowReduce::sum`].
    unsafe fn sum_sq(&self, x: &[f32], scratch: &mut Vec<HostF32>, reduce: ReduceOrder) -> f32;

    /// The fixed-step IterL2Norm iteration for [`ROW_LANES`] independent
    /// rows, one per lane: seeds and rates come from the scalar bit-field
    /// rules (`a0_from_exponent` / `lambda_from_exponent`), the update
    /// steps run lanewise, and `scales[l] = a∞[l] · √d`.
    ///
    /// # Safety
    ///
    /// Same contract as [`RowReduce::sum`].
    unsafe fn iter_scales(
        &self,
        m: &[f32; ROW_LANES],
        steps: u32,
        sqrt_d: f32,
        scales: &mut [f32; ROW_LANES],
    );
}

/// The block pipeline every kernel runs: for up to [`ROW_LANES`] rows,
/// (1) per-row mean via the kernel's reduction, (2) mean shift, (3)
/// per-row `m = ‖y‖²`, (4) the scale — lanewise iteration for the
/// standard IterL2Norm, per-row [`RsqrtScale`] otherwise — then (5)
/// scale/γ/β application. The stage order and per-stage loops mirror
/// `normalize_row_into` exactly; unused lanes are padded with `m = 1`
/// (lane independence: their results are simply never stored).
///
/// With `x = None` the pipeline runs in place: stages (1)–(2) read the
/// row from `o`, which already holds the input. Every later stage reads
/// `o` in both modes, so each element sees the same operation chain.
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
    let mut scratch: Vec<HostF32> = Vec::with_capacity(d.div_ceil(CHUNK));
    for (bi, ob) in o.chunks_mut(block).enumerate() {
        let n = ob.len() / d;
        // Pad unused lanes with a benign finite m: the iteration runs on
        // them (lanewise, independently) and the result is discarded.
        let mut m = [1.0f32; ROW_LANES];
        for ri in 0..n {
            let or = &mut ob[ri * d..(ri + 1) * d];
            match x {
                Some(x) => {
                    let xr = &x[bi * block + ri * d..][..d];
                    let mean = r.sum(xr, &mut scratch, ctx.reduce) * ctx.inv_d;
                    for (slot, &xi) in or.iter_mut().zip(xr) {
                        *slot = xi - mean;
                    }
                }
                None => {
                    let mean = r.sum(or, &mut scratch, ctx.reduce) * ctx.inv_d;
                    for slot in or.iter_mut() {
                        *slot -= mean;
                    }
                }
            }
            m[ri] = r.sum_sq(or, &mut scratch, ctx.reduce);
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
        for ri in 0..n {
            let or = &mut ob[ri * d..(ri + 1) * d];
            let s = scales[ri];
            for v in or.iter_mut() {
                *v *= s;
            }
            if let Some(g) = ctx.gamma {
                for (v, &gi) in or.iter_mut().zip(g) {
                    *v *= gi;
                }
            }
            if let Some(b) = ctx.beta {
                for (v, &bi) in or.iter_mut().zip(b) {
                    *v += bi;
                }
            }
        }
    }
}

/// Scalar left-to-right fold — [`ReduceOrder::Linear`]'s order is a
/// loop-carried chain, identical on every kernel tier.
#[inline(always)]
fn linear_sum_f32(x: &[f32]) -> f32 {
    x.iter().fold(0.0f32, |acc, &v| acc + v)
}

/// Scalar left-to-right sum of squares (`acc + v·v`, per element).
#[inline(always)]
fn linear_sum_sq_f32(x: &[f32]) -> f32 {
    x.iter().fold(0.0f32, |acc, &v| acc + v * v)
}

/// Fold hwtree chunk sums exactly like the scalar engine: the partial
/// sums pass through `fold_partials`, the same 8-input tree fold.
#[inline(always)]
fn fold_chunk_sums(scratch: &mut Vec<HostF32>) -> f32 {
    fold_partials(scratch).0
}

// --------------------------------------------------------------------
// Portable kernel: fixed-width chunks in plain Rust. The explicit
// 8-group structure below is the same shape the x86 kernels implement
// with shuffles, laid out so the autovectorizer can widen it on any
// architecture — and it is the fallback semantics the oracle tests pin.
// --------------------------------------------------------------------

/// Hardware-order sum of one ≤ 64-element chunk: pad to full width with
/// `+0.0` (bit-identical to the scalar short-chunk handling, see the
/// module docs), optionally square, then eight L1 trees and one L2 tree.
#[inline(always)]
fn portable_chunk(chunk: &[f32], square: bool) -> f32 {
    let mut buf = [0.0f32; CHUNK];
    buf[..chunk.len()].copy_from_slice(chunk);
    if square {
        for v in buf.iter_mut() {
            *v = *v * *v;
        }
    }
    let mut l1 = [0.0f32; TREE_WIDTH];
    for (g, slot) in l1.iter_mut().enumerate() {
        let b = &buf[g * TREE_WIDTH..(g + 1) * TREE_WIDTH];
        *slot = ((b[0] + b[1]) + (b[2] + b[3])) + ((b[4] + b[5]) + (b[6] + b[7]));
    }
    ((l1[0] + l1[1]) + (l1[2] + l1[3])) + ((l1[4] + l1[5]) + (l1[6] + l1[7]))
}

struct PortableReduce;

impl RowReduce for PortableReduce {
    // SAFETY: portable kernel — no target-specific instructions.
    #[inline(always)]
    unsafe fn sum(&self, x: &[f32], scratch: &mut Vec<HostF32>, reduce: ReduceOrder) -> f32 {
        match reduce {
            ReduceOrder::Linear => linear_sum_f32(x),
            ReduceOrder::HwTree => {
                scratch.clear();
                scratch.extend(x.chunks(CHUNK).map(|c| HostF32(portable_chunk(c, false))));
                fold_chunk_sums(scratch)
            }
        }
    }

    // SAFETY: portable kernel — no target-specific instructions.
    #[inline(always)]
    unsafe fn sum_sq(&self, x: &[f32], scratch: &mut Vec<HostF32>, reduce: ReduceOrder) -> f32 {
        match reduce {
            ReduceOrder::Linear => linear_sum_sq_f32(x),
            ReduceOrder::HwTree => {
                scratch.clear();
                scratch.extend(x.chunks(CHUNK).map(|c| HostF32(portable_chunk(c, true))));
                fold_chunk_sums(scratch)
            }
        }
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
        __m128, _mm256_add_ps, _mm256_loadu_ps, _mm256_mul_ps, _mm256_permute2f128_ps,
        _mm256_set1_ps, _mm256_shuffle_ps, _mm256_storeu_ps, _mm256_sub_ps, _mm256_unpackhi_ps,
        _mm256_unpacklo_ps, _mm_add_ps, _mm_loadu_ps, _mm_movehl_ps, _mm_movelh_ps, _mm_mul_ps,
        _mm_set1_ps, _mm_storeu_ps, _mm_sub_ps, _mm_unpackhi_ps, _mm_unpacklo_ps,
    };

    use softfloat::HostF32;

    use super::{
        linear_sum_f32, linear_sum_sq_f32, process_block_rows, RowCtx, RowReduce, ROW_LANES,
    };
    use crate::hworder::{fold_partials, ReduceOrder, CHUNK, TREE_WIDTH};
    use crate::iteration::{a0_from_exponent, lambda_from_exponent};

    /// Hardware-order sum of one full 64-element chunk with AVX2: load
    /// the eight 8-element groups into eight registers, transpose 8×8 so
    /// lane `g` of column `j` holds element `j` of group `g`, then run
    /// the L1 tree *vertically* — every `vaddps` performs the eight L1
    /// adds of one tree level, lanewise, in the scalar operand order —
    /// and finish with the scalar L2 tree over the eight group sums.
    ///
    /// # Safety
    ///
    /// Requires AVX2; `p` must point at `CHUNK` readable `f32`s.
    #[inline(always)]
    unsafe fn avx2_chunk(p: *const f32, square: bool) -> f32 {
        let mut r = [_mm256_set1_ps(0.0); TREE_WIDTH];
        for (k, reg) in r.iter_mut().enumerate() {
            let v = _mm256_loadu_ps(p.add(TREE_WIDTH * k));
            *reg = if square { _mm256_mul_ps(v, v) } else { v };
        }
        // 8×8 transpose (unpack → shuffle → 128-bit permute): c[j] lane g
        // = chunk[8g + j].
        let t0 = _mm256_unpacklo_ps(r[0], r[1]);
        let t1 = _mm256_unpackhi_ps(r[0], r[1]);
        let t2 = _mm256_unpacklo_ps(r[2], r[3]);
        let t3 = _mm256_unpackhi_ps(r[2], r[3]);
        let t4 = _mm256_unpacklo_ps(r[4], r[5]);
        let t5 = _mm256_unpackhi_ps(r[4], r[5]);
        let t6 = _mm256_unpacklo_ps(r[6], r[7]);
        let t7 = _mm256_unpackhi_ps(r[6], r[7]);
        let s0 = _mm256_shuffle_ps::<0b01_00_01_00>(t0, t2);
        let s1 = _mm256_shuffle_ps::<0b11_10_11_10>(t0, t2);
        let s2 = _mm256_shuffle_ps::<0b01_00_01_00>(t1, t3);
        let s3 = _mm256_shuffle_ps::<0b11_10_11_10>(t1, t3);
        let s4 = _mm256_shuffle_ps::<0b01_00_01_00>(t4, t6);
        let s5 = _mm256_shuffle_ps::<0b11_10_11_10>(t4, t6);
        let s6 = _mm256_shuffle_ps::<0b01_00_01_00>(t5, t7);
        let s7 = _mm256_shuffle_ps::<0b11_10_11_10>(t5, t7);
        let c0 = _mm256_permute2f128_ps::<0x20>(s0, s4);
        let c1 = _mm256_permute2f128_ps::<0x20>(s1, s5);
        let c2 = _mm256_permute2f128_ps::<0x20>(s2, s6);
        let c3 = _mm256_permute2f128_ps::<0x20>(s3, s7);
        let c4 = _mm256_permute2f128_ps::<0x31>(s0, s4);
        let c5 = _mm256_permute2f128_ps::<0x31>(s1, s5);
        let c6 = _mm256_permute2f128_ps::<0x31>(s2, s6);
        let c7 = _mm256_permute2f128_ps::<0x31>(s3, s7);
        // L1 trees, lanewise: ((v0+v1)+(v2+v3)) + ((v4+v5)+(v6+v7)).
        let a0 = _mm256_add_ps(c0, c1);
        let a1 = _mm256_add_ps(c2, c3);
        let a2 = _mm256_add_ps(c4, c5);
        let a3 = _mm256_add_ps(c6, c7);
        let b0 = _mm256_add_ps(a0, a1);
        let b1 = _mm256_add_ps(a2, a3);
        let t = _mm256_add_ps(b0, b1);
        let mut groups = [0.0f32; TREE_WIDTH];
        _mm256_storeu_ps(groups.as_mut_ptr(), t);
        // The L2 tree over the eight group sums (scalar — 7 adds).
        ((groups[0] + groups[1]) + (groups[2] + groups[3]))
            + ((groups[4] + groups[5]) + (groups[6] + groups[7]))
    }

    /// Hardware-order sum of one full chunk with SSE2: per quad of
    /// groups, transpose the 4 low halves and the 4 high halves (4×4
    /// each), run the tree vertically, and sum low + high per lane.
    ///
    /// # Safety
    ///
    /// Requires SSE2 (the x86-64 baseline); `p` must point at `CHUNK`
    /// readable `f32`s.
    #[inline(always)]
    unsafe fn sse2_chunk(p: *const f32, square: bool) -> f32 {
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
        let mut groups = [0.0f32; TREE_WIDTH];
        for quad in 0..2 {
            let mut lo = [_mm_set1_ps(0.0); 4];
            let mut hi = [_mm_set1_ps(0.0); 4];
            for i in 0..4 {
                let g = quad * 4 + i;
                let l = _mm_loadu_ps(p.add(TREE_WIDTH * g));
                let h = _mm_loadu_ps(p.add(TREE_WIDTH * g + 4));
                lo[i] = if square { _mm_mul_ps(l, l) } else { l };
                hi[i] = if square { _mm_mul_ps(h, h) } else { h };
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
        ((groups[0] + groups[1]) + (groups[2] + groups[3]))
            + ((groups[4] + groups[5]) + (groups[6] + groups[7]))
    }

    /// A chunk-sum primitive, dispatched *statically*: the kernels must
    /// monomorphize and inline into the one `#[target_feature]` entry
    /// point — routing them through a function pointer would outline a
    /// copy without the feature attribute, turning every intrinsic inside
    /// into a real (non-inlined) call.
    trait ChunkSum {
        /// Hardware-order sum of one full 64-element chunk.
        ///
        /// # Safety
        ///
        /// `p` must point at `CHUNK` readable `f32`s, and the caller must
        /// hold the implementation's instruction requirements.
        unsafe fn chunk(p: *const f32, square: bool) -> f32;
    }

    /// Shared hwtree row reduction over a chunk-sum primitive: full
    /// chunks go straight to the kernel, the tail chunk is padded with
    /// `+0.0` (bit-identical, see the module docs), and the partial sums
    /// fold through the scalar engine's own `fold_partials`.
    ///
    /// # Safety
    ///
    /// Requires the `C` kernel's instruction set on the running host.
    #[inline(always)]
    unsafe fn hw_row_sum<C: ChunkSum>(x: &[f32], scratch: &mut Vec<HostF32>, square: bool) -> f32 {
        scratch.clear();
        let mut iter = x.chunks_exact(CHUNK);
        for full in &mut iter {
            scratch.push(HostF32(C::chunk(full.as_ptr(), square)));
        }
        let rem = iter.remainder();
        if !rem.is_empty() {
            let mut buf = [0.0f32; CHUNK];
            buf[..rem.len()].copy_from_slice(rem);
            scratch.push(HostF32(C::chunk(buf.as_ptr(), square)));
        }
        fold_partials(scratch).0
    }

    struct Avx2Chunk;

    impl ChunkSum for Avx2Chunk {
        // SAFETY: forwards to `avx2_chunk`; the caller holds the AVX2+FMA requirement.
        #[inline(always)]
        unsafe fn chunk(p: *const f32, square: bool) -> f32 {
            avx2_chunk(p, square)
        }
    }

    struct Sse2Chunk;

    impl ChunkSum for Sse2Chunk {
        // SAFETY: forwards to `sse2_chunk`; SSE2 is the x86-64 baseline.
        #[inline(always)]
        unsafe fn chunk(p: *const f32, square: bool) -> f32 {
            sse2_chunk(p, square)
        }
    }

    struct Avx2Reduce;

    impl RowReduce for Avx2Reduce {
        // SAFETY: linear path is scalar; hwtree forwards to the AVX2 chunk kernel under the caller’s AVX2+FMA guarantee.
        #[inline(always)]
        unsafe fn sum(&self, x: &[f32], scratch: &mut Vec<HostF32>, reduce: ReduceOrder) -> f32 {
            match reduce {
                ReduceOrder::Linear => linear_sum_f32(x),
                ReduceOrder::HwTree => hw_row_sum::<Avx2Chunk>(x, scratch, false),
            }
        }

        // SAFETY: linear path is scalar; hwtree forwards to the AVX2 chunk kernel under the caller’s AVX2+FMA guarantee.
        #[inline(always)]
        unsafe fn sum_sq(&self, x: &[f32], scratch: &mut Vec<HostF32>, reduce: ReduceOrder) -> f32 {
            match reduce {
                ReduceOrder::Linear => linear_sum_sq_f32(x),
                ReduceOrder::HwTree => hw_row_sum::<Avx2Chunk>(x, scratch, true),
            }
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
        // SAFETY: linear path is scalar; hwtree forwards to the SSE2 chunk kernel (x86-64 baseline).
        #[inline(always)]
        unsafe fn sum(&self, x: &[f32], scratch: &mut Vec<HostF32>, reduce: ReduceOrder) -> f32 {
            match reduce {
                ReduceOrder::Linear => linear_sum_f32(x),
                ReduceOrder::HwTree => hw_row_sum::<Sse2Chunk>(x, scratch, false),
            }
        }

        // SAFETY: linear path is scalar; hwtree forwards to the SSE2 chunk kernel (x86-64 baseline).
        #[inline(always)]
        unsafe fn sum_sq(&self, x: &[f32], scratch: &mut Vec<HostF32>, reduce: ReduceOrder) -> f32 {
            match reduce {
                ReduceOrder::Linear => linear_sum_sq_f32(x),
                ReduceOrder::HwTree => hw_row_sum::<Sse2Chunk>(x, scratch, true),
            }
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

    #[test]
    fn portable_chunk_matches_scalar_hworder_bitwise() {
        use crate::hworder::chunk_sum;
        // Every chunk length (remainder straddling both tree levels),
        // rounding-sensitive values, ±0 and subnormals.
        for len in [1usize, 2, 7, 8, 9, 15, 16, 17, 33, 63, 64] {
            let vals: Vec<f32> = (0..len)
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
                .collect();
            let host: Vec<HostF32> = vals.iter().map(|&v| HostF32(v)).collect();
            assert_eq!(
                portable_chunk(&vals, false).to_bits(),
                chunk_sum(&host).0.to_bits(),
                "sum len {len}"
            );
            let squared: Vec<HostF32> = host.iter().map(|&v| v * v).collect();
            assert_eq!(
                portable_chunk(&vals, true).to_bits(),
                chunk_sum(&squared).0.to_bits(),
                "sum_sq len {len}"
            );
        }
    }

    #[cfg(target_arch = "x86_64")]
    #[test]
    fn x86_kernels_match_portable_reduction_bitwise() {
        // The transpose kernels must equal the portable (== scalar) chunk
        // reduction for every row length, including padded tails.
        for d in [1usize, 7, 8, 9, 63, 64, 65, 127, 129, 384, 500] {
            let vals: Vec<f32> = (0..d)
                .map(|i| ((i * 73 + 5) % 251) as f32 / 41.0 - 3.0 + (i as f32) * 3.0e-8)
                .collect();
            let mut scratch = Vec::new();
            for square in [false, true] {
                // SAFETY: PortableReduce and Sse2-on-x86-64 have no
                // instruction requirements beyond the baseline.
                let want = unsafe {
                    if square {
                        PortableReduce.sum_sq(&vals, &mut scratch, ReduceOrder::HwTree)
                    } else {
                        PortableReduce.sum(&vals, &mut scratch, ReduceOrder::HwTree)
                    }
                };
                for kernel in [SimdKernel::Sse2, SimdKernel::Avx2] {
                    if kernel == SimdKernel::Avx2 && !host_has_avx2_fma() {
                        eprintln!("skipping avx2 reduction check: host lacks avx2+fma");
                        continue;
                    }
                    let simd = SimdNative {
                        kernel,
                        iter_steps: Some(5),
                        gamma: None,
                        beta: None,
                    };
                    // Drive one full row through the batch path and
                    // compare against the scalar engine instead of
                    // poking kernel internals.
                    let plan = NormPlan::<HostF32>::new(d).unwrap();
                    let spec = crate::engine::MethodSpec::iterl2(5);
                    let method = spec.build::<HostF32>();
                    let bits: Vec<u32> = vals.iter().map(|v| v.to_bits()).collect();
                    let mut out_simd = vec![0u32; d];
                    simd.normalize_batch(&plan, &method, &bits, &mut out_simd, 1)
                        .unwrap();
                    let mut engine =
                        crate::engine::Normalizer::for_plan(spec.build::<HostF32>(), &plan);
                    let decoded: Vec<HostF32> =
                        bits.iter().map(|&b| HostF32::from_bits(b)).collect();
                    let mut out_scalar = vec![HostF32(0.0); d];
                    engine
                        .normalize_batch(&plan, &decoded, &mut out_scalar)
                        .unwrap();
                    let scalar_bits: Vec<u32> = out_scalar.iter().map(|v| v.to_bits()).collect();
                    assert_eq!(out_simd, scalar_bits, "kernel {kernel:?} d {d}");
                    let _ = want; // reduction equality is subsumed by the row check
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
        for d in [1usize, 63, 64, 65, 768, 4096] {
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
