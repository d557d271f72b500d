//! Execution backends: *what* the engine computes (plans, reduction order,
//! scale methods) separated from *how* the arithmetic runs.
//!
//! Every format the paper evaluates is defined by the softfloat emulator —
//! that is the reference oracle, and for FP16/BF16 it is the only
//! implementation the host has. But `Fp32 = Sf<8, 23>` is exactly the
//! host's own IEEE binary32 with round-to-nearest-even, so the same
//! generic pipeline driven with [`softfloat::HostF32`] reproduces the
//! emulated FP32 results **bit for bit** at native speed (the equivalence
//! is proven operation-by-operation in `softfloat/tests/host_f32.rs` and
//! end-to-end in `tests/backend_bit_identity.rs`).
//!
//! * [`NormBackend`] — the object-safe execution interface: row-major
//!   batches of raw `u32` bit patterns in, normalized bit patterns out,
//!   with a worker-thread count. Bits are the lingua franca because the
//!   two implementations store values in different Rust types.
//! * [`Emulated<F>`](Emulated) — the softfloat path, available for every
//!   format and always the reference.
//! * [`NativeF32`] — the host-`f32` fast path, FP32 only.
//! * [`build_backend`] — the factory the CLI and benches use; it rejects
//!   impossible combinations ([`NormError::BackendFormatMismatch`]).
//!
//! # Example
//!
//! ```
//! use iterl2norm::backend::{build_backend, BackendKind, FormatKind};
//! use iterl2norm::{MethodSpec, ReduceOrder};
//!
//! # fn main() -> Result<(), iterl2norm::NormError> {
//! let d = 64;
//! let spec = MethodSpec::iterl2(5);
//! let mut emulated = build_backend(
//!     BackendKind::Emulated, FormatKind::Fp32, d, &spec, ReduceOrder::HwTree)?;
//! let mut native = build_backend(
//!     BackendKind::Native, FormatKind::Fp32, d, &spec, ReduceOrder::HwTree)?;
//!
//! let bits: Vec<u32> = (0..2 * d as u32).map(|i| (i % 127) << 16).collect();
//! let mut out_e = vec![0u32; bits.len()];
//! let mut out_n = vec![0u32; bits.len()];
//! emulated.normalize_batch_bits(&bits, &mut out_e, 1)?;
//! native.normalize_batch_bits(&bits, &mut out_n, 2)?;
//! assert_eq!(out_e, out_n); // bit-identical, any thread count
//! # Ok(())
//! # }
//! ```

use core::fmt;

use softfloat::{Bf16, Float, Fp16, Fp32, HostF32};

use crate::engine::{MethodSpec, NormPlan, Normalizer};
use crate::error::NormError;
use crate::executor::PartitionRunner;
use crate::hworder::ReduceOrder;
use crate::simd::{self, SimdKernel, SimdLevel, SimdNative};

/// Which arithmetic implementation executes the normalization pipeline.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum BackendKind {
    /// The bit-accurate softfloat emulator — every format, the reference.
    #[default]
    Emulated,
    /// Host `f32` hardware — FP32 only, bit-identical to the emulator.
    Native,
}

impl BackendKind {
    /// Both kinds, for sweeps and CLI help.
    pub const ALL: [BackendKind; 2] = [BackendKind::Emulated, BackendKind::Native];

    /// Parse a backend name (`"emulated"`/`"softfloat"`,
    /// `"native"`/`"native-f32"`), case-insensitively — CLI flags and
    /// config files should not care about `Native` vs `native`. Returns
    /// `None` for anything else.
    pub fn parse(text: &str) -> Option<Self> {
        match text.to_ascii_lowercase().as_str() {
            "emulated" | "softfloat" => Some(BackendKind::Emulated),
            "native" | "native-f32" => Some(BackendKind::Native),
            _ => None,
        }
    }

    /// Canonical name (`"emulated"` / `"native-f32"`).
    pub fn name(self) -> &'static str {
        match self {
            BackendKind::Emulated => "emulated",
            BackendKind::Native => "native-f32",
        }
    }
}

impl fmt::Display for BackendKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// The float formats the execution layer can be asked to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum FormatKind {
    /// IEEE binary32 (native fast path available).
    #[default]
    Fp32,
    /// IEEE binary16 (emulated only).
    Fp16,
    /// bfloat16 (emulated only).
    Bf16,
}

impl FormatKind {
    /// All formats, for sweeps and CLI help.
    pub const ALL: [FormatKind; 3] = [FormatKind::Fp32, FormatKind::Fp16, FormatKind::Bf16];

    /// Parse a format name (`"fp32"`, `"fp16"`, `"bf16"`; also accepts
    /// `"f32"`/`"bfloat16"`), case-insensitively — `"FP32"` and `"fp32"`
    /// name the same format. Returns `None` for anything else.
    pub fn parse(text: &str) -> Option<Self> {
        match text.to_ascii_lowercase().as_str() {
            "fp32" | "f32" => Some(FormatKind::Fp32),
            "fp16" | "f16" => Some(FormatKind::Fp16),
            "bf16" | "bfloat16" => Some(FormatKind::Bf16),
            _ => None,
        }
    }

    /// Round an `f64` into this format, returning the storage bit pattern
    /// — the type-erased counterpart of [`Float::from_f64`] +
    /// [`Float::to_bits`].
    pub fn encode_f64(self, value: f64) -> u32 {
        match self {
            FormatKind::Fp32 => Fp32::from_f64(value).to_bits(),
            FormatKind::Fp16 => Fp16::from_f64(value).to_bits(),
            FormatKind::Bf16 => Bf16::from_f64(value).to_bits(),
        }
    }

    /// Exact widening of a storage bit pattern to `f64` (lossless for
    /// every ≤ 32-bit format) — the type-erased counterpart of
    /// [`Float::from_bits`] + [`Float::to_f64`].
    pub fn decode_f64(self, bits: u32) -> f64 {
        match self {
            FormatKind::Fp32 => Fp32::from_bits(bits).to_f64(),
            FormatKind::Fp16 => Fp16::from_bits(bits).to_f64(),
            FormatKind::Bf16 => Bf16::from_bits(bits).to_f64(),
        }
    }

    /// Canonical display name (`"FP32"` / `"FP16"` / `"BF16"`, matching
    /// [`Float::NAME`] of the corresponding softfloat type).
    pub fn name(self) -> &'static str {
        match self {
            FormatKind::Fp32 => "FP32",
            FormatKind::Fp16 => "FP16",
            FormatKind::Bf16 => "BF16",
        }
    }
}

impl fmt::Display for FormatKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Compile-time mapping from a [`Float`] type to the `(backend, format)`
/// registry pair it executes: the bridge generic code (the transformer
/// model, benches) uses to build type-erased services for whatever format
/// parameter it was instantiated with. `HostF32` maps to the native
/// backend; the three softfloat formats map to the emulator.
pub trait ExecFloat: Float {
    /// The format this type stores.
    const FORMAT: FormatKind;
    /// The backend kind whose arithmetic this type runs.
    const BACKEND: BackendKind;
}

impl ExecFloat for Fp32 {
    const FORMAT: FormatKind = FormatKind::Fp32;
    const BACKEND: BackendKind = BackendKind::Emulated;
}

impl ExecFloat for Fp16 {
    const FORMAT: FormatKind = FormatKind::Fp16;
    const BACKEND: BackendKind = BackendKind::Emulated;
}

impl ExecFloat for Bf16 {
    const FORMAT: FormatKind = FormatKind::Bf16;
    const BACKEND: BackendKind = BackendKind::Emulated;
}

impl ExecFloat for HostF32 {
    const FORMAT: FormatKind = FormatKind::Fp32;
    const BACKEND: BackendKind = BackendKind::Native;
}

/// Scalar intermediates of one normalized row — the mean, the squared-norm
/// `m` and the applied scale — widened to `f64` for type-erased reporting
/// (the widening is exact for every ≤ 32-bit format, so nothing is lost at
/// the bit boundary).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RowMoments {
    /// The format-arithmetic mean of the row.
    pub mean: f64,
    /// The squared L2 norm `m = ‖y‖²` of the mean-shifted row.
    pub m: f64,
    /// The scale factor `√d · a` the method produced.
    pub scale: f64,
}

/// An execution backend: a plan plus an engine, driving row-major batches
/// of raw bit patterns (`u32` per element, the format's storage) through
/// the normalization pipeline.
///
/// Bits are the exchange currency across the trait so heterogeneous
/// implementations ([`Emulated<Fp16>`](Emulated) stores `Sf<5, 10>`,
/// [`NativeF32`] stores host `f32`) share one object-safe interface;
/// `to_bits`/`from_bits` round-trips are exact, so the bit boundary never
/// perturbs a value.
pub trait NormBackend: Send {
    /// Which arithmetic implementation this is.
    fn backend(&self) -> BackendKind;

    /// The executed format's display name (e.g. `"FP32"`).
    fn format_name(&self) -> &'static str;

    /// The plan's vector length `d`.
    fn d(&self) -> usize;

    /// The scale method's report label (e.g. `"iterl2[5]"`).
    fn method_label(&self) -> String;

    /// The *resolved* SIMD execution level this backend runs — never
    /// [`SimdLevel::Auto`]; a backend that executes the generic scalar
    /// engine (the default for every implementation without a vector
    /// path) reports [`SimdLevel::Scalar`]. Surfaced through service
    /// metadata so benchmark points record the tier that actually ran.
    fn simd_level(&self) -> SimdLevel {
        SimdLevel::Scalar
    }

    /// Combined report label, e.g. `"native-f32/FP32/iterl2[5]"`.
    fn label(&self) -> String {
        format!(
            "{}/{}/{}",
            self.backend().name(),
            self.format_name(),
            self.method_label()
        )
    }

    /// Normalize a row-major batch of bit patterns from `input` into
    /// `out`, partitioned across up to `threads` worker threads, returning
    /// the number of rows. Output bits do not depend on `threads`.
    ///
    /// # Errors
    ///
    /// [`NormError::ZeroThreads`] when `threads == 0`, plus the shape
    /// errors of [`Normalizer::normalize_batch`].
    fn normalize_batch_bits(
        &mut self,
        input: &[u32],
        out: &mut [u32],
        threads: usize,
    ) -> Result<usize, NormError>;

    /// [`normalize_batch_bits`](NormBackend::normalize_batch_bits) over an
    /// injected [`PartitionRunner`] — the resident per-shard pool in the
    /// serving path. The default implementation executes through the
    /// thread-count entry point at the runner's width (correct for any
    /// backend, since output bits never depend on the partition vehicle);
    /// the built-in backends override it to run their partitioned paths on
    /// the runner itself, so no scoped threads are spawned per call.
    ///
    /// # Errors
    ///
    /// The shape errors of
    /// [`normalize_batch_bits`](NormBackend::normalize_batch_bits).
    fn normalize_batch_runner(
        &mut self,
        input: &[u32],
        out: &mut [u32],
        runner: &dyn PartitionRunner,
    ) -> Result<usize, NormError> {
        self.normalize_batch_bits(input, out, runner.width().max(1))
    }

    /// Normalize a round's buffers where they sit, over an injected
    /// [`PartitionRunner`]: each of `segments` holds whole rows (one
    /// request's payload in the serving path) and is overwritten with its
    /// normalized rows, returning the total row count. The rows split
    /// across the runner's parts exactly as they would in
    /// [`normalize_batch_runner`](NormBackend::normalize_batch_runner)
    /// over the segments' concatenation, and rows are independent, so the
    /// bits equal that call's. On error the segments' contents are
    /// unspecified.
    ///
    /// The default implementation copies the segments into one input,
    /// makes that single out-of-place call and copies each result back —
    /// correct for any backend; the built-in backends override it to skip
    /// the copies.
    ///
    /// # Errors
    ///
    /// [`NormError::BatchLengthMismatch`] when a segment is not whole
    /// rows, plus the errors of
    /// [`normalize_batch_runner`](NormBackend::normalize_batch_runner).
    fn normalize_in_place_runner(
        &mut self,
        segments: &mut [&mut [u32]],
        runner: &dyn PartitionRunner,
    ) -> Result<usize, NormError> {
        check_segments(self.d(), segments)?;
        let input = segments.concat();
        let mut out = vec![0u32; input.len()];
        let rows = self.normalize_batch_runner(&input, &mut out, runner)?;
        scatter(&out, segments);
        Ok(rows)
    }

    /// Normalize exactly one `d`-length row of bit patterns, additionally
    /// returning the scalar intermediates as [`RowMoments`] — the detailed
    /// path behind reporting front ends (the CLI's `normalize`/`demo`).
    /// The output bits are identical to the same row going through
    /// [`normalize_batch_bits`](NormBackend::normalize_batch_bits).
    ///
    /// # Errors
    ///
    /// [`NormError::InputLengthMismatch`] when `input` is not one plan row,
    /// [`NormError::OutputLengthMismatch`] when `out` differs in length.
    fn normalize_row_bits_detailed(
        &mut self,
        input: &[u32],
        out: &mut [u32],
    ) -> Result<RowMoments, NormError>;
}

/// Reject a segment that is not whole `d`-length rows, returning the
/// total row count.
pub(crate) fn check_segments(d: usize, segments: &[&mut [u32]]) -> Result<usize, NormError> {
    segments.iter().try_fold(0, |rows, seg| {
        if seg.len().is_multiple_of(d) {
            Ok(rows + seg.len() / d)
        } else {
            Err(NormError::BatchLengthMismatch {
                rows: seg.len() / d,
                d,
                actual: seg.len(),
            })
        }
    })
}

/// Copy `src` back out into `segments`, in order — the split-back of the
/// default in-place implementations, which run over a concatenation.
pub(crate) fn scatter(src: &[u32], segments: &mut [&mut [u32]]) {
    let mut rest = src;
    for seg in segments.iter_mut() {
        let (head, tail) = rest.split_at(seg.len());
        seg.copy_from_slice(head);
        rest = tail;
    }
}

/// The shared plan/engine/buffer bundle behind both backend types: decode
/// bits into `F`, run the (serial or partitioned) batch engine, encode the
/// result. The decode/encode buffers are reused across calls.
#[derive(Debug, Clone)]
struct BitsEngine<F: Float> {
    plan: NormPlan<F>,
    engine: Normalizer<F>,
    spec: MethodSpec,
    decoded: Vec<F>,
    encoded: Vec<F>,
}

impl<F: Float> BitsEngine<F> {
    fn new(plan: NormPlan<F>, spec: &MethodSpec) -> Self {
        BitsEngine {
            engine: Normalizer::for_plan(spec.build::<F>(), &plan),
            plan,
            spec: *spec,
            decoded: Vec::new(),
            encoded: Vec::new(),
        }
    }

    fn run(&mut self, input: &[u32], out: &mut [u32], threads: usize) -> Result<usize, NormError> {
        // The u32-level output length must be checked here — the engine
        // only sees the internally-sized decode/encode buffers. Thread
        // count and whole-rows validation live in the engine call below.
        if out.len() != input.len() {
            return Err(NormError::OutputLengthMismatch {
                expected: input.len(),
                actual: out.len(),
            });
        }
        self.decoded.clear();
        self.decoded.extend(input.iter().map(|&b| F::from_bits(b)));
        self.encoded.clear();
        self.encoded.resize(input.len(), F::zero());
        let rows = self.engine.normalize_batch_parallel(
            &self.plan,
            &self.decoded,
            &mut self.encoded,
            threads,
        )?;
        for (slot, v) in out.iter_mut().zip(&self.encoded) {
            *slot = v.to_bits();
        }
        Ok(rows)
    }

    fn run_runner(
        &mut self,
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
        self.decoded.clear();
        self.decoded.extend(input.iter().map(|&b| F::from_bits(b)));
        self.encoded.clear();
        self.encoded.resize(input.len(), F::zero());
        let rows = self.engine.normalize_batch_runner(
            &self.plan,
            &self.decoded,
            &mut self.encoded,
            runner,
        )?;
        for (slot, v) in out.iter_mut().zip(&self.encoded) {
            *slot = v.to_bits();
        }
        Ok(rows)
    }

    /// [`run_runner`](BitsEngine::run_runner) over a round's segments:
    /// they decode back to back into `decoded`, run as the one
    /// concatenated engine call (so the row partition is that call's),
    /// and encode straight back into the segments they came from.
    fn run_in_place(
        &mut self,
        segments: &mut [&mut [u32]],
        runner: &dyn PartitionRunner,
    ) -> Result<usize, NormError> {
        check_segments(self.plan.d(), segments)?;
        self.decoded.clear();
        for seg in segments.iter() {
            self.decoded.extend(seg.iter().map(|&b| F::from_bits(b)));
        }
        self.encoded.clear();
        self.encoded.resize(self.decoded.len(), F::zero());
        let rows = self.engine.normalize_batch_runner(
            &self.plan,
            &self.decoded,
            &mut self.encoded,
            runner,
        )?;
        let slots = segments.iter_mut().flat_map(|seg| seg.iter_mut());
        for (slot, v) in slots.zip(&self.encoded) {
            *slot = v.to_bits();
        }
        Ok(rows)
    }

    fn run_row_detailed(
        &mut self,
        input: &[u32],
        out: &mut [u32],
    ) -> Result<RowMoments, NormError> {
        if out.len() != input.len() {
            return Err(NormError::OutputLengthMismatch {
                expected: input.len(),
                actual: out.len(),
            });
        }
        self.decoded.clear();
        self.decoded.extend(input.iter().map(|&b| F::from_bits(b)));
        self.encoded.clear();
        self.encoded.resize(input.len(), F::zero());
        let stats = self
            .engine
            .normalize_into(&self.plan, &self.decoded, &mut self.encoded)?;
        for (slot, v) in out.iter_mut().zip(&self.encoded) {
            *slot = v.to_bits();
        }
        Ok(RowMoments {
            mean: stats.mean.to_f64(),
            m: stats.m.to_f64(),
            scale: stats.scale.to_f64(),
        })
    }
}

/// The softfloat execution backend: bit-accurate emulation of format `F`.
/// The only option for FP16/BF16, and the reference oracle for FP32.
#[derive(Debug, Clone)]
pub struct Emulated<F: Float> {
    inner: BitsEngine<F>,
}

impl<F: Float> Emulated<F> {
    /// Backend executing `plan` with the given scale method.
    pub fn new(plan: NormPlan<F>, spec: &MethodSpec) -> Self {
        Emulated {
            inner: BitsEngine::new(plan, spec),
        }
    }

    /// The plan this backend executes.
    pub fn plan(&self) -> &NormPlan<F> {
        &self.inner.plan
    }
}

impl<F: Float> NormBackend for Emulated<F> {
    fn backend(&self) -> BackendKind {
        BackendKind::Emulated
    }

    fn format_name(&self) -> &'static str {
        F::NAME
    }

    fn d(&self) -> usize {
        self.inner.plan.d()
    }

    fn method_label(&self) -> String {
        self.inner.spec.label()
    }

    fn normalize_batch_bits(
        &mut self,
        input: &[u32],
        out: &mut [u32],
        threads: usize,
    ) -> Result<usize, NormError> {
        self.inner.run(input, out, threads)
    }

    fn normalize_batch_runner(
        &mut self,
        input: &[u32],
        out: &mut [u32],
        runner: &dyn PartitionRunner,
    ) -> Result<usize, NormError> {
        self.inner.run_runner(input, out, runner)
    }

    fn normalize_in_place_runner(
        &mut self,
        segments: &mut [&mut [u32]],
        runner: &dyn PartitionRunner,
    ) -> Result<usize, NormError> {
        self.inner.run_in_place(segments, runner)
    }

    fn normalize_row_bits_detailed(
        &mut self,
        input: &[u32],
        out: &mut [u32],
    ) -> Result<RowMoments, NormError> {
        self.inner.run_row_detailed(input, out)
    }
}

/// The native execution backend: host `f32`/`u32` bit operations running
/// the identical pipeline — same plans, same reduction order, same scale
/// methods, operation for operation — so its output is bit-identical to
/// [`Emulated<Fp32>`](Emulated) (enforced by
/// `tests/backend_bit_identity.rs`, in debug *and* release codegen via
/// CI). FP32 only; requesting any other format is a
/// [`NormError::BackendFormatMismatch`] at [`build_backend`] time.
#[derive(Debug, Clone)]
pub struct NativeF32 {
    inner: BitsEngine<HostF32>,
    /// The resolved vector executor, or `None` for the forced-scalar
    /// generic engine. Both produce identical bits; they differ only in
    /// throughput.
    simd: Option<SimdNative>,
}

impl NativeF32 {
    /// Backend executing `plan` with the given scale method, at the best
    /// SIMD level the host supports ([`SimdLevel::Auto`]).
    pub fn new(plan: NormPlan<HostF32>, spec: &MethodSpec) -> Self {
        Self::with_simd(plan, spec, SimdLevel::Auto)
            .expect("SimdLevel::Auto always resolves on the native backend")
    }

    /// Backend executing `plan` at a specific SIMD level.
    ///
    /// # Errors
    ///
    /// [`NormError::SimdUnsupported`] when `level` forces an instruction
    /// set this host does not have — a forced level never silently
    /// downgrades; [`SimdLevel::Auto`] is the degrade-gracefully path.
    pub fn with_simd(
        plan: NormPlan<HostF32>,
        spec: &MethodSpec,
        level: SimdLevel,
    ) -> Result<Self, NormError> {
        let kernel = simd::resolve(level, BackendKind::Native)?;
        Ok(Self::with_kernel(plan, spec, kernel))
    }

    fn with_kernel(plan: NormPlan<HostF32>, spec: &MethodSpec, kernel: Option<SimdKernel>) -> Self {
        let inner = BitsEngine::new(plan, spec);
        let simd = kernel.map(|k| SimdNative::new(k, &inner.plan, inner.engine.method()));
        NativeF32 { inner, simd }
    }

    /// Bridge an emulated-FP32 plan into the native backend: the constants
    /// and affine parameters transfer bit-exactly (`d⁻¹`/`√d` are
    /// re-derived through the same rounding, γ/β move by bit pattern), so
    /// the two backends execute *the same plan*.
    pub fn from_fp32_plan(plan: &NormPlan<Fp32>, spec: &MethodSpec) -> Self {
        let mut bridged = NormPlan::<HostF32>::new(plan.d())
            .expect("source plan guarantees d > 0")
            .with_reduce(plan.reduce());
        let bits =
            |v: &[Fp32]| -> Vec<HostF32> { v.iter().map(|&g| HostF32::from_fp32(g)).collect() };
        if let Some(g) = plan.gamma() {
            bridged = bridged
                .with_gamma(&bits(g))
                .expect("source plan guarantees gamma length");
        }
        if let Some(b) = plan.beta() {
            bridged = bridged
                .with_beta(&bits(b))
                .expect("source plan guarantees beta length");
        }
        Self::new(bridged, spec)
    }

    /// The plan this backend executes.
    pub fn plan(&self) -> &NormPlan<HostF32> {
        &self.inner.plan
    }
}

impl NormBackend for NativeF32 {
    fn backend(&self) -> BackendKind {
        BackendKind::Native
    }

    fn format_name(&self) -> &'static str {
        HostF32::NAME // "FP32" — the format; the engine is the backend kind
    }

    fn d(&self) -> usize {
        self.inner.plan.d()
    }

    fn method_label(&self) -> String {
        self.inner.spec.label()
    }

    fn simd_level(&self) -> SimdLevel {
        self.simd
            .as_ref()
            .map_or(SimdLevel::Scalar, SimdNative::level)
    }

    fn normalize_batch_bits(
        &mut self,
        input: &[u32],
        out: &mut [u32],
        threads: usize,
    ) -> Result<usize, NormError> {
        match &self.simd {
            Some(simd) => simd.normalize_batch(
                &self.inner.plan,
                self.inner.engine.method(),
                input,
                out,
                threads,
            ),
            None => self.inner.run(input, out, threads),
        }
    }

    fn normalize_batch_runner(
        &mut self,
        input: &[u32],
        out: &mut [u32],
        runner: &dyn PartitionRunner,
    ) -> Result<usize, NormError> {
        match &self.simd {
            Some(simd) => simd.normalize_batch_runner(
                &self.inner.plan,
                self.inner.engine.method(),
                input,
                out,
                runner,
            ),
            None => self.inner.run_runner(input, out, runner),
        }
    }

    fn normalize_in_place_runner(
        &mut self,
        segments: &mut [&mut [u32]],
        runner: &dyn PartitionRunner,
    ) -> Result<usize, NormError> {
        match &self.simd {
            Some(simd) => simd.normalize_in_place_runner(
                &self.inner.plan,
                self.inner.engine.method(),
                segments,
                runner,
            ),
            None => self.inner.run_in_place(segments, runner),
        }
    }

    fn normalize_row_bits_detailed(
        &mut self,
        input: &[u32],
        out: &mut [u32],
    ) -> Result<RowMoments, NormError> {
        // The detailed path reports scalar intermediates, so it runs the
        // generic engine regardless of tier — single-row latency is not
        // the SIMD path's concern, and the output bits are identical.
        self.inner.run_row_detailed(input, out)
    }
}

/// Decode optional γ/β bit patterns into a plan for format `F`.
fn plan_with_affine_bits<F: Float>(
    d: usize,
    reduce: ReduceOrder,
    gamma_bits: Option<&[u32]>,
    beta_bits: Option<&[u32]>,
) -> Result<NormPlan<F>, NormError> {
    let mut plan = NormPlan::<F>::new(d)?.with_reduce(reduce);
    if let Some(bits) = gamma_bits {
        let gamma: Vec<F> = bits.iter().map(|&b| F::from_bits(b)).collect();
        plan = plan.with_gamma(&gamma)?;
    }
    if let Some(bits) = beta_bits {
        let beta: Vec<F> = bits.iter().map(|&b| F::from_bits(b)).collect();
        plan = plan.with_beta(&beta)?;
    }
    Ok(plan)
}

/// Build the execution backend for a `(backend, format)` selection: the
/// single dispatch point the CLI and benches share.
///
/// # Errors
///
/// [`NormError::BackendFormatMismatch`] when the native backend is
/// requested for a non-FP32 format, [`NormError::EmptyInput`] when
/// `d == 0`.
pub fn build_backend(
    backend: BackendKind,
    format: FormatKind,
    d: usize,
    spec: &MethodSpec,
    reduce: ReduceOrder,
) -> Result<Box<dyn NormBackend>, NormError> {
    build_backend_affine(
        backend,
        format,
        d,
        spec,
        reduce,
        None,
        None,
        SimdLevel::Auto,
    )
}

/// [`build_backend`] with an explicit SIMD level — the knob the CLI's
/// `--simd` flag and the bench sweep's `simd` axis resolve through.
///
/// # Errors
///
/// The [`build_backend`] errors plus [`NormError::SimdUnsupported`] when
/// the forced level cannot run on this host or backend.
pub fn build_backend_simd(
    backend: BackendKind,
    format: FormatKind,
    d: usize,
    spec: &MethodSpec,
    reduce: ReduceOrder,
    simd: SimdLevel,
) -> Result<Box<dyn NormBackend>, NormError> {
    build_backend_affine(backend, format, d, spec, reduce, None, None, simd)
}

/// [`build_backend`] plus optional affine parameters given as storage bit
/// patterns (the type-erased currency): γ/β travel exactly, so the plan the
/// backend executes is the one the caller described. This is the factory
/// behind [`NormService`](crate::service::NormService).
///
/// # Errors
///
/// The [`build_backend`] errors, the γ/β length-mismatch variants, and
/// [`NormError::SimdUnsupported`] when `simd` forces a level this host or
/// backend cannot run ([`SimdLevel::Auto`] never fails).
#[allow(clippy::too_many_arguments)]
pub fn build_backend_affine(
    backend: BackendKind,
    format: FormatKind,
    d: usize,
    spec: &MethodSpec,
    reduce: ReduceOrder,
    gamma_bits: Option<&[u32]>,
    beta_bits: Option<&[u32]>,
    simd: SimdLevel,
) -> Result<Box<dyn NormBackend>, NormError> {
    // Resolve the SIMD level first so an unsupported forced level fails
    // cleanly before any plan work, on every backend kind.
    let kernel = simd::resolve(simd, backend)?;
    match backend {
        BackendKind::Emulated => Ok(match format {
            FormatKind::Fp32 => Box::new(Emulated::<Fp32>::new(
                plan_with_affine_bits(d, reduce, gamma_bits, beta_bits)?,
                spec,
            )),
            FormatKind::Fp16 => Box::new(Emulated::<Fp16>::new(
                plan_with_affine_bits(d, reduce, gamma_bits, beta_bits)?,
                spec,
            )),
            FormatKind::Bf16 => Box::new(Emulated::<Bf16>::new(
                plan_with_affine_bits(d, reduce, gamma_bits, beta_bits)?,
                spec,
            )),
        }),
        BackendKind::Native => {
            if format != FormatKind::Fp32 {
                return Err(NormError::BackendFormatMismatch {
                    backend: backend.name(),
                    format: format.name(),
                });
            }
            Ok(Box::new(NativeF32::with_kernel(
                plan_with_affine_bits(d, reduce, gamma_bits, beta_bits)?,
                spec,
                kernel,
            )))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kind_parsing_round_trips() {
        for kind in BackendKind::ALL {
            assert_eq!(BackendKind::parse(kind.name()), Some(kind));
        }
        assert_eq!(BackendKind::parse("native"), Some(BackendKind::Native));
        assert_eq!(BackendKind::parse("softfloat"), Some(BackendKind::Emulated));
        assert_eq!(BackendKind::parse("gpu"), None);
        for fmt in FormatKind::ALL {
            assert_eq!(
                FormatKind::parse(fmt.name().to_lowercase().as_str()),
                Some(fmt)
            );
        }
        assert_eq!(FormatKind::parse("fp8"), None);
    }

    #[test]
    fn kind_parsing_is_case_insensitive() {
        for text in ["FP32", "Fp32", "fP32", "F32", "BF16", "Bfloat16", "FP16"] {
            assert!(FormatKind::parse(text).is_some(), "{text} must parse");
        }
        assert_eq!(FormatKind::parse("FP32"), Some(FormatKind::Fp32));
        assert_eq!(FormatKind::parse("BF16"), Some(FormatKind::Bf16));
        for text in ["NATIVE", "Native-F32", "EMULATED", "SoftFloat"] {
            assert!(BackendKind::parse(text).is_some(), "{text} must parse");
        }
        assert_eq!(BackendKind::parse("NATIVE"), Some(BackendKind::Native));
        // Garbage still fails: whitespace, empty, near-misses, digits.
        for text in [
            "", " fp32", "fp32 ", "fp 32", "fp8", "FP-32", "native32", "0",
        ] {
            assert_eq!(FormatKind::parse(text), None, "{text:?} must be rejected");
            assert_eq!(BackendKind::parse(text), None, "{text:?} must be rejected");
        }
    }

    #[test]
    fn format_encode_decode_round_trip_matches_typed_path() {
        use softfloat::{Bf16, Fp16};
        for v in [0.0, -0.0, 1.5, -2.25, 1e-8, 12345.678, f64::INFINITY] {
            assert_eq!(FormatKind::Fp32.encode_f64(v), Fp32::from_f64(v).to_bits());
            assert_eq!(FormatKind::Fp16.encode_f64(v), Fp16::from_f64(v).to_bits());
            assert_eq!(FormatKind::Bf16.encode_f64(v), Bf16::from_f64(v).to_bits());
            for fmt in FormatKind::ALL {
                let bits = fmt.encode_f64(v);
                // decode is the exact widening of the rounded value.
                assert_eq!(
                    fmt.decode_f64(bits),
                    fmt.decode_f64(fmt.encode_f64(fmt.decode_f64(bits)))
                );
            }
        }
    }

    #[test]
    fn exec_float_constants_cover_all_backends() {
        assert_eq!(<Fp32 as ExecFloat>::FORMAT, FormatKind::Fp32);
        assert_eq!(<Fp32 as ExecFloat>::BACKEND, BackendKind::Emulated);
        assert_eq!(<Fp16 as ExecFloat>::FORMAT, FormatKind::Fp16);
        assert_eq!(<Bf16 as ExecFloat>::FORMAT, FormatKind::Bf16);
        assert_eq!(<HostF32 as ExecFloat>::FORMAT, FormatKind::Fp32);
        assert_eq!(<HostF32 as ExecFloat>::BACKEND, BackendKind::Native);
    }

    #[test]
    fn detailed_row_matches_batch_bits_and_reports_moments() {
        let d = 48;
        let spec = MethodSpec::iterl2(5);
        for backend in BackendKind::ALL {
            let mut engine =
                build_backend(backend, FormatKind::Fp32, d, &spec, ReduceOrder::HwTree).unwrap();
            let row: Vec<u32> = (0..d)
                .map(|i| Fp32::from_f64((i as f64 * 0.61).sin()).to_bits())
                .collect();
            let mut via_batch = vec![0u32; d];
            engine
                .normalize_batch_bits(&row, &mut via_batch, 1)
                .unwrap();
            let mut via_row = vec![0u32; d];
            let moments = engine
                .normalize_row_bits_detailed(&row, &mut via_row)
                .unwrap();
            assert_eq!(via_batch, via_row, "{backend:?}");
            assert!(moments.m > 0.0 && moments.scale.is_finite());
            // Shape errors surface, not panics.
            let mut short = vec![0u32; d - 1];
            assert_eq!(
                engine
                    .normalize_row_bits_detailed(&row, &mut short)
                    .unwrap_err(),
                NormError::OutputLengthMismatch {
                    expected: d,
                    actual: d - 1
                }
            );
            assert!(engine
                .normalize_row_bits_detailed(&row[..d - 1], &mut via_row[..d - 1])
                .is_err());
        }
    }

    #[test]
    fn affine_factory_applies_and_validates_parameters() {
        let d = 16;
        let spec = MethodSpec::iterl2(5);
        let gamma: Vec<u32> = (0..d)
            .map(|i| Fp32::from_f64(1.0 + i as f64 * 0.01).to_bits())
            .collect();
        let beta: Vec<u32> = (0..d)
            .map(|i| Fp32::from_f64(i as f64 * 0.002 - 0.01).to_bits())
            .collect();
        let input: Vec<u32> = (0..d)
            .map(|i| Fp32::from_f64((i as f64 * 0.43).cos()).to_bits())
            .collect();
        // Reference: a typed plan with the same affine parameters.
        let gf: Vec<Fp32> = gamma.iter().map(|&b| Fp32::from_bits(b)).collect();
        let bf: Vec<Fp32> = beta.iter().map(|&b| Fp32::from_bits(b)).collect();
        let plan = NormPlan::new(d).unwrap().with_affine(&gf, &bf).unwrap();
        let mut reference = Emulated::new(plan, &spec);
        let mut expect = vec![0u32; d];
        reference
            .normalize_batch_bits(&input, &mut expect, 1)
            .unwrap();
        for backend in BackendKind::ALL {
            let mut engine = build_backend_affine(
                backend,
                FormatKind::Fp32,
                d,
                &spec,
                ReduceOrder::HwTree,
                Some(&gamma),
                Some(&beta),
                SimdLevel::Auto,
            )
            .unwrap();
            let mut out = vec![0u32; d];
            engine.normalize_batch_bits(&input, &mut out, 1).unwrap();
            assert_eq!(out, expect, "{backend:?}");
        }
        // Length mismatches surface at build time.
        assert_eq!(
            build_backend_affine(
                BackendKind::Emulated,
                FormatKind::Fp32,
                d,
                &spec,
                ReduceOrder::HwTree,
                Some(&gamma[..d - 1]),
                None,
                SimdLevel::Auto,
            )
            .err()
            .expect("short gamma must be rejected"),
            NormError::GammaLengthMismatch {
                expected: d,
                actual: d - 1
            }
        );
    }

    #[test]
    fn factory_rejects_native_non_fp32() {
        let spec = MethodSpec::iterl2(5);
        for fmt in [FormatKind::Fp16, FormatKind::Bf16] {
            assert_eq!(
                build_backend(BackendKind::Native, fmt, 8, &spec, ReduceOrder::HwTree)
                    .err()
                    .expect("must be rejected"),
                NormError::BackendFormatMismatch {
                    backend: "native-f32",
                    format: fmt.name(),
                }
            );
        }
        // FP32 native and every emulated format build fine.
        assert!(build_backend(
            BackendKind::Native,
            FormatKind::Fp32,
            8,
            &spec,
            ReduceOrder::HwTree
        )
        .is_ok());
        for fmt in FormatKind::ALL {
            assert!(
                build_backend(BackendKind::Emulated, fmt, 8, &spec, ReduceOrder::HwTree).is_ok()
            );
        }
    }

    #[test]
    fn factory_propagates_zero_d() {
        let spec = MethodSpec::iterl2(5);
        assert_eq!(
            build_backend(
                BackendKind::Native,
                FormatKind::Fp32,
                0,
                &spec,
                ReduceOrder::HwTree
            )
            .err()
            .expect("d = 0 must be rejected"),
            NormError::EmptyInput
        );
    }

    #[test]
    fn labels_identify_backend_format_method() {
        let spec = MethodSpec::iterl2(5);
        let native = build_backend(
            BackendKind::Native,
            FormatKind::Fp32,
            8,
            &spec,
            ReduceOrder::HwTree,
        )
        .unwrap();
        assert_eq!(native.label(), "native-f32/FP32/iterl2[5]");
        assert_eq!(native.d(), 8);
        let emulated = build_backend(
            BackendKind::Emulated,
            FormatKind::Fp16,
            8,
            &spec,
            ReduceOrder::HwTree,
        )
        .unwrap();
        assert_eq!(emulated.label(), "emulated/FP16/iterl2[5]");
    }

    #[test]
    fn simd_levels_are_resolved_and_reported_never_auto() {
        let spec = MethodSpec::iterl2(5);
        // Auto on the native backend resolves to a concrete vector tier.
        let auto = build_backend(
            BackendKind::Native,
            FormatKind::Fp32,
            8,
            &spec,
            ReduceOrder::HwTree,
        )
        .unwrap();
        assert_ne!(auto.simd_level(), SimdLevel::Auto);
        assert_ne!(auto.simd_level(), SimdLevel::Scalar);
        // Forced scalar reports scalar; the emulated backend always does.
        let scalar = build_backend_simd(
            BackendKind::Native,
            FormatKind::Fp32,
            8,
            &spec,
            ReduceOrder::HwTree,
            SimdLevel::Scalar,
        )
        .unwrap();
        assert_eq!(scalar.simd_level(), SimdLevel::Scalar);
        let emulated = build_backend(
            BackendKind::Emulated,
            FormatKind::Fp32,
            8,
            &spec,
            ReduceOrder::HwTree,
        )
        .unwrap();
        assert_eq!(emulated.simd_level(), SimdLevel::Scalar);
    }

    #[test]
    fn simd_factory_rejects_emulated_vector_levels() {
        let spec = MethodSpec::iterl2(5);
        for level in [SimdLevel::Portable, SimdLevel::Sse2, SimdLevel::Avx2] {
            assert_eq!(
                build_backend_simd(
                    BackendKind::Emulated,
                    FormatKind::Fp32,
                    8,
                    &spec,
                    ReduceOrder::HwTree,
                    level,
                )
                .err()
                .expect("emulated has no vector path"),
                NormError::SimdUnsupported {
                    level: level.name(),
                    backend: "emulated",
                }
            );
        }
    }

    #[test]
    fn simd_batch_bits_match_forced_scalar_bitwise() {
        let d = 129; // straddles chunk and lane remainders
        let spec = MethodSpec::iterl2(5);
        let bits: Vec<u32> = (0..11 * d as u32)
            .map(|i| Fp32::from_f64(((i as f64) * 0.317).sin() * 3.0).to_bits())
            .collect();
        let mut scalar = build_backend_simd(
            BackendKind::Native,
            FormatKind::Fp32,
            d,
            &spec,
            ReduceOrder::HwTree,
            SimdLevel::Scalar,
        )
        .unwrap();
        let mut expect = vec![0u32; bits.len()];
        scalar.normalize_batch_bits(&bits, &mut expect, 1).unwrap();
        for level in [SimdLevel::Auto, SimdLevel::Portable] {
            let mut simd = build_backend_simd(
                BackendKind::Native,
                FormatKind::Fp32,
                d,
                &spec,
                ReduceOrder::HwTree,
                level,
            )
            .unwrap();
            for threads in [1usize, 3] {
                let mut out = vec![0u32; bits.len()];
                simd.normalize_batch_bits(&bits, &mut out, threads).unwrap();
                assert_eq!(out, expect, "{level:?} × {threads} threads");
            }
        }
    }

    #[test]
    fn backend_rejects_zero_threads_and_bad_shapes() {
        let spec = MethodSpec::iterl2(5);
        let mut backend = build_backend(
            BackendKind::Native,
            FormatKind::Fp32,
            8,
            &spec,
            ReduceOrder::HwTree,
        )
        .unwrap();
        let bits = vec![0u32; 16];
        let mut out = vec![0u32; 16];
        assert_eq!(
            backend
                .normalize_batch_bits(&bits, &mut out, 0)
                .unwrap_err(),
            NormError::ZeroThreads
        );
        let mut short = vec![0u32; 8];
        assert_eq!(
            backend
                .normalize_batch_bits(&bits, &mut short, 1)
                .unwrap_err(),
            NormError::OutputLengthMismatch {
                expected: 16,
                actual: 8
            }
        );
        let ragged = vec![0u32; 12];
        let mut out12 = vec![0u32; 12];
        assert_eq!(
            backend
                .normalize_batch_bits(&ragged, &mut out12, 1)
                .unwrap_err(),
            NormError::BatchLengthMismatch {
                rows: 1,
                d: 8,
                actual: 12
            }
        );
    }
}
