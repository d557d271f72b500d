//! The batch-first normalization engine: plan once, normalize many.
//!
//! The one-vector-at-a-time [`layer_norm`](crate::layer_norm) entry point
//! allocates two fresh `Vec`s per call and re-rounds `d⁻¹`/`√d` into the
//! format on every invocation — fine for experiments, fatal for the
//! production-scale serving path the ROADMAP targets. This module splits
//! the work the way the hardware macro does:
//!
//! * [`NormPlan`] — everything that depends only on the layer *shape*:
//!   `d`, the format-rounded constants `d⁻¹` and `√d`, the reduction
//!   order, and (optionally) owned, length-validated γ/β. Built once per
//!   layer, reused forever.
//! * [`Normalizer`] — the execution engine: owns the reduction scratch
//!   buffer and exposes [`normalize_into`](Normalizer::normalize_into)
//!   (caller-provided output row), [`normalize_in_place`](Normalizer::normalize_in_place)
//!   and [`normalize_batch`](Normalizer::normalize_batch) /
//!   [`normalize_batch_in_place`](Normalizer::normalize_batch_in_place)
//!   over row-major matrices with stride `d`. After construction the hot
//!   path performs **zero heap allocations** (verified by
//!   `tests/engine_no_alloc.rs`).
//! * [`ScaleMethod`] / [`MethodSpec`] — the single registry of scale
//!   methods. Callers that used to re-implement the same
//!   IterL2Norm/FISR/Exact/LUT match arms (the transformer's norm layer,
//!   the experiment harness, the CLI) now build a [`MethodSpec`] and let
//!   [`MethodSpec::build`] materialize it for a format.
//!
//! Large batches can additionally be partitioned across worker threads
//! with [`normalize_batch_parallel`](Normalizer::normalize_batch_parallel):
//! contiguous row runs per worker, per-worker scratch, and per-row output
//! bits that do not depend on the thread count.
//!
//! The engine is generic over [`Float`], which is also where execution
//! *backends* plug in: driving it with [`softfloat::HostF32`] (host `f32`)
//! instead of `Fp32` runs the identical operation sequence on the CPU's
//! own FPU — bit-identical output at native speed, the
//! [`backend`](crate::backend) module's fast path. FP16 and BF16 have no
//! host equivalent and always execute through the softfloat emulator.
//!
//! Every row the engine produces is bit-identical to the corresponding
//! [`layer_norm`](crate::layer_norm) call — same operation order, same
//! pre-rounded constants — so plans can be introduced anywhere without
//! perturbing a single ulp (see `tests/engine_consistency.rs`).
//!
//! # Example
//!
//! ```
//! use iterl2norm::{MethodSpec, NormPlan, Normalizer};
//! use softfloat::{Float, Fp32};
//!
//! # fn main() -> Result<(), iterl2norm::NormError> {
//! let d = 64;
//! let plan = NormPlan::<Fp32>::new(d)?;
//! let mut engine = Normalizer::for_plan(MethodSpec::iterl2(5).build::<Fp32>(), &plan);
//!
//! // A row-major batch of 8 activation rows, normalized in one call.
//! let batch: Vec<Fp32> = (0..8 * d)
//!     .map(|i| Fp32::from_f64((i as f64 * 0.37).sin()))
//!     .collect();
//! let mut out = vec![Fp32::ZERO; batch.len()];
//! let rows = engine.normalize_batch(&plan, &batch, &mut out)?;
//! assert_eq!(rows, 8);
//! # Ok(())
//! # }
//! ```

use softfloat::Float;

use crate::baselines::{ExactRsqrtNorm, Fisr, LutRsqrt};
use crate::error::NormError;
use crate::executor::fork;
use crate::hworder::ReduceOrder;
use crate::iteration::IterL2Norm;
use crate::layernorm::{
    normalize_row_in_place, normalize_row_into, DimConsts, NormStats, RowParams, RsqrtScale,
};

/// Precomputed per-shape state of one normalization layer: the
/// format-rounded constants `d⁻¹` and `√d`, the reduction order, and
/// optional owned affine parameters whose lengths were validated at build
/// time. Everything per-call code used to recompute or recheck.
///
/// # Examples
///
/// ```
/// use iterl2norm::{NormPlan, ReduceOrder};
/// use softfloat::{Float, Fp32};
///
/// # fn main() -> Result<(), iterl2norm::NormError> {
/// let gamma = vec![Fp32::ONE; 768];
/// let beta = vec![Fp32::ZERO; 768];
/// let plan = NormPlan::new(768)?
///     .with_reduce(ReduceOrder::Linear)
///     .with_affine(&gamma, &beta)?;
/// assert_eq!(plan.d(), 768);
/// assert_eq!(plan.sqrt_d().to_f64(), (768f64).sqrt() as f32 as f64);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct NormPlan<F> {
    dims: DimConsts<F>,
    reduce: ReduceOrder,
    gamma: Option<Vec<F>>,
    beta: Option<Vec<F>>,
}

impl<F: Float> NormPlan<F> {
    /// Plan for vectors of length `d` with the default (hardware-tree)
    /// reduction order and no affine parameters.
    ///
    /// # Errors
    ///
    /// [`NormError::EmptyInput`] if `d == 0`.
    pub fn new(d: usize) -> Result<Self, NormError> {
        if d == 0 {
            return Err(NormError::EmptyInput);
        }
        Ok(NormPlan {
            dims: DimConsts::new(d),
            reduce: ReduceOrder::default(),
            gamma: None,
            beta: None,
        })
    }

    /// Same plan with a different reduction order.
    pub fn with_reduce(mut self, reduce: ReduceOrder) -> Self {
        self.reduce = reduce;
        self
    }

    /// Same plan with owned per-element scale γ.
    ///
    /// # Errors
    ///
    /// [`NormError::GammaLengthMismatch`] when `gamma.len() != d`.
    pub fn with_gamma(mut self, gamma: &[F]) -> Result<Self, NormError> {
        if gamma.len() != self.dims.d {
            return Err(NormError::GammaLengthMismatch {
                expected: self.dims.d,
                actual: gamma.len(),
            });
        }
        self.gamma = Some(gamma.to_vec());
        Ok(self)
    }

    /// Same plan with owned per-element shift β.
    ///
    /// # Errors
    ///
    /// [`NormError::BetaLengthMismatch`] when `beta.len() != d`.
    pub fn with_beta(mut self, beta: &[F]) -> Result<Self, NormError> {
        if beta.len() != self.dims.d {
            return Err(NormError::BetaLengthMismatch {
                expected: self.dims.d,
                actual: beta.len(),
            });
        }
        self.beta = Some(beta.to_vec());
        Ok(self)
    }

    /// Same plan with both affine parameters (the full Algorithm 1).
    ///
    /// # Errors
    ///
    /// The length-mismatch variants when either slice disagrees with `d`.
    pub fn with_affine(self, gamma: &[F], beta: &[F]) -> Result<Self, NormError> {
        self.with_gamma(gamma)?.with_beta(beta)
    }

    /// The vector length `d`.
    pub fn d(&self) -> usize {
        self.dims.d
    }

    /// The precomputed format-rounded constants.
    pub fn dims(&self) -> &DimConsts<F> {
        &self.dims
    }

    /// `d⁻¹` rounded to the format.
    pub fn inv_d(&self) -> F {
        self.dims.inv_d
    }

    /// `√d` rounded to the format.
    pub fn sqrt_d(&self) -> F {
        self.dims.sqrt_d
    }

    /// The reduction order for the mean and `m` computations.
    pub fn reduce(&self) -> ReduceOrder {
        self.reduce
    }

    /// The validated γ, if any.
    pub fn gamma(&self) -> Option<&[F]> {
        self.gamma.as_deref()
    }

    /// The validated β, if any.
    pub fn beta(&self) -> Option<&[F]> {
        self.beta.as_deref()
    }

    /// Number of `d`-length rows in a flat row-major buffer.
    ///
    /// # Errors
    ///
    /// [`NormError::BatchLengthMismatch`] when `len` is not a multiple of
    /// `d`.
    pub fn rows_of(&self, len: usize) -> Result<usize, NormError> {
        let d = self.dims.d;
        if !len.is_multiple_of(d) {
            return Err(NormError::BatchLengthMismatch {
                rows: len / d,
                d,
                actual: len,
            });
        }
        Ok(len / d)
    }

    /// Borrowed view of this plan for the row pipeline.
    pub(crate) fn params(&self) -> RowParams<'_, F> {
        RowParams {
            dims: &self.dims,
            reduce: self.reduce,
            gamma: self.gamma.as_deref(),
            beta: self.beta.as_deref(),
        }
    }
}

/// The closed registry of scale-factor methods: the paper's IterL2Norm and
/// the three baselines it is evaluated against. One `match` lives here —
/// the transformer, the experiment harness and the CLI all dispatch
/// through this enum (or through a `&dyn RsqrtScale<F>`; the trait is
/// object-safe) instead of re-implementing the arms.
#[derive(Debug, Clone, PartialEq)]
pub enum ScaleMethod {
    /// The paper's scalar fixed-point iteration.
    IterL2(IterL2Norm),
    /// Fast inverse square root (magic constant + Newton steps).
    Fisr(Fisr),
    /// Exact in-format `1/√(σ² + ε)` (the costly baseline).
    Exact(ExactRsqrtNorm),
    /// Piecewise-linear lookup-table `1/√x`.
    Lut(LutRsqrt),
}

impl ScaleMethod {
    /// Short label for reports, including the method's main parameter
    /// (e.g. `"iterl2[5]"`, `"fisr[1]"`, `"exact[1e-5]"`, `"lut[64]"`).
    pub fn label(&self) -> String {
        match self {
            ScaleMethod::IterL2(norm) => match norm.config.stop {
                crate::StopRule::FixedSteps(n) => format!("iterl2[{n}]"),
                _ => "iterl2[adaptive]".to_string(),
            },
            ScaleMethod::Fisr(fisr) => format!("fisr[{}]", fisr.newton_steps),
            ScaleMethod::Exact(exact) => format!("exact[{:.0e}]", exact.eps),
            ScaleMethod::Lut(lut) => format!("lut[{}]", lut.segments()),
        }
    }
}

impl<F: Float> RsqrtScale<F> for ScaleMethod {
    fn scale_with(&self, m: F, dims: &DimConsts<F>) -> F {
        match self {
            ScaleMethod::IterL2(norm) => norm.scale_with(m, dims),
            ScaleMethod::Fisr(fisr) => fisr.scale_with(m, dims),
            ScaleMethod::Exact(exact) => exact.scale_with(m, dims),
            ScaleMethod::Lut(lut) => RsqrtScale::<F>::scale_with(lut, m, dims),
        }
    }

    fn method_name(&self) -> &'static str {
        match self {
            ScaleMethod::IterL2(norm) => RsqrtScale::<F>::method_name(norm),
            ScaleMethod::Fisr(fisr) => RsqrtScale::<F>::method_name(fisr),
            ScaleMethod::Exact(exact) => RsqrtScale::<F>::method_name(exact),
            ScaleMethod::Lut(lut) => RsqrtScale::<F>::method_name(lut),
        }
    }
}

/// Format-agnostic description of a [`ScaleMethod`]: what a config file,
/// CLI flag or experiment table names before a float format is chosen.
/// [`MethodSpec::build`] materializes it for a format (the FISR magic
/// constant, for instance, is format-specific).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum MethodSpec {
    /// IterL2Norm with a fixed step count.
    IterL2 {
        /// Iteration steps `n_c` (the paper uses 5).
        steps: u32,
    },
    /// FISR with the canonical per-format magic constant.
    Fisr {
        /// Newton–Raphson polish steps (the original uses 1).
        newton: u32,
    },
    /// Exact in-format reciprocal square root.
    Exact {
        /// ε added to the variance (PyTorch's LayerNorm uses 1e−5).
        eps: f64,
    },
    /// LUT reciprocal square root.
    Lut {
        /// Piecewise-linear segments over `w ∈ [1, 4)`.
        segments: usize,
    },
}

impl MethodSpec {
    /// The default registry: one entry per method family with the paper's
    /// parameters. This is what sweeps and `--method` style interfaces
    /// enumerate.
    pub const REGISTRY: [MethodSpec; 4] = [
        MethodSpec::IterL2 { steps: 5 },
        MethodSpec::Fisr { newton: 1 },
        MethodSpec::Exact { eps: 1e-5 },
        MethodSpec::Lut { segments: 64 },
    ];

    /// IterL2Norm with `steps` iteration steps.
    pub fn iterl2(steps: u32) -> Self {
        MethodSpec::IterL2 { steps }
    }

    /// The family name (`"iterl2"`, `"fisr"`, `"exact"`, `"lut"`).
    pub fn name(&self) -> &'static str {
        match self {
            MethodSpec::IterL2 { .. } => "iterl2",
            MethodSpec::Fisr { .. } => "fisr",
            MethodSpec::Exact { .. } => "exact",
            MethodSpec::Lut { .. } => "lut",
        }
    }

    /// Parse a method name, optionally with a `:parameter` suffix
    /// (`"iterl2"`, `"iterl2:7"`, `"fisr:2"`, `"exact:0"`, `"lut:128"`).
    /// Returns `None` for unknown names or unparsable parameters.
    pub fn parse(text: &str) -> Option<Self> {
        let (name, param) = match text.split_once(':') {
            Some((n, p)) => (n, Some(p)),
            None => (text, None),
        };
        let spec = match name {
            "iterl2" | "iterl2norm" => MethodSpec::IterL2 {
                steps: param.map_or(Ok(5), str::parse).ok()?,
            },
            "fisr" => MethodSpec::Fisr {
                newton: param.map_or(Ok(1), str::parse).ok()?,
            },
            "exact" | "baseline" => MethodSpec::Exact {
                // A negative ε would make every output NaN (sqrt of a
                // negative variance); reject it like lut:0 below.
                eps: param
                    .map_or(Ok(1e-5), str::parse)
                    .ok()
                    .filter(|e: &f64| e.is_finite() && *e >= 0.0)?,
            },
            "lut" => MethodSpec::Lut {
                // 0 segments would panic in LutRsqrt::new; reject it here
                // so parsed user input can never crash the build step.
                segments: param.map_or(Ok(64), str::parse).ok().filter(|&s| s > 0)?,
            },
            _ => return None,
        };
        Some(spec)
    }

    /// Short label for reports (matches [`ScaleMethod::label`]).
    pub fn label(&self) -> String {
        match self {
            MethodSpec::IterL2 { steps } => format!("iterl2[{steps}]"),
            MethodSpec::Fisr { newton } => format!("fisr[{newton}]"),
            MethodSpec::Exact { eps } => format!("exact[{eps:.0e}]"),
            MethodSpec::Lut { segments } => format!("lut[{segments}]"),
        }
    }

    /// Materialize the method for format `F` (FISR picks the canonical
    /// magic constant of the format; the LUT table is precomputed here,
    /// off the hot path).
    ///
    /// The returned [`ScaleMethod`] implements `RsqrtScale<F>` for *every*
    /// format, but a FISR built here carries `F`-specific state (the magic
    /// constant), so drive it with the same format it was built for —
    /// mixing formats silently degrades the FISR approximation. This
    /// mirrors the long-standing contract of `Fisr::canonical::<F>()`
    /// itself; the other methods are format-agnostic.
    pub fn build<F: Float>(&self) -> ScaleMethod {
        match *self {
            MethodSpec::IterL2 { steps } => ScaleMethod::IterL2(IterL2Norm::with_steps(steps)),
            MethodSpec::Fisr { newton } => ScaleMethod::Fisr(Fisr::with_newton_steps::<F>(newton)),
            MethodSpec::Exact { eps } => ScaleMethod::Exact(ExactRsqrtNorm { eps }),
            MethodSpec::Lut { segments } => ScaleMethod::Lut(LutRsqrt::new(segments)),
        }
    }
}

/// The reusable normalization engine: a scale method plus the scratch
/// buffer the hardware-order reductions need. One `Normalizer` serves any
/// number of plans; keep it `mut` and feed it rows.
///
/// The method slot is generic (default [`ScaleMethod`]) so the experiment
/// harness can drive the engine with any `S: RsqrtScale<F>` — including a
/// borrowed `&dyn RsqrtScale<F>` — without a required enum round-trip.
///
/// After [`Normalizer::for_plan`] sizes the scratch, the normalize calls
/// allocate nothing (see `tests/engine_no_alloc.rs`).
#[derive(Debug, Clone)]
pub struct Normalizer<F, S = ScaleMethod> {
    method: S,
    partials: Vec<F>,
}

impl<F: Float> Normalizer<F> {
    /// Engine for a registry entry, materialized for format `F`.
    pub fn from_spec(spec: &MethodSpec) -> Self {
        Self::with_method(spec.build::<F>())
    }
}

impl<F: Float, S: RsqrtScale<F>> Normalizer<F, S> {
    /// Engine with empty scratch (grows on first use).
    pub fn with_method(method: S) -> Self {
        Normalizer {
            method,
            partials: Vec::new(),
        }
    }

    /// Engine with scratch pre-sized for `plan`, so the very first
    /// normalize call is already allocation-free.
    pub fn for_plan(method: S, plan: &NormPlan<F>) -> Self {
        Normalizer {
            method,
            partials: Vec::with_capacity(partials_capacity(plan.d())),
        }
    }

    /// The scale method.
    pub fn method(&self) -> &S {
        &self.method
    }

    /// The method's report name.
    pub fn method_name(&self) -> &'static str {
        self.method.method_name()
    }

    /// Normalize one `d`-length row of `x` into `out` (Algorithm 1 with
    /// this engine's scale method and the plan's constants and affine
    /// parameters), returning the scalar intermediates.
    ///
    /// # Errors
    ///
    /// Length-mismatch variants when `x` or `out` disagree with the plan.
    pub fn normalize_into(
        &mut self,
        plan: &NormPlan<F>,
        x: &[F],
        out: &mut [F],
    ) -> Result<NormStats<F>, NormError> {
        if x.len() != plan.d() {
            return Err(NormError::InputLengthMismatch {
                expected: plan.d(),
                actual: x.len(),
            });
        }
        if out.len() != plan.d() {
            return Err(NormError::OutputLengthMismatch {
                expected: plan.d(),
                actual: out.len(),
            });
        }
        Ok(normalize_row_into(
            x,
            out,
            &plan.params(),
            &self.method,
            &mut self.partials,
        ))
    }

    /// Normalize one `d`-length row in place.
    ///
    /// # Errors
    ///
    /// [`NormError::InputLengthMismatch`] when the row disagrees with the
    /// plan.
    pub fn normalize_in_place(
        &mut self,
        plan: &NormPlan<F>,
        row: &mut [F],
    ) -> Result<NormStats<F>, NormError> {
        if row.len() != plan.d() {
            return Err(NormError::InputLengthMismatch {
                expected: plan.d(),
                actual: row.len(),
            });
        }
        Ok(normalize_row_in_place(
            row,
            &plan.params(),
            &self.method,
            &mut self.partials,
        ))
    }

    /// Normalize a row-major batch (`rows × d`, stride `d`) from `input`
    /// into `out`, returning the number of rows processed. Every output
    /// row is bit-identical to the corresponding single-row call.
    ///
    /// # Errors
    ///
    /// [`NormError::BatchLengthMismatch`] when `input` is not whole rows,
    /// [`NormError::OutputLengthMismatch`] when `out` differs in length.
    pub fn normalize_batch(
        &mut self,
        plan: &NormPlan<F>,
        input: &[F],
        out: &mut [F],
    ) -> Result<usize, NormError> {
        let rows = plan.rows_of(input.len())?;
        if out.len() != input.len() {
            return Err(NormError::OutputLengthMismatch {
                expected: input.len(),
                actual: out.len(),
            });
        }
        let d = plan.d();
        let params = plan.params();
        for (x_row, out_row) in input.chunks_exact(d).zip(out.chunks_exact_mut(d)) {
            normalize_row_into(x_row, out_row, &params, &self.method, &mut self.partials);
        }
        Ok(rows)
    }

    /// Normalize a row-major batch in place, returning the number of rows.
    ///
    /// # Errors
    ///
    /// [`NormError::BatchLengthMismatch`] when `data` is not whole rows.
    pub fn normalize_batch_in_place(
        &mut self,
        plan: &NormPlan<F>,
        data: &mut [F],
    ) -> Result<usize, NormError> {
        let rows = plan.rows_of(data.len())?;
        let d = plan.d();
        let params = plan.params();
        for row in data.chunks_exact_mut(d) {
            normalize_row_in_place(row, &params, &self.method, &mut self.partials);
        }
        Ok(rows)
    }
}

impl<F: Float, S: RsqrtScale<F> + Sync> Normalizer<F, S> {
    /// [`normalize_batch`](Normalizer::normalize_batch) partitioned over
    /// `threads` per-call scoped worker threads.
    ///
    /// Rows are split into contiguous runs — the first `rows % workers`
    /// workers take one extra row — and every worker owns its own
    /// partial-sum scratch, so every output row is **bit-identical** to
    /// the serial call for any thread count (rows are independent; the
    /// reduction order inside a row never changes). One thread, or a
    /// batch of at most one row, falls through to the serial path and
    /// reuses this engine's scratch.
    ///
    /// # Errors
    ///
    /// [`NormError::ZeroThreads`] when `threads == 0`, plus the shape
    /// errors of [`normalize_batch`](Normalizer::normalize_batch).
    pub fn normalize_batch_parallel(
        &mut self,
        plan: &NormPlan<F>,
        input: &[F],
        out: &mut [F],
        threads: usize,
    ) -> Result<usize, NormError> {
        if threads == 0 {
            return Err(NormError::ZeroThreads);
        }
        let rows = plan.rows_of(input.len())?;
        if out.len() != input.len() {
            return Err(NormError::OutputLengthMismatch {
                expected: input.len(),
                actual: out.len(),
            });
        }
        let workers = threads.min(rows);
        if workers <= 1 {
            return self.normalize_batch(plan, input, out);
        }
        let d = plan.d();
        let params = plan.params();
        let method = &self.method;
        let parts = split_rows(input, out, d, workers);
        fork(parts, |(in_chunk, out_chunk)| {
            let mut partials = Vec::with_capacity(partials_capacity(d));
            for (x_row, out_row) in in_chunk.chunks_exact(d).zip(out_chunk.chunks_exact_mut(d)) {
                normalize_row_into(x_row, out_row, &params, method, &mut partials);
            }
        });
        Ok(rows)
    }
}

/// Scratch capacity the hardware-tree reduction needs for vectors of
/// length `d`: one partial sum per 64-element chunk.
fn partials_capacity(d: usize) -> usize {
    d.div_ceil(crate::hworder::CHUNK)
}

/// Split whole-row `input`/`out` (stride `d`) into `workers` contiguous
/// runs: the first `rows % workers` workers take one extra row. Shared
/// by the scalar engine above and the SIMD batch driver, so every
/// execution tier partitions identically and per-row output bits never
/// depend on the thread count.
pub(crate) fn split_rows<'a, T>(
    mut input: &'a [T],
    mut out: &'a mut [T],
    d: usize,
    workers: usize,
) -> Vec<(&'a [T], &'a mut [T])> {
    let rows = input.len() / d;
    (0..workers)
        .map(|wi| {
            let take = (rows / workers + usize::from(wi < rows % workers)) * d;
            let (in_chunk, in_tail) = input.split_at(take);
            let (out_chunk, out_tail) = std::mem::take(&mut out).split_at_mut(take);
            input = in_tail;
            out = out_tail;
            (in_chunk, out_chunk)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layernorm::{layer_norm, LayerNormInputs};
    use softfloat::{Fp16, Fp32};

    fn sample_row(d: usize, salt: u64) -> Vec<Fp32> {
        (0..d)
            .map(|i| Fp32::from_f64((((i as u64 * 2654435761 + salt) % 1000) as f64) / 250.0 - 2.0))
            .collect()
    }

    #[test]
    fn plan_rejects_zero_dimension() {
        assert_eq!(NormPlan::<Fp32>::new(0).unwrap_err(), NormError::EmptyInput);
    }

    #[test]
    fn plan_validates_affine_lengths_at_build_time() {
        let plan = NormPlan::<Fp32>::new(4).unwrap();
        let short = vec![Fp32::ONE; 3];
        let full = vec![Fp32::ONE; 4];
        assert_eq!(
            plan.clone().with_gamma(&short).unwrap_err(),
            NormError::GammaLengthMismatch {
                expected: 4,
                actual: 3
            }
        );
        assert_eq!(
            plan.clone().with_beta(&short).unwrap_err(),
            NormError::BetaLengthMismatch {
                expected: 4,
                actual: 3
            }
        );
        let ok = plan.with_affine(&full, &full).unwrap();
        assert_eq!(ok.gamma().unwrap().len(), 4);
        assert_eq!(ok.beta().unwrap().len(), 4);
    }

    #[test]
    fn plan_constants_match_per_call_rounding() {
        for d in [1usize, 5, 64, 384, 768, 4096] {
            let plan = NormPlan::<Fp16>::new(d).unwrap();
            assert_eq!(
                plan.inv_d().to_bits(),
                Fp16::from_f64(1.0 / d as f64).to_bits()
            );
            assert_eq!(
                plan.sqrt_d().to_bits(),
                Fp16::from_f64((d as f64).sqrt()).to_bits()
            );
        }
    }

    #[test]
    fn rows_of_accepts_whole_rows_only() {
        let plan = NormPlan::<Fp32>::new(64).unwrap();
        assert_eq!(plan.rows_of(0).unwrap(), 0);
        assert_eq!(plan.rows_of(640).unwrap(), 10);
        assert_eq!(
            plan.rows_of(65).unwrap_err(),
            NormError::BatchLengthMismatch {
                rows: 1,
                d: 64,
                actual: 65
            }
        );
    }

    #[test]
    fn engine_matches_layer_norm_bitwise() {
        let d = 96;
        let x = sample_row(d, 17);
        let plan = NormPlan::<Fp32>::new(d).unwrap();
        for spec in MethodSpec::REGISTRY {
            let mut engine = Normalizer::for_plan(spec.build::<Fp32>(), &plan);
            let mut out = vec![Fp32::ZERO; d];
            engine.normalize_into(&plan, &x, &mut out).unwrap();
            let reference = layer_norm(LayerNormInputs::unscaled(&x), engine.method()).unwrap();
            for (a, b) in out.iter().zip(&reference) {
                assert_eq!(a.to_bits(), b.to_bits(), "{}", spec.label());
            }
        }
    }

    #[test]
    fn in_place_matches_into() {
        let d = 129;
        let x = sample_row(d, 3);
        let plan = NormPlan::<Fp32>::new(d).unwrap();
        let mut engine = Normalizer::from_spec(&MethodSpec::iterl2(5));
        let mut out = vec![Fp32::ZERO; d];
        let s1 = engine.normalize_into(&plan, &x, &mut out).unwrap();
        let mut data = x.clone();
        let s2 = engine.normalize_in_place(&plan, &mut data).unwrap();
        assert_eq!(s1.scale.to_bits(), s2.scale.to_bits());
        for (a, b) in out.iter().zip(&data) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn batch_shape_errors() {
        let plan = NormPlan::<Fp32>::new(8).unwrap();
        let mut engine = Normalizer::from_spec(&MethodSpec::iterl2(5));
        let input = vec![Fp32::ONE; 20]; // not a multiple of 8
        let mut out = vec![Fp32::ZERO; 20];
        assert_eq!(
            engine.normalize_batch(&plan, &input, &mut out).unwrap_err(),
            NormError::BatchLengthMismatch {
                rows: 2,
                d: 8,
                actual: 20
            }
        );
        let input = vec![Fp32::ONE; 16];
        let mut short_out = vec![Fp32::ZERO; 8];
        assert_eq!(
            engine
                .normalize_batch(&plan, &input, &mut short_out)
                .unwrap_err(),
            NormError::OutputLengthMismatch {
                expected: 16,
                actual: 8
            }
        );
        let mut row = vec![Fp32::ONE; 7];
        assert_eq!(
            engine.normalize_in_place(&plan, &mut row).unwrap_err(),
            NormError::InputLengthMismatch {
                expected: 8,
                actual: 7
            }
        );
    }

    #[test]
    fn empty_batch_is_zero_rows() {
        let plan = NormPlan::<Fp32>::new(16).unwrap();
        let mut engine = Normalizer::from_spec(&MethodSpec::iterl2(5));
        let mut out: Vec<Fp32> = Vec::new();
        assert_eq!(engine.normalize_batch(&plan, &[], &mut out).unwrap(), 0);
    }

    #[test]
    fn plan_affine_is_applied() {
        let d = 32;
        let x = sample_row(d, 9);
        let gamma = vec![Fp32::from_f64(2.0); d];
        let beta = vec![Fp32::from_f64(0.5); d];
        let plan = NormPlan::new(d)
            .unwrap()
            .with_affine(&gamma, &beta)
            .unwrap();
        let mut engine = Normalizer::from_spec(&MethodSpec::iterl2(5));
        let mut out = vec![Fp32::ZERO; d];
        engine.normalize_into(&plan, &x, &mut out).unwrap();
        let reference =
            layer_norm(LayerNormInputs::new(&x, &gamma, &beta), engine.method()).unwrap();
        for (a, b) in out.iter().zip(&reference) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn method_spec_parse_roundtrip() {
        assert_eq!(
            MethodSpec::parse("iterl2"),
            Some(MethodSpec::IterL2 { steps: 5 })
        );
        assert_eq!(
            MethodSpec::parse("iterl2:7"),
            Some(MethodSpec::IterL2 { steps: 7 })
        );
        assert_eq!(
            MethodSpec::parse("fisr:2"),
            Some(MethodSpec::Fisr { newton: 2 })
        );
        assert_eq!(
            MethodSpec::parse("exact"),
            Some(MethodSpec::Exact { eps: 1e-5 })
        );
        assert_eq!(
            MethodSpec::parse("lut:128"),
            Some(MethodSpec::Lut { segments: 128 })
        );
        assert_eq!(MethodSpec::parse("nope"), None);
        assert_eq!(MethodSpec::parse("iterl2:x"), None);
        // lut:0 would panic in LutRsqrt::new — parse must reject it.
        assert_eq!(MethodSpec::parse("lut:0"), None);
        // A negative or non-finite ε would make every output NaN.
        assert_eq!(MethodSpec::parse("exact:-1"), None);
        assert_eq!(MethodSpec::parse("exact:nan"), None);
        assert_eq!(MethodSpec::parse("exact:inf"), None);
        assert_eq!(
            MethodSpec::parse("exact:0"),
            Some(MethodSpec::Exact { eps: 0.0 })
        );
        for spec in MethodSpec::REGISTRY {
            assert_eq!(MethodSpec::parse(spec.name()), Some(spec));
        }
    }

    #[test]
    fn scale_method_labels_are_distinct() {
        let labels: Vec<String> = MethodSpec::REGISTRY
            .iter()
            .map(|s| s.build::<Fp32>().label())
            .collect();
        for (i, a) in labels.iter().enumerate() {
            for b in &labels[i + 1..] {
                assert_ne!(a, b);
            }
        }
        assert_eq!(labels[0], "iterl2[5]");
        // MethodSpec labels agree with the built method's labels.
        for spec in MethodSpec::REGISTRY {
            assert_eq!(spec.label(), spec.build::<Fp32>().label());
        }
    }

    #[test]
    fn dyn_dispatch_works_through_the_engine() {
        // Object safety: the same engine machinery must accept a
        // `&dyn RsqrtScale<F>` method.
        let d = 48;
        let x = sample_row(d, 31);
        let plan = NormPlan::<Fp32>::new(d).unwrap();
        let concrete = IterL2Norm::with_steps(5);
        let dynamic: &dyn RsqrtScale<Fp32> = &concrete;
        let mut engine = Normalizer::for_plan(dynamic, &plan);
        let mut out = vec![Fp32::ZERO; d];
        engine.normalize_into(&plan, &x, &mut out).unwrap();
        let reference = layer_norm(LayerNormInputs::unscaled(&x), &concrete).unwrap();
        for (a, b) in out.iter().zip(&reference) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
        assert_eq!(engine.method_name(), "IterL2Norm");
    }
}
