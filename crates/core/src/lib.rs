//! IterL2Norm: fast iterative L2-normalization (DATE 2025 reproduction).
//!
//! Layer normalization divides a mean-shifted vector `y` by its standard
//! deviation — the only step of the transformer's LayerNorm that needs
//! division and square root, which are expensive to put next to an on-chip
//! matrix engine. IterL2Norm replaces that step with a *scalar* fixed-point
//! iteration (paper Eq. 5)
//!
//! ```text
//! Δa = λ·m·a·(1 − m·a²),   a ← a + Δa,   m = ‖y‖²₂
//! ```
//!
//! whose stable fixed point is `a∞ = 1/‖y‖₂`, so `ŷ = √d·a∞·y` is the
//! normalized vector. Two bit-level tricks make it converge within five
//! steps: the initial `a₀` is built from the exponent field of `m`
//! (Eq. 6, [`a0_from_exponent`]) and the update rate λ from an exponent
//! shift of the constant 0.345 (Eq. 10, [`lambda_from_exponent`]).
//!
//! This crate implements the full algorithm generically over the
//! [`softfloat::Float`] formats (FP32/FP16/BFloat16), the baselines the
//! paper compares against ([`baselines`]), the exact `f64` reference
//! ([`mod@reference`]), the hardware reduction order used by the macro
//! ([`hworder`]), the analytical convergence model ([`analytic`]), the
//! error metrics of the evaluation section ([`metrics`]) and the execution
//! [`backend`] layer (softfloat emulation for every format, plus a
//! bit-identical host-`f32` fast path for FP32).
//!
//! # Quickstart — the batch-first engine
//!
//! Serving-path code builds a [`NormPlan`] once per layer shape (this is
//! where `d⁻¹` and `√d` are rounded into the format and γ/β lengths are
//! validated) and a [`Normalizer`] that owns the reduction scratch. The
//! normalize calls then allocate nothing:
//!
//! ```
//! use iterl2norm::{MethodSpec, NormPlan, Normalizer};
//! use softfloat::{Float, Fp32};
//!
//! # fn main() -> Result<(), iterl2norm::NormError> {
//! let d = 128;
//! let plan = NormPlan::<Fp32>::new(d)?; // once per layer shape
//! let mut engine = Normalizer::for_plan(MethodSpec::iterl2(5).build::<Fp32>(), &plan);
//!
//! // Normalize a row-major batch of 16 activation rows in one call.
//! let batch: Vec<Fp32> = (0..16 * d)
//!     .map(|i| Fp32::from_f64((i as f64 * 0.211).sin()))
//!     .collect();
//! let mut out = vec![Fp32::ZERO; batch.len()];
//! let rows = engine.normalize_batch(&plan, &batch, &mut out)?;
//! assert_eq!(rows, 16);
//!
//! // Single rows reuse the same plan and scratch.
//! let mut row = batch[..d].to_vec();
//! let stats = engine.normalize_in_place(&plan, &mut row)?;
//! assert!(stats.scale.is_finite());
//! # Ok(())
//! # }
//! ```
//!
//! The one-shot wrappers [`layer_norm`] / [`layer_norm_detailed`] remain
//! for experiments and tests; they run the identical pipeline (their
//! output is bit-for-bit the engine's) but rebuild the plan constants and
//! allocate per call. Methods are dispatched through the single
//! [`ScaleMethod`] registry (or any custom `&dyn RsqrtScale<F>` — the
//! trait is object-safe).

// `deny` rather than `forbid`: the `simd` and `whiten` modules are the
// only places in the workspace that need `unsafe` (std::arch intrinsics
// and two u32/f32 slice reinterpretations in `simd`) and opt back in
// with a scoped `allow`; every other module stays unsafe-free, enforced
// at compile time.
#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod analytic;
pub mod backend;
pub mod baselines;
mod config;
mod engine;
mod error;
mod executor;
pub mod hworder;
mod iteration;
mod layernorm;
pub mod metrics;
pub mod reference;
pub mod service;
pub mod simd;
pub mod whiten;

pub use backend::{
    build_backend, build_backend_affine, build_backend_simd, BackendKind, ExecFloat, FormatKind,
    NormBackend, RowMoments,
};
pub use config::{InitRule, IterConfig, LambdaRule, StopRule, UpdateStyle};
pub use engine::{MethodSpec, NormPlan, Normalizer, ScaleMethod};
pub use error::NormError;
pub use hworder::ReduceOrder;
pub use iteration::{
    a0_from_exponent, apply_update, iterate, lambda_from_exponent, update_step, update_step_fused,
    IterL2Norm, IterTrace,
};
pub use layernorm::{
    layer_norm, layer_norm_detailed, DimConsts, LayerNormInputs, LayerNormOutput, NormStats,
    RsqrtScale,
};
pub use service::{
    NormRequest, NormResponse, NormService, NormTicket, Placement, Priority, RequestKind,
    ServiceConfig, ServiceStats, ServiceStatsSnapshot, TicketSet,
};
pub use simd::SimdLevel;
pub use whiten::{
    build_whiten, EmulatedWhiten, GroupMode, NativeWhitenF32, WhitenDetail, WhitenExec, WhitenSpec,
};
