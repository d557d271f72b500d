//! Facade crate for the IterL2Norm reproduction: re-exports every
//! subsystem so the examples and integration tests have one import root.
//!
//! The substance lives in the member crates:
//!
//! * [`softfloat`] — bit-accurate FP32/FP16/BFloat16 arithmetic,
//! * [`iterl2norm`] — the paper's algorithm, baselines and metrics,
//! * [`macrosim`] — the cycle-accurate macro simulator,
//! * [`synthmodel`] — the area/power cost model,
//! * [`transformer`] / [`textgen`] — the LLM-level evaluation substrate,
//! * [`workloads`] — deterministic experiment vectors and the wire-level
//!   load generator,
//! * [`normserver`] — the network-facing multi-tenant serving layer
//!   (wire protocol, admission control, metrics export).
//!
//! # Examples
//!
//! ```
//! use iterl2norm_suite::prelude::*;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! // Plan once per layer shape, then normalize batches allocation-free.
//! let d = 64;
//! let plan = NormPlan::<Fp32>::new(d)?;
//! let mut engine = Normalizer::for_plan(MethodSpec::iterl2(5).build::<Fp32>(), &plan);
//! let batch: Vec<Fp32> = (0..4 * d).map(|i| Fp32::from_f64((i as f64).sin())).collect();
//! let mut out = vec![Fp32::ZERO; batch.len()];
//! assert_eq!(engine.normalize_batch(&plan, &batch, &mut out)?, 4);
//!
//! // The one-shot wrapper remains for experiments.
//! let z = layer_norm(LayerNormInputs::unscaled(&batch[..d]), &IterL2Norm::new())?;
//! assert_eq!(z.len(), d);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use iterl2norm;
pub use macrosim;
pub use normserver;
pub use softfloat;
pub use synthmodel;
pub use textgen;
pub use transformer;
pub use workloads;

/// Commonly used items in one import.
pub mod prelude {
    pub use iterl2norm::baselines::{ExactRsqrtNorm, Fisr, LutRsqrt};
    pub use iterl2norm::{
        build_backend, layer_norm, layer_norm_detailed, BackendKind, ExecFloat, FormatKind,
        IterConfig, IterL2Norm, LayerNormInputs, MethodSpec, NormBackend, NormError, NormPlan,
        NormRequest, NormService, NormStats, NormTicket, Normalizer, Placement, Priority,
        ReduceOrder, RsqrtScale, ScaleMethod, ServiceConfig, StopRule,
    };
    pub use macrosim::{IterL2NormMacro, MacroConfig};
    pub use normserver::{
        serve, Admission, ClientRequest, NormClient, ServerHandle, ServerOptions, ServerReply,
        TenantSpec,
    };
    pub use softfloat::{Bf16, Float, Fp16, Fp32, HostF32};
    pub use synthmodel::CostModel;
    pub use textgen::Corpus;
    pub use transformer::{Model, ModelSpec, NormMethod, TransformerConfig};
    pub use workloads::{Distribution, VectorGen};
}
