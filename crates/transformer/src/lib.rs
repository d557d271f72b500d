//! A decoder-only transformer inference engine with pluggable
//! normalization — the substrate for the paper's Table IV LLM-level
//! evaluation.
//!
//! Table IV replaces every LayerNorm in pretrained OPT-125M/350M with
//! IterL2Norm and measures the perplexity change on WikiText-2 and BST for
//! iteration counts 3/4/5/10 in FP32/FP16/BFloat16. Without the pretrained
//! weights, this crate builds the same architecture (OPT-style decoder
//! blocks: masked multi-head attention + ReLU feed-forward, learned
//! positions, pre- or post-norm placement) at reduced width, with two
//! weight modes (see DESIGN.md §4):
//!
//! * [`ModelSpec::random`] — seeded random weights: isolates the pure
//!   numerical perturbation that approximate normalization injects;
//! * [`ModelSpec::bigram`] — weights constructed so the model computes the
//!   (near-optimal) bigram predictor of a `textgen`-style corpus, giving
//!   realistic perplexity magnitudes.
//!
//! Matrix arithmetic runs in the chosen [`softfloat::Float`] format, like
//! the paper's dtype sweeps; softmax/exp/log are evaluated on the host
//! (PyTorch kernels do the same — normalization is the component under
//! test). The normalization layers dispatch through [`NormMethod`]:
//! exact rsqrt, IterL2Norm with a programmable step count, or FISR.
//!
//! # Examples
//!
//! ```
//! use softfloat::Fp32;
//! use transformer::{Model, ModelSpec, NormMethod, TransformerConfig};
//!
//! let config = TransformerConfig::tiny(32);
//! let spec = ModelSpec::random(config, 42);
//! let model = Model::<Fp32>::from_spec(&spec);
//! let tokens = vec![1u16, 5, 9, 2, 7];
//! let exact = model.perplexity(&tokens, &NormMethod::exact());
//! let iter5 = model.perplexity(&tokens, &NormMethod::iterl2(5));
//! // Five iteration steps track the exact normalization closely.
//! assert!((exact - iter5).abs() / exact < 0.05);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod config;
mod generate;
mod init;
mod model;
mod norm;
mod pool;
mod tensor;

pub use config::{NormPlacement, TransformerConfig};
pub use generate::Decoding;
pub use init::BigramCorpusStats;
pub use model::{Model, ModelSpec};
pub use norm::NormMethod;
pub use tensor::Matrix;
