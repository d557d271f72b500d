//! Iterative whitening engine: Newton–Schulz `Σ^{-1/2}` as a batch
//! workload (IterNorm, Huang et al. — "Iterative Normalization: Beyond
//! Standardization towards Efficient Whitening").
//!
//! The paper's core trick — replacing an exact inverse square root with a
//! cheap convergent iteration — generalizes from the per-row *scalar*
//! `1/√m` of IterL2Norm to the *matrix* inverse square root a whitening
//! layer needs. One whitening request is a row-major `m × d` **group**
//! `X`; the engine computes
//!
//! ```text
//! Xc   = X − mean(X)                  (per column; GroupMode::Center)
//! Σ    = (1/m)·Xcᵀ·Xc + eps·I
//! Σ_N  = Σ / trace(Σ)                 (trace normalization)
//! P₀   = I
//! P_{k+1} = 1.5·P_k − 0.5·P_k³·Σ_N    (T Newton–Schulz steps)
//! Y    = (P_T / √trace(Σ)) · Xcᵀ      (apply Σ^{-1/2} ≈ P_T·trace^{-1/2})
//! ```
//!
//! applied row-wise, so `Y` is the whitened group in the same `m × d`
//! layout. Trace normalization pulls `Σ_N`'s spectrum into `(0, 1]`,
//! which is what makes the fixed-point iteration converge without an
//! eigendecomposition — the exact matrix analogue of the paper's
//! exponent-seeded scalar iteration.
//!
//! # Execution paths and bit-identity
//!
//! Exactly like the normalization engine, two implementations share one
//! object-safe interface ([`WhitenExec`]):
//!
//! * [`Emulated<F>`](crate::backend::Emulated)-style softfloat execution
//!   for every format (FP32/FP16/BF16) — the bit-accurate reference
//!   oracle.
//! * A host-`f32` native path (FP32 only) that reuses the existing
//!   [`SimdLevel`] dispatch — AVX2, SSE2, portable, or forced scalar,
//!   runtime-resolved exactly like the normalization backend and never
//!   silently downgraded.
//!
//! The native path is **bit-identical** to the emulated FP32 oracle at
//! every SIMD level. The argument is the same as `simd.rs`, but it is
//! worth restating for matmuls, where "SIMD changes the answer" folklore
//! comes from: the reduction chain of each *output element* is a fixed,
//! sequential left-to-right fold, and nothing the native path does to go
//! fast ever spans anything but *independent output elements*. The
//! covariance (`Σ[i][j]` over the rows `k` of `Xc`), the three
//! Newton–Schulz products (`C[i][j]` over `k`) and the apply
//! (`Y[k][i]` over `j`) all run through one register-tile kernel whose
//! per-element contract is the oracle's: start at `+0.0`, fold the
//! inner index ascending as `acc + (a·b)` — a multiply, then an add. A
//! tile holds a block of such accumulators in registers for the whole
//! fold; its rows and its vector lanes are different outputs, each
//! performing the identical IEEE-754 binary32 round-to-nearest-even
//! operation sequence the oracle performs, in the same order. No FMA is
//! used on the value path (explicit mul then add; Rust never contracts,
//! and intrinsic calls are never contracted), and no reduction is ever
//! reassociated across lanes or tiles. `tests/whiten_bit_identity.rs`
//! enforces native ≡ emulated for every forced level × d × T.
//!
//! Division and square root are correctly rounded in both IEEE binary32
//! hardware and the softfloat emulator, so `1/trace` and `√(1/trace)`
//! carry the equivalence too.
//!
//! Inputs are expected to be finite (or canonical quiet NaNs, which
//! propagate identically). Non-canonical NaN payloads and invalid
//! operations that *create* NaNs (`∞ − ∞`, `√negative`) are outside the
//! bit-identity contract: hardware and emulator pick different payloads
//! there, exactly as for the normalization engine.
#![allow(unsafe_code)]

use core::fmt;

use softfloat::{Bf16, Float, Fp16, Fp32};
use std::sync::{Mutex, PoisonError};

/// One worker's pre-split group run (row counts + bit slices), parked
/// behind its own mutex for the shared-closure `&mut` hand-off.
type GroupChunk<'a> = Mutex<Option<(&'a [usize], &'a [u32], &'a mut [u32])>>;

use crate::backend::{scatter, BackendKind, FormatKind};
use crate::error::NormError;
use crate::simd::{self, SimdKernel, SimdLevel};

/// How a whitening group is shifted before its covariance is taken.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum GroupMode {
    /// Subtract the per-column mean of the group first (the standard
    /// whitening definition — covariance of the centered samples).
    #[default]
    Center,
    /// Use the group as-is (second-moment whitening; what a caller wants
    /// when the data is already centered upstream).
    Raw,
}

impl GroupMode {
    /// Both modes, for sweeps and CLI help.
    pub const ALL: [GroupMode; 2] = [GroupMode::Center, GroupMode::Raw];

    /// Parse a mode name (`"center"`, `"raw"`), case-insensitively.
    /// Returns `None` for anything else.
    pub fn parse(text: &str) -> Option<Self> {
        match text.to_ascii_lowercase().as_str() {
            "center" => Some(GroupMode::Center),
            "raw" => Some(GroupMode::Raw),
            _ => None,
        }
    }

    /// Canonical name (`"center"` / `"raw"`).
    pub fn name(self) -> &'static str {
        match self {
            GroupMode::Center => "center",
            GroupMode::Raw => "raw",
        }
    }
}

impl fmt::Display for GroupMode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// The whitening workload's registry entry, alongside
/// [`MethodSpec`](crate::MethodSpec): how many Newton–Schulz steps run,
/// how much ridge is added to the covariance diagonal, and whether the
/// group is centered first.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WhitenSpec {
    /// Newton–Schulz step count `T`. `T = 0` applies the trace-normalized
    /// identity — output is `√(1/trace(Σ))·Xc`, a pure rescale.
    pub t: u32,
    /// Ridge added to the covariance diagonal (`Σ += eps·I`) before trace
    /// normalization, rounded once into the executed format. Keeps a
    /// degenerate group (`m < d`, or `m = 1` centered) invertible-ish and
    /// the iteration finite.
    pub eps: f64,
    /// Whether the group is mean-centered before its covariance is taken.
    pub group_mode: GroupMode,
}

impl Default for WhitenSpec {
    fn default() -> Self {
        WhitenSpec {
            t: 5,
            eps: 1e-5,
            group_mode: GroupMode::Center,
        }
    }
}

impl WhitenSpec {
    /// The default spec (`t = 5`, `eps = 1e-5`, centered).
    pub fn new() -> Self {
        Self::default()
    }

    /// Set the Newton–Schulz step count.
    pub fn with_t(mut self, t: u32) -> Self {
        self.t = t;
        self
    }

    /// Set the covariance ridge.
    pub fn with_eps(mut self, eps: f64) -> Self {
        self.eps = eps;
        self
    }

    /// Set the group shift mode.
    pub fn with_group_mode(mut self, group_mode: GroupMode) -> Self {
        self.group_mode = group_mode;
        self
    }

    /// Report label, e.g. `"whiten[t=5,eps=1e-5,center]"`.
    pub fn label(&self) -> String {
        format!(
            "whiten[t={},eps={:e},{}]",
            self.t,
            self.eps,
            self.group_mode.name()
        )
    }
}

/// Scalar diagnostics of one whitened group, widened to `f64` for
/// type-erased reporting — the whitening analogue of
/// [`RowMoments`](crate::backend::RowMoments).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WhitenDetail {
    /// Mean of all `m·d` input elements (format arithmetic, widened).
    pub mean: f64,
    /// `trace(Σ)` after the ridge — the total variance the group carries.
    pub trace: f64,
    /// The global scale `√(1/trace(Σ))` folded into the whiten matrix.
    pub scale: f64,
    /// Convergence residual `‖P_T²·Σ_N − I‖_max`, evaluated in `f64` off
    /// the bit path. Small (≲ 1e-3) when the iteration converged; `NaN`
    /// when it blew up.
    pub residual: f64,
}

/// A whitening executor: `m × d` groups of raw storage bits in, whitened
/// bits out — the whitening counterpart of
/// [`NormBackend`](crate::backend::NormBackend), object-safe for the same
/// reason (heterogeneous value types behind one service).
pub trait WhitenExec: Send {
    /// Which arithmetic implementation this is.
    fn backend(&self) -> BackendKind;

    /// The executed format's display name (e.g. `"FP32"`).
    fn format_name(&self) -> &'static str;

    /// The feature length `d` (groups are `m × d`, any `m ≥ 1`).
    fn d(&self) -> usize;

    /// The spec this executor runs.
    fn spec(&self) -> WhitenSpec;

    /// The *resolved* SIMD execution level — never [`SimdLevel::Auto`];
    /// scalar implementations report [`SimdLevel::Scalar`].
    fn simd_level(&self) -> SimdLevel {
        SimdLevel::Scalar
    }

    /// Combined report label, e.g. `"native-f32/FP32/whiten[t=5,…]"`.
    fn label(&self) -> String {
        format!(
            "{}/{}/{}",
            self.backend().name(),
            self.format_name(),
            self.spec().label()
        )
    }

    /// Whiten a concatenation of groups: `group_rows[g]` is the sample
    /// count `m` of group `g`, and `input`/`out` hold the groups
    /// back-to-back in row-major order. Groups are independent, so an
    /// implementation may partition them across up to `threads` workers —
    /// output bits never depend on the thread count (each group's
    /// operation chain is internally sequential either way). Returns the
    /// total row count.
    ///
    /// # Errors
    ///
    /// [`NormError::ZeroThreads`] when `threads == 0`,
    /// [`NormError::OutputLengthMismatch`] when `out` differs from
    /// `input` in length, [`NormError::EmptyRequest`] when there are no
    /// groups or a group has `m = 0`, and
    /// [`NormError::GroupShapeMismatch`] when the buffer is not the
    /// concatenation the row counts describe.
    fn whiten_groups(
        &mut self,
        input: &[u32],
        out: &mut [u32],
        group_rows: &[usize],
        threads: usize,
    ) -> Result<usize, NormError>;

    /// [`whiten_groups`](WhitenExec::whiten_groups) over an injected
    /// [`PartitionRunner`](crate::executor::PartitionRunner) — the
    /// serving path's resident per-shard pool. The default executes
    /// through the thread-count entry point at the runner's width
    /// (bits never depend on the vehicle); the native executor
    /// overrides it to partition groups on the runner itself.
    ///
    /// # Errors
    ///
    /// The shape errors of [`whiten_groups`](WhitenExec::whiten_groups).
    fn whiten_groups_runner(
        &mut self,
        input: &[u32],
        out: &mut [u32],
        group_rows: &[usize],
        runner: &dyn crate::executor::PartitionRunner,
    ) -> Result<usize, NormError> {
        self.whiten_groups(input, out, group_rows, runner.width().max(1))
    }

    /// Whiten a round's groups where they sit, over an injected
    /// [`PartitionRunner`](crate::executor::PartitionRunner): each of
    /// `groups` is one whole `m × d` group (one request's payload in the
    /// serving path) and is overwritten with its whitened rows, returning
    /// the total row count. Groups split across the runner's parts exactly
    /// as [`whiten_groups_runner`](WhitenExec::whiten_groups_runner)
    /// splits their concatenation, and groups are independent, so the bits
    /// equal that call's. On error the groups' contents are unspecified.
    ///
    /// The default implementation copies the groups into one input, makes
    /// that single out-of-place call and copies each result back — cheap
    /// next to the emulated oracle's soft-float work; the native executor
    /// overrides it to skip the copies.
    ///
    /// # Errors
    ///
    /// [`NormError::EmptyRequest`] when there are no groups or a group is
    /// empty, [`NormError::GroupShapeMismatch`] when a group is not whole
    /// `d`-length rows, plus the errors of
    /// [`whiten_groups_runner`](WhitenExec::whiten_groups_runner).
    fn whiten_in_place_runner(
        &mut self,
        groups: &mut [&mut [u32]],
        runner: &dyn crate::executor::PartitionRunner,
    ) -> Result<usize, NormError> {
        let d = self.d();
        check_groups(d, groups)?;
        let group_rows: Vec<usize> = groups.iter().map(|g| g.len() / d).collect();
        let input = groups.concat();
        let mut out = vec![0u32; input.len()];
        let rows = self.whiten_groups_runner(&input, &mut out, &group_rows, runner)?;
        scatter(&out, groups);
        Ok(rows)
    }

    /// Whiten exactly one group, additionally returning the scalar
    /// diagnostics as [`WhitenDetail`] — the detailed path behind
    /// reporting front ends (the CLI's `whiten`). The output bits are
    /// identical to the same group going through
    /// [`whiten_groups`](WhitenExec::whiten_groups).
    ///
    /// # Errors
    ///
    /// The shape errors of [`whiten_groups`](WhitenExec::whiten_groups).
    fn whiten_group_detailed(
        &mut self,
        input: &[u32],
        out: &mut [u32],
    ) -> Result<WhitenDetail, NormError>;

    /// [`whiten_group_detailed`](WhitenExec::whiten_group_detailed) with
    /// a convergence bar: when the residual is not finite or exceeds
    /// `tol`, the error names the step budget, the measured residual and
    /// the tolerance. The output buffer still holds the (unconverged)
    /// whitened bits, so a caller can inspect what the iteration did.
    ///
    /// # Errors
    ///
    /// The shape errors, plus [`NormError::WhitenNotConverged`].
    fn whiten_group_checked(
        &mut self,
        input: &[u32],
        out: &mut [u32],
        tol: f64,
    ) -> Result<WhitenDetail, NormError> {
        let detail = self.whiten_group_detailed(input, out)?;
        if !(detail.residual.is_finite() && detail.residual <= tol) {
            return Err(NormError::WhitenNotConverged {
                steps: self.spec().t,
                residual_bits: detail.residual.to_bits(),
                tol_bits: tol.to_bits(),
            });
        }
        Ok(detail)
    }
}

/// Shared shape validation for a multi-group call. Returns the total row
/// count.
fn validate_groups(
    d: usize,
    input: &[u32],
    out: &[u32],
    group_rows: &[usize],
    threads: usize,
) -> Result<usize, NormError> {
    if threads == 0 {
        return Err(NormError::ZeroThreads);
    }
    if out.len() != input.len() {
        return Err(NormError::OutputLengthMismatch {
            expected: input.len(),
            actual: out.len(),
        });
    }
    if group_rows.is_empty() || group_rows.contains(&0) {
        return Err(NormError::EmptyRequest);
    }
    let rows: usize = group_rows.iter().sum();
    if !input.len().is_multiple_of(d) || rows * d != input.len() {
        return Err(NormError::GroupShapeMismatch {
            rows: input.len() / d,
            d,
            actual: input.len(),
        });
    }
    Ok(rows)
}

/// Shape validation for an in-place call: at least one group, and every
/// group non-empty whole `d`-length rows. Returns the total row count.
fn check_groups(d: usize, groups: &[&mut [u32]]) -> Result<usize, NormError> {
    if groups.is_empty() {
        return Err(NormError::EmptyRequest);
    }
    groups.iter().try_fold(0, |rows, g| {
        if g.is_empty() {
            Err(NormError::EmptyRequest)
        } else if !g.len().is_multiple_of(d) {
            Err(NormError::GroupShapeMismatch {
                rows: g.len() / d,
                d,
                actual: g.len(),
            })
        } else {
            Ok(rows + g.len() / d)
        }
    })
}

// --------------------------------------------------------------------
// Generic softfloat path: the oracle, every format. The loop structure
// below is the canonical operation order; the f32 kernel path runs the
// same per-element chains (same fold directions, same mul-then-add) in
// a blocked layout, which is what the bit-identity suite pins.
// --------------------------------------------------------------------

/// Reusable per-call buffers for one group, in format values.
#[derive(Debug, Clone)]
struct Scratch<F> {
    mean: Vec<F>,   // d
    xc: Vec<F>,     // m·d   centered group
    sigma: Vec<F>,  // d·d   covariance + ridge (kept for diagnostics)
    sigman: Vec<F>, // d·d   trace-normalized covariance
    p: Vec<F>,      // d·d   Newton–Schulz iterate
    p2: Vec<F>,     // d·d
    p3: Vec<F>,     // d·d
    g: Vec<F>,      // d·d   P³·Σ_N, then reused as the whiten matrix
    wmt: Vec<F>,    // d·d   transposed whiten matrix
}

impl<F> Default for Scratch<F> {
    fn default() -> Self {
        Scratch {
            mean: Vec::new(),
            xc: Vec::new(),
            sigma: Vec::new(),
            sigman: Vec::new(),
            p: Vec::new(),
            p2: Vec::new(),
            p3: Vec::new(),
            g: Vec::new(),
            wmt: Vec::new(),
        }
    }
}

impl<F: Float> Scratch<F> {
    fn reserve(&mut self, m: usize, d: usize) {
        self.mean.resize(d, F::zero());
        self.xc.resize(m * d, F::zero());
        for buf in [
            &mut self.sigma,
            &mut self.sigman,
            &mut self.p,
            &mut self.p2,
            &mut self.p3,
            &mut self.g,
            &mut self.wmt,
        ] {
            buf.resize(d * d, F::zero());
        }
    }
}

/// `c = a·b` for `d × d` row-major matrices: zero the output, then the
/// i-k-j axpy order — each `c[i][j]` accumulates `a[i][k]·b[k][j]` over
/// `k` ascending, one multiply then one add per term.
// normlint: kernel-begin
fn matmul_soft<F: Float>(c: &mut [F], a: &[F], b: &[F], d: usize) {
    c.fill(F::zero());
    for i in 0..d {
        let crow = &mut c[i * d..(i + 1) * d];
        for k in 0..d {
            let aik = a[i * d + k];
            let brow = &b[k * d..(k + 1) * d];
            for (cij, &bkj) in crow.iter_mut().zip(brow) {
                *cij = *cij + aik * bkj;
            }
        }
    }
}
// normlint: kernel-end

/// Whiten one group in format arithmetic. `x` is `m × d`; the whitened
/// rows land in `y`. The scratch keeps `sigma`, `sigman` and `p` for the
/// diagnostics path.
fn whiten_group_soft<F: Float>(
    x: &[F],
    y: &mut [F],
    d: usize,
    spec: &WhitenSpec,
    eps: F,
    s: &mut Scratch<F>,
) {
    let m = x.len() / d;
    s.reserve(m, d);
    let inv_m = F::one() / F::from_f64(m as f64);
    // Center (or copy) the group.
    match spec.group_mode {
        GroupMode::Center => {
            s.mean.fill(F::zero());
            for row in x.chunks_exact(d) {
                for (mj, &xj) in s.mean.iter_mut().zip(row) {
                    *mj = *mj + xj;
                }
            }
            for mj in s.mean.iter_mut() {
                *mj = *mj * inv_m;
            }
            for (xcrow, xrow) in s.xc.chunks_exact_mut(d).zip(x.chunks_exact(d)) {
                for ((xcj, &xj), &mj) in xcrow.iter_mut().zip(xrow).zip(&s.mean) {
                    *xcj = xj - mj;
                }
            }
        }
        GroupMode::Raw => s.xc.copy_from_slice(x),
    }
    // Covariance: Σ[i][j] += Xc[k][i]·Xc[k][j], k outermost so each
    // output element folds over k ascending.
    s.sigma.fill(F::zero());
    for xcrow in s.xc.chunks_exact(d) {
        for i in 0..d {
            let xki = xcrow[i];
            let srow = &mut s.sigma[i * d..(i + 1) * d];
            for (sij, &xkj) in srow.iter_mut().zip(xcrow) {
                *sij = *sij + xki * xkj;
            }
        }
    }
    for sij in s.sigma.iter_mut() {
        *sij = *sij * inv_m;
    }
    for i in 0..d {
        s.sigma[i * d + i] = s.sigma[i * d + i] + eps;
    }
    // Trace normalization: a sequential fold over the diagonal.
    let mut tr = F::zero();
    for i in 0..d {
        tr = tr + s.sigma[i * d + i];
    }
    let rtr = F::one() / tr;
    for (nij, &sij) in s.sigman.iter_mut().zip(&s.sigma) {
        *nij = sij * rtr;
    }
    // Newton–Schulz: P ← 1.5·P − 0.5·(P³·Σ_N).
    s.p.fill(F::zero());
    for i in 0..d {
        s.p[i * d + i] = F::one();
    }
    let three_halves = F::from_f64(1.5);
    let half = F::from_f64(0.5);
    // normlint: kernel-begin
    for _ in 0..spec.t {
        let (p2, p3, g) = (&mut s.p2, &mut s.p3, &mut s.g);
        matmul_soft(p2, &s.p, &s.p, d);
        matmul_soft(p3, p2, &s.p, d);
        matmul_soft(g, p3, &s.sigman, d);
        for (pij, &gij) in s.p.iter_mut().zip(s.g.iter()) {
            *pij = (three_halves * *pij) - (half * gij);
        }
    }
    // normlint: kernel-end
    // Fold the trace scale back in and transpose for a contiguous apply.
    let scale = rtr.sqrt();
    for (wij, &pij) in s.g.iter_mut().zip(&s.p) {
        *wij = pij * scale;
    }
    for i in 0..d {
        for j in 0..d {
            s.wmt[j * d + i] = s.g[i * d + j];
        }
    }
    // Apply: Y[k][i] += Xc[k][j]·WMᵀ[j][i], j in the middle loop so each
    // output element folds over j ascending.
    y.fill(F::zero());
    for (yrow, xcrow) in y.chunks_exact_mut(d).zip(s.xc.chunks_exact(d)) {
        for (j, &xkj) in xcrow.iter().enumerate() {
            let wrow = &s.wmt[j * d..(j + 1) * d];
            for (yki, &wji) in yrow.iter_mut().zip(wrow) {
                *yki = *yki + xkj * wji;
            }
        }
    }
}

/// `f64` diagnostics computed from the post-run scratch state, off the
/// bit path (the widening is exact for every ≤ 32-bit format).
fn detail_from_scratch<F: Float>(x: &[F], s: &Scratch<F>, d: usize, t: u32) -> WhitenDetail {
    let mean = x.iter().map(|v| v.to_f64()).sum::<f64>() / x.len() as f64;
    let trace = (0..d).map(|i| s.sigma[i * d + i].to_f64()).sum::<f64>();
    let scale = (1.0 / trace).sqrt();
    let p: Vec<f64> = s.p.iter().map(|v| v.to_f64()).collect();
    let sigman: Vec<f64> = s.sigman.iter().map(|v| v.to_f64()).collect();
    WhitenDetail {
        mean,
        trace,
        scale,
        residual: residual_f64(&p, &sigman, d, t),
    }
}

/// `‖P²·Σ_N − I‖_max` in `f64` — the Newton–Schulz convergence measure.
/// `T = 0` means the caller asked for the pure trace rescale, which is
/// exact by definition, so the residual is reported as 0.
fn residual_f64(p: &[f64], sigman: &[f64], d: usize, t: u32) -> f64 {
    if t == 0 {
        return 0.0;
    }
    let mut p2 = vec![0.0f64; d * d];
    for i in 0..d {
        for k in 0..d {
            let aik = p[i * d + k];
            for j in 0..d {
                p2[i * d + j] += aik * p[k * d + j];
            }
        }
    }
    let mut worst = 0.0f64;
    for i in 0..d {
        for j in 0..d {
            let mut v = 0.0f64;
            for k in 0..d {
                v += p2[i * d + k] * sigman[k * d + j];
            }
            let target = if i == j { 1.0 } else { 0.0 };
            let err = (v - target).abs();
            if !err.is_finite() {
                return f64::NAN;
            }
            if err > worst {
                worst = err;
            }
        }
    }
    worst
}

/// The softfloat whitening executor: bit-accurate emulation of format
/// `F`. The only option for FP16/BF16, and the reference oracle for
/// FP32. Runs groups serially — it is the correctness yardstick, not the
/// fast path.
#[derive(Debug, Clone)]
pub struct EmulatedWhiten<F: Float> {
    d: usize,
    spec: WhitenSpec,
    eps: F,
    decoded: Vec<F>,
    encoded: Vec<F>,
    scratch: Scratch<F>,
}

impl<F: Float> EmulatedWhiten<F> {
    /// Executor for `d`-feature groups under `spec`.
    ///
    /// # Errors
    ///
    /// [`NormError::EmptyInput`] when `d == 0`.
    pub fn new(d: usize, spec: WhitenSpec) -> Result<Self, NormError> {
        if d == 0 {
            return Err(NormError::EmptyInput);
        }
        Ok(EmulatedWhiten {
            d,
            spec,
            eps: F::from_f64(spec.eps),
            decoded: Vec::new(),
            encoded: Vec::new(),
            scratch: Scratch::default(),
        })
    }

    fn run_group(&mut self, input: &[u32], out: &mut [u32]) {
        self.decoded.clear();
        self.decoded.extend(input.iter().map(|&b| F::from_bits(b)));
        self.encoded.clear();
        self.encoded.resize(input.len(), F::zero());
        whiten_group_soft(
            &self.decoded,
            &mut self.encoded,
            self.d,
            &self.spec,
            self.eps,
            &mut self.scratch,
        );
        for (slot, v) in out.iter_mut().zip(&self.encoded) {
            *slot = v.to_bits();
        }
    }
}

impl<F: Float> WhitenExec for EmulatedWhiten<F> {
    fn backend(&self) -> BackendKind {
        BackendKind::Emulated
    }

    fn format_name(&self) -> &'static str {
        F::NAME
    }

    fn d(&self) -> usize {
        self.d
    }

    fn spec(&self) -> WhitenSpec {
        self.spec
    }

    fn whiten_groups(
        &mut self,
        input: &[u32],
        out: &mut [u32],
        group_rows: &[usize],
        threads: usize,
    ) -> Result<usize, NormError> {
        let rows = validate_groups(self.d, input, out, group_rows, threads)?;
        // Serial on purpose: groups are independent, so bits cannot
        // depend on the thread count either way, and the oracle's job is
        // reference semantics, not throughput.
        let mut offset = 0;
        for &m in group_rows {
            let len = m * self.d;
            self.run_group(&input[offset..offset + len], &mut out[offset..offset + len]);
            offset += len;
        }
        Ok(rows)
    }

    fn whiten_group_detailed(
        &mut self,
        input: &[u32],
        out: &mut [u32],
    ) -> Result<WhitenDetail, NormError> {
        let rows = input.len() / self.d.max(1);
        validate_groups(self.d, input, out, &[rows], 1)?;
        self.run_group(input, out);
        Ok(detail_from_scratch(
            &self.decoded,
            &self.scratch,
            self.d,
            self.spec.t,
        ))
    }
}

// --------------------------------------------------------------------
// Native f32 path: every output element runs the oracle's operation
// chain. The elementwise passes go through a SIMD kernel tier, the
// products through one register-tile kernel; lanes and tile rows span
// independent output elements only.
// --------------------------------------------------------------------

/// The elementwise primitives of the non-matmul passes. Each is a
/// lanewise map over contiguous `f32` slices — implementations differ
/// only in lane width, never in per-element operation order.
///
/// Methods are `unsafe` because implementations may use instructions the
/// host must support — callers reach them only through kernels resolved
/// by [`simd::resolve`] for this host.
trait WhitenOps {
    /// `dst[i] = dst[i] + src[i]`.
    ///
    /// # Safety: callers must hold the implementation's ISA requirement
    /// (kernels are resolved for this host by [`simd::resolve`]).
    unsafe fn add_assign(&self, dst: &mut [f32], src: &[f32]);
    /// `dst[i] = dst[i] * s`.
    ///
    /// # Safety: callers must hold the implementation's ISA requirement
    /// (kernels are resolved for this host by [`simd::resolve`]).
    unsafe fn scale_assign(&self, dst: &mut [f32], s: f32);
    /// `dst[i] = dst[i] - src[i]`.
    ///
    /// # Safety: callers must hold the implementation's ISA requirement
    /// (kernels are resolved for this host by [`simd::resolve`]).
    unsafe fn sub_assign(&self, dst: &mut [f32], src: &[f32]);
    /// `p[i] = (1.5 * p[i]) - (0.5 * g[i])` — the Newton–Schulz combine.
    ///
    /// # Safety: callers must hold the implementation's ISA requirement
    /// (kernels are resolved for this host by [`simd::resolve`]).
    unsafe fn ns_combine(&self, p: &mut [f32], g: &[f32]);
}

/// Plain scalar loops — the forced-`SimdLevel::Scalar` tier, and the
/// per-element semantics every wider tier must reproduce.
struct ScalarOps;

impl WhitenOps for ScalarOps {
    // SAFETY: plain scalar loops — no instruction-set requirement.
    #[inline(always)]
    unsafe fn add_assign(&self, dst: &mut [f32], src: &[f32]) {
        for (d, &s) in dst.iter_mut().zip(src) {
            *d += s;
        }
    }

    // SAFETY: plain scalar loops — no instruction-set requirement.
    #[inline(always)]
    unsafe fn scale_assign(&self, dst: &mut [f32], s: f32) {
        for d in dst.iter_mut() {
            *d *= s;
        }
    }

    // SAFETY: plain scalar loops — no instruction-set requirement.
    #[inline(always)]
    unsafe fn sub_assign(&self, dst: &mut [f32], src: &[f32]) {
        for (d, &s) in dst.iter_mut().zip(src) {
            *d -= s;
        }
    }

    // SAFETY: plain scalar loops — no instruction-set requirement.
    #[inline(always)]
    unsafe fn ns_combine(&self, p: &mut [f32], g: &[f32]) {
        for (pi, &gi) in p.iter_mut().zip(g) {
            *pi = (1.5 * *pi) - (0.5 * gi);
        }
    }
}

/// Lane width of the portable tier's explicit chunks.
const PORTABLE_LANES: usize = 8;

/// Fixed-width chunks in plain Rust, shaped so the autovectorizer can
/// widen them on any architecture. Elementwise maps carry no cross-lane
/// state, so the chunking cannot change bits — it only exposes the
/// parallelism.
struct PortableOps;

macro_rules! portable_map {
    ($dst:expr, |$d:ident| $body:expr) => {{
        let mut chunks = $dst.chunks_exact_mut(PORTABLE_LANES);
        for chunk in &mut chunks {
            for $d in chunk.iter_mut() {
                $body
            }
        }
        for $d in chunks.into_remainder().iter_mut() {
            $body
        }
    }};
}

macro_rules! portable_zip {
    ($dst:expr, $src:expr, |$d:ident, $s:ident| $body:expr) => {{
        let mut dc = $dst.chunks_exact_mut(PORTABLE_LANES);
        let mut sc = $src.chunks_exact(PORTABLE_LANES);
        for (dchunk, schunk) in (&mut dc).zip(&mut sc) {
            for ($d, &$s) in dchunk.iter_mut().zip(schunk) {
                $body
            }
        }
        for ($d, &$s) in dc.into_remainder().iter_mut().zip(sc.remainder()) {
            $body
        }
    }};
}

impl WhitenOps for PortableOps {
    // SAFETY: portable lanewise loops — no target-specific instructions.
    #[inline(always)]
    unsafe fn add_assign(&self, dst: &mut [f32], src: &[f32]) {
        portable_zip!(dst, src, |d, s| *d += s);
    }

    // SAFETY: portable lanewise loops — no target-specific instructions.
    #[inline(always)]
    unsafe fn scale_assign(&self, dst: &mut [f32], s: f32) {
        portable_map!(dst, |d| *d *= s);
    }

    // SAFETY: portable lanewise loops — no target-specific instructions.
    #[inline(always)]
    unsafe fn sub_assign(&self, dst: &mut [f32], src: &[f32]) {
        portable_zip!(dst, src, |d, s| *d -= s);
    }

    // SAFETY: portable lanewise loops — no target-specific instructions.
    #[inline(always)]
    unsafe fn ns_combine(&self, p: &mut [f32], g: &[f32]) {
        portable_zip!(p, g, |pi, gi| *pi = (1.5 * *pi) - (0.5 * gi));
    }
}

/// Reusable per-call `f32` buffers (see [`Scratch`] for the roles). The
/// group arrives decoded in `xc` and is centered in place; the whitened
/// rows land in `y`. Once warm, a group call allocates nothing.
#[derive(Debug, Clone, Default)]
struct ScratchF32 {
    mean: Vec<f32>,
    xc: Vec<f32>,
    y: Vec<f32>,
    sigma: Vec<f32>,
    sigman: Vec<f32>,
    p: Vec<f32>,
    p2: Vec<f32>,
    p3: Vec<f32>,
    g: Vec<f32>,
    wmt: Vec<f32>,
}

impl ScratchF32 {
    fn reserve(&mut self, m: usize, d: usize) {
        self.mean.resize(d, 0.0);
        self.y.resize(m * d, 0.0);
        for buf in [
            &mut self.sigma,
            &mut self.sigman,
            &mut self.p,
            &mut self.p2,
            &mut self.p3,
            &mut self.g,
            &mut self.wmt,
        ] {
            buf.resize(d * d, 0.0);
        }
    }
}

/// Rows of one register tile.
const TILE_ROWS: usize = 4;
/// Columns of one register tile.
const TILE_COLS: usize = 16;

/// One product `c = a·b`: `c` is `m × n` row-major, `b` is `k × n`
/// row-major, and `a[i][p]` sits at `a[i * a_row + p * a_k]` — so the
/// covariance reads `Xcᵀ` in place, with no transpose copy.
///
/// Every output element runs the chain of [`matmul_soft`]: start at
/// `+0.0`, then fold `p` ascending as `acc + (a[i][p] * b[p][j])` — a
/// multiply, then an add, never FMA, operands in that order. The kernel
/// keeps a `TILE_ROWS × TILE_COLS` block of such accumulators in
/// registers across the whole `p` loop; tail rows and columns run the
/// same chain in narrower tiles. Tiles, rows and lanes only ever span
/// independent outputs, so blocking changes where the operations run,
/// never which operands pair or in what order.
#[derive(Clone, Copy)]
struct MatMul<'a> {
    a: &'a [f32],
    a_row: usize,
    a_k: usize,
    b: &'a [f32],
    m: usize,
    n: usize,
    k: usize,
}

// normlint: kernel-begin
impl<'a> MatMul<'a> {
    /// `a·b` for `d × d` row-major operands.
    #[inline(always)]
    fn square(a: &'a [f32], b: &'a [f32], d: usize) -> Self {
        MatMul {
            a,
            a_row: d,
            a_k: 1,
            b,
            m: d,
            n: d,
            k: d,
        }
    }

    /// Write the product into `c` (every element is overwritten).
    #[inline(always)]
    fn run(&self, c: &mut [f32]) {
        let full_rows = self.m - self.m % TILE_ROWS;
        for i in (0..full_rows).step_by(TILE_ROWS) {
            self.row_block::<TILE_ROWS>(c, i);
        }
        for i in full_rows..self.m {
            self.row_block::<1>(c, i);
        }
    }

    #[inline(always)]
    fn row_block<const R: usize>(&self, c: &mut [f32], i: usize) {
        let full_cols = self.n - self.n % TILE_COLS;
        for j in (0..full_cols).step_by(TILE_COLS) {
            self.tile::<R, TILE_COLS>(c, i, j);
        }
        for j in full_cols..self.n {
            self.tile::<R, 1>(c, i, j);
        }
    }

    /// The `R × C` block of outputs at row `i`, column `j`.
    #[inline(always)]
    fn tile<const R: usize, const C: usize>(&self, c: &mut [f32], i: usize, j: usize) {
        let mut acc = [[0.0f32; C]; R];
        for p in 0..self.k {
            let brow = &self.b[p * self.n + j..][..C];
            for (r, row) in acc.iter_mut().enumerate() {
                let aip = self.a[(i + r) * self.a_row + p * self.a_k];
                for (cij, &bpj) in row.iter_mut().zip(brow) {
                    *cij += aip * bpj;
                }
            }
        }
        for (r, row) in acc.iter().enumerate() {
            c[(i + r) * self.n + j..][..C].copy_from_slice(row);
        }
    }
}
// normlint: kernel-end

/// Whiten one group in host-`f32` arithmetic — the f32 twin of
/// [`whiten_group_soft`]. The group arrives decoded in `s.xc`; the
/// whitened rows land in `s.y`. Each output element runs the oracle's
/// operation chain: the elementwise passes go through `ops`, and the
/// covariance, the Newton–Schulz products and the apply through
/// [`MatMul`] (start at `+0.0`, fold `k` ascending, multiply then add).
// SAFETY: bounds-checked slice loops; `unsafe` only forwards the `ops` ISA contract.
#[inline(always)]
unsafe fn whiten_group_f32<O: WhitenOps>(
    ops: &O,
    d: usize,
    spec: &WhitenSpec,
    eps: f32,
    s: &mut ScratchF32,
) {
    let m = s.xc.len() / d;
    s.reserve(m, d);
    let inv_m = 1.0f32 / (m as f64 as f32);
    match spec.group_mode {
        GroupMode::Center => {
            s.mean.fill(0.0);
            for row in s.xc.chunks_exact(d) {
                ops.add_assign(&mut s.mean, row);
            }
            ops.scale_assign(&mut s.mean, inv_m);
            for row in s.xc.chunks_exact_mut(d) {
                ops.sub_assign(row, &s.mean);
            }
        }
        GroupMode::Raw => {}
    }
    // Σ[i][j] folds Xc[k][i]·Xc[k][j] over the rows k.
    MatMul {
        a: &s.xc,
        a_row: 1,
        a_k: d,
        b: &s.xc,
        m: d,
        n: d,
        k: m,
    }
    .run(&mut s.sigma);
    ops.scale_assign(&mut s.sigma, inv_m);
    for i in 0..d {
        s.sigma[i * d + i] += eps;
    }
    let mut tr = 0.0f32;
    for i in 0..d {
        tr += s.sigma[i * d + i];
    }
    let rtr = 1.0f32 / tr;
    s.sigman.copy_from_slice(&s.sigma);
    ops.scale_assign(&mut s.sigman, rtr);
    s.p.fill(0.0);
    for i in 0..d {
        s.p[i * d + i] = 1.0;
    }
    // normlint: kernel-begin
    for _ in 0..spec.t {
        MatMul::square(&s.p, &s.p, d).run(&mut s.p2);
        MatMul::square(&s.p2, &s.p, d).run(&mut s.p3);
        MatMul::square(&s.p3, &s.sigman, d).run(&mut s.g);
        ops.ns_combine(&mut s.p, &s.g);
    }
    // normlint: kernel-end
    let scale = rtr.sqrt();
    s.g.copy_from_slice(&s.p);
    ops.scale_assign(&mut s.g, scale);
    for i in 0..d {
        for j in 0..d {
            s.wmt[j * d + i] = s.g[i * d + j];
        }
    }
    // Y[k][i] folds Xc[k][j]·WMᵀ[j][i] over j.
    MatMul {
        a: &s.xc,
        a_row: d,
        a_k: 1,
        b: &s.wmt,
        m,
        n: d,
        k: d,
    }
    .run(&mut s.y);
}

/// Safe scalar entry point (no special instructions).
fn whiten_group_scalar(d: usize, spec: &WhitenSpec, eps: f32, s: &mut ScratchF32) {
    // SAFETY: ScalarOps uses no special instructions.
    unsafe { whiten_group_f32(&ScalarOps, d, spec, eps, s) }
}

/// Portable entry point (no special instructions; autovectorizable).
fn whiten_group_portable(d: usize, spec: &WhitenSpec, eps: f32, s: &mut ScratchF32) {
    // SAFETY: PortableOps uses no special instructions.
    unsafe { whiten_group_f32(&PortableOps, d, spec, eps, s) }
}

#[cfg(target_arch = "x86_64")]
mod x86 {
    //! SSE2/AVX2 lanewise maps. As in `simd.rs`, the generic pipeline —
    //! the `MatMul` tile kernel included — is `#[inline(always)]` and
    //! instantiated *inside* each `#[target_feature]` entry point, so the
    //! autovectorizer widens the tiles to that ISA. Routing through a
    //! function pointer would outline a copy without the feature attribute.

    use super::{whiten_group_f32, ScratchF32, WhitenOps, WhitenSpec};
    use core::arch::x86_64::*;

    pub(super) struct Sse2Ops;

    impl WhitenOps for Sse2Ops {
        // SAFETY: SSE2 ops on in-bounds offsets (`i + 4 <= len`); SSE2 is the x86-64 baseline.
        #[inline(always)]
        unsafe fn add_assign(&self, dst: &mut [f32], src: &[f32]) {
            let mut i = 0;
            while i + 4 <= dst.len() {
                let d = _mm_loadu_ps(dst.as_ptr().add(i));
                let s = _mm_loadu_ps(src.as_ptr().add(i));
                _mm_storeu_ps(dst.as_mut_ptr().add(i), _mm_add_ps(d, s));
                i += 4;
            }
            while i < dst.len() {
                dst[i] += src[i];
                i += 1;
            }
        }

        // SAFETY: SSE2 ops on in-bounds offsets (`i + 4 <= len`); SSE2 is the x86-64 baseline.
        #[inline(always)]
        unsafe fn scale_assign(&self, dst: &mut [f32], s: f32) {
            let sv = _mm_set1_ps(s);
            let mut i = 0;
            while i + 4 <= dst.len() {
                let d = _mm_loadu_ps(dst.as_ptr().add(i));
                _mm_storeu_ps(dst.as_mut_ptr().add(i), _mm_mul_ps(d, sv));
                i += 4;
            }
            while i < dst.len() {
                dst[i] *= s;
                i += 1;
            }
        }

        // SAFETY: SSE2 ops on in-bounds offsets (`i + 4 <= len`); SSE2 is the x86-64 baseline.
        #[inline(always)]
        unsafe fn sub_assign(&self, dst: &mut [f32], src: &[f32]) {
            let mut i = 0;
            while i + 4 <= dst.len() {
                let d = _mm_loadu_ps(dst.as_ptr().add(i));
                let s = _mm_loadu_ps(src.as_ptr().add(i));
                _mm_storeu_ps(dst.as_mut_ptr().add(i), _mm_sub_ps(d, s));
                i += 4;
            }
            while i < dst.len() {
                dst[i] -= src[i];
                i += 1;
            }
        }

        // SAFETY: SSE2 ops on in-bounds offsets (`i + 4 <= len`); SSE2 is the x86-64 baseline.
        #[inline(always)]
        unsafe fn ns_combine(&self, p: &mut [f32], g: &[f32]) {
            let c15 = _mm_set1_ps(1.5);
            let c05 = _mm_set1_ps(0.5);
            let mut i = 0;
            while i + 4 <= p.len() {
                let pv = _mm_loadu_ps(p.as_ptr().add(i));
                let gv = _mm_loadu_ps(g.as_ptr().add(i));
                let lhs = _mm_mul_ps(c15, pv);
                let rhs = _mm_mul_ps(c05, gv);
                _mm_storeu_ps(p.as_mut_ptr().add(i), _mm_sub_ps(lhs, rhs));
                i += 4;
            }
            while i < p.len() {
                p[i] = (1.5 * p[i]) - (0.5 * g[i]);
                i += 1;
            }
        }
    }

    pub(super) struct Avx2Ops;

    impl WhitenOps for Avx2Ops {
        // SAFETY: AVX2 ops on in-bounds offsets; reached only through the AVX2-resolved kernel.
        #[inline(always)]
        unsafe fn add_assign(&self, dst: &mut [f32], src: &[f32]) {
            let mut i = 0;
            while i + 8 <= dst.len() {
                let d = _mm256_loadu_ps(dst.as_ptr().add(i));
                let s = _mm256_loadu_ps(src.as_ptr().add(i));
                _mm256_storeu_ps(dst.as_mut_ptr().add(i), _mm256_add_ps(d, s));
                i += 8;
            }
            while i < dst.len() {
                dst[i] += src[i];
                i += 1;
            }
        }

        // SAFETY: AVX2 ops on in-bounds offsets; reached only through the AVX2-resolved kernel.
        #[inline(always)]
        unsafe fn scale_assign(&self, dst: &mut [f32], s: f32) {
            let sv = _mm256_set1_ps(s);
            let mut i = 0;
            while i + 8 <= dst.len() {
                let d = _mm256_loadu_ps(dst.as_ptr().add(i));
                _mm256_storeu_ps(dst.as_mut_ptr().add(i), _mm256_mul_ps(d, sv));
                i += 8;
            }
            while i < dst.len() {
                dst[i] *= s;
                i += 1;
            }
        }

        // SAFETY: AVX2 ops on in-bounds offsets; reached only through the AVX2-resolved kernel.
        #[inline(always)]
        unsafe fn sub_assign(&self, dst: &mut [f32], src: &[f32]) {
            let mut i = 0;
            while i + 8 <= dst.len() {
                let d = _mm256_loadu_ps(dst.as_ptr().add(i));
                let s = _mm256_loadu_ps(src.as_ptr().add(i));
                _mm256_storeu_ps(dst.as_mut_ptr().add(i), _mm256_sub_ps(d, s));
                i += 8;
            }
            while i < dst.len() {
                dst[i] -= src[i];
                i += 1;
            }
        }

        // SAFETY: AVX2 ops on in-bounds offsets; reached only through the AVX2-resolved kernel.
        #[inline(always)]
        unsafe fn ns_combine(&self, p: &mut [f32], g: &[f32]) {
            let c15 = _mm256_set1_ps(1.5);
            let c05 = _mm256_set1_ps(0.5);
            let mut i = 0;
            while i + 8 <= p.len() {
                let pv = _mm256_loadu_ps(p.as_ptr().add(i));
                let gv = _mm256_loadu_ps(g.as_ptr().add(i));
                let lhs = _mm256_mul_ps(c15, pv);
                let rhs = _mm256_mul_ps(c05, gv);
                _mm256_storeu_ps(p.as_mut_ptr().add(i), _mm256_sub_ps(lhs, rhs));
                i += 8;
            }
            while i < p.len() {
                p[i] = (1.5 * p[i]) - (0.5 * g[i]);
                i += 1;
            }
        }
    }

    /// # Safety
    ///
    /// Caller guarantees SSE2 (the x86-64 baseline — always true here).
    #[target_feature(enable = "sse2")]
    pub(super) unsafe fn whiten_group_sse2(
        d: usize,
        spec: &WhitenSpec,
        eps: f32,
        s: &mut ScratchF32,
    ) {
        whiten_group_f32(&Sse2Ops, d, spec, eps, s)
    }

    /// # Safety
    ///
    /// Caller guarantees AVX2+FMA were runtime-detected. FMA is enabled
    /// for parity with the resolver's detection, but no FMA intrinsic is
    /// used — the value path is mul-then-add throughout.
    #[target_feature(enable = "avx2,fma")]
    pub(super) unsafe fn whiten_group_avx2(
        d: usize,
        spec: &WhitenSpec,
        eps: f32,
        s: &mut ScratchF32,
    ) {
        whiten_group_f32(&Avx2Ops, d, spec, eps, s)
    }
}

/// The native whitening executor: host `f32` arithmetic running the
/// oracle's per-element operation chains, compiled per resolved
/// [`SimdLevel`]. FP32 only;
/// bit-identical to [`EmulatedWhiten<Fp32>`](EmulatedWhiten) at every
/// level (enforced by `tests/whiten_bit_identity.rs`).
#[derive(Debug, Clone)]
pub struct NativeWhitenF32 {
    d: usize,
    spec: WhitenSpec,
    eps: f32,
    kernel: Option<SimdKernel>,
    scratch: ScratchF32,
}

impl NativeWhitenF32 {
    /// Executor at the best SIMD level the host supports.
    ///
    /// # Errors
    ///
    /// [`NormError::EmptyInput`] when `d == 0`.
    pub fn new(d: usize, spec: WhitenSpec) -> Result<Self, NormError> {
        Self::with_simd(d, spec, SimdLevel::Auto)
    }

    /// Executor at a specific SIMD level.
    ///
    /// # Errors
    ///
    /// [`NormError::EmptyInput`] when `d == 0`;
    /// [`NormError::SimdUnsupported`] when `level` forces an instruction
    /// set this host does not have.
    pub fn with_simd(d: usize, spec: WhitenSpec, level: SimdLevel) -> Result<Self, NormError> {
        if d == 0 {
            return Err(NormError::EmptyInput);
        }
        let kernel = simd::resolve(level, BackendKind::Native)?;
        Ok(NativeWhitenF32 {
            d,
            spec,
            // The ridge is rounded into the format once, here — the same
            // value the oracle's `F::from_f64(spec.eps)` produces.
            eps: spec.eps as f32,
            kernel,
            scratch: ScratchF32::default(),
        })
    }

    /// Whiten one group into `out`, reading it from `input` — or, when
    /// `input` is `None`, from `out` itself (in place). Safe either way:
    /// the group is decoded whole into `scratch.xc` before the output is
    /// written from `scratch.y`.
    fn run_group(&self, input: Option<&[u32]>, out: &mut [u32], scratch: &mut ScratchF32) {
        let src = input.unwrap_or(out);
        scratch.xc.clear();
        scratch.xc.extend(src.iter().map(|&b| f32::from_bits(b)));
        let (d, spec, eps) = (self.d, &self.spec, self.eps);
        match self.kernel {
            None => whiten_group_scalar(d, spec, eps, scratch),
            Some(SimdKernel::Portable) => whiten_group_portable(d, spec, eps, scratch),
            #[cfg(target_arch = "x86_64")]
            // SAFETY: `simd::resolve` yields Sse2 only on x86-64, where SSE2 is baseline.
            Some(SimdKernel::Sse2) => unsafe { x86::whiten_group_sse2(d, spec, eps, scratch) },
            #[cfg(target_arch = "x86_64")]
            // SAFETY: `simd::resolve` yields Avx2 only after runtime-detecting AVX2+FMA.
            Some(SimdKernel::Avx2) => unsafe { x86::whiten_group_avx2(d, spec, eps, scratch) },
            #[cfg(not(target_arch = "x86_64"))]
            Some(SimdKernel::Sse2) | Some(SimdKernel::Avx2) => {
                unreachable!("x86 kernels are never resolved off x86-64")
            }
        }
        for (slot, v) in out.iter_mut().zip(&scratch.y) {
            *slot = v.to_bits();
        }
    }
}

impl WhitenExec for NativeWhitenF32 {
    fn backend(&self) -> BackendKind {
        BackendKind::Native
    }

    fn format_name(&self) -> &'static str {
        "FP32"
    }

    fn d(&self) -> usize {
        self.d
    }

    fn spec(&self) -> WhitenSpec {
        self.spec
    }

    fn simd_level(&self) -> SimdLevel {
        self.kernel.map_or(SimdLevel::Scalar, SimdKernel::level)
    }

    fn whiten_groups(
        &mut self,
        input: &[u32],
        out: &mut [u32],
        group_rows: &[usize],
        threads: usize,
    ) -> Result<usize, NormError> {
        let rows = validate_groups(self.d, input, out, group_rows, threads)?;
        let workers = threads.min(group_rows.len());
        if workers <= 1 {
            let mut scratch = core::mem::take(&mut self.scratch);
            let mut offset = 0;
            for &m in group_rows {
                let len = m * self.d;
                self.run_group(
                    Some(&input[offset..offset + len]),
                    &mut out[offset..offset + len],
                    &mut scratch,
                );
                offset += len;
            }
            self.scratch = scratch;
            return Ok(rows);
        }
        // Partition *groups* (not rows) across workers: each group's
        // operation chain is internally sequential, so any partition of
        // whole groups produces the same bits.
        let per = group_rows.len().div_ceil(workers);
        std::thread::scope(|scope| {
            let mut in_rest = input;
            let mut out_rest = out;
            for chunk in group_rows.chunks(per) {
                let take: usize = chunk.iter().map(|&m| m * self.d).sum();
                let (in_chunk, in_tail) = in_rest.split_at(take);
                let (out_chunk, out_tail) = out_rest.split_at_mut(take);
                in_rest = in_tail;
                out_rest = out_tail;
                let this = &*self;
                scope.spawn(move || {
                    let mut scratch = ScratchF32::default();
                    let mut offset = 0;
                    for &m in chunk {
                        let len = m * this.d;
                        this.run_group(
                            Some(&in_chunk[offset..offset + len]),
                            &mut out_chunk[offset..offset + len],
                            &mut scratch,
                        );
                        offset += len;
                    }
                });
            }
        });
        Ok(rows)
    }

    fn whiten_groups_runner(
        &mut self,
        input: &[u32],
        out: &mut [u32],
        group_rows: &[usize],
        runner: &dyn crate::executor::PartitionRunner,
    ) -> Result<usize, NormError> {
        let width = runner.width().max(1);
        let rows = validate_groups(self.d, input, out, group_rows, width)?;
        let workers = width.min(group_rows.len());
        if workers <= 1 {
            return self.whiten_groups(input, out, group_rows, 1);
        }
        // The same group-wise chunking as the scoped path (identical
        // `chunks(per)` split → identical bits), with the per-part mutex
        // hand-off the other runner paths use.
        let per = group_rows.len().div_ceil(workers);
        let mut parts: Vec<GroupChunk<'_>> = Vec::new();
        let mut in_rest = input;
        let mut out_rest = out;
        for chunk in group_rows.chunks(per) {
            let take: usize = chunk.iter().map(|&m| m * self.d).sum();
            let (in_chunk, in_tail) = in_rest.split_at(take);
            let (out_chunk, out_tail) = out_rest.split_at_mut(take);
            in_rest = in_tail;
            out_rest = out_tail;
            parts.push(Mutex::new(Some((chunk, in_chunk, out_chunk))));
        }
        let this = &*self;
        runner.run(parts.len(), &|wi| {
            let taken = parts[wi]
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .take();
            let Some((chunk, in_chunk, out_chunk)) = taken else {
                return;
            };
            let mut scratch = ScratchF32::default();
            let mut offset = 0;
            for &m in chunk {
                let len = m * this.d;
                this.run_group(
                    Some(&in_chunk[offset..offset + len]),
                    &mut out_chunk[offset..offset + len],
                    &mut scratch,
                );
                offset += len;
            }
        });
        Ok(rows)
    }

    fn whiten_in_place_runner(
        &mut self,
        groups: &mut [&mut [u32]],
        runner: &dyn crate::executor::PartitionRunner,
    ) -> Result<usize, NormError> {
        let rows = check_groups(self.d, groups)?;
        let workers = runner.width().min(groups.len());
        if workers <= 1 {
            let mut scratch = core::mem::take(&mut self.scratch);
            for group in groups.iter_mut() {
                self.run_group(None, group, &mut scratch);
            }
            self.scratch = scratch;
            return Ok(rows);
        }
        // The `chunks(per)` split of `whiten_groups_runner`, so each part
        // whitens the same groups it would in the concatenated call.
        let per = groups.len().div_ceil(workers);
        let parts: Vec<Mutex<Option<&mut [&mut [u32]]>>> = groups
            .chunks_mut(per)
            .map(|chunk| Mutex::new(Some(chunk)))
            .collect();
        let this = &*self;
        runner.run(parts.len(), &|wi| {
            let taken = parts[wi]
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .take();
            let Some(chunk) = taken else {
                return;
            };
            let mut scratch = ScratchF32::default();
            for group in chunk.iter_mut() {
                this.run_group(None, group, &mut scratch);
            }
        });
        Ok(rows)
    }

    fn whiten_group_detailed(
        &mut self,
        input: &[u32],
        out: &mut [u32],
    ) -> Result<WhitenDetail, NormError> {
        let rows = input.len() / self.d.max(1);
        validate_groups(self.d, input, out, &[rows], 1)?;
        let mut scratch = core::mem::take(&mut self.scratch);
        self.run_group(Some(input), out, &mut scratch);
        let d = self.d;
        let x: Vec<f64> = input.iter().map(|&b| f32::from_bits(b) as f64).collect();
        let mean = x.iter().sum::<f64>() / x.len() as f64;
        let trace = (0..d).map(|i| scratch.sigma[i * d + i] as f64).sum::<f64>();
        let p: Vec<f64> = scratch.p.iter().map(|&v| v as f64).collect();
        let sigman: Vec<f64> = scratch.sigman.iter().map(|&v| v as f64).collect();
        let detail = WhitenDetail {
            mean,
            trace,
            scale: (1.0 / trace).sqrt(),
            residual: residual_f64(&p, &sigman, d, self.spec.t),
        };
        self.scratch = scratch;
        Ok(detail)
    }
}

/// Build the whitening executor for a `(backend, format)` selection —
/// the single dispatch point the service, CLI and benches share, mirror
/// of [`build_backend_simd`](crate::backend::build_backend_simd).
///
/// # Errors
///
/// [`NormError::EmptyInput`] when `d == 0`,
/// [`NormError::BackendFormatMismatch`] when the native backend is
/// requested for a non-FP32 format, and [`NormError::SimdUnsupported`]
/// when `simd` forces a level this host or backend cannot run.
pub fn build_whiten(
    backend: BackendKind,
    format: FormatKind,
    d: usize,
    spec: WhitenSpec,
    simd: SimdLevel,
) -> Result<Box<dyn WhitenExec>, NormError> {
    // Resolve the SIMD level first so an unsupported forced level fails
    // cleanly on every backend kind (the emulator accepts auto/scalar).
    let kernel = simd::resolve(simd, backend)?;
    match backend {
        BackendKind::Emulated => Ok(match format {
            FormatKind::Fp32 => Box::new(EmulatedWhiten::<Fp32>::new(d, spec)?),
            FormatKind::Fp16 => Box::new(EmulatedWhiten::<Fp16>::new(d, spec)?),
            FormatKind::Bf16 => Box::new(EmulatedWhiten::<Bf16>::new(d, spec)?),
        }),
        BackendKind::Native => {
            if format != FormatKind::Fp32 {
                return Err(NormError::BackendFormatMismatch {
                    backend: backend.name(),
                    format: format.name(),
                });
            }
            let mut exec = NativeWhitenF32::with_simd(d, spec, SimdLevel::Scalar)?;
            exec.kernel = kernel;
            Ok(Box::new(exec))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn group_bits(m: usize, d: usize, salt: u64) -> Vec<u32> {
        // Deterministic moderate values; enough spread to make Σ well
        // conditioned at the test sizes.
        (0..m * d)
            .map(|i| {
                let h = (i as u64)
                    .wrapping_mul(0x9E3779B97F4A7C15)
                    .wrapping_add(salt);
                let v = ((h >> 11) as f64 / (1u64 << 53) as f64) * 4.0 - 2.0;
                Fp32::from_f64(v).to_bits()
            })
            .collect()
    }

    fn emulated(d: usize, spec: WhitenSpec) -> Box<dyn WhitenExec> {
        build_whiten(
            BackendKind::Emulated,
            FormatKind::Fp32,
            d,
            spec,
            SimdLevel::Auto,
        )
        .expect("emulated fp32 always builds")
    }

    /// Matrix entries that stress the per-element chain: mostly ordinary
    /// values in [-2, 2], with signed zeros, subnormals, products that
    /// underflow or overflow, and a rare ±∞ mixed in.
    fn edge_matrix(len: usize, salt: u64) -> Vec<f32> {
        const SPECIAL: [f32; 10] = [
            -0.0,
            0.0,
            1.0e-45,
            -1.0e-45,
            1.175_494_2e-38,
            -3.0e-39,
            1.0e-20,
            -1.0e-20,
            3.0e38,
            -3.0e38,
        ];
        (0..len)
            .map(|i| {
                let h = (i as u64 ^ salt).wrapping_mul(0x9E37_79B9_7F4A_7C15);
                match (h >> 57) as usize {
                    idx if idx < SPECIAL.len() => SPECIAL[idx],
                    126 => f32::INFINITY,
                    127 => f32::NEG_INFINITY,
                    _ => ((h >> 11) as f64 / (1u64 << 53) as f64 * 4.0 - 2.0) as f32,
                }
            })
            .collect()
    }

    /// `m × k` by `k × n` in softfloat `Fp32`, in the loop shape of
    /// [`matmul_soft`]. With `seed_first`, each output instead starts
    /// from its first product — the variant the tile kernel must not be.
    fn soft_product(
        a: &[f32],
        b: &[f32],
        (m, n, k): (usize, usize, usize),
        seed_first: bool,
    ) -> Vec<u32> {
        let soft = |v: f32| Fp32::from_bits(v.to_bits());
        let mut c = vec![Fp32::zero(); m * n];
        for i in 0..m {
            for p in 0..k {
                let aip = soft(a[i * k + p]);
                for j in 0..n {
                    let prod = aip * soft(b[p * n + j]);
                    let cij = &mut c[i * n + j];
                    *cij = if seed_first && p == 0 {
                        prod
                    } else {
                        *cij + prod
                    };
                }
            }
        }
        c.into_iter().map(Fp32::to_bits).collect()
    }

    /// Bit equality, except that any NaN matches any NaN: x86 and the
    /// softfloat emulator pick different payloads for `0·∞` and `∞ − ∞`.
    fn same_bits(expected: u32, actual: u32) -> bool {
        expected == actual || (f32::from_bits(expected).is_nan() && f32::from_bits(actual).is_nan())
    }

    #[test]
    fn tile_kernel_matches_the_soft_matmul_chain_bit_for_bit() {
        // Shapes around the 4 × 16 tile: all-tail, exact tiles, and
        // partial tiles next to full ones in both dimensions.
        let shapes = [
            (1, 1, 1),
            (3, 5, 7),
            (4, 16, 9),
            (5, 17, 3),
            (7, 33, 20),
            (9, 40, 33),
            (16, 16, 16),
            (20, 20, 20),
            (33, 33, 33),
        ];
        let mut discriminating = 0;
        for (si, &(m, n, k)) in shapes.iter().enumerate() {
            let mut a = edge_matrix(m * k, 2 * si as u64);
            let b = edge_matrix(k * n, 2 * si as u64 + 1);
            // Row 0 of `a` is all −0.0: with finite `b` every product in
            // that row is a signed zero, and the +0.0 start decides the
            // output's sign.
            a[..k].fill(-0.0);
            let expected = soft_product(&a, &b, (m, n, k), false);
            if m == n && n == k {
                // The reference is the oracle's own chain.
                let soft = |v: &[f32]| v.iter().map(|x| Fp32::from_bits(x.to_bits())).collect();
                let (sa, sb): (Vec<Fp32>, Vec<Fp32>) = (soft(&a), soft(&b));
                let mut sc = vec![Fp32::zero(); m * m];
                matmul_soft(&mut sc, &sa, &sb, m);
                let oracle: Vec<u32> = sc.into_iter().map(Fp32::to_bits).collect();
                assert_eq!(oracle, expected, "reference ≠ matmul_soft at d = {m}");
            }
            let seeded = soft_product(&a, &b, (m, n, k), true);
            discriminating += expected
                .iter()
                .zip(&seeded)
                .filter(|&(&e, &s)| !same_bits(e, s))
                .count();

            // Row-major `a`, and the covariance's strided read of a
            // stored transpose (`a[i][p]` at `at[p * m + i]`).
            let mut at = vec![0.0f32; m * k];
            for i in 0..m {
                for p in 0..k {
                    at[p * m + i] = a[i * k + p];
                }
            }
            for (label, data, a_row, a_k) in [("row-major", &a, k, 1), ("transposed", &at, 1, m)] {
                let mut c = vec![f32::NAN; m * n];
                MatMul {
                    a: data,
                    a_row,
                    a_k,
                    b: &b,
                    m,
                    n,
                    k,
                }
                .run(&mut c);
                for (idx, (&e, v)) in expected.iter().zip(&c).enumerate() {
                    assert!(
                        same_bits(e, v.to_bits()),
                        "{label} {m}×{k}·{k}×{n}: element {idx} expected {e:#010x}, got {:#010x}",
                        v.to_bits()
                    );
                }
            }
        }
        assert!(
            discriminating > 0,
            "the operands must tell a +0.0 start from a first-product seed"
        );
    }

    #[test]
    fn group_mode_registry_round_trips_and_rejects_garbage() {
        for mode in GroupMode::ALL {
            assert_eq!(GroupMode::parse(mode.name()), Some(mode));
            assert_eq!(mode.to_string(), mode.name());
        }
        assert_eq!(GroupMode::parse("CENTER"), Some(GroupMode::Center));
        assert_eq!(GroupMode::parse("Raw"), Some(GroupMode::Raw));
        for text in ["", " center", "raw ", "zca", "centered", "0"] {
            assert_eq!(GroupMode::parse(text), None, "{text:?} must be rejected");
        }
    }

    #[test]
    fn spec_defaults_builders_and_label() {
        let spec = WhitenSpec::default();
        assert_eq!(spec.t, 5);
        assert_eq!(spec.eps, 1e-5);
        assert_eq!(spec.group_mode, GroupMode::Center);
        let spec = WhitenSpec::new()
            .with_t(3)
            .with_eps(1e-4)
            .with_group_mode(GroupMode::Raw);
        assert_eq!(spec.t, 3);
        assert_eq!(spec.eps, 1e-4);
        assert_eq!(spec.group_mode, GroupMode::Raw);
        let label = spec.label();
        assert!(label.contains("whiten") && label.contains("t=3") && label.contains("raw"));
        assert!(WhitenSpec::default().label().contains("center"));
    }

    #[test]
    fn whitened_output_decorrelates_the_group() {
        // The statistical point of the workload: cov(Y) ≈ I for a well
        // conditioned group. Checked in f64 on the decoded output.
        let (m, d) = (256usize, 8usize);
        let bits = group_bits(m, d, 1);
        let mut exec = emulated(d, WhitenSpec::default().with_t(8));
        let mut out = vec![0u32; bits.len()];
        exec.whiten_groups(&bits, &mut out, &[m], 1).unwrap();
        let y: Vec<f64> = out.iter().map(|&b| f32::from_bits(b) as f64).collect();
        // Column means of Y (centering was part of the transform).
        let mut mean = vec![0.0f64; d];
        for row in y.chunks_exact(d) {
            for (mj, &v) in mean.iter_mut().zip(row) {
                *mj += v;
            }
        }
        for mj in mean.iter_mut() {
            *mj /= m as f64;
        }
        let mut worst = 0.0f64;
        for i in 0..d {
            for j in 0..d {
                let mut cov = 0.0;
                for row in y.chunks_exact(d) {
                    cov += (row[i] - mean[i]) * (row[j] - mean[j]);
                }
                cov /= m as f64;
                let target = if i == j { 1.0 } else { 0.0 };
                worst = worst.max((cov - target).abs());
            }
        }
        assert!(worst < 0.05, "cov(Y) must approximate I, worst dev {worst}");
    }

    #[test]
    fn t0_is_the_pure_trace_rescale() {
        // T = 0 leaves P = I: the output must be exactly √(1/tr)·Xc in
        // format arithmetic. Verified structurally: y/xc is one global
        // constant (up to format rounding, checked loosely in f64).
        let (m, d) = (16usize, 6usize);
        let bits = group_bits(m, d, 2);
        let mut exec = emulated(d, WhitenSpec::default().with_t(0));
        let mut out = vec![0u32; bits.len()];
        let detail = exec.whiten_group_detailed(&bits, &mut out).unwrap();
        assert_eq!(detail.residual, 0.0, "T = 0 is exact by definition");
        // Recompute the centered group and expected scale in f64.
        let x: Vec<f64> = bits.iter().map(|&b| f32::from_bits(b) as f64).collect();
        let mut mean = vec![0.0f64; d];
        for row in x.chunks_exact(d) {
            for (mj, &v) in mean.iter_mut().zip(row) {
                *mj += v;
            }
        }
        for mj in mean.iter_mut() {
            *mj /= m as f64;
        }
        for (k, row) in x.chunks_exact(d).enumerate() {
            for (j, &v) in row.iter().enumerate() {
                let xc = v - mean[j];
                let got = f32::from_bits(out[k * d + j]) as f64;
                let expect = detail.scale * xc;
                assert!(
                    (got - expect).abs() <= 1e-4 * expect.abs().max(1.0),
                    "row {k} col {j}: got {got}, expect {expect}"
                );
            }
        }
    }

    #[test]
    fn m1_centered_group_whitens_to_zero() {
        // A single centered sample is identically zero after the shift;
        // Σ = eps·I, and zero in → zero out (finite, no NaN).
        let d = 5;
        let bits = group_bits(1, d, 3);
        let mut exec = emulated(d, WhitenSpec::default());
        let mut out = vec![0u32; d];
        exec.whiten_groups(&bits, &mut out, &[1], 1).unwrap();
        for (j, &b) in out.iter().enumerate() {
            let v = f32::from_bits(b);
            assert_eq!(v, 0.0, "col {j}: expected exact zero, got {v}");
        }
    }

    #[test]
    fn nan_input_propagates_to_nan_output() {
        // One canonical-qNaN element poisons the covariance and thus the
        // whole group's output — NaN in, NaN out, never a panic.
        let (m, d) = (4usize, 4usize);
        let mut bits = group_bits(m, d, 4);
        bits[5] = 0x7FC0_0000;
        let mut exec = emulated(d, WhitenSpec::default());
        let mut out = vec![0u32; bits.len()];
        exec.whiten_groups(&bits, &mut out, &[m], 1).unwrap();
        assert!(
            out.iter().any(|&b| f32::from_bits(b).is_nan()),
            "NaN must propagate into the whitened group"
        );
        // And the checked path reports non-convergence, not success.
        let err = exec
            .whiten_group_checked(&bits, &mut out, 1e-3)
            .expect_err("a NaN residual can never pass the convergence bar");
        assert!(matches!(err, NormError::WhitenNotConverged { .. }), "{err}");
    }

    #[test]
    fn checked_path_raises_not_converged_for_tight_tolerance() {
        let (m, d) = (32usize, 8usize);
        let bits = group_bits(m, d, 5);
        let mut exec = emulated(d, WhitenSpec::default().with_t(1));
        let mut out = vec![0u32; bits.len()];
        let err = exec
            .whiten_group_checked(&bits, &mut out, 1e-12)
            .expect_err("one step cannot hit 1e-12");
        match err {
            NormError::WhitenNotConverged {
                steps,
                residual_bits,
                tol_bits,
            } => {
                assert_eq!(steps, 1);
                assert!(f64::from_bits(residual_bits) > f64::from_bits(tol_bits));
            }
            other => panic!("expected WhitenNotConverged, got {other}"),
        }
        // More steps converge under a realistic bar.
        let mut exec = emulated(d, WhitenSpec::default().with_t(8));
        let detail = exec.whiten_group_checked(&bits, &mut out, 1e-2).unwrap();
        assert!(detail.residual < 1e-2, "{detail:?}");
    }

    #[test]
    fn residual_shrinks_with_more_steps() {
        let (m, d) = (64usize, 8usize);
        let bits = group_bits(m, d, 6);
        let mut out = vec![0u32; bits.len()];
        let mut last = f64::INFINITY;
        for t in [1u32, 3, 6] {
            let mut exec = emulated(d, WhitenSpec::default().with_t(t));
            let detail = exec.whiten_group_detailed(&bits, &mut out).unwrap();
            assert!(
                detail.residual < last,
                "t = {t}: residual {} did not shrink from {last}",
                detail.residual
            );
            last = detail.residual;
        }
    }

    #[test]
    fn shape_errors_surface_not_panics() {
        let d = 4;
        let mut exec = emulated(d, WhitenSpec::default());
        let bits = group_bits(2, d, 7);
        let mut out = vec![0u32; bits.len()];
        assert_eq!(
            exec.whiten_groups(&bits, &mut out, &[2], 0).unwrap_err(),
            NormError::ZeroThreads
        );
        let mut short = vec![0u32; d];
        assert_eq!(
            exec.whiten_groups(&bits, &mut short, &[2], 1).unwrap_err(),
            NormError::OutputLengthMismatch {
                expected: 2 * d,
                actual: d
            }
        );
        assert_eq!(
            exec.whiten_groups(&bits, &mut out, &[], 1).unwrap_err(),
            NormError::EmptyRequest
        );
        assert_eq!(
            exec.whiten_groups(&bits, &mut out, &[2, 0], 1).unwrap_err(),
            NormError::EmptyRequest
        );
        // Ragged buffer: not a whole number of rows.
        let ragged = &bits[..2 * d - 1];
        let mut rout = vec![0u32; 2 * d - 1];
        assert_eq!(
            exec.whiten_groups(ragged, &mut rout, &[2], 1).unwrap_err(),
            NormError::GroupShapeMismatch {
                rows: 1,
                d,
                actual: 2 * d - 1
            }
        );
        // Row counts that do not describe the buffer.
        assert_eq!(
            exec.whiten_groups(&bits, &mut out, &[3], 1).unwrap_err(),
            NormError::GroupShapeMismatch {
                rows: 2,
                d,
                actual: 2 * d
            }
        );
    }

    #[test]
    fn factory_rejects_impossible_combinations() {
        let spec = WhitenSpec::default();
        assert_eq!(
            build_whiten(
                BackendKind::Native,
                FormatKind::Fp16,
                8,
                spec,
                SimdLevel::Auto
            )
            .err()
            .expect("native fp16 must be rejected"),
            NormError::BackendFormatMismatch {
                backend: "native-f32",
                format: "FP16",
            }
        );
        assert_eq!(
            build_whiten(
                BackendKind::Emulated,
                FormatKind::Fp32,
                8,
                spec,
                SimdLevel::Avx2
            )
            .err()
            .expect("emulated has no vector path"),
            NormError::SimdUnsupported {
                level: "avx2",
                backend: "emulated",
            }
        );
        for backend in BackendKind::ALL {
            assert_eq!(
                build_whiten(backend, FormatKind::Fp32, 0, spec, SimdLevel::Auto)
                    .err()
                    .expect("d = 0 must be rejected"),
                NormError::EmptyInput
            );
        }
        // Every emulated format and native fp32 build fine.
        for format in FormatKind::ALL {
            assert!(build_whiten(BackendKind::Emulated, format, 8, spec, SimdLevel::Auto).is_ok());
        }
        assert!(build_whiten(
            BackendKind::Native,
            FormatKind::Fp32,
            8,
            spec,
            SimdLevel::Auto
        )
        .is_ok());
    }

    #[test]
    fn resolved_levels_are_reported_never_auto() {
        let spec = WhitenSpec::default();
        let auto = build_whiten(
            BackendKind::Native,
            FormatKind::Fp32,
            8,
            spec,
            SimdLevel::Auto,
        )
        .unwrap();
        assert_ne!(auto.simd_level(), SimdLevel::Auto);
        assert_ne!(auto.simd_level(), SimdLevel::Scalar);
        let scalar = build_whiten(
            BackendKind::Native,
            FormatKind::Fp32,
            8,
            spec,
            SimdLevel::Scalar,
        )
        .unwrap();
        assert_eq!(scalar.simd_level(), SimdLevel::Scalar);
        let emulated = emulated(8, spec);
        assert_eq!(emulated.simd_level(), SimdLevel::Scalar);
        assert!(emulated.label().contains("whiten"), "{}", emulated.label());
    }

    #[test]
    fn multi_group_call_matches_per_group_calls_any_thread_count() {
        let d = 6;
        let groups = [3usize, 1, 8, 2];
        let mut flat = Vec::new();
        for (g, &m) in groups.iter().enumerate() {
            flat.extend(group_bits(m, d, 100 + g as u64));
        }
        for backend in BackendKind::ALL {
            let mut exec = build_whiten(
                backend,
                FormatKind::Fp32,
                d,
                WhitenSpec::default(),
                SimdLevel::Auto,
            )
            .unwrap();
            // Reference: each group whitened alone.
            let mut expect = vec![0u32; flat.len()];
            let mut offset = 0;
            for &m in &groups {
                let len = m * d;
                let (i, o) = (
                    &flat[offset..offset + len],
                    &mut expect[offset..offset + len],
                );
                exec.whiten_groups(i, o, &[m], 1).unwrap();
                offset += len;
            }
            for threads in [1usize, 2, 7] {
                let mut out = vec![0u32; flat.len()];
                let rows = exec
                    .whiten_groups(&flat, &mut out, &groups, threads)
                    .unwrap();
                assert_eq!(rows, groups.iter().sum::<usize>());
                assert_eq!(out, expect, "{backend:?} × {threads} threads");
            }
        }
    }

    #[test]
    fn detailed_matches_groups_path_and_reports_diagnostics() {
        let (m, d) = (24usize, 8usize);
        let bits = group_bits(m, d, 9);
        for backend in BackendKind::ALL {
            let mut exec = build_whiten(
                backend,
                FormatKind::Fp32,
                d,
                WhitenSpec::default(),
                SimdLevel::Auto,
            )
            .unwrap();
            let mut via_groups = vec![0u32; bits.len()];
            exec.whiten_groups(&bits, &mut via_groups, &[m], 1).unwrap();
            let mut via_detailed = vec![0u32; bits.len()];
            let detail = exec
                .whiten_group_detailed(&bits, &mut via_detailed)
                .unwrap();
            assert_eq!(via_groups, via_detailed, "{backend:?}");
            assert!(detail.trace > 0.0 && detail.scale.is_finite());
            assert!(detail.residual.is_finite(), "{detail:?}");
        }
    }

    #[test]
    fn run_group_in_place_matches_out_of_place_bit_for_bit() {
        use crate::executor::{PartitionRunner, ScopedRunner, SerialRunner};
        let spec = WhitenSpec::new().with_t(3);
        for d in [20usize, 33, 64] {
            // Groups of a few sizes; ±0 and subnormals mixed in, and one
            // group carrying ±∞ so NaNs travel the whole chain.
            let sizes = [d + 3, 1, 2 * d, 5];
            let mut groups: Vec<Vec<u32>> = sizes
                .iter()
                .enumerate()
                .map(|(g, &m)| {
                    let mut bits = group_bits(m, d, 31 + g as u64);
                    for (i, b) in bits.iter_mut().enumerate() {
                        match i % 13 {
                            4 => *b = (-0.0f32).to_bits(),
                            9 => *b = 1 + i as u32 % 4096, // subnormal
                            _ => {}
                        }
                    }
                    bits
                })
                .collect();
            groups[3][7] = f32::INFINITY.to_bits();
            groups[3][d] = f32::NEG_INFINITY.to_bits();
            let flat = groups.concat();
            let group_rows: Vec<usize> = sizes.to_vec();

            // The native group kernel at every level the host runs.
            for level in [
                SimdLevel::Scalar,
                SimdLevel::Portable,
                SimdLevel::Sse2,
                SimdLevel::Avx2,
            ] {
                let Ok(exec) = NativeWhitenF32::with_simd(d, spec, level) else {
                    continue;
                };
                let mut scratch = ScratchF32::default();
                for group in &groups {
                    let mut expect = vec![0u32; group.len()];
                    exec.run_group(Some(group), &mut expect, &mut scratch);
                    let mut got = group.clone();
                    exec.run_group(None, &mut got, &mut scratch);
                    assert_eq!(got, expect, "{level:?} d {d} m {}", group.len() / d);
                }
            }

            // Through the trait, every executor, split over runners.
            let mut execs = vec![emulated(d, spec)];
            for level in [SimdLevel::Scalar, SimdLevel::Auto] {
                execs.push(
                    build_whiten(BackendKind::Native, FormatKind::Fp32, d, spec, level).unwrap(),
                );
            }
            let runners: [&dyn PartitionRunner; 2] = [&SerialRunner, &ScopedRunner(2)];
            for exec in &mut execs {
                for runner in runners {
                    let mut expect = vec![0u32; flat.len()];
                    exec.whiten_groups_runner(&flat, &mut expect, &group_rows, runner)
                        .unwrap();
                    let mut got = groups.clone();
                    let mut segments: Vec<&mut [u32]> =
                        got.iter_mut().map(Vec::as_mut_slice).collect();
                    let rows = exec.whiten_in_place_runner(&mut segments, runner).unwrap();
                    assert_eq!(rows, group_rows.iter().sum::<usize>());
                    assert_eq!(
                        got.concat(),
                        expect,
                        "{} d {d} width {}",
                        exec.label(),
                        runner.width()
                    );
                }
                // Shape errors surface, not panics.
                let mut ragged = vec![0u32; d + 1];
                assert!(matches!(
                    exec.whiten_in_place_runner(&mut [&mut ragged[..]], &SerialRunner),
                    Err(NormError::GroupShapeMismatch { .. })
                ));
                assert_eq!(
                    exec.whiten_in_place_runner(&mut [], &SerialRunner),
                    Err(NormError::EmptyRequest)
                );
            }
        }
    }
}
