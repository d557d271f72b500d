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
//! * A host-`f32` native path (FP32 only): one plain-Rust kernel body,
//!   compiled three times. [`SimdLevel`] resolves exactly like the
//!   normalization backend and never silently downgrades; `avx2` and
//!   `avx512` run the body inside a `#[target_feature]` entry, where the
//!   autovectorizer widens it (16-column tiles at AVX2, 32 at AVX-512),
//!   and forced `scalar`, `portable` and `sse2` run the baseline build
//!   (whitening has no form of its own at those levels).
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
//! used on the value path (explicit mul then add; Rust never contracts a
//! multiply and an add into one), and no reduction is ever
//! reassociated across lanes or tiles. `tests/whiten_bit_identity.rs`
//! enforces native ≡ emulated for every forced level × d × T.
//!
//! The native path also skips work whose bits the oracle's chain already
//! fixes. The covariance and step 2's `P₁·P₁` are bitwise symmetric —
//! `c[j][i]` folds `c[i][j]`'s products, commuted, in the same order — so
//! only the tiles touching the upper triangle run and the rest is
//! mirrored. Step 1 starts from `P₀ = I`, and its three identity
//! products fold to exactly `Σ_N + 0.0` when `Σ_N` is finite, so that
//! step is one elementwise pass. At the served shape (d = 64, m = 256,
//! T = 5) this cuts multiply-adds from 6.03M to 4.75M.
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

use crate::backend::{scatter, BackendKind, FormatKind};
use crate::error::NormError;
use crate::executor::fork;
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
    /// implementation may partition them across `threads` per-call scoped
    /// worker threads — output bits never depend on the thread count
    /// (each group's operation chain is internally sequential either
    /// way). Returns the total row count.
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

    /// Whiten a round's groups where they sit, serially: each of `groups`
    /// is one whole `m × d` group (one request's payload in the serving
    /// path) and is overwritten with its whitened rows, returning the
    /// total row count. Groups are independent, so the bits equal
    /// [`whiten_groups`](WhitenExec::whiten_groups) over their
    /// concatenation. On error the groups' contents are unspecified.
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
    /// [`whiten_groups`](WhitenExec::whiten_groups).
    fn whiten_in_place(&mut self, groups: &mut [&mut [u32]]) -> Result<usize, NormError> {
        let d = self.d();
        check_groups(d, groups)?;
        let group_rows: Vec<usize> = groups.iter().map(|g| g.len() / d).collect();
        let input = groups.concat();
        let mut out = vec![0u32; input.len()];
        let rows = self.whiten_groups(&input, &mut out, &group_rows, 1)?;
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
) -> Result<usize, NormError> {
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
///
/// Both products walk their right operand row by row; every element
/// still sums `k` ascending from `0.0`.
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
    let mut row = vec![0.0f64; d];
    for i in 0..d {
        row.fill(0.0);
        for k in 0..d {
            let aik = p2[i * d + k];
            for (v, &skj) in row.iter_mut().zip(&sigman[k * d..(k + 1) * d]) {
                *v += aik * skj;
            }
        }
        for (j, &v) in row.iter().enumerate() {
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
        if threads == 0 {
            return Err(NormError::ZeroThreads);
        }
        let rows = validate_groups(self.d, input, out, group_rows)?;
        // Serial on purpose: groups are independent, so bits cannot
        // depend on the partition either way, and the oracle's job is
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
        validate_groups(self.d, input, out, &[rows])?;
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
// chain. The elementwise passes are plain loops, the products run
// through one register-tile kernel; lanes and tile rows span independent
// output elements only.
// --------------------------------------------------------------------

// The elementwise maps of the non-matmul passes. They carry no
// cross-lane state, so however wide the autovectorizer makes them inside
// a `#[target_feature]` entry, each element runs the oracle's operation.

/// `dst[i] = dst[i] + src[i]`.
#[inline(always)]
fn add_assign(dst: &mut [f32], src: &[f32]) {
    for (d, &s) in dst.iter_mut().zip(src) {
        *d += s;
    }
}

/// `dst[i] = dst[i] * s`.
#[inline(always)]
fn scale_assign(dst: &mut [f32], s: f32) {
    for d in dst.iter_mut() {
        *d *= s;
    }
}

/// `dst[i] = dst[i] - src[i]`.
#[inline(always)]
fn sub_assign(dst: &mut [f32], src: &[f32]) {
    for (d, &s) in dst.iter_mut().zip(src) {
        *d -= s;
    }
}

/// `p[i] = (1.5 * p[i]) - (0.5 * g[i])` — the Newton–Schulz combine.
#[inline(always)]
fn ns_combine(p: &mut [f32], g: &[f32]) {
    for (pi, &gi) in p.iter_mut().zip(g) {
        *pi = (1.5 * *pi) - (0.5 * gi);
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
/// Columns of one register tile: two ymm registers per tile row. Also
/// the tail tile after the last whole wide tile.
const TILE_COLS: usize = 16;
/// Columns of one AVX-512 register tile: two zmm registers per tile row.
const TILE_COLS_WIDE: usize = 32;

/// One product `c = a·b`: `c` is `m × n` row-major, `b` is `k × n`
/// row-major, and `a[i][p]` sits at `a[i * a_row + p * a_k]` — so the
/// covariance reads `Xcᵀ` in place, with no transpose copy.
///
/// Every output element runs the chain of [`matmul_soft`]: start at
/// `+0.0`, then fold `p` ascending as `acc + (a[i][p] * b[p][j])` — a
/// multiply, then an add, never FMA, operands in that order. The kernel
/// keeps a `TILE_ROWS × TC` block of such accumulators in registers
/// across the whole `p` loop (`TC` is [`TILE_COLS`], or
/// [`TILE_COLS_WIDE`] at the AVX-512 level); tail rows and columns run
/// the same chain in narrower tiles. Tiles, rows and lanes only ever span
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

    /// Write the product into `c` (every element is overwritten), in
    /// `TILE_ROWS × TC` tiles.
    #[inline(always)]
    fn run<const TC: usize>(&self, c: &mut [f32]) {
        self.tiles::<TC>(c, false);
    }

    /// [`run`](MatMul::run) for a square product whose result is
    /// bitwise symmetric: `c[j][i]` folds the products of `c[i][j]`,
    /// commuted, in the same `p` order — the covariance `Xcᵀ·Xc`, or
    /// `P·P` for a bitwise-symmetric `P`. Only the tiles that touch the
    /// upper triangle run; the strict lower triangle is then mirrored
    /// from it.
    #[inline(always)]
    fn run_symmetric<const TC: usize>(&self, c: &mut [f32]) {
        debug_assert_eq!(self.m, self.n, "a symmetric product is square");
        self.tiles::<TC>(c, true);
        let n = self.n;
        for i in 1..n {
            for j in 0..i {
                c[i * n + j] = c[j * n + i];
            }
        }
    }

    /// Every tile of the product, or with `upper` only those that touch
    /// the upper triangle.
    #[inline(always)]
    fn tiles<const TC: usize>(&self, c: &mut [f32], upper: bool) {
        let full_rows = self.m - self.m % TILE_ROWS;
        for i in (0..full_rows).step_by(TILE_ROWS) {
            self.row_block::<TILE_ROWS, TC>(c, i, if upper { i } else { 0 });
        }
        for i in full_rows..self.m {
            self.row_block::<1, TC>(c, i, if upper { i } else { 0 });
        }
    }

    /// Rows `i..i + R`: whole `TC`-wide tiles, one [`TILE_COLS`]-wide
    /// tile if one still fits, then one column at a time. Tiles that end
    /// at or before column `from` are skipped.
    #[inline(always)]
    fn row_block<const R: usize, const TC: usize>(&self, c: &mut [f32], i: usize, from: usize) {
        let j = self.strip::<R, TC>(c, i, 0, from);
        let j = self.strip::<R, TILE_COLS>(c, i, j, from);
        self.strip::<R, 1>(c, i, j, from);
    }

    /// `R × C` tiles from column `j` while a whole one fits, skipping
    /// those that end at or before column `from`. Returns the first
    /// column left over.
    #[inline(always)]
    fn strip<const R: usize, const C: usize>(
        &self,
        c: &mut [f32],
        i: usize,
        mut j: usize,
        from: usize,
    ) -> usize {
        while j + C <= self.n {
            if j + C > from {
                self.tile::<R, C>(c, i, j);
            }
            j += C;
        }
        j
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
/// operation chain: the elementwise passes are plain maps, and the
/// covariance, the Newton–Schulz products and the apply go through
/// [`MatMul`] in `TC`-column tiles (start at `+0.0`, fold `k` ascending,
/// multiply then add). Elements whose bits the chain already fixes are
/// not recomputed: see [`MatMul::run_symmetric`] and [`newton_schulz`].
#[inline(always)]
fn whiten_group_f32<const TC: usize>(d: usize, spec: &WhitenSpec, eps: f32, s: &mut ScratchF32) {
    let m = s.xc.len() / d;
    s.reserve(m, d);
    let inv_m = 1.0f32 / (m as f64 as f32);
    match spec.group_mode {
        GroupMode::Center => {
            s.mean.fill(0.0);
            for row in s.xc.chunks_exact(d) {
                add_assign(&mut s.mean, row);
            }
            scale_assign(&mut s.mean, inv_m);
            for row in s.xc.chunks_exact_mut(d) {
                sub_assign(row, &s.mean);
            }
        }
        GroupMode::Raw => {}
    }
    // Σ[i][j] folds Xc[k][i]·Xc[k][j] over the rows k, and Σ[j][i] the
    // same products commuted: a symmetric product.
    MatMul {
        a: &s.xc,
        a_row: 1,
        a_k: d,
        b: &s.xc,
        m: d,
        n: d,
        k: m,
    }
    .run_symmetric::<TC>(&mut s.sigma);
    scale_assign(&mut s.sigma, inv_m);
    for i in 0..d {
        s.sigma[i * d + i] += eps;
    }
    let mut tr = 0.0f32;
    for i in 0..d {
        tr += s.sigma[i * d + i];
    }
    let rtr = 1.0f32 / tr;
    s.sigman.copy_from_slice(&s.sigma);
    scale_assign(&mut s.sigman, rtr);
    newton_schulz::<TC>(d, spec.t, s);
    let scale = rtr.sqrt();
    s.g.copy_from_slice(&s.p);
    scale_assign(&mut s.g, scale);
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
    .run::<TC>(&mut s.y);
}

/// `t` Newton–Schulz steps on `s.sigman` from `P₀ = I`, leaving `P_t` in
/// `s.p` — the oracle's loop, minus two kinds of work whose bits are
/// already fixed:
///
/// * Step 1 multiplies by identities: `I·I` and `I·I·I` are exactly `I`,
///   and each element of `I·Σ_N` folds `1·Σ_N[i][j]` among products
///   `+0.0·Σ_N[k][j]` that are `±0.0`. From a `+0.0` start that fold is
///   `Σ_N[i][j] + 0.0` (a `−0.0` element becomes `+0.0`; every other
///   value, subnormals included, passes unchanged). So the step is
///   `P₁ = 1.5·I − 0.5·(Σ_N + 0.0)`, through the same combine. This
///   needs every `Σ_N` element finite: `0·∞` and `0·NaN` make NaNs that
///   spread along columns, so a non-finite `Σ_N` runs the full step.
/// * After that shortcut `P₁` is bitwise symmetric (`Σ_N` is, being a
///   scaled symmetric product), so step 2's `P₁·P₁` is a symmetric
///   product. Later iterates are not: `P²·P` pairs different operands in
///   `[i][j]` and `[j][i]`.
#[inline(always)]
fn newton_schulz<const TC: usize>(d: usize, t: u32, s: &mut ScratchF32) {
    s.p.fill(0.0);
    for i in 0..d {
        s.p[i * d + i] = 1.0;
    }
    let shortcut = t > 0 && s.sigman.iter().all(|v| v.is_finite());
    let first_full = if shortcut {
        for (gij, &nij) in s.g.iter_mut().zip(&s.sigman) {
            *gij = nij + 0.0;
        }
        ns_combine(&mut s.p, &s.g);
        1
    } else {
        0
    };
    // normlint: kernel-begin
    for step in first_full..t {
        let square = MatMul::square(&s.p, &s.p, d);
        if shortcut && step == 1 {
            square.run_symmetric::<TC>(&mut s.p2);
        } else {
            square.run::<TC>(&mut s.p2);
        }
        MatMul::square(&s.p2, &s.p, d).run::<TC>(&mut s.p3);
        MatMul::square(&s.p3, &s.sigman, d).run::<TC>(&mut s.g);
        ns_combine(&mut s.p, &s.g);
    }
    // normlint: kernel-end
}

/// The baseline build of the kernel, which forced `scalar`, `portable`
/// and `sse2` all run (SSE2 is the x86-64 baseline it already targets).
fn whiten_group_scalar(d: usize, spec: &WhitenSpec, eps: f32, s: &mut ScratchF32) {
    whiten_group_f32::<TILE_COLS>(d, spec, eps, s)
}

#[cfg(target_arch = "x86_64")]
mod x86 {
    //! The wide entry points. As in `simd.rs`, the generic pipeline —
    //! the `MatMul` tile kernel and the elementwise maps included — is
    //! `#[inline(always)]` and instantiated *inside* each
    //! `#[target_feature]` entry point, so the autovectorizer widens it
    //! to that ISA. Routing through a function pointer would outline a
    //! copy without the feature attribute.

    use super::{whiten_group_f32, ScratchF32, WhitenSpec, TILE_COLS, TILE_COLS_WIDE};

    /// # Safety
    ///
    /// Caller guarantees AVX2+FMA were runtime-detected. FMA is enabled
    /// for parity with the resolver's detection, but Rust never
    /// contracts a multiply and an add into one — the value path is
    /// mul-then-add throughout.
    #[target_feature(enable = "avx2,fma")]
    pub(super) unsafe fn whiten_group_avx2(
        d: usize,
        spec: &WhitenSpec,
        eps: f32,
        s: &mut ScratchF32,
    ) {
        whiten_group_f32::<TILE_COLS>(d, spec, eps, s)
    }

    /// # Safety
    ///
    /// Caller guarantees AVX-512F, AVX2 and FMA were runtime-detected.
    /// The tile kernel runs 32-column tiles, which the autovectorizer
    /// widens to two zmm registers per tile row. As at AVX2, no FMA
    /// instruction is used.
    #[target_feature(enable = "avx2,fma,avx512f")]
    pub(super) unsafe fn whiten_group_avx512(
        d: usize,
        spec: &WhitenSpec,
        eps: f32,
        s: &mut ScratchF32,
    ) {
        whiten_group_f32::<TILE_COLS_WIDE>(d, spec, eps, s)
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
            None | Some(SimdKernel::Portable) | Some(SimdKernel::Sse2) => {
                whiten_group_scalar(d, spec, eps, scratch)
            }
            #[cfg(target_arch = "x86_64")]
            // SAFETY: `simd::resolve` yields Avx2 only after runtime-detecting AVX2+FMA.
            Some(SimdKernel::Avx2) => unsafe { x86::whiten_group_avx2(d, spec, eps, scratch) },
            #[cfg(target_arch = "x86_64")]
            // SAFETY: `simd::resolve` yields Avx512 only after runtime-detecting
            // AVX-512F, AVX2 and FMA.
            Some(SimdKernel::Avx512) => unsafe { x86::whiten_group_avx512(d, spec, eps, scratch) },
            #[cfg(not(target_arch = "x86_64"))]
            Some(SimdKernel::Avx2) | Some(SimdKernel::Avx512) => {
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
        if threads == 0 {
            return Err(NormError::ZeroThreads);
        }
        let rows = validate_groups(self.d, input, out, group_rows)?;
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
        let mut parts = Vec::with_capacity(workers);
        let mut in_rest = input;
        let mut out_rest = out;
        for chunk in group_rows.chunks(per) {
            let take: usize = chunk.iter().map(|&m| m * self.d).sum();
            let (in_chunk, in_tail) = in_rest.split_at(take);
            let (out_chunk, out_tail) = out_rest.split_at_mut(take);
            in_rest = in_tail;
            out_rest = out_tail;
            parts.push((chunk, in_chunk, out_chunk));
        }
        let this = &*self;
        fork(parts, |(chunk, in_chunk, out_chunk)| {
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

    fn whiten_in_place(&mut self, groups: &mut [&mut [u32]]) -> Result<usize, NormError> {
        let rows = check_groups(self.d, groups)?;
        let mut scratch = core::mem::take(&mut self.scratch);
        for group in groups.iter_mut() {
            self.run_group(None, group, &mut scratch);
        }
        self.scratch = scratch;
        Ok(rows)
    }

    fn whiten_group_detailed(
        &mut self,
        input: &[u32],
        out: &mut [u32],
    ) -> Result<WhitenDetail, NormError> {
        let rows = input.len() / self.d.max(1);
        validate_groups(self.d, input, out, &[rows])?;
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

/// Build the whitening executor for a `(backend, format)` selection,
/// mirror of [`build_backend_simd`](crate::backend::build_backend_simd).
/// The service and the CLI each build their own executor through it:
/// a service shard on its first whitening request, the CLI's `whiten`
/// for its one checked group. The benches build theirs here too.
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

    /// The product at both tile widths.
    fn products(mm: &MatMul<'_>) -> [Vec<f32>; 2] {
        let mut narrow = vec![f32::NAN; mm.m * mm.n];
        mm.run::<TILE_COLS>(&mut narrow);
        let mut wide = vec![f32::NAN; mm.m * mm.n];
        mm.run::<TILE_COLS_WIDE>(&mut wide);
        [narrow, wide]
    }

    #[test]
    fn tile_kernel_matches_the_soft_matmul_chain_bit_for_bit() {
        // Shapes around the 4 × 16 and 4 × 32 tiles: all-tail, exact
        // tiles, and partial tiles next to full ones in both dimensions
        // (48 is a wide tile beside a 16-column one).
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
            (6, 48, 5),
            (5, 51, 9),
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
                let mm = MatMul {
                    a: data,
                    a_row,
                    a_k,
                    b: &b,
                    m,
                    n,
                    k,
                };
                for (c, cols) in products(&mm).iter().zip([TILE_COLS, TILE_COLS_WIDE]) {
                    for (idx, (&e, v)) in expected.iter().zip(c).enumerate() {
                        assert!(
                            same_bits(e, v.to_bits()),
                            "{label} {m}×{k}·{k}×{n} ({cols}-column tiles): element {idx} \
                             expected {e:#010x}, got {:#010x}",
                            v.to_bits()
                        );
                    }
                }
            }
        }
        assert!(
            discriminating > 0,
            "the operands must tell a +0.0 start from a first-product seed"
        );
    }

    /// `v` with its strict lower triangle mirrored from the upper one.
    fn symmetrize(mut v: Vec<f32>, d: usize) -> Vec<f32> {
        for i in 0..d {
            for j in 0..i {
                v[i * d + j] = v[j * d + i];
            }
        }
        v
    }

    fn bits(v: &[f32]) -> Vec<u32> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    /// [`same_bits`] over whole matrices, naming the first mismatch.
    fn assert_same_bits(expected: &[f32], actual: &[f32], context: &str) {
        assert_eq!(expected.len(), actual.len(), "{context}");
        for (idx, (e, a)) in expected.iter().zip(actual).enumerate() {
            assert!(
                same_bits(e.to_bits(), a.to_bits()),
                "{context}: element {idx} expected {:#010x}, got {:#010x}",
                e.to_bits(),
                a.to_bits()
            );
        }
    }

    #[test]
    fn symmetric_products_match_the_full_product_bit_for_bit() {
        for (case, &(rows, d)) in [(1, 1), (3, 5), (9, 16), (7, 20), (5, 33), (40, 48), (2, 64)]
            .iter()
            .enumerate()
        {
            // The covariance Xcᵀ·Xc (read strided, as the kernel does)
            // and P·P for a symmetric P. The edge entries put signed
            // zeros, subnormals, overflowing products and ∞ into both.
            let xc = edge_matrix(rows * d, 40 + case as u64);
            let p = symmetrize(edge_matrix(d * d, 60 + case as u64), d);
            let symmetric = [
                MatMul {
                    a: &xc,
                    a_row: 1,
                    a_k: d,
                    b: &xc,
                    m: d,
                    n: d,
                    k: rows,
                },
                MatMul::square(&p, &p, d),
            ];
            for (label, mm) in ["covariance", "P·P"].into_iter().zip(symmetric) {
                let [narrow, wide] = products(&mm);
                let mut sym_narrow = vec![f32::NAN; d * d];
                mm.run_symmetric::<TILE_COLS>(&mut sym_narrow);
                let mut sym_wide = vec![f32::NAN; d * d];
                mm.run_symmetric::<TILE_COLS_WIDE>(&mut sym_wide);
                let context = format!("{label} d {d} rows {rows}");
                assert_same_bits(&narrow, &sym_narrow, &context);
                assert_same_bits(&wide, &sym_wide, &format!("{context} wide"));
            }
        }
    }

    /// The oracle's loop shape over `s.sigman`: `t` full steps from
    /// `P₀ = I`, every product run whole.
    fn full_steps(d: usize, t: u32, s: &mut ScratchF32) {
        s.p.fill(0.0);
        for i in 0..d {
            s.p[i * d + i] = 1.0;
        }
        for _ in 0..t {
            MatMul::square(&s.p, &s.p, d).run::<TILE_COLS>(&mut s.p2);
            MatMul::square(&s.p2, &s.p, d).run::<TILE_COLS>(&mut s.p3);
            MatMul::square(&s.p3, &s.sigman, d).run::<TILE_COLS>(&mut s.g);
            ns_combine(&mut s.p, &s.g);
        }
    }

    /// A trace-normalized covariance of a `3d × d` group, as the kernel
    /// computes it, with a symmetric pair of `−0.0` and one of
    /// subnormals: a `Σ_N` whose iterates stay finite.
    fn trace_normalized_covariance(d: usize) -> Vec<f32> {
        let m = 3 * d;
        let xc: Vec<f32> = group_bits(m, d, 11)
            .into_iter()
            .map(f32::from_bits)
            .collect();
        let mut sigman = vec![0.0f32; d * d];
        MatMul {
            a: &xc,
            a_row: 1,
            a_k: d,
            b: &xc,
            m: d,
            n: d,
            k: m,
        }
        .run::<TILE_COLS>(&mut sigman);
        let tr: f32 = (0..d).map(|i| sigman[i * d + i]).sum();
        for v in &mut sigman {
            *v *= 1.0 / tr;
        }
        for (i, j, v) in [(1, 4, -0.0f32), (2, 7, 1.0e-40)] {
            sigman[i * d + j] = v;
            sigman[j * d + i] = v;
        }
        sigman
    }

    #[test]
    fn newton_schulz_shortcuts_match_the_full_steps_bit_for_bit() {
        let d = 20;
        let scratch = |sigman: &[f32]| {
            let mut s = ScratchF32::default();
            s.reserve(1, d);
            s.sigman.copy_from_slice(sigman);
            s
        };
        // A finite symmetric Σ_N with ±0.0, subnormals and values near
        // the top of the range (edge_matrix's ±∞ replaced by −0.0), whose
        // products overflow; and a covariance whose iterates stay finite,
        // where a mirrored P₂·P₂ would show.
        let edge: Vec<f32> = edge_matrix(d * d, 7)
            .into_iter()
            .map(|v| if v.is_finite() { v } else { -0.0 })
            .collect();
        let edge = symmetrize(edge, d);
        let covariance = trace_normalized_covariance(d);
        // Σ_N holding ∞ on the diagonal, or NaN: 0·∞ and 0·NaN in the
        // identity products spread NaNs down their columns, so P₁ is not
        // symmetric and neither shortcut may run.
        let mut with_inf = covariance.clone();
        with_inf[0] = f32::INFINITY;
        let mut with_nan = covariance.clone();
        with_nan[3 * d + 5] = f32::NAN;
        with_nan[5 * d + 3] = f32::NAN;
        let cases = [
            ("edge", &edge, true),
            ("covariance", &covariance, true),
            ("covariance with ∞", &with_inf, false),
            ("covariance with NaN", &with_nan, false),
        ];
        for (label, sigman, finite) in cases {
            for t in [0u32, 1, 2, 3, 5] {
                let mut expected = scratch(sigman);
                full_steps(d, t, &mut expected);
                for wide in [false, true] {
                    let mut got = scratch(sigman);
                    if wide {
                        newton_schulz::<TILE_COLS_WIDE>(d, t, &mut got);
                    } else {
                        newton_schulz::<TILE_COLS>(d, t, &mut got);
                    }
                    let context = format!("{label} Σ_N, t = {t}, wide tiles {wide}");
                    // P_t, and the last step's I·Σ_N or P³·Σ_N. The
                    // shortcut leaves P² and P³ unwritten in step 1, so
                    // they are compared from step 2 on.
                    let mut pairs = vec![(&expected.p, &got.p, "P"), (&expected.g, &got.g, "G")];
                    if t >= 2 {
                        pairs.push((&expected.p2, &got.p2, "P²"));
                        pairs.push((&expected.p3, &got.p3, "P³"));
                    }
                    for (want, have, name) in pairs {
                        assert_same_bits(want, have, &format!("{context}: {name}"));
                    }
                }
            }
            // The shortcut formula itself tells the cases apart: it
            // matches the full step's I·Σ_N only when Σ_N is finite, and
            // it differs from plain Σ_N where Σ_N holds −0.0.
            let mut full = scratch(sigman);
            full_steps(d, 1, &mut full);
            let shortcut: Vec<f32> = sigman.iter().map(|&v| v + 0.0).collect();
            assert_eq!(
                bits(&shortcut) == bits(&full.g),
                finite,
                "{label} Σ_N: Σ_N + 0.0 against I·I·I·Σ_N"
            );
            if finite {
                assert_ne!(
                    bits(&full.g),
                    bits(sigman),
                    "{label}: −0.0 must become +0.0"
                );
            }
        }
    }

    /// The column walk `residual_f64` used before its second product
    /// read `Σ_N` row by row.
    fn residual_by_columns(p: &[f64], sigman: &[f64], d: usize) -> f64 {
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

    #[test]
    fn residual_matches_the_column_walk_bit_for_bit() {
        // Edge entries kept to signed zeros, subnormals and [-2, 2], so
        // the worst element is a rounding-sensitive sum, not one huge
        // product.
        let moderate = |len: usize, salt: u64, scale: f64| -> Vec<f64> {
            edge_matrix(len, salt)
                .into_iter()
                .map(|v| {
                    if v.abs() <= 2.0 {
                        v as f64 * scale
                    } else {
                        0.5
                    }
                })
                .collect()
        };
        for d in [1usize, 5, 16, 33] {
            for salt in 0..8 {
                // A converged-ish P (near I), a rough one, and one with an
                // overflowing entry, which reports NaN.
                let sigman = moderate(d * d, 3 + 16 * salt, 0.1);
                let mut near_identity = moderate(d * d, 5 + 16 * salt, 1e-3);
                for i in 0..d {
                    near_identity[i * d + i] += 1.0;
                }
                let rough = moderate(d * d, 9 + 16 * salt, 1.0);
                let mut blown = rough.clone();
                blown[d * d / 2] = f64::MAX;
                for (label, p) in [
                    ("near I", &near_identity),
                    ("rough", &rough),
                    ("blown", &blown),
                ] {
                    let got = residual_f64(p, &sigman, d, 5);
                    let want = residual_by_columns(p, &sigman, d);
                    assert_eq!(got.to_bits(), want.to_bits(), "{label} d {d} salt {salt}");
                }
            }
        }
        assert_eq!(residual_f64(&[2.0], &[7.0], 1, 0), 0.0, "T = 0 is exact");
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
                SimdLevel::Avx512,
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

            // Through the trait, every executor, against every thread count.
            let mut execs = vec![emulated(d, spec)];
            for level in [SimdLevel::Scalar, SimdLevel::Auto] {
                execs.push(
                    build_whiten(BackendKind::Native, FormatKind::Fp32, d, spec, level).unwrap(),
                );
            }
            for exec in &mut execs {
                let mut got = groups.clone();
                let mut segments: Vec<&mut [u32]> = got.iter_mut().map(Vec::as_mut_slice).collect();
                let rows = exec.whiten_in_place(&mut segments).unwrap();
                assert_eq!(rows, group_rows.iter().sum::<usize>());
                for threads in [1usize, 2] {
                    let mut expect = vec![0u32; flat.len()];
                    exec.whiten_groups(&flat, &mut expect, &group_rows, threads)
                        .unwrap();
                    assert_eq!(
                        got.concat(),
                        expect,
                        "{} d {d} {threads} threads",
                        exec.label()
                    );
                }
                // Shape errors surface, not panics.
                let mut ragged = vec![0u32; d + 1];
                assert!(matches!(
                    exec.whiten_in_place(&mut [&mut ragged[..]]),
                    Err(NormError::GroupShapeMismatch { .. })
                ));
                assert_eq!(exec.whiten_in_place(&mut []), Err(NormError::EmptyRequest));
            }
        }
    }
}
