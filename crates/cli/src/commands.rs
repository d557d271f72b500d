//! Subcommand implementations.
//!
//! Method selection goes through the core crate's [`MethodSpec`] registry
//! (`--method iterl2|fisr|exact|lut`, with an optional `:parameter`
//! suffix). `batch` and `serve` build one type-erased [`NormService`]
//! from their flags — one `ServiceConfig` names the format × backend ×
//! method × shards execution point. The reporting subcommands call the
//! engine directly: `normalize` and `demo` run a backend's detailed row
//! path, `whiten` a whitening executor's convergence check, and `rsqrt`
//! the scalar iteration. Format and backend names parse
//! case-insensitively.

use std::time::Instant;

use iterl2norm::service::{NormRequest, NormService, Placement, ServiceConfig};
use iterl2norm::{
    build_backend_simd, build_whiten, iterate, layer_norm, BackendKind, FormatKind, GroupMode,
    IterConfig, IterTrace, LayerNormInputs, MethodSpec, NormError, ReduceOrder, RowMoments,
    SimdLevel, WhitenSpec,
};
use macrosim::{activity_trace, utilization, IterL2NormMacro, MacroConfig};
use softfloat::{Bf16, Float, Fp16, Fp32, HostF32};
use synthmodel::CostModel;
use workloads::VectorGen;

use crate::args::{Options, Parsed};

/// One subcommand: its name, the options it reads and its body.
pub struct Command {
    pub name: &'static str,
    pub options: Options,
    pub run: fn(&Parsed) -> Result<(), String>,
}

const fn cmd(
    name: &'static str,
    valued: &'static str,
    flags: &'static str,
    run: fn(&Parsed) -> Result<(), String>,
) -> Command {
    let options = Options { valued, flags };
    Command { name, options, run }
}

/// Every subcommand, with exactly the options its body reads: `main`
/// parses a command line against its command's list, so an option the
/// command would ignore is rejected by name.
pub const COMMANDS: [Command; 8] = [
    cmd(
        "normalize",
        "format backend method steps simd",
        "",
        normalize,
    ),
    cmd("rsqrt", "m format backend steps", "", rsqrt),
    cmd("macro", "d steps seed format", "utilization", macro_sim),
    cmd("cost", "format", "", cost),
    cmd("demo", "d seed format backend method steps simd", "", demo),
    cmd(
        "batch",
        "d rows seed format backend method steps simd shards queue-depth placement",
        "",
        batch,
    ),
    cmd(
        "whiten",
        "d m seed steps eps group-mode tol format backend simd",
        "",
        whiten,
    ),
    cmd(
        "serve",
        "listen unix tenants d format backend method steps simd shards queue-depth placement",
        "",
        serve,
    ),
];

/// The subcommand named `name`, if there is one.
pub fn command(name: &str) -> Option<&'static Command> {
    COMMANDS.iter().find(|c| c.name == name)
}

/// Usage text shown by `help` and on errors.
pub fn usage() -> String {
    format!(
        "\
iterl2norm — fast iterative L2-normalization (DATE 2025 reproduction)

USAGE:
  iterl2norm normalize [--format fp32|fp16|bf16] [--backend B] [--method M]
                       [--steps N] [--simd L] V1 V2 …
      Layer-normalize the given values, printing output and error vs exact.
  iterl2norm rsqrt --m VALUE [--format …] [--backend B] [--steps N]
      Show the scalar iteration trace toward 1/sqrt(m).
  iterl2norm macro --d LEN [--steps N] [--format …] [--utilization]
      Run the cycle-accurate macro on a random vector of length LEN.
  iterl2norm cost [--format …]
      Print the 32/28nm cost-model report (Table II row + breakdown).
  iterl2norm demo [--d LEN] [--format …] [--backend B] [--method M] [--seed S]
                  [--simd L]
      Normalize a random uniform(-1,1) vector end to end.
  iterl2norm batch [--d LEN] [--rows R] [--format …] [--backend B]
                   [--method M] [--seed S]
                   [--shards S] [--queue-depth Q] [--placement P] [--simd L]
      Normalize a random R x LEN batch through the engine, printing rows/s
      for the per-call path vs the plan/batch path.
  iterl2norm whiten [--d LEN] [--m ROWS] [--steps T] [--eps E]
                    [--group-mode center|raw] [--format …] [--backend B]
                    [--seed S] [--simd L] [--tol R]
      Whiten one random ROWS x LEN group: T Newton-Schulz steps toward
      Sigma^-1/2 (the paper's iterate-don't-invert trick, lifted from
      scalar 1/sqrt(m) to the group covariance), printing the group
      moments, the convergence residual, and how far the output
      covariance is from the identity. --tol R makes a residual above R
      an error instead of a report.
  iterl2norm serve --listen ADDR | --unix PATH [--d LEN] [--format …]
                   [--backend B] [--method M] [--shards S]
                   [--queue-depth Q] [--placement P] [--tenants SPEC]
                   [--simd L]
      Serve the engine over the wire protocol (TCP and/or Unix socket)
      until interrupted. --tenants configures per-tenant admission:
      'id:rate:burst[:priority]' entries separated by ';', e.g.
      '1:100:20:high;2:50:10'. Unlisted tenants are admitted unlimited
      at normal priority.
  iterl2norm help
      This text.

Methods (--method): iterl2[:steps], fisr[:newton], exact[:eps], lut[:segments];
--steps N is shorthand for iterl2:N.
Backends (--backend): emulated (softfloat, every format — the default) or
native (host f32, fp32 only, bit-identical output).
--shards S runs S independent backend+queue instances, and --queue-depth Q
bounds each shard's waiting line (further requests are rejected with a
queue-full error instead of buffering). Each shard runs one resident
driver that spawns once at startup and parks when idle, and always
pools its response buffers. A request that finds its shard idle runs
at once on the caller; requests that queue while a round runs join the
shard's next round, and no round waits for more. --placement P picks
how requests spread across shards: round-robin (the default) or
request-hash (keyed requests stick to one shard, keeping its caches
warm). --simd L selects the native backend's vector tier, one of
{levels}.
auto (the default) picks the best level the host supports, and avx512
runs 512-bit kernels for both normalization and whitening. A forced
level the host or backend cannot run is an error, never a silent
downgrade, and every level produces identical output bits.
None of these knobs changes output bits. Format, backend,
placement and simd names are case-insensitive. whiten's --group-mode
picks whether the group is mean-centered before the covariance
(center, the default) or taken raw; --eps is the diagonal ridge added
to the covariance.",
        levels = simd_levels()
    )
}

/// Every `--simd` name, `|`-separated, from the core registry.
fn simd_levels() -> String {
    SimdLevel::ALL.map(SimdLevel::name).join("|")
}

/// Resolve `--method`/`--steps` into a registry entry. `--steps` keeps its
/// historical meaning as the IterL2Norm step count; combining it with a
/// different method is rejected rather than silently ignored.
fn method_spec(parsed: &Parsed) -> Result<MethodSpec, String> {
    let name = parsed.get("method").unwrap_or("iterl2");
    let mut spec = MethodSpec::parse(name).ok_or_else(|| {
        // A known family with a bad parameter deserves a different message
        // than a name we've never heard of.
        let family = name.split_once(':').map_or(name, |(fam, _)| fam);
        if MethodSpec::parse(family).is_some() {
            format!(
                "invalid parameter in --method '{name}' \
                 (iterl2:<steps>, fisr:<newton>, exact:<eps >= 0>, lut:<segments >= 1>)"
            )
        } else {
            format!("unknown method '{name}' (iterl2|fisr|exact|lut, optional :param)")
        }
    })?;
    if parsed.get("steps").is_some() {
        if !matches!(spec, MethodSpec::IterL2 { .. }) {
            return Err(format!(
                "--steps only applies to iterl2 (got --method {name}); \
                 use the method's own parameter, e.g. fisr:2 or lut:128"
            ));
        }
        if name.contains(':') {
            return Err(format!(
                "--steps conflicts with the explicit step count in --method {name}; \
                 pass one or the other"
            ));
        }
    }
    if let MethodSpec::IterL2 { steps } = &mut spec {
        *steps = parsed.num("steps", *steps)?;
    }
    Ok(spec)
}

/// Resolve `--format` into the core registry's [`FormatKind`]
/// (default: fp32, case-insensitive).
fn format_kind(parsed: &Parsed) -> Result<FormatKind, String> {
    match parsed.get("format") {
        None => Ok(FormatKind::Fp32),
        Some(text) => FormatKind::parse(text)
            .ok_or_else(|| format!("unknown format '{text}' (fp32|fp16|bf16)")),
    }
}

/// Resolve `--backend` into the core registry's [`BackendKind`]
/// (default: emulated, case-insensitive).
fn backend_kind(parsed: &Parsed) -> Result<BackendKind, String> {
    match parsed.get("backend") {
        None => Ok(BackendKind::Emulated),
        Some(text) => BackendKind::parse(text)
            .ok_or_else(|| format!("unknown backend '{text}' (emulated|native)")),
    }
}

/// Resolve `--shards` (default 1), rejecting 0 with the service's own
/// error message.
fn shards_arg(parsed: &Parsed) -> Result<usize, String> {
    let shards: usize = parsed.num("shards", 1)?;
    if shards == 0 {
        return Err(format!("option --shards: {}", NormError::ZeroShards));
    }
    Ok(shards)
}

/// Resolve `--queue-depth` (default
/// [`DEFAULT_QUEUE_DEPTH`](iterl2norm::service::DEFAULT_QUEUE_DEPTH)),
/// rejecting 0 with the offending option named — like `--shards`.
fn queue_depth_arg(parsed: &Parsed) -> Result<usize, String> {
    let depth: usize = parsed.num("queue-depth", iterl2norm::service::DEFAULT_QUEUE_DEPTH)?;
    if depth == 0 {
        return Err(format!(
            "option --queue-depth: {}",
            NormError::ZeroQueueDepth
        ));
    }
    Ok(depth)
}

/// Resolve `--simd` into the core registry's [`SimdLevel`]
/// (default: auto, case-insensitive). This only parses the name; whether
/// the level is *available* is checked when the service builds, so a
/// forced level on an unsupported host fails with the engine's own
/// error instead of silently downgrading.
fn simd_arg(parsed: &Parsed) -> Result<SimdLevel, String> {
    match parsed.get("simd") {
        None => Ok(SimdLevel::Auto),
        Some(text) => SimdLevel::parse(text)
            .ok_or_else(|| format!("unknown simd level '{text}' ({})", simd_levels())),
    }
}

/// Resolve `--placement` into the service registry's [`Placement`]
/// (default: round-robin, case-insensitive).
fn placement_arg(parsed: &Parsed) -> Result<Placement, String> {
    match parsed.get("placement") {
        None => Ok(Placement::RoundRobin),
        Some(text) => Placement::parse(text)
            .ok_or_else(|| format!("unknown placement '{text}' (round-robin|request-hash)")),
    }
}

/// Build the [`NormService`] for the parsed `--backend`/`--format`/
/// `--shards`/`--queue-depth`/`--placement`/`--simd` flags — what
/// `batch` and `serve` run on.
fn build_service(parsed: &Parsed, d: usize, spec: MethodSpec) -> Result<NormService, String> {
    let backend = backend_kind(parsed)?;
    let format = format_kind(parsed)?;
    let shards = shards_arg(parsed)?;
    let queue_depth = queue_depth_arg(parsed)?;
    let placement = placement_arg(parsed)?;
    let simd = simd_arg(parsed)?;
    ServiceConfig::new(d)
        .with_backend(backend)
        .with_format(format)
        .with_method(spec)
        .with_shards(shards)
        .with_queue_depth(queue_depth)
        .with_placement(placement)
        .with_simd(simd)
        .build()
        .map_err(|e| e.to_string())
}

/// Dispatch a closure over the selected format (emulated execution) — for
/// the simulator-style subcommands that genuinely need the typed softfloat
/// values, not a normalization service.
macro_rules! with_format {
    ($parsed:expr, $f:ident => $body:expr) => {{
        match format_kind($parsed)? {
            FormatKind::Fp16 => {
                type $f = Fp16;
                $body
            }
            FormatKind::Bf16 => {
                type $f = Bf16;
                $body
            }
            FormatKind::Fp32 => {
                type $f = Fp32;
                $body
            }
        }
    }};
}

/// Dispatch a body over the concrete [`Float`] type a `(backend, format)`
/// pair executes: `HostF32` for native FP32, the softfloat type for the
/// emulator. Native with a narrower format is the engine's own
/// [`NormError::BackendFormatMismatch`]. The body evaluates to a
/// `Result<_, NormError>`.
macro_rules! with_exec_float {
    ($backend:expr, $format:expr, $f:ident => $body:expr) => {
        match ($backend, $format) {
            (BackendKind::Native, FormatKind::Fp32) => {
                type $f = HostF32;
                $body
            }
            (BackendKind::Native, format) => Err(NormError::BackendFormatMismatch {
                backend: BackendKind::Native.name(),
                format: format.name(),
            }),
            (BackendKind::Emulated, FormatKind::Fp32) => {
                type $f = Fp32;
                $body
            }
            (BackendKind::Emulated, FormatKind::Fp16) => {
                type $f = Fp16;
                $body
            }
            (BackendKind::Emulated, FormatKind::Bf16) => {
                type $f = Bf16;
                $body
            }
        }
    };
}

/// Normalize one row on a backend built from the parsed
/// `--backend`/`--format`/`--simd` flags, returning the output bits and
/// the row's scalar intermediates — the path behind `normalize` and
/// `demo`.
fn detailed_row(
    parsed: &Parsed,
    spec: &MethodSpec,
    bits: &[u32],
) -> Result<(Vec<u32>, RowMoments), String> {
    let mut backend = build_backend_simd(
        backend_kind(parsed)?,
        format_kind(parsed)?,
        bits.len(),
        spec,
        ReduceOrder::default(),
        simd_arg(parsed)?,
    )
    .map_err(|e| e.to_string())?;
    let mut out = vec![0u32; bits.len()];
    let moments = backend
        .normalize_row_bits_detailed(bits, &mut out)
        .map_err(|e| e.to_string())?;
    Ok((out, moments))
}

/// `steps` iterations toward `1/√m` in the arithmetic of a
/// `(backend, format)` pair (bit-identical between the two backends for
/// FP32): `m` rounded into the format, and the trace widened to `f64`.
pub(crate) fn rsqrt_trace(
    backend: BackendKind,
    format: FormatKind,
    m: f64,
    steps: u32,
) -> Result<(f64, IterTrace<f64>), NormError> {
    with_exec_float!(backend, format, F => {
        let mf = F::from_f64(m);
        let trace = iterate(mf, &IterConfig::fixed_steps(steps));
        Ok((
            mf.to_f64(),
            IterTrace {
                a0: trace.a0.to_f64(),
                lambda: trace.lambda.to_f64(),
                steps: trace.steps.iter().map(|a| a.to_f64()).collect(),
            },
        ))
    })
}

/// The per-call baseline `batch` measures the engine against: one row
/// through [`layer_norm`] the way pre-engine callers ran it, with the
/// method's constants re-rounded and buffers allocated per call.
pub(crate) fn per_call_row(
    backend: BackendKind,
    format: FormatKind,
    spec: &MethodSpec,
    row_bits: &[u32],
) -> Result<Vec<u32>, NormError> {
    with_exec_float!(backend, format, F => {
        let x: Vec<F> = row_bits.iter().map(|&b| F::from_bits(b)).collect();
        let z = layer_norm(LayerNormInputs::unscaled(&x), &spec.build::<F>())?;
        Ok(z.iter().map(|v| v.to_bits()).collect())
    })
}

/// `normalize` subcommand.
pub fn normalize(parsed: &Parsed) -> Result<(), String> {
    let spec = method_spec(parsed)?;
    let values: Vec<f64> = parsed
        .positionals()
        .iter()
        .map(|s| s.parse().map_err(|_| format!("not a number: '{s}'")))
        .collect::<Result<_, _>>()?;
    if values.is_empty() {
        return Err("normalize needs at least one value".into());
    }
    let format = format_kind(parsed)?;
    let bits: Vec<u32> = values.iter().map(|&v| format.encode_f64(v)).collect();
    let (out, moments) = detailed_row(parsed, &spec, &bits)?;
    let exact = iterl2norm::reference::normalize_f64(&values, 0.0);
    println!(
        "format {}  backend {}  d {}  method {}",
        format.name(),
        backend_kind(parsed)?.name(),
        values.len(),
        spec.label()
    );
    println!(
        "mean {:.6}  m {:.6}  scale {:.6}",
        moments.mean, moments.m, moments.scale
    );
    let mut max_err = 0.0f64;
    for (i, (&b, e)) in out.iter().zip(&exact).enumerate() {
        let z = format.decode_f64(b);
        println!("  z[{i}] = {z:+.6}   (exact {e:+.6})");
        max_err = max_err.max((z - e).abs());
    }
    println!("max |err| vs exact: {max_err:.3e}");
    Ok(())
}

/// `rsqrt` subcommand.
pub fn rsqrt(parsed: &Parsed) -> Result<(), String> {
    let m_val: f64 = parsed.num("m", f64::NAN)?;
    if !m_val.is_finite() || m_val < 0.0 {
        return Err("rsqrt needs --m with a nonnegative value".into());
    }
    let steps: u32 = parsed.num("steps", 5)?;
    let backend = backend_kind(parsed)?;
    let format = format_kind(parsed)?;
    let (m_rounded, trace) =
        rsqrt_trace(backend, format, m_val, steps).map_err(|e| e.to_string())?;
    let target = if m_val > 0.0 {
        1.0 / m_val.sqrt()
    } else {
        f64::INFINITY
    };
    println!(
        "format {}  backend {}  m = {}  target 1/sqrt(m) = {target:.9}",
        format.name(),
        backend.name(),
        m_rounded
    );
    println!("a0     = {:.9}   (Eq. 6 exponent seed)", trace.a0);
    println!("lambda = {:.9}   (Eq. 10 exponent rate)", trace.lambda);
    for (i, &a) in trace.steps.iter().enumerate() {
        let rel = if target.is_finite() {
            (a - target) / target
        } else {
            0.0
        };
        println!("step {:>2}: a = {a:.9}   rel err {rel:+.3e}", i + 1);
    }
    Ok(())
}

/// `macro` subcommand.
pub fn macro_sim(parsed: &Parsed) -> Result<(), String> {
    let d: usize = parsed.num("d", 64)?;
    let steps: u32 = parsed.num("steps", 5)?;
    let seed: u64 = parsed.num("seed", 0)?;
    with_format!(parsed, F => {
        let config = MacroConfig::new(d).map_err(|e| e.to_string())?.with_steps(steps);
        let mut mac = IterL2NormMacro::<F>::new(config);
        let x: Vec<F> = VectorGen::paper().vector(d, seed);
        mac.load_input(&x).map_err(|e| e.to_string())?;
        let run = mac.run().map_err(|e| e.to_string())?;
        println!("format {}  d {d}  steps {steps}", F::NAME);
        println!("latency: {} cycles ({:.2} us at 100 MHz)", run.cycles, run.cycles as f64 / 100.0);
        println!("phases:");
        for span in &run.phases {
            println!("  {:>11}  {:>4}..{:<4} ({:>3} cycles)", span.phase.name(), span.start, span.end, span.end - span.start);
        }
        println!("m = {:.6}, a_inf = {:.9}", run.ms[0].to_f64(), run.a_finals[0].to_f64());
        if parsed.flag("utilization") {
            let u = utilization(&activity_trace(d, steps));
            println!("unit utilization over {} cycles:", u.cycles);
            println!("  input read  {:>5.1}%", u.input_read * 100.0);
            println!("  input write {:>5.1}%", u.input_write * 100.0);
            println!("  mul block   {:>5.1}%", u.mul * 100.0);
            println!("  add block   {:>5.1}%", u.add * 100.0);
            println!("  scalar unit {:>5.1}%", u.scalar * 100.0);
        }
        Ok(())
    })
}

/// `cost` subcommand.
pub fn cost(parsed: &Parsed) -> Result<(), String> {
    let model = CostModel::saed32();
    with_format!(parsed, F => {
        let report = model.report::<F>();
        println!("{} macro, 32/28nm @ 100 MHz / 1.05 V (analytic model):", report.format);
        println!("  memory      {:.1} kib", report.memory_kib);
        println!("  cells       {:.1}k", report.total_cells as f64 / 1e3);
        println!("  area        {:.2} mm2  ({:.2} mm2 without Add/Mul blocks)", report.area_mm2, report.area_wo_addmul_mm2);
        println!("  power       {:.1} mW", report.power_mw);
        println!("  breakdown:");
        for b in &report.blocks {
            println!(
                "    {:>9}: {:.3} mm2 ({:>4.1}%), {:.2} mW ({:>4.1}%)",
                b.block.name(),
                b.area_mm2,
                report.area_share(b.block),
                b.power_mw,
                report.power_share(b.block)
            );
        }
        Ok(())
    })
}

/// `demo` subcommand.
pub fn demo(parsed: &Parsed) -> Result<(), String> {
    let d: usize = parsed.num("d", 768)?;
    let seed: u64 = parsed.num("seed", 0)?;
    let spec = method_spec(parsed)?;
    let format = format_kind(parsed)?;
    let bits: Vec<u32> = VectorGen::paper()
        .vector_f64(d, seed)
        .iter()
        .map(|&v| format.encode_f64(v))
        .collect();
    // The f64 view of the format-rounded input, as the typed path saw it.
    let xf: Vec<f64> = bits.iter().map(|&b| format.decode_f64(b)).collect();
    let (out, moments) = detailed_row(parsed, &spec, &bits)?;
    let exact = iterl2norm::reference::normalize_f64(&xf, 1e-5);
    let mut stats = iterl2norm::metrics::ErrorStats::new();
    for (&b, &e) in out.iter().zip(&exact) {
        stats.record(format.decode_f64(b), e);
    }
    // NOTE: this line is pinned byte-for-byte by the stdout goldens; the
    // resolved SIMD tier is reported through `NormBackend::simd_level`
    // (and the `serve` banner), not here.
    println!(
        "format {}  backend {}  d {d}  method {}  seed {seed}",
        format.name(),
        backend_kind(parsed)?.name(),
        spec.label()
    );
    println!("m = {:.4}  scale = {:.6}", moments.m, moments.scale);
    println!(
        "avg |err| {:.3e}   max |err| {:.3e}   over {} elements",
        stats.avg_abs, stats.max_abs, stats.count
    );
    Ok(())
}

/// Resolve `--group-mode` into the whitening registry's [`GroupMode`]
/// (default: center, case-insensitive).
fn group_mode_arg(parsed: &Parsed) -> Result<GroupMode, String> {
    match parsed.get("group-mode") {
        None => Ok(GroupMode::Center),
        Some(text) => GroupMode::parse(text)
            .ok_or_else(|| format!("unknown group mode '{text}' (center|raw)")),
    }
}

/// `whiten` subcommand: one `m × d` group through a whitening executor's
/// convergence check — the matrix generalization of what `normalize`
/// does per row.
pub fn whiten(parsed: &Parsed) -> Result<(), String> {
    let d: usize = parsed.num("d", 16)?;
    let m: usize = parsed.num("m", 64)?;
    if d == 0 || m == 0 {
        return Err("whiten needs --d and --m at least 1".into());
    }
    let seed: u64 = parsed.num("seed", 0)?;
    let t: u32 = parsed.num("steps", 5)?;
    let eps: f64 = parsed.num("eps", 1e-5)?;
    if !(eps.is_finite() && eps >= 0.0) {
        return Err(format!(
            "option --eps: needs a finite value >= 0, got {eps}"
        ));
    }
    let tol: f64 = parsed.num("tol", f64::INFINITY)?;
    let spec = WhitenSpec::new()
        .with_t(t)
        .with_eps(eps)
        .with_group_mode(group_mode_arg(parsed)?);
    let backend = backend_kind(parsed)?;
    let format = format_kind(parsed)?;
    let mut exec =
        build_whiten(backend, format, d, spec, simd_arg(parsed)?).map_err(|e| e.to_string())?;
    let gen = VectorGen::paper();
    let mut bits: Vec<u32> = Vec::with_capacity(m * d);
    for row in 0..m as u64 {
        bits.extend(
            gen.vector_f64(d, seed.wrapping_add(row))
                .iter()
                .map(|&v| format.encode_f64(v)),
        );
    }
    let mut out = vec![0u32; bits.len()];
    let detail = exec
        .whiten_group_checked(&bits, &mut out, tol)
        .map_err(|e| e.to_string())?;
    // Whiteness self-check, off the bit path: a converged whitening leaves
    // the output group's covariance at the identity.
    let y: Vec<f64> = out.iter().map(|&b| format.decode_f64(b)).collect();
    let mut cov_dev = 0.0f64;
    for i in 0..d {
        for j in i..d {
            let mut c = 0.0;
            for k in 0..m {
                c += y[k * d + i] * y[k * d + j];
            }
            c /= m as f64;
            let target = if i == j { 1.0 } else { 0.0 };
            cov_dev = cov_dev.max((c - target).abs());
        }
    }
    println!(
        "format {}  backend {}  d {d}  m {m}  {}  seed {seed}",
        format.name(),
        backend.name(),
        spec.label()
    );
    println!(
        "mean {:.6}  trace {:.4}  scale {:.6}",
        detail.mean, detail.trace, detail.scale
    );
    println!(
        "residual |P^2*Sigma_N - I| {:.3e}   output covariance max |dev from I| {:.3e}",
        detail.residual, cov_dev
    );
    Ok(())
}

/// Build and start the network server for `serve` — the testable half:
/// returns the running [`ServerHandle`](normserver::ServerHandle) so
/// tests can bind an ephemeral port, poke it, and shut it down.
pub fn serve_impl(parsed: &Parsed) -> Result<normserver::ServerHandle, String> {
    let listen = parsed.get("listen");
    let unix = parsed.get("unix");
    if listen.is_none() && unix.is_none() {
        return Err("serve needs --listen ADDR and/or --unix PATH".into());
    }
    let d: usize = parsed.num("d", 768)?;
    if d == 0 {
        return Err("serve needs --d at least 1".into());
    }
    let spec = method_spec(parsed)?;
    let service = build_service(parsed, d, spec)?;
    let admission = match parsed.get("tenants") {
        None => normserver::Admission::open(),
        Some(text) => {
            let specs = normserver::TenantSpec::parse_list(text)
                .map_err(|e| format!("option --tenants: {e}"))?;
            normserver::Admission::new(specs, Instant::now())
        }
    };
    normserver::serve(
        service,
        admission,
        normserver::ServerOptions::default(),
        listen,
        unix.map(std::path::Path::new),
    )
    .map_err(|e| e.to_string())
}

/// `serve` subcommand: start the server, print where it listens, and
/// block until the process is interrupted.
pub fn serve(parsed: &Parsed) -> Result<(), String> {
    let handle = serve_impl(parsed)?;
    if let Some(addr) = handle.tcp_addr() {
        println!("listening on tcp {addr}");
    }
    if let Some(path) = handle.unix_path() {
        println!("listening on unix {}", path.display());
    }
    println!(
        "service: d {}  format {}  backend {}  simd {}  method {}",
        handle.service().d(),
        handle.service().format().name(),
        handle.service().backend().name(),
        handle.service().simd_level(),
        handle.service().method().label()
    );
    handle.wait();
    Ok(())
}

/// `batch` subcommand: the engine's reason to exist, measured. Generates a
/// `rows x d` batch, normalizes it through the per-call baseline
/// ([`per_call_row`]) and through one service request, and reports rows/s.
pub fn batch(parsed: &Parsed) -> Result<(), String> {
    let d: usize = parsed.num("d", 768)?;
    let rows: usize = parsed.num("rows", 256)?;
    let seed: u64 = parsed.num("seed", 0)?;
    let spec = method_spec(parsed)?;
    if d == 0 || rows == 0 {
        return Err("batch needs --d and --rows at least 1".into());
    }
    let service = build_service(parsed, d, spec)?;
    let format = service.format();
    let gen = VectorGen::paper();
    let mut flat: Vec<u32> = Vec::with_capacity(rows * d);
    for r in 0..rows as u64 {
        flat.extend(
            gen.vector_f64(d, seed.wrapping_add(r))
                .iter()
                .map(|&v| format.encode_f64(v)),
        );
    }

    // Per-call path: plan constants re-rounded and buffers allocated
    // per row (what every caller did before the engine existed).
    let per_row = |row: &[u32]| {
        per_call_row(service.backend(), format, &spec, row).map_err(|e| e.to_string())
    };
    let t0 = Instant::now();
    for row in flat.chunks_exact(d) {
        std::hint::black_box(per_row(row)?);
    }
    let per_call = t0.elapsed();

    // Batch path: one service request, run by the shard's serial
    // kernels. A warm-up
    // submit sizes the backend's conversion buffers first — the same
    // methodology as backend_bench — so the timed run measures execution,
    // not first-touch allocation.
    let _ = service
        .submit(NormRequest::bits(&flat))
        .map_err(|e| e.to_string())?;
    let t1 = Instant::now();
    let response = service
        .submit(NormRequest::bits(&flat))
        .map_err(|e| e.to_string())?;
    let batched = t1.elapsed();

    // The two paths must agree bit for bit on the last row (cheap
    // self-check that the speedup isn't a different computation).
    let last = flat.len() - d;
    let z_last = per_row(&flat[last..])?;
    if response.bits()[last..] != z_last[..] {
        return Err("batch path diverged from per-call path".into());
    }

    let rps = |t: std::time::Duration| rows as f64 / t.as_secs_f64().max(1e-12);
    // NOTE: pinned by the stdout goldens — the resolved SIMD tier lives in
    // `NormResponse::simd_level`, not in this line.
    println!(
        "format {}  backend {}  d {d}  rows {}  method {}",
        format.name(),
        service.backend().name(),
        response.rows(),
        service.method().label()
    );
    println!(
        "  per-call layer_norm : {:>10.0} rows/s  ({per_call:?})",
        rps(per_call)
    );
    println!(
        "  engine batch        : {:>10.0} rows/s  ({batched:?})",
        rps(batched)
    );
    println!(
        "  speedup             : {:.2}x  (plan reuse + zero hot-path allocations)",
        batched.as_secs_f64().max(1e-12).recip() * per_call.as_secs_f64()
    );
    Ok(())
}
