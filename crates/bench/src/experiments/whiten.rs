//! Whitening-engine throughput: native-f32 Newton–Schulz `Σ^{-1/2}`
//! vs the softfloat oracle, per SIMD tier, across step counts.
//!
//! This is the bench behind the README's whitening notes and the
//! checked-in `results/BENCH_whiten.json`. Every point drives the same
//! row-major FP32 groups through [`iterl2norm::build_whiten`]'s bits
//! interface — the exact seam the service and CLI use — and a self-check
//! asserts every native configuration (any forced SIMD level) stays
//! bit-identical to the emulated reference before any number is
//! reported. Unlike row normalization, the hot loop here is the `d×d`
//! Newton–Schulz matmul chain, so the per-group cost scales with `T·d³`
//! and the emulated-vs-native gap is the paper's "software float is the
//! oracle, hardware is the product" story at its widest.
//!
//! Besides the `d × T` grid at a fixed row count, the bench measures the
//! shape the serving benchmark whitens (`d = 64`, `m = 256`, `T = 5`), so
//! the per-tier numbers at that point can decide which SIMD tiers earn
//! their keep. `threads` is pinned to 1: these are single-thread kernel
//! numbers, and the JSON's `host` block names the machine they came from.

use std::time::Instant;

use iterl2norm::backend::{BackendKind, FormatKind};
use iterl2norm::{build_whiten, NormError, SimdLevel, WhitenSpec};
use softfloat::Fp32;
use workloads::VectorGen;

use crate::io::{banner, host_json, print_table, write_json};

/// One measured configuration.
struct Point {
    d: usize,
    t: u32,
    groups: usize,
    rows_per_group: usize,
    backend: BackendKind,
    simd: SimdLevel,
    groups_per_s: f64,
    us_per_group: f64,
    speedup_vs_emulated: f64,
}

/// The shape the serving benchmark whitens: `(d, T, rows per group)`.
const SERVED: (usize, u32, usize) = (64, 5, 256);

/// Best-of-[`REPS`] wall-clock for the native points. The emulated oracle
/// runs once per configuration — a single `d = 256`, `T = 5` oracle pass
/// already costs seconds, and it is the reference, not the product.
const REPS: usize = 3;

/// One prepared workload: the packed groups and their row counts.
struct GroupBatch {
    input: Vec<u32>,
    group_rows: Vec<usize>,
}

/// Deterministic row-major input of `groups` groups, `rows` rows each.
fn group_bits(d: usize, groups: usize, rows: usize) -> Vec<u32> {
    let gen = VectorGen::paper();
    let mut bits = Vec::with_capacity(groups * rows * d);
    for g in 0..groups as u64 {
        for r in 0..rows as u64 {
            bits.extend(
                gen.vector_f64(d, g.wrapping_mul(10_007).wrapping_add(r))
                    .iter()
                    .map(|&v| Fp32::from_f64(v).to_bits()),
            );
        }
    }
    bits
}

/// Time `whiten_groups` over the full input; returns best seconds and the
/// resolved SIMD level. `reps = 1` for the emulated oracle.
fn measure(
    backend: BackendKind,
    d: usize,
    spec: WhitenSpec,
    simd: SimdLevel,
    batch: &GroupBatch,
    out: &mut [u32],
    reps: usize,
) -> std::io::Result<(f64, SimdLevel)> {
    let mut exec =
        build_whiten(backend, FormatKind::Fp32, d, spec, simd).map_err(std::io::Error::other)?;
    let resolved = exec.simd_level();
    // Warm-up sizes the scratch matrices.
    exec.whiten_groups(&batch.input, out, &batch.group_rows, 1)
        .map_err(std::io::Error::other)?;
    let mut best = f64::INFINITY;
    for _ in 0..reps {
        let t0 = Instant::now();
        exec.whiten_groups(&batch.input, out, &batch.group_rows, 1)
            .map_err(std::io::Error::other)?;
        best = best.min(t0.elapsed().as_secs_f64());
    }
    Ok((best, resolved))
}

/// Run the whitening bench at the given `(d, T, rows per group)` shapes,
/// printing the table and writing `results/BENCH_whiten.json`.
///
/// # Errors
///
/// Propagates JSON-write failures (and executor errors as `io::Error`).
pub fn run_at(shapes: &[(usize, u32, usize)]) -> std::io::Result<()> {
    banner("Whitening throughput — Newton-Schulz Sigma^-1/2, native vs emulated, SIMD tier");
    let forced = [
        SimdLevel::Scalar,
        SimdLevel::Portable,
        SimdLevel::Sse2,
        SimdLevel::Avx2,
    ];
    let mut points: Vec<Point> = Vec::new();
    let mut table = Vec::new();

    for &(d, t, rows_per_group) in shapes {
        // Enough groups that native timings rise above clock noise, but
        // the d³-dominated oracle stays affordable at d = 256.
        let groups = if d >= 256 { 2 } else { 8 };
        let batch = GroupBatch {
            input: group_bits(d, groups, rows_per_group),
            group_rows: vec![rows_per_group; groups],
        };
        let mut out = vec![0u32; batch.input.len()];
        let spec = WhitenSpec::new().with_t(t);
        // The emulated serial oracle: timed once, kept as the
        // reference every native point must match bit for bit.
        let (t_emulated, _) = measure(
            BackendKind::Emulated,
            d,
            spec,
            SimdLevel::Auto,
            &batch,
            &mut out,
            1,
        )?;
        let reference = out.clone();
        points.push(Point {
            d,
            t,
            groups,
            rows_per_group,
            backend: BackendKind::Emulated,
            simd: SimdLevel::Scalar,
            groups_per_s: groups as f64 / t_emulated,
            us_per_group: t_emulated * 1e6 / groups as f64,
            speedup_vs_emulated: 1.0,
        });
        table.push(vec![
            d.to_string(),
            t.to_string(),
            rows_per_group.to_string(),
            BackendKind::Emulated.name().to_string(),
            SimdLevel::Scalar.to_string(),
            format!("{:.1}", groups as f64 / t_emulated),
            format!("{:.0}", t_emulated * 1e6 / groups as f64),
            "1.0x".to_string(),
        ]);

        for level in forced {
            let (t_native, resolved) =
                match measure(BackendKind::Native, d, spec, level, &batch, &mut out, REPS) {
                    Ok(timed) => timed,
                    Err(err)
                        if err
                            .get_ref()
                            .and_then(|e| e.downcast_ref::<NormError>())
                            .is_some_and(|e| matches!(e, NormError::SimdUnsupported { .. })) =>
                    {
                        println!("  (skipping {level}: not supported on this host)");
                        continue;
                    }
                    Err(err) => return Err(err),
                };
            // Self-check before reporting: the speedup must not be a
            // different computation.
            assert_eq!(
                out, reference,
                "native whitening diverged from emulated at d = {d}, \
                 t = {t}, simd = {resolved}"
            );
            points.push(Point {
                d,
                t,
                groups,
                rows_per_group,
                backend: BackendKind::Native,
                simd: resolved,
                groups_per_s: groups as f64 / t_native,
                us_per_group: t_native * 1e6 / groups as f64,
                speedup_vs_emulated: t_emulated / t_native,
            });
            table.push(vec![
                d.to_string(),
                t.to_string(),
                rows_per_group.to_string(),
                BackendKind::Native.name().to_string(),
                resolved.to_string(),
                format!("{:.0}", groups as f64 / t_native),
                format!("{:.1}", t_native * 1e6 / groups as f64),
                format!("{:.0}x", t_emulated / t_native),
            ]);
        }
    }

    print_table(
        &[
            "d",
            "t",
            "m",
            "backend",
            "simd",
            "groups/s",
            "us/group",
            "vs emulated",
        ],
        &table,
    );

    let mut json = String::new();
    json.push_str("{\n");
    json.push_str("  \"bench\": \"whiten_throughput\",\n");
    json.push_str("  \"format\": \"FP32\",\n");
    json.push_str("  \"group_mode\": \"center\",\n");
    json.push_str("  \"eps\": 1e-5,\n");
    json.push_str("  \"threads\": 1,\n");
    json.push_str(&format!("  \"reps_best_of\": {REPS},\n"));
    json.push_str("  \"bit_identity_checked\": true,\n");
    let auto = build_whiten(
        BackendKind::Native,
        FormatKind::Fp32,
        1,
        WhitenSpec::new(),
        SimdLevel::Auto,
    )
    .map_err(std::io::Error::other)?;
    json.push_str(&format!(
        "  \"host\": {},\n",
        host_json(auto.simd_level().name())
    ));
    json.push_str("  \"points\": [\n");
    for (i, p) in points.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"d\": {}, \"t\": {}, \"groups\": {}, \"rows_per_group\": {}, \
             \"backend\": \"{}\", \"simd\": \"{}\", \"groups_per_s\": {:.2}, \
             \"us_per_group\": {:.1}, \"speedup_vs_emulated\": {:.1}}}{}\n",
            p.d,
            p.t,
            p.groups,
            p.rows_per_group,
            p.backend.name(),
            p.simd,
            p.groups_per_s,
            p.us_per_group,
            p.speedup_vs_emulated,
            if i + 1 < points.len() { "," } else { "" }
        ));
    }
    json.push_str("  ]\n}");
    let path = write_json("BENCH_whiten", &json)?;
    println!("\nwrote {}", path.display());
    Ok(())
}

/// The standard configuration: the step counts and dimensions the paper's
/// whitening discussion sweeps at `rows` rows per group, then the
/// shape the serving benchmark whitens (d = 64, m = 256, T = 5).
///
/// # Errors
///
/// Propagates JSON-write failures.
pub fn run(rows: usize) -> std::io::Result<()> {
    let mut shapes: Vec<(usize, u32, usize)> = [16, 64, 256]
        .into_iter()
        .flat_map(|d| [0, 1, 5].into_iter().map(move |t| (d, t, rows)))
        .collect();
    shapes.push(SERVED);
    run_at(&shapes)
}
