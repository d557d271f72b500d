//! Execution-backend throughput: native-f32 vs softfloat emulation, the
//! native SIMD tier vs its forced-scalar floor, the forced `sse2` and
//! `portable` tiers, thread scaling of the partitioned batch path, and
//! the one-row call shape of a per-token request.
//!
//! This is the bench behind the README's performance notes and the
//! checked-in `results/BENCH_backend.json`. Every point drives the same
//! row-major FP32 batch through
//! [`iterl2norm::backend::build_backend_simd`]'s bits interface — the
//! exact seam the CLI and a serving front end use — and a self-check
//! asserts every native configuration (any SIMD level, any thread count)
//! stays bit-identical to the emulated reference before any number is
//! reported. Each point records the *resolved* SIMD level (`auto` is
//! resolved at build time, so a point can never be mislabeled).

use std::time::Instant;

use iterl2norm::backend::{build_backend_simd, BackendKind, FormatKind};
use iterl2norm::{MethodSpec, ReduceOrder, SimdLevel};
use softfloat::Fp32;
use workloads::VectorGen;

use crate::io::{banner, host_json, print_table, write_json};

/// One measured configuration.
struct Point {
    d: usize,
    backend: BackendKind,
    simd: SimdLevel,
    threads: usize,
    /// Rows handed to each backend call: the whole batch, or 1 for the
    /// one-row call shape.
    rows_per_call: usize,
    rows_per_s: f64,
    ns_per_row: f64,
}

/// Best-of-[`REPS`] wall-clock for one backend/simd/thread configuration,
/// plus the resolved SIMD level that actually ran.
const REPS: usize = 3;

/// Time one configuration (best of [`REPS`] after a warm-up pass).
/// With `rows_per_call = Some(1)` the batch goes through the backend one
/// row per call (the per-token request shape) and the time covers every
/// call; otherwise it is one call over the whole batch.
#[allow(clippy::too_many_arguments)]
fn measure(
    backend: BackendKind,
    d: usize,
    threads: usize,
    spec: &MethodSpec,
    simd: SimdLevel,
    rows_per_call: Option<usize>,
    input: &[u32],
    out: &mut [u32],
) -> std::io::Result<(f64, SimdLevel)> {
    let mut engine = build_backend_simd(
        backend,
        FormatKind::Fp32,
        d,
        spec,
        ReduceOrder::HwTree,
        simd,
    )
    .map_err(std::io::Error::other)?;
    let resolved = engine.simd_level();
    let call = rows_per_call.map_or(input.len(), |rows| rows * d);
    let mut pass = |out: &mut [u32]| -> std::io::Result<()> {
        for (x, o) in input.chunks(call).zip(out.chunks_mut(call)) {
            engine
                .normalize_batch_bits(x, o, threads)
                .map_err(std::io::Error::other)?;
        }
        Ok(())
    };
    // Warm-up sizes the conversion buffers and worker scratch.
    pass(out)?;
    let mut best = f64::INFINITY;
    for _ in 0..REPS {
        let t0 = Instant::now();
        pass(out)?;
        best = best.min(t0.elapsed().as_secs_f64());
    }
    Ok((best, resolved))
}

/// Run the backend bench at the given dimensions, batch size and thread
/// counts, printing the table and writing `results/BENCH_backend.json`.
///
/// # Errors
///
/// Propagates JSON-write failures (and backend errors as `io::Error`).
pub fn run_at(dims: &[usize], rows: usize, thread_counts: &[usize]) -> std::io::Result<()> {
    banner("Backend throughput — native-f32 vs emulated, SIMD tier, thread scaling");
    let spec = MethodSpec::iterl2(5);
    let gen = VectorGen::paper();
    let mut points: Vec<Point> = Vec::new();
    let mut table = Vec::new();

    for &d in dims {
        let mut input: Vec<u32> = Vec::with_capacity(rows * d);
        for r in 0..rows as u64 {
            input.extend(
                gen.vector_f64(d, r)
                    .iter()
                    .map(|&v| Fp32::from_f64(v).to_bits()),
            );
        }
        let mut out = vec![0u32; input.len()];

        // The emulated serial reference: timed, and kept as the oracle.
        let (t_emulated, _) = measure(
            BackendKind::Emulated,
            d,
            1,
            &spec,
            SimdLevel::Auto,
            None,
            &input,
            &mut out,
        )?;
        let reference = out.clone();
        points.push(Point {
            d,
            backend: BackendKind::Emulated,
            simd: SimdLevel::Scalar,
            threads: 1,
            rows_per_call: rows,
            rows_per_s: rows as f64 / t_emulated,
            ns_per_row: t_emulated * 1e9 / rows as f64,
        });

        // Native: the forced-scalar floor vs the auto-resolved SIMD tier,
        // across the thread counts; then the forced `sse2` and `portable`
        // tiers and the one-row call shape, single-threaded. Serial scalar
        // is the per-d baseline the "vs scalar@1" column compares against.
        let mut configs: Vec<(SimdLevel, usize, Option<usize>)> = Vec::new();
        for simd in [SimdLevel::Scalar, SimdLevel::Auto] {
            configs.extend(thread_counts.iter().map(|&threads| (simd, threads, None)));
        }
        configs.extend([
            (SimdLevel::Sse2, 1, None),
            (SimdLevel::Portable, 1, None),
            (SimdLevel::Auto, 1, Some(1)),
        ]);
        let mut t_scalar_serial = f64::NAN;
        for (simd, threads, rows_per_call) in configs {
            let measured = measure(
                BackendKind::Native,
                d,
                threads,
                &spec,
                simd,
                rows_per_call,
                &input,
                &mut out,
            );
            let (t, resolved) = match measured {
                Ok(point) => point,
                // A forced tier this host cannot run is no data point.
                Err(err) if simd != SimdLevel::Scalar && simd != SimdLevel::Auto => {
                    println!("skipping simd = {simd} at d = {d}: {err}");
                    continue;
                }
                Err(err) => return Err(err),
            };
            // Self-check before reporting: the speedup must not be a
            // different computation.
            assert_eq!(
                out, reference,
                "native output diverged from emulated at d = {d}, \
                 simd = {resolved}, threads = {threads}"
            );
            if simd == SimdLevel::Scalar && threads == 1 {
                t_scalar_serial = t;
            }
            let rows_per_call = rows_per_call.unwrap_or(rows);
            points.push(Point {
                d,
                backend: BackendKind::Native,
                simd: resolved,
                threads,
                rows_per_call,
                rows_per_s: rows as f64 / t,
                ns_per_row: t * 1e9 / rows as f64,
            });
            table.push(vec![
                d.to_string(),
                BackendKind::Native.name().to_string(),
                resolved.to_string(),
                threads.to_string(),
                rows_per_call.to_string(),
                format!("{:.0}", rows as f64 / t),
                format!("{:.0}", t * 1e9 / rows as f64),
                format!("{:.1}x", t_emulated / t),
                if t_scalar_serial.is_finite() {
                    format!("{:.2}x", t_scalar_serial / t)
                } else {
                    "-".to_string()
                },
            ]);
        }
        table.push(vec![
            d.to_string(),
            BackendKind::Emulated.name().to_string(),
            SimdLevel::Scalar.to_string(),
            "1".to_string(),
            rows.to_string(),
            format!("{:.0}", rows as f64 / t_emulated),
            format!("{:.0}", t_emulated * 1e9 / rows as f64),
            "1.0x".to_string(),
            "-".to_string(),
        ]);
    }

    print_table(
        &[
            "d",
            "backend",
            "simd",
            "threads",
            "rows/call",
            "rows/s",
            "ns/row",
            "vs emulated",
            "vs scalar@1",
        ],
        &table,
    );

    let mut json = String::new();
    json.push_str("{\n");
    json.push_str("  \"bench\": \"backend_throughput\",\n");
    json.push_str(&format!("  \"method\": \"{}\",\n", spec.label()));
    json.push_str("  \"format\": \"FP32\",\n");
    json.push_str("  \"reduce\": \"hwtree\",\n");
    json.push_str(&format!("  \"rows_per_batch\": {rows},\n"));
    json.push_str(&format!("  \"reps_best_of\": {REPS},\n"));
    json.push_str("  \"bit_identity_checked\": true,\n");
    let auto = points
        .iter()
        .find(|p| p.backend == BackendKind::Native && p.simd != SimdLevel::Scalar)
        .map_or(SimdLevel::Scalar, |p| p.simd);
    json.push_str(&format!("  \"host\": {},\n", host_json(auto.name())));
    json.push_str("  \"points\": [\n");
    for (i, p) in points.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"d\": {}, \"backend\": \"{}\", \"simd\": \"{}\", \"threads\": {}, \
             \"rows_per_call\": {}, \"rows_per_s\": {:.1}, \"ns_per_row\": {:.1}}}{}\n",
            p.d,
            p.backend.name(),
            p.simd,
            p.threads,
            p.rows_per_call,
            p.rows_per_s,
            p.ns_per_row,
            if i + 1 < points.len() { "," } else { "" }
        ));
    }
    json.push_str("  ]\n}");
    let path = write_json("BENCH_backend", &json)?;
    println!("\nwrote {}", path.display());
    Ok(())
}

/// The standard configuration: the README's d points, `rows` rows per
/// batch, threads 1/2/4/8 (plus the single-threaded forced tiers and
/// one-row calls).
///
/// # Errors
///
/// Propagates JSON-write failures.
pub fn run(rows: usize) -> std::io::Result<()> {
    run_at(&[384, 768, 4096], rows, &[1, 2, 4, 8])
}
