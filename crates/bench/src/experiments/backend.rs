//! Execution-backend throughput: native-f32 vs softfloat emulation, the
//! native SIMD tier vs its forced-scalar floor, the forced `avx512`,
//! `avx2`, `sse2` and `portable` tiers, thread scaling of the partitioned
//! batch path, and the one-row call shape of a per-token request.
//!
//! This is the bench behind the README's performance notes and the
//! checked-in `results/BENCH_backend.json`. Every point drives the same
//! row-major FP32 batch through
//! [`iterl2norm::backend::build_backend_simd`]'s bits interface — the
//! exact seam the CLI and a serving front end use — and a self-check
//! asserts every native configuration (any SIMD level, any thread count)
//! stays bit-identical to the emulated reference before any number is
//! reported. Each point records the *resolved* SIMD level (`auto` is
//! resolved at build time, so a point can never be mislabeled). The
//! single-thread vector tiers are timed round-robin in one rotation, so
//! the host's drift between minutes cannot rank them by run order.

use std::time::Instant;

use iterl2norm::backend::{build_backend_simd, BackendKind, FormatKind};
use iterl2norm::{MethodSpec, NormBackend, ReduceOrder, SimdLevel};
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

/// Timed passes per point; the best one is reported. Four, so each of
/// the (at most four) single-thread vector tiers leads one rep of the
/// rotation.
const REPS: usize = 4;

/// One built engine, warmed up and ready to time passes over the batch.
/// With `rows_per_call = Some(1)` the batch goes through the backend one
/// row per call (the per-token request shape) and a pass covers every
/// call; otherwise a pass is one call over the whole batch.
struct Timed {
    engine: Box<dyn NormBackend>,
    threads: usize,
    /// Elements handed to each backend call.
    call: usize,
}

impl Timed {
    /// Build the engine and run one untimed warm-up pass, which sizes
    /// the conversion buffers and worker scratch.
    #[allow(clippy::too_many_arguments)]
    fn new(
        backend: BackendKind,
        d: usize,
        threads: usize,
        spec: &MethodSpec,
        simd: SimdLevel,
        rows_per_call: Option<usize>,
        input: &[u32],
        out: &mut [u32],
    ) -> std::io::Result<Self> {
        let engine = build_backend_simd(
            backend,
            FormatKind::Fp32,
            d,
            spec,
            ReduceOrder::HwTree,
            simd,
        )
        .map_err(std::io::Error::other)?;
        let call = rows_per_call.map_or(input.len(), |rows| rows * d);
        let mut timed = Timed {
            engine,
            threads,
            call,
        };
        timed.pass(input, out)?;
        Ok(timed)
    }

    /// The SIMD level the engine actually runs (`auto` resolved).
    fn resolved(&self) -> SimdLevel {
        self.engine.simd_level()
    }

    /// One pass over the batch, in seconds.
    fn pass(&mut self, input: &[u32], out: &mut [u32]) -> std::io::Result<f64> {
        let t0 = Instant::now();
        for (x, o) in input.chunks(self.call).zip(out.chunks_mut(self.call)) {
            self.engine
                .normalize_batch_bits(x, o, self.threads)
                .map_err(std::io::Error::other)?;
        }
        Ok(t0.elapsed().as_secs_f64())
    }

    /// Best of [`REPS`] back-to-back passes.
    fn best(&mut self, input: &[u32], out: &mut [u32]) -> std::io::Result<f64> {
        let mut best = f64::INFINITY;
        for _ in 0..REPS {
            best = best.min(self.pass(input, out)?);
        }
        Ok(best)
    }
}

/// The single-thread whole-batch vector tiers — `auto` first, then every
/// forced tier the host runs that `auto` did not resolve to — each timed
/// best of [`REPS`], **round-robin**: rep `r` starts at tier `r mod n`.
/// The host's speed drifts between minutes, so timing each tier's reps
/// back to back would rank the tiers by when they ran. Returns
/// `(requested, resolved, seconds)` per tier; every pass is checked
/// bit-identical to `reference`.
fn time_tiers(
    d: usize,
    spec: &MethodSpec,
    input: &[u32],
    out: &mut [u32],
    reference: &[u32],
) -> std::io::Result<Vec<(SimdLevel, SimdLevel, f64)>> {
    let mut tiers: Vec<(SimdLevel, Timed)> = Vec::new();
    for simd in [
        SimdLevel::Auto,
        SimdLevel::Avx512,
        SimdLevel::Avx2,
        SimdLevel::Sse2,
        SimdLevel::Portable,
    ] {
        let engine = match Timed::new(BackendKind::Native, d, 1, spec, simd, None, input, out) {
            Ok(engine) => engine,
            // A forced tier this host cannot run is no data point.
            Err(err) if simd != SimdLevel::Auto => {
                println!("skipping simd = {simd} at d = {d}: {err}");
                continue;
            }
            Err(err) => return Err(err),
        };
        // The auto point already measures the tier auto resolves to.
        if tiers
            .first()
            .is_some_and(|(_, auto)| auto.resolved() == engine.resolved())
        {
            continue;
        }
        tiers.push((simd, engine));
    }
    let n = tiers.len();
    let mut best = vec![f64::INFINITY; n];
    for rep in 0..REPS {
        for k in 0..n {
            let i = (rep + k) % n;
            let engine = &mut tiers[i].1;
            best[i] = best[i].min(engine.pass(input, out)?);
            assert_eq!(
                out,
                reference,
                "native output diverged from emulated at d = {d}, simd = {}",
                engine.resolved()
            );
        }
    }
    Ok(tiers
        .iter()
        .zip(best)
        .map(|((simd, engine), t)| (*simd, engine.resolved(), t))
        .collect())
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
        let t_emulated = Timed::new(
            BackendKind::Emulated,
            d,
            1,
            &spec,
            SimdLevel::Auto,
            None,
            &input,
            &mut out,
        )?
        .best(&input, &mut out)?;
        let reference = out.clone();
        let tiers = time_tiers(d, &spec, &input, &mut out, &reference)?;
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
        // across the thread counts; then every other forced vector tier
        // and the one-row call shape, single-threaded. The single-thread
        // vector tiers take their times from the rotation above. Serial
        // scalar is the per-d baseline the "vs scalar@1" column compares
        // against.
        let mut configs: Vec<(SimdLevel, usize, Option<usize>)> = Vec::new();
        for simd in [SimdLevel::Scalar, SimdLevel::Auto] {
            configs.extend(thread_counts.iter().map(|&threads| (simd, threads, None)));
        }
        configs.extend([
            (SimdLevel::Avx512, 1, None),
            (SimdLevel::Avx2, 1, None),
            (SimdLevel::Sse2, 1, None),
            (SimdLevel::Portable, 1, None),
            (SimdLevel::Auto, 1, Some(1)),
        ]);
        let mut t_scalar_serial = f64::NAN;
        for (simd, threads, rows_per_call) in configs {
            let tier = simd != SimdLevel::Scalar && threads == 1 && rows_per_call.is_none();
            let (t, resolved) = if tier {
                // Timed in the rotation above; a tier missing there is
                // one the host cannot run or the one auto resolved to.
                match tiers.iter().find(|(requested, ..)| *requested == simd) {
                    Some(&(_, resolved, t)) => (t, resolved),
                    None => continue,
                }
            } else {
                let mut engine = Timed::new(
                    BackendKind::Native,
                    d,
                    threads,
                    &spec,
                    simd,
                    rows_per_call,
                    &input,
                    &mut out,
                )?;
                let t = engine.best(&input, &mut out)?;
                // Self-check before reporting: the speedup must not be a
                // different computation.
                assert_eq!(
                    out,
                    reference,
                    "native output diverged from emulated at d = {d}, \
                     simd = {}, threads = {threads}",
                    engine.resolved()
                );
                (t, engine.resolved())
            };
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
