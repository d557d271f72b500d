//! Quickstart: build a normalization plan once, then drive single rows and
//! whole batches through the reusable engine — in all three formats —
//! serve batches through the type-erased `NormService` front door, and
//! watch the scalar iteration converge.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use iterl2norm_suite::prelude::*;

fn demo_format<F: Float>() -> Result<(), Box<dyn std::error::Error>> {
    // A small activation vector, as it would leave a feed-forward block.
    let values = [0.62, -1.37, 0.05, 2.10, -0.44, 0.91, -1.88, 0.33];
    let d = values.len();
    let x: Vec<F> = values.iter().map(|&v| F::from_f64(v)).collect();

    // The plan is built once per layer shape: it owns the format-rounded
    // d⁻¹ and √d. The engine owns the reduction scratch; after this line
    // the normalize calls below perform zero heap allocations.
    let plan = NormPlan::<F>::new(d)?;
    let mut engine = Normalizer::for_plan(MethodSpec::iterl2(5).build::<F>(), &plan);

    let mut z = vec![F::zero(); d];
    engine.normalize_into(&plan, &x, &mut z)?;
    let exact = iterl2norm::reference::normalize_f64(&values, 0.0);

    let max_err = z
        .iter()
        .zip(&exact)
        .map(|(a, e)| (a.to_f64() - e).abs())
        .fold(0.0f64, f64::max);
    println!(
        "{:>4}: z[0..3] = [{:+.4}, {:+.4}, {:+.4}, ...]   max |err| vs exact = {:.2e}",
        F::NAME,
        z[0].to_f64(),
        z[1].to_f64(),
        z[2].to_f64(),
        max_err
    );
    Ok(())
}

fn demo_batch() -> Result<(), Box<dyn std::error::Error>> {
    // The serving-path shape: one plan, one engine, row-major batches.
    let d = 768;
    let rows = 64;
    let gen = VectorGen::paper();
    let mut batch: Vec<Fp32> = Vec::with_capacity(rows * d);
    for r in 0..rows as u64 {
        batch.extend(gen.vector::<Fp32>(d, r));
    }

    let plan = NormPlan::<Fp32>::new(d)?;
    let mut engine = Normalizer::for_plan(MethodSpec::iterl2(5).build::<Fp32>(), &plan);
    let mut out = vec![Fp32::ZERO; batch.len()];
    let done = engine.normalize_batch(&plan, &batch, &mut out)?;

    // Every batch row is bit-identical to the per-vector wrapper.
    let first_single = layer_norm(
        LayerNormInputs::unscaled(&batch[..d]),
        &IterL2Norm::with_steps(5),
    )?;
    assert!(out[..d]
        .iter()
        .zip(&first_single)
        .all(|(a, b)| a.to_bits() == b.to_bits()));
    println!(
        "\nBatch path: normalized {done} rows of d = {d} in one call \
         (bit-identical to the per-vector path, zero hot-path allocations)."
    );
    Ok(())
}

fn demo_service() -> Result<(), Box<dyn std::error::Error>> {
    // The serving front door: one ServiceConfig names the whole
    // format x method x backend execution point, and the built
    // NormService is type-erased — no generic parameters at the call site.
    // Fp32 is exactly the host's binary32, so the native backend produces
    // bit-identical output at hardware speed; FP16/BF16 have no host
    // equivalent and stay on the softfloat emulator.
    let d = 768;
    let rows = 128;
    let gen = VectorGen::paper();
    let mut bits: Vec<u32> = Vec::with_capacity(rows * d);
    for r in 0..rows as u64 {
        bits.extend(
            gen.vector_f64(d, r)
                .iter()
                .map(|&v| FormatKind::Fp32.encode_f64(v)),
        );
    }

    let mut outputs = Vec::new();
    for backend in [BackendKind::Emulated, BackendKind::Native] {
        let service = ServiceConfig::new(d)
            .with_backend(backend)
            .with_method(MethodSpec::iterl2(5))
            .build()?;
        let t0 = std::time::Instant::now();
        let response = service.submit(NormRequest::bits(&bits))?;
        println!(
            "  {:<26} {:>10.2?} for {} rows of d = {d}",
            service.label(),
            t0.elapsed(),
            response.rows()
        );
        outputs.push(response.into_bits());
    }
    assert_eq!(outputs[0], outputs[1], "backends must agree bit for bit");

    // Concurrent callers share one service; overlapping requests may be
    // micro-batched into one backend call (response.batch_requests() > 1)
    // — with bit-identical results either way. The throughput win only
    // exists under concurrent load; a lone submitter always runs alone.
    let service = ServiceConfig::new(d)
        .with_backend(BackendKind::Native)
        .with_window(std::time::Duration::from_millis(5))
        .build()?;
    let coalesced: Vec<usize> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..4)
            .map(|who| {
                let service = service.clone();
                let row = bits[who * d..(who + 1) * d].to_vec();
                scope.spawn(move || {
                    let response = service.submit(NormRequest::bits(&row)).unwrap();
                    response.batch_requests()
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    println!(
        "  4 concurrent submitters -> batch sizes {coalesced:?} \
         (bit-identical to running each alone)\n"
    );
    Ok(())
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    println!("IterL2Norm quickstart — division- and sqrt-free layer normalization\n");
    demo_format::<Fp32>()?;
    demo_format::<Fp16>()?;
    demo_format::<Bf16>()?;
    demo_batch()?;

    println!("\nThe NormService front door on the same batch (method iterl2[5]):");
    demo_service()?;

    // Peek inside the iteration: a converges to 1/‖y‖ within five steps.
    println!("\nScalar iteration on m = ‖y‖² = 10.5 (FP32):");
    let m = Fp32::from_f64(10.5);
    let trace = iterl2norm::iterate(m, &IterConfig::fixed_steps(5));
    let target = 1.0 / 10.5f64.sqrt();
    println!(
        "  a0     = {:.6}  (seed from the exponent of m, Eq. 6)",
        trace.a0.to_f64()
    );
    println!(
        "  lambda = {:.6}  (0.345 shifted by the exponent of m, Eq. 10)",
        trace.lambda.to_f64()
    );
    for (i, a) in trace.steps.iter().enumerate() {
        println!(
            "  step {}: a = {:.6}   (target 1/sqrt(m) = {target:.6}, rel err {:+.2e})",
            i + 1,
            a.to_f64(),
            (a.to_f64() - target) / target
        );
    }

    // The registry in one place: every method the paper compares.
    println!("\nMethod registry on the same vector (d = 768, FP32):");
    let d = 768;
    let x: Vec<Fp32> = VectorGen::paper().vector(d, 7);
    let xf: Vec<f64> = x.iter().map(|v| v.to_f64()).collect();
    let exact = iterl2norm::reference::normalize_f64(&xf, 1e-5);
    let plan = NormPlan::<Fp32>::new(d)?;
    let mut z = vec![Fp32::ZERO; d];
    for spec in MethodSpec::REGISTRY {
        let mut engine = Normalizer::for_plan(spec.build::<Fp32>(), &plan);
        engine.normalize_into(&plan, &x, &mut z)?;
        let stats = iterl2norm::metrics::abs_error_stats(&z, &exact);
        println!(
            "  {:<12} avg |err| {:.3e}   max |err| {:.3e}",
            spec.label(),
            stats.avg_abs,
            stats.max_abs
        );
    }
    Ok(())
}
