//! The execution-backend contract, enforced: `NativeF32` output is
//! bit-identical to `Emulated<Fp32>` for every scale method and reduction
//! order, and partitioned batches are bit-identical to serial ones for
//! every tested thread count.
//!
//! The row set deliberately includes the hard cases: subnormal-heavy rows
//! (FP32 exponent fields 0..=2), all-`+0` and all-`−0` rows, and the
//! constant row whose mean shift produces `m = 0` (for the LUT method that
//! path emits NaN — canonical on both backends, so even it compares
//! bit-equal). CI runs this suite in debug *and* release mode: optimizer
//! levels may only change float codegen if the bit-ops were wrong.

use iterl2norm::backend::{
    build_backend, build_backend_simd, BackendKind, Emulated, FormatKind, NativeF32,
};
use iterl2norm::{
    MethodSpec, NormBackend, NormError, NormPlan, Normalizer, ReduceOrder, SimdLevel,
};
use softfloat::{Float, Fp32, HostF32};
use workloads::{Distribution, VectorGen};

const DIMS: [usize; 5] = [1, 7, 64, 384, 768];
const THREADS: [usize; 4] = [1, 2, 3, 8];

/// A deterministic FP32 bit pattern with exponent field 0..=2: subnormals
/// and the smallest normals, mixed signs.
fn subnormal_bits(i: u64) -> u32 {
    let h = i.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    let mant_and_sign = (h as u32) & 0x807F_FFFF;
    let exp = ((h >> 32) % 3) as u32;
    mant_and_sign | (exp << 23)
}

/// The test batch for one dimension: random rows from two distributions
/// plus the directed edge-case rows, as raw FP32 bit patterns.
fn batch_bits(d: usize) -> Vec<u32> {
    let mut bits = Vec::new();
    let uniform = VectorGen::new(Distribution::Uniform, 0x000B_171D);
    let wide = VectorGen::new(Distribution::WideDynamicRange, 0x000B_172D);
    for index in 0..3 {
        for v in uniform.vector_f64(d, index) {
            bits.push(Fp32::from_f64(v).to_bits());
        }
    }
    for v in wide.vector_f64(d, 0) {
        bits.push(Fp32::from_f64(v).to_bits());
    }
    // All +0, all −0, and the constant row (mean shift → m = 0).
    bits.extend(std::iter::repeat_n(0u32, d));
    bits.extend(std::iter::repeat_n(0x8000_0000u32, d));
    bits.extend(std::iter::repeat_n(Fp32::from_f64(3.25).to_bits(), d));
    // Subnormal-heavy row.
    bits.extend((0..d as u64).map(subnormal_bits));
    bits
}

fn assert_bits_eq(a: &[u32], b: &[u32], context: &str) {
    for (i, (x, y)) in a.iter().zip(b).enumerate() {
        assert_eq!(
            x, y,
            "{context}: element {i} differs ({x:#010x} vs {y:#010x})"
        );
    }
}

#[test]
fn native_matches_emulated_for_every_method_dim_and_order() {
    for spec in MethodSpec::REGISTRY {
        for d in DIMS {
            for reduce in [ReduceOrder::HwTree, ReduceOrder::Linear] {
                let input = batch_bits(d);
                let mut emulated =
                    build_backend(BackendKind::Emulated, FormatKind::Fp32, d, &spec, reduce)
                        .unwrap();
                let mut native =
                    build_backend(BackendKind::Native, FormatKind::Fp32, d, &spec, reduce).unwrap();
                let mut out_e = vec![0u32; input.len()];
                let mut out_n = vec![0u32; input.len()];
                let rows_e = emulated
                    .normalize_batch_bits(&input, &mut out_e, 1)
                    .unwrap();
                let rows_n = native.normalize_batch_bits(&input, &mut out_n, 1).unwrap();
                assert_eq!(rows_e, rows_n);
                assert_bits_eq(
                    &out_e,
                    &out_n,
                    &format!("{} d={d} reduce={reduce:?}", spec.label()),
                );
            }
        }
    }
}

#[test]
fn native_matches_emulated_with_affine_plans() {
    let d = 384;
    let spec = MethodSpec::iterl2(5);
    let gamma: Vec<Fp32> = (0..d)
        .map(|i| Fp32::from_f64(0.75 + (i % 5) as f64 * 0.1))
        .collect();
    let beta: Vec<Fp32> = (0..d)
        .map(|i| Fp32::from_f64((i % 7) as f64 * 0.03 - 0.1))
        .collect();
    let plan = NormPlan::new(d)
        .unwrap()
        .with_affine(&gamma, &beta)
        .unwrap();
    let mut emulated = Emulated::new(plan.clone(), &spec);
    let mut native = NativeF32::from_fp32_plan(&plan, &spec);

    let input = batch_bits(d);
    let mut out_e = vec![0u32; input.len()];
    let mut out_n = vec![0u32; input.len()];
    emulated
        .normalize_batch_bits(&input, &mut out_e, 1)
        .unwrap();
    native.normalize_batch_bits(&input, &mut out_n, 1).unwrap();
    assert_bits_eq(&out_e, &out_n, "affine iterl2[5] d=384");
}

#[test]
fn parallel_batches_match_serial_for_all_thread_counts() {
    // 37 rows of d = 129: never an even split, so the partition logic's
    // remainder handling is always exercised.
    let (d, rows) = (129, 37);
    let gen = VectorGen::new(Distribution::Uniform, 0x9A9_A9A);
    let mut flat: Vec<Fp32> = Vec::with_capacity(rows * d);
    for r in 0..rows as u64 {
        flat.extend(gen.vector_f64(d, r).iter().map(|&v| Fp32::from_f64(v)));
    }
    for spec in MethodSpec::REGISTRY {
        let plan = NormPlan::<Fp32>::new(d).unwrap();
        let mut engine = Normalizer::for_plan(spec.build::<Fp32>(), &plan);
        let mut serial = vec![Fp32::ZERO; flat.len()];
        engine.normalize_batch(&plan, &flat, &mut serial).unwrap();
        for threads in THREADS {
            let mut parallel = vec![Fp32::ZERO; flat.len()];
            let done = engine
                .normalize_batch_parallel(&plan, &flat, &mut parallel, threads)
                .unwrap();
            assert_eq!(done, rows);
            for (i, (a, b)) in serial.iter().zip(&parallel).enumerate() {
                assert_eq!(
                    a.to_bits(),
                    b.to_bits(),
                    "{} threads={threads}: element {i}",
                    spec.label()
                );
            }
        }
    }
}

#[test]
fn parallel_native_matches_serial_emulated_end_to_end() {
    // The full cross: emulated serial (the paper-faithful reference) vs
    // native multi-threaded (the serving configuration) — still bit-equal.
    let d = 768;
    let spec = MethodSpec::iterl2(5);
    let input = batch_bits(d);
    let mut reference = vec![0u32; input.len()];
    build_backend(
        BackendKind::Emulated,
        FormatKind::Fp32,
        d,
        &spec,
        ReduceOrder::HwTree,
    )
    .unwrap()
    .normalize_batch_bits(&input, &mut reference, 1)
    .unwrap();
    for threads in THREADS {
        let mut out = vec![0u32; input.len()];
        build_backend(
            BackendKind::Native,
            FormatKind::Fp32,
            d,
            &spec,
            ReduceOrder::HwTree,
        )
        .unwrap()
        .normalize_batch_bits(&input, &mut out, threads)
        .unwrap();
        assert_bits_eq(&out, &reference, &format!("native threads={threads}"));
    }
}

#[test]
fn parallel_preserves_row_stats_independence() {
    // More threads than rows, exactly as many, and single-row batches all
    // take well-defined paths.
    let d = 64;
    let plan = NormPlan::<HostF32>::new(d).unwrap();
    let mut engine = Normalizer::for_plan(MethodSpec::iterl2(5).build::<HostF32>(), &plan);
    for rows in [0usize, 1, 2, 7] {
        let flat: Vec<HostF32> = (0..rows * d)
            .map(|i| HostF32::from_f64(((i * 37 % 101) as f64) / 17.0 - 2.0))
            .collect();
        let mut serial = vec![HostF32::ZERO; flat.len()];
        engine.normalize_batch(&plan, &flat, &mut serial).unwrap();
        let mut parallel = vec![HostF32::ZERO; flat.len()];
        let done = engine
            .normalize_batch_parallel(&plan, &flat, &mut parallel, 16)
            .unwrap();
        assert_eq!(done, rows);
        for (a, b) in serial.iter().zip(&parallel) {
            assert_eq!(a.to_bits(), b.to_bits(), "rows={rows}");
        }
    }
}

// --------------------------------------------------------------------
// SIMD tier: every forced level ≡ forced scalar ≡ emulated, bitwise.
// --------------------------------------------------------------------

/// The SIMD sweep's dimensions: below/at/above one 8-lane group, one full
/// 64-element hardware chunk, the paper's transformer widths, widths
/// around the eight-chunk (512-element) L2 batch of the AVX2 kernel, and
/// many-chunk widths that exercise the partial-fold tree.
const SIMD_DIMS: [usize; 13] = [1, 7, 8, 9, 64, 384, 448, 511, 512, 513, 768, 4096, 4097];

/// Every *forced* level (never `Auto` — the sweep must know exactly which
/// kernel ran).
const FORCED_LEVELS: [SimdLevel; 5] = [
    SimdLevel::Scalar,
    SimdLevel::Portable,
    SimdLevel::Sse2,
    SimdLevel::Avx2,
    SimdLevel::Avx512,
];

/// Build the native backend at a forced level, or `None` (with a notice on
/// stderr) when this host cannot run it. Any error other than
/// [`NormError::SimdUnsupported`] is a bug.
fn forced_native(
    d: usize,
    spec: &MethodSpec,
    reduce: ReduceOrder,
    level: SimdLevel,
) -> Option<Box<dyn NormBackend>> {
    match build_backend_simd(
        BackendKind::Native,
        FormatKind::Fp32,
        d,
        spec,
        reduce,
        level,
    ) {
        Ok(backend) => Some(backend),
        Err(NormError::SimdUnsupported { .. }) => {
            eprintln!("notice: skipping simd level '{level}': unsupported on this host");
            None
        }
        Err(other) => panic!("forcing simd level '{level}' failed unexpectedly: {other}"),
    }
}

#[test]
fn every_simd_level_matches_emulated_for_every_method_dim_and_order() {
    for spec in MethodSpec::REGISTRY {
        for d in SIMD_DIMS {
            for reduce in [ReduceOrder::HwTree, ReduceOrder::Linear] {
                let input = batch_bits(d);
                // One emulated reference per (method, d, order) — the
                // paper-faithful oracle every level must reproduce.
                let mut reference = vec![0u32; input.len()];
                build_backend(BackendKind::Emulated, FormatKind::Fp32, d, &spec, reduce)
                    .unwrap()
                    .normalize_batch_bits(&input, &mut reference, 1)
                    .unwrap();
                for level in FORCED_LEVELS {
                    let Some(mut native) = forced_native(d, &spec, reduce, level) else {
                        continue;
                    };
                    assert_eq!(native.simd_level(), level, "forced level must stick");
                    for threads in [1usize, 3] {
                        let mut out = vec![0u32; input.len()];
                        let rows = native
                            .normalize_batch_bits(&input, &mut out, threads)
                            .unwrap();
                        assert_eq!(rows * d, input.len());
                        assert_bits_eq(
                            &out,
                            &reference,
                            &format!(
                                "{} d={d} reduce={reduce:?} simd={level} threads={threads}",
                                spec.label()
                            ),
                        );
                    }
                }
            }
        }
    }
}

/// Compare a NaN-seeded batch native-scalar vs every native vector level,
/// bitwise, after asserting the scalar reference really produced NaNs.
fn assert_nan_batch_bit_stable(d: usize, spec: &MethodSpec, bits: &[u32], context: &str) {
    let Some(mut scalar) = forced_native(d, spec, ReduceOrder::HwTree, SimdLevel::Scalar) else {
        return;
    };
    let mut reference = vec![0u32; bits.len()];
    scalar
        .normalize_batch_bits(bits, &mut reference, 1)
        .unwrap();
    // Every NaN-seeded row must come out all-NaN — the rows would
    // otherwise not exercise payload propagation at all.
    assert!(
        reference
            .iter()
            .all(|&b| (b & 0x7F80_0000) == 0x7F80_0000 && (b & 0x007F_FFFF) != 0),
        "{context}: NaN rows must normalize to NaNs"
    );
    for level in [
        SimdLevel::Portable,
        SimdLevel::Sse2,
        SimdLevel::Avx2,
        SimdLevel::Avx512,
    ] {
        let Some(mut native) = forced_native(d, spec, ReduceOrder::HwTree, level) else {
            continue;
        };
        let mut out = vec![0u32; bits.len()];
        native.normalize_batch_bits(bits, &mut out, 1).unwrap();
        assert_bits_eq(&out, &reference, &format!("{context} simd={level}"));
    }
}

#[test]
fn nan_rows_are_bit_stable_across_simd_levels_for_every_method() {
    // The emulator canonicalizes NaNs, so NaN handling is compared
    // native-scalar vs native-vector only. x86 propagates one *operand's*
    // payload through arithmetic, and LLVM does not pin operand order for
    // commutable float ops — so an all-methods row must keep every NaN in
    // flight at the *canonical* bits 0x7FC0_0000 (methods like `lut` turn
    // a NaN `m` into a canonical-NaN scale, and mixing payloads at the
    // final multiply would be order-dependent, not a kernel bug).
    let canonical = 0x7FC0_0000u32;
    for d in [7usize, 67, 384] {
        let mut bits = Vec::new();
        let mut single = batch_row(d, 0.25, 0.01);
        single[d / 2] = canonical;
        bits.extend(&single);
        bits.extend(std::iter::repeat_n(canonical, d));
        for spec in MethodSpec::REGISTRY {
            assert_nan_batch_bit_stable(
                d,
                &spec,
                &bits,
                &format!("{} d={d} canonical NaN", spec.label()),
            );
        }
    }
}

#[test]
fn iterl2_preserves_distinct_nan_payloads_across_simd_levels() {
    // The paper's method is pure bit-ops plus same-payload arithmetic on a
    // NaN `m`, so *every* NaN in flight carries the seeded payload and the
    // comparison is commutation-proof even for distinctive payloads:
    // a single quiet NaN, an all-identical negative-NaN row, and a single
    // signaling NaN (which hardware quiets to payload|quiet-bit — the
    // exact bits its quiet descendants carry).
    let quiet = 0x7FC1_2345u32;
    let quiet_neg = 0xFFC0_00ABu32;
    let signaling = 0x7F80_0001u32;
    let spec = MethodSpec::iterl2(5);
    for d in [7usize, 67, 384] {
        let mut bits = Vec::new();
        let mut single = batch_row(d, 0.25, 0.01);
        single[d / 2] = quiet;
        bits.extend(&single);
        bits.extend(std::iter::repeat_n(quiet_neg, d));
        let mut snan = batch_row(d, -1.5, 0.02);
        snan[0] = signaling;
        bits.extend(&snan);
        assert_nan_batch_bit_stable(d, &spec, &bits, &format!("iterl2 d={d} NaN payloads"));
    }
}

/// A deterministic non-NaN row as raw FP32 bits.
fn batch_row(d: usize, base: f64, step: f64) -> Vec<u32> {
    (0..d)
        .map(|i| Fp32::from_f64(base + i as f64 * step).to_bits())
        .collect()
}

#[test]
fn forced_unavailable_levels_error_instead_of_downgrading() {
    let spec = MethodSpec::iterl2(5);
    // The emulated backend has no vector tier: every forced vector level
    // is a clean, nameable error — never a silent fall-through to scalar.
    for level in [
        SimdLevel::Portable,
        SimdLevel::Sse2,
        SimdLevel::Avx2,
        SimdLevel::Avx512,
    ] {
        let err = match build_backend_simd(
            BackendKind::Emulated,
            FormatKind::Fp32,
            64,
            &spec,
            ReduceOrder::HwTree,
            level,
        ) {
            Err(e) => e,
            Ok(_) => panic!("emulated backend accepted forced level '{level}'"),
        };
        assert!(
            matches!(err, NormError::SimdUnsupported { .. }),
            "expected SimdUnsupported, got {err}"
        );
        let text = err.to_string();
        assert!(
            text.contains(level.name()) && text.contains("emulated"),
            "{text}"
        );
    }
    // On a host without AVX2 or AVX-512F, forcing that level on the native
    // backend errors the same way (cannot be asserted unconditionally — CI
    // hosts vary).
    #[cfg(target_arch = "x86_64")]
    for (level, present) in [
        (SimdLevel::Avx2, std::arch::is_x86_feature_detected!("avx2")),
        (
            SimdLevel::Avx512,
            std::arch::is_x86_feature_detected!("avx512f"),
        ),
    ] {
        if present {
            continue;
        }
        let err = match build_backend_simd(
            BackendKind::Native,
            FormatKind::Fp32,
            64,
            &spec,
            ReduceOrder::HwTree,
            level,
        ) {
            Err(e) => e,
            Ok(_) => panic!("host without {level} accepted forced {level}"),
        };
        assert!(matches!(err, NormError::SimdUnsupported { .. }), "{err}");
    }
    // Auto must always build on both backends, resolving to a concrete
    // level (never reporting Auto back).
    for backend in BackendKind::ALL {
        let b = build_backend_simd(
            backend,
            FormatKind::Fp32,
            64,
            &spec,
            ReduceOrder::HwTree,
            SimdLevel::Auto,
        )
        .unwrap();
        assert_ne!(b.simd_level(), SimdLevel::Auto);
    }
}

#[test]
fn parallel_entry_points_reject_zero_threads() {
    let d = 16;
    let spec = MethodSpec::iterl2(5);
    let input = vec![Fp32::ONE.to_bits(); d * 4];
    let mut out = vec![0u32; d * 4];
    let mut short = vec![0u32; d];
    for kind in BackendKind::ALL {
        let mut backend =
            build_backend(kind, FormatKind::Fp32, d, &spec, ReduceOrder::HwTree).unwrap();
        assert_eq!(
            backend
                .normalize_batch_bits(&input, &mut out, 0)
                .unwrap_err(),
            NormError::ZeroThreads,
            "{kind}"
        );
        // Shape errors still surface, serial or partitioned.
        for threads in [1usize, 2] {
            assert_eq!(
                backend
                    .normalize_batch_bits(&input, &mut short, threads)
                    .unwrap_err(),
                NormError::OutputLengthMismatch {
                    expected: d * 4,
                    actual: d
                },
                "{kind}"
            );
        }
    }
    let plan = NormPlan::<Fp32>::new(d).unwrap();
    let mut engine = Normalizer::from_spec(&spec);
    let input = vec![Fp32::ONE; d * 4];
    let mut short = vec![Fp32::ZERO; d];
    assert_eq!(
        engine
            .normalize_batch_parallel(&plan, &input, &mut short, 0)
            .unwrap_err(),
        NormError::ZeroThreads
    );
    assert_eq!(
        engine
            .normalize_batch_parallel(&plan, &input, &mut short, 2)
            .unwrap_err(),
        NormError::OutputLengthMismatch {
            expected: d * 4,
            actual: d
        }
    );
}
