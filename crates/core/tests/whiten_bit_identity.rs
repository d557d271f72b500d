//! Bit-identity tests for the whitening subsystem: the native host-`f32`
//! path must produce *exactly* the storage bits of the emulated softfloat
//! oracle — for every forced SIMD level, every tested dimension and
//! iteration budget, both group modes, and any worker count — and the
//! service path must hand back exactly what the executor produces.
//!
//! Mirrors `backend_bit_identity.rs`: the emulated FP32 executor is the
//! oracle, `assert_bits_eq` reports the first diverging element in hex,
//! and forced levels the host cannot run are skipped with a notice
//! rather than silently passing.

use iterl2norm::whiten::{build_whiten, WhitenExec, WhitenSpec};
use iterl2norm::{
    BackendKind, FormatKind, GroupMode, MethodSpec, NormError, NormRequest, ServiceConfig,
    SimdLevel,
};
use workloads::{Distribution, VectorGen};

/// The acceptance grid: d × T ∈ {0, 1, 5} for every forced level. The
/// matmul kernel works in register tiles of 4 rows by 16 columns, or by
/// 32 columns at the AVX-512 level, then a 16-column tile if one fits,
/// then single columns. 1, 4, 16, 64 and 256 are all-tail or all-full
/// at both widths. 20 puts a 4-column tail next to a full 16-wide tile;
/// 33 adds a one-row and a one-column tail to full tiles; 48 is a full
/// 32-column tile beside a 16-column tail (the group sizes {1, 3, 7} add
/// row tails to the apply). T = 5 runs both shortcut steps: the
/// identity-free step 1 and the symmetric P₁·P₁.
const DIMS: [usize; 8] = [1, 4, 16, 20, 33, 48, 64, 256];
const STEPS: [u32; 3] = [0, 1, 5];

const FORCED_LEVELS: [SimdLevel; 5] = [
    SimdLevel::Scalar,
    SimdLevel::Portable,
    SimdLevel::Sse2,
    SimdLevel::Avx2,
    SimdLevel::Avx512,
];

/// Deterministic row-major `m × d` group with moderate values in
/// roughly [-2, 2] — enough spread to keep Σ well conditioned at these
/// sizes, and finite everywhere (the native path runs on x86 hardware
/// whose invalid-operation NaN payload differs from the softfloat
/// canonical one, so bit-identity claims only cover finite inputs; the
/// NaN contract has its own test below).
fn group_bits(m: usize, d: usize, seed: u64) -> Vec<u32> {
    let gen = VectorGen::new(Distribution::Uniform, seed);
    let mut bits = Vec::with_capacity(m * d);
    for row in 0..m {
        for v in gen.vector_f64(d, row as u64) {
            bits.push(((v * 2.0) as f32).to_bits());
        }
    }
    bits
}

fn assert_bits_eq(expected: &[u32], actual: &[u32], context: &str) {
    assert_eq!(expected.len(), actual.len(), "length mismatch: {context}");
    for (i, (&e, &a)) in expected.iter().zip(actual.iter()).enumerate() {
        assert_eq!(
            e, a,
            "bit divergence at element {i}: expected {e:#010x}, got {a:#010x} ({context})"
        );
    }
}

fn emulated_oracle(d: usize, spec: WhitenSpec) -> Box<dyn WhitenExec> {
    build_whiten(
        BackendKind::Emulated,
        FormatKind::Fp32,
        d,
        spec,
        SimdLevel::Auto,
    )
    .expect("emulated fp32 whitening always builds")
}

/// Build a native executor forced to `level`, or `None` when the host
/// cannot run it (reported, so a log reader can tell a skip from a pass).
fn forced_native(d: usize, spec: WhitenSpec, level: SimdLevel) -> Option<Box<dyn WhitenExec>> {
    match build_whiten(BackendKind::Native, FormatKind::Fp32, d, spec, level) {
        Ok(exec) => {
            assert_eq!(
                exec.simd_level(),
                level,
                "forced level must stick (spec {})",
                spec.label()
            );
            Some(exec)
        }
        Err(NormError::SimdUnsupported { .. }) => {
            eprintln!(
                "notice: skipping simd level '{}' — not supported on this host",
                level.name()
            );
            None
        }
        Err(other) => panic!("forced native build failed unexpectedly: {other}"),
    }
}

/// The tentpole sweep: every forced level × d × T × group mode, multi-group
/// calls, serial, partitioned across workers and in place (the serving
/// path's call) — all bit-identical to the softfloat oracle.
///
/// The single heaviest oracle run (d = 256, T = 5, ~30 s per mode under a
/// debug-build softfloat) is release-only; CI's release bit-identity step
/// runs the complete grid.
#[test]
fn native_matches_emulated_for_every_forced_level() {
    for t in STEPS {
        for d in DIMS {
            if cfg!(debug_assertions) && d == 256 && t == 5 {
                eprintln!("notice: skipping d=256 t=5 in debug (release CI covers it)");
                continue;
            }
            // Keep the oracle cost bounded at d = 256: m only drives the
            // O(m·d²) covariance/apply stages, not the O(T·d³) iteration.
            let groups: &[usize] = if d >= 256 { &[3, 6] } else { &[1, 3, 7] };
            let total_rows: usize = groups.iter().sum();
            for mode in GroupMode::ALL {
                let spec = WhitenSpec::new().with_t(t).with_group_mode(mode);
                let mut input = Vec::with_capacity(total_rows * d);
                for (g, &m) in groups.iter().enumerate() {
                    input.extend(group_bits(m, d, 0x5EED + g as u64));
                }
                let mut expected = vec![0u32; input.len()];
                let rows = emulated_oracle(d, spec)
                    .whiten_groups(&input, &mut expected, groups, 1)
                    .expect("oracle whitening must succeed");
                assert_eq!(rows, total_rows);

                for level in FORCED_LEVELS {
                    let Some(mut native) = forced_native(d, spec, level) else {
                        continue;
                    };
                    for threads in [1, 3] {
                        let mut actual = vec![0u32; input.len()];
                        native
                            .whiten_groups(&input, &mut actual, groups, threads)
                            .expect("native whitening must succeed");
                        assert_bits_eq(
                            &expected,
                            &actual,
                            &format!(
                                "d={d} t={t} mode={mode} level={} threads={threads}",
                                level.name()
                            ),
                        );
                    }
                    let mut actual = input.clone();
                    let mut segments: Vec<&mut [u32]> = Vec::new();
                    let mut rest = actual.as_mut_slice();
                    for &m in groups {
                        let (group, tail) = rest.split_at_mut(m * d);
                        segments.push(group);
                        rest = tail;
                    }
                    native
                        .whiten_in_place(&mut segments)
                        .expect("native whitening must succeed");
                    assert_bits_eq(
                        &expected,
                        &actual,
                        &format!("d={d} t={t} mode={mode} level={} in place", level.name()),
                    );
                }
            }
        }
    }
}

/// Auto resolution picks the best host level and the detailed single-group
/// path emits the same bits as the batch path — on both backends.
#[test]
fn auto_resolution_and_detailed_path_agree_with_batch() {
    let d = 16;
    let m = 5;
    let spec = WhitenSpec::default();
    let input = group_bits(m, d, 0xA0);
    for backend in [BackendKind::Emulated, BackendKind::Native] {
        let mut exec = build_whiten(backend, FormatKind::Fp32, d, spec, SimdLevel::Auto)
            .expect("auto always builds");
        assert_ne!(
            exec.simd_level(),
            SimdLevel::Auto,
            "resolved level is never reported as auto"
        );
        let mut batch = vec![0u32; input.len()];
        exec.whiten_groups(&input, &mut batch, &[m], 1).unwrap();
        let mut detailed = vec![0u32; input.len()];
        let detail = exec.whiten_group_detailed(&input, &mut detailed).unwrap();
        assert_bits_eq(
            &batch,
            &detailed,
            &format!("{} detailed-vs-batch", exec.label()),
        );
        assert!(detail.trace > 0.0, "trace of Σ must be positive");
        assert!(detail.scale > 0.0, "√(1/tr) must be positive");
    }
}

/// Forced vector levels are a hard error where they cannot run: the
/// emulator accepts only auto/scalar, and native AVX2 and AVX-512 must
/// fail cleanly on hosts without the feature.
#[test]
fn forced_unavailable_levels_error_cleanly() {
    let spec = WhitenSpec::default();
    for level in [
        SimdLevel::Portable,
        SimdLevel::Sse2,
        SimdLevel::Avx2,
        SimdLevel::Avx512,
    ] {
        let err = build_whiten(BackendKind::Emulated, FormatKind::Fp32, 8, spec, level)
            .err()
            .expect("emulated must reject forced vector levels");
        let text = err.to_string();
        assert!(
            text.contains(level.name()) && text.contains("emulated"),
            "unhelpful error: {text}"
        );
    }
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
        let err = build_whiten(BackendKind::Native, FormatKind::Fp32, 8, spec, level)
            .err()
            .expect("native must reject a level the host lacks");
        assert!(
            matches!(err, NormError::SimdUnsupported { .. }),
            "{level}: got {err:?}"
        );
    }
    // Native whitening is an f32 pipeline: narrow formats stay on the oracle.
    for format in [FormatKind::Fp16, FormatKind::Bf16] {
        let err = build_whiten(BackendKind::Native, format, 8, spec, SimdLevel::Auto)
            .err()
            .expect("native whitening must reject non-fp32 formats");
        assert!(
            matches!(err, NormError::BackendFormatMismatch { .. }),
            "got {err:?}"
        );
    }
}

/// Whitening through the service — blocking and async — returns
/// exactly the bits of a direct executor call, and the whiten counters move.
#[test]
fn service_path_is_bit_identical_to_direct_executor() {
    let d = 16;
    let m = 6;
    let spec = WhitenSpec::default();
    let input = group_bits(m, d, 0xBEEF);
    let mut expected = vec![0u32; input.len()];
    emulated_oracle(d, spec)
        .whiten_groups(&input, &mut expected, &[m], 1)
        .unwrap();

    for backend in [BackendKind::Emulated, BackendKind::Native] {
        let service = ServiceConfig::new(d)
            .with_backend(backend)
            .with_whiten(spec)
            .build()
            .expect("service must start");
        let response = service
            .submit(NormRequest::whiten_group(&input))
            .expect("whiten submit must succeed");
        assert_eq!(response.rows(), m);
        assert_bits_eq(
            &expected,
            response.bits(),
            &format!("service backend={backend:?}"),
        );

        let mut ticket = service
            .submit_async(NormRequest::whiten_group(&input))
            .expect("async whiten submit must succeed");
        let async_response = ticket.wait().expect("async whiten must complete");
        assert_bits_eq(
            &expected,
            async_response.bits(),
            &format!("async service backend={backend:?}"),
        );

        let stats = service.stats().snapshot();
        assert_eq!(stats.whiten_requests, 2, "both whiten submissions counted");
        assert_eq!(stats.whiten_rows, 2 * m as u64, "whitened rows counted");
        service.shutdown();
    }
}

/// Mixed whiten + normalize traffic through one coalescing service: each
/// kind still gets exactly its direct-path bits.
#[test]
fn mixed_kind_rounds_keep_both_outputs_bit_exact() {
    let d = 8;
    let m = 4;
    let spec = WhitenSpec::default();
    let group = group_bits(m, d, 0xC0);
    let row = group_bits(1, d, 0xD0);

    let mut expected_group = vec![0u32; group.len()];
    emulated_oracle(d, spec)
        .whiten_groups(&group, &mut expected_group, &[m], 1)
        .unwrap();

    let service = ServiceConfig::new(d)
        .with_whiten(spec)
        .with_window(std::time::Duration::from_micros(200))
        .build()
        .expect("service must start");
    let expected_row = service
        .submit(NormRequest::bits(&row))
        .expect("norm submit must succeed")
        .bits()
        .to_vec();

    let tickets: Vec<_> = (0..8)
        .map(|i| {
            let request = if i % 2 == 0 {
                NormRequest::whiten_group(&group)
            } else {
                NormRequest::bits(&row)
            };
            service.submit_async(request).expect("submit_async")
        })
        .collect();
    for (i, mut ticket) in tickets.into_iter().enumerate() {
        let response = ticket.wait().expect("mixed round must complete");
        if i % 2 == 0 {
            assert_bits_eq(
                &expected_group,
                response.bits(),
                &format!("mixed whiten #{i}"),
            );
        } else {
            assert_bits_eq(&expected_row, response.bits(), &format!("mixed norm #{i}"));
        }
    }
    service.shutdown();
}

/// Edge cases from the issue: m = 1 (degenerate covariance) stays finite
/// in raw mode and bit-identical across paths; m = 0 and ragged buffers
/// are rejected; T = 0 applies only the trace normalization.
#[test]
fn edge_case_groups_and_shapes() {
    let d = 4;

    // m = 1, raw mode: Σ = eps·I + xᵀx is rank-1-plus-ridge, still finite.
    let spec = WhitenSpec::new().with_group_mode(GroupMode::Raw);
    let single = group_bits(1, d, 0xE0);
    let mut expected = vec![0u32; d];
    emulated_oracle(d, spec)
        .whiten_groups(&single, &mut expected, &[1], 1)
        .unwrap();
    assert!(
        expected.iter().all(|&b| f32::from_bits(b).is_finite()),
        "m=1 raw whitening must stay finite"
    );
    // m = 1 in centering mode: xc = 0, output must be exactly 0 bits
    // (Σ = eps·I, and 0 times anything finite is 0).
    let center = WhitenSpec::new();
    let mut centered = vec![0u32; d];
    emulated_oracle(d, center)
        .whiten_groups(&single, &mut centered, &[1], 1)
        .unwrap();
    assert!(
        centered.iter().all(|&b| f32::from_bits(b) == 0.0),
        "centered m=1 group must whiten to exact zeros"
    );
    for level in FORCED_LEVELS {
        let Some(mut native) = forced_native(d, spec, level) else {
            continue;
        };
        let mut actual = vec![0u32; d];
        native.whiten_groups(&single, &mut actual, &[1], 1).unwrap();
        assert_bits_eq(
            &expected,
            &actual,
            &format!("m=1 raw level={}", level.name()),
        );
    }

    // m = 0 groups and empty group lists are rejected.
    let mut exec = emulated_oracle(d, spec);
    let mut out = vec![0u32; d];
    assert!(matches!(
        exec.whiten_groups(&single, &mut out, &[], 1),
        Err(NormError::EmptyRequest)
    ));
    assert!(matches!(
        exec.whiten_groups(&single, &mut out, &[1, 0], 1),
        Err(NormError::EmptyRequest)
    ));
    // A buffer that is not the concatenation the row counts describe.
    let err = exec
        .whiten_groups(&single, &mut out, &[2], 1)
        .expect_err("ragged buffer must be rejected");
    assert!(
        matches!(err, NormError::GroupShapeMismatch { .. }),
        "got {err:?}"
    );
    // Service-side: a whiten payload that is not a multiple of d.
    let service = ServiceConfig::new(d).build().expect("service must start");
    let ragged = vec![0x3F80_0000u32; d + 1];
    let err = service
        .submit(NormRequest::whiten_group(&ragged))
        .expect_err("service must reject ragged whiten groups");
    assert!(
        matches!(err, NormError::GroupShapeMismatch { .. }),
        "got {err:?}"
    );
    service.shutdown();

    // T = 0: P stays the identity, so y = xc · √(1/tr(Σ)) exactly.
    let spec0 = WhitenSpec::new().with_t(0);
    let m = 3;
    let group = group_bits(m, d, 0xF0);
    let mut out0 = vec![0u32; group.len()];
    let detail = emulated_oracle(d, spec0)
        .whiten_group_detailed(&group, &mut out0)
        .unwrap();
    assert_eq!(detail.residual, 0.0, "T=0 reports no residual");
    // Replicate the oracle's per-dimension mean in host f32 — emulated
    // FP32 arithmetic is correctly rounded, so the same operation chain
    // in host f32 lands on the same bits.
    let inv_m = 1.0f32 / m as f32;
    let mean: Vec<f32> = (0..d)
        .map(|j| {
            let mut acc = 0.0f32;
            for k in 0..m {
                acc += f32::from_bits(group[k * d + j]);
            }
            acc * inv_m
        })
        .collect();
    for (k, &yb) in out0.iter().enumerate() {
        let x = f32::from_bits(group[k]);
        let xc = x - mean[k % d];
        let want = xc * detail.scale as f32;
        assert_eq!(
            f32::from_bits(yb),
            want,
            "T=0 output must be the trace-normalized centered input (element {k})"
        );
    }
}

/// A canonical quiet NaN anywhere in the group poisons the covariance and
/// therefore the whole group's output — on every level, without panicking,
/// with native levels agreeing with each other bit for bit. (Emulated vs
/// native NaN payloads may differ — x86 hardware produces its own default
/// NaN — so the cross-backend claim stops at "all NaN".)
#[test]
fn nan_rows_propagate_to_the_whole_group() {
    let d = 8;
    let m = 4;
    let mut input = group_bits(m, d, 0x7C);
    input[d + 3] = 0x7FC0_0000; // canonical qNaN in row 1
    let spec = WhitenSpec::default();

    let mut oracle_out = vec![0u32; input.len()];
    emulated_oracle(d, spec)
        .whiten_groups(&input, &mut oracle_out, &[m], 1)
        .unwrap();
    assert!(
        oracle_out.iter().all(|&b| f32::from_bits(b).is_nan()),
        "oracle: NaN must poison the whole group"
    );

    let mut scalar_out = vec![0u32; input.len()];
    forced_native(d, spec, SimdLevel::Scalar)
        .expect("scalar always available")
        .whiten_groups(&input, &mut scalar_out, &[m], 1)
        .unwrap();
    assert!(
        scalar_out.iter().all(|&b| f32::from_bits(b).is_nan()),
        "native: NaN must poison the whole group"
    );
    for level in [
        SimdLevel::Portable,
        SimdLevel::Sse2,
        SimdLevel::Avx2,
        SimdLevel::Avx512,
    ] {
        let Some(mut native) = forced_native(d, spec, level) else {
            continue;
        };
        let mut out = vec![0u32; input.len()];
        native.whiten_groups(&input, &mut out, &[m], 1).unwrap();
        assert_bits_eq(&scalar_out, &out, &format!("nan level={}", level.name()));
    }
}

/// d = 1 reduces whitening to the paper's scalar problem: Σ_N = 1 exactly,
/// the Newton–Schulz fixed point is P ≡ 1 for every T, and the output is
/// `xc · √(1/Σ)` — the same `x/√(mean square)` IterL2Norm approximates.
/// Compare against `MethodSpec::iterl2(5)` at the tolerance the paper's
/// five-step convergence guarantees.
#[test]
fn d1_whitening_is_consistent_with_iterl2() {
    let d = 1;
    let m = 16;
    // Center mode + tiny eps: whitening computes (x_k − μ)/√(var + eps).
    // Transposing the group into one iterl2 row of length m, LayerNorm
    // computes (x − μ)·√m/‖x − μ‖ = (x − μ)/rms(x − μ) — the same value,
    // up to IterL2's five-step rsqrt approximation error.
    let spec = WhitenSpec::new().with_eps(1e-9);
    let input = group_bits(m, d, 0x11);
    let mut whitened = vec![0u32; input.len()];
    emulated_oracle(d, spec)
        .whiten_groups(&input, &mut whitened, &[m], 1)
        .unwrap();

    let service = ServiceConfig::new(m)
        .with_method(MethodSpec::iterl2(5))
        .build()
        .expect("service must start");
    let normed = service
        .submit(NormRequest::bits(&input))
        .expect("iterl2 submit must succeed");
    service.shutdown();

    for (k, (&wb, &nb)) in whitened.iter().zip(normed.bits().iter()).enumerate() {
        let w = f64::from(f32::from_bits(wb));
        let n = f64::from(f32::from_bits(nb));
        assert!(
            (w - n).abs() <= 1e-2 * n.abs().max(1.0),
            "d=1 whitening {w} vs iterl2 {n} diverge at element {k}"
        );
    }
}

/// `whiten_group_checked` through the service front door: a generous bar
/// passes with diagnostics, an impossible bar reports the measured
/// residual. The group is well conditioned (m ≫ d) — with m < d the
/// rank-deficient Σ makes f32 Newton–Schulz stall or diverge, which is
/// exactly the failure mode this check exists to report.
#[test]
fn convergence_check_reports_residual_honestly() {
    let d = 16;
    let m = 64;
    let input = group_bits(m, d, 0x33);
    let mut out = vec![0u32; input.len()];

    let service = ServiceConfig::new(d)
        .with_whiten(WhitenSpec::new().with_t(9))
        .build()
        .expect("service must start");
    let detail = service
        .whiten_check(&input, &mut out, 1e-2)
        .expect("nine Newton–Schulz steps must converge for a well-conditioned d=16 group");
    assert!(
        detail.residual < 1e-2,
        "residual {} not under bar",
        detail.residual
    );
    let err = service
        .whiten_check(&input, &mut out, 0.0)
        .expect_err("a zero tolerance is unsatisfiable");
    match err {
        NormError::WhitenNotConverged {
            steps,
            residual_bits,
            tol_bits,
        } => {
            assert_eq!(steps, 9);
            assert_eq!(f64::from_bits(residual_bits), detail.residual);
            assert_eq!(f64::from_bits(tol_bits), 0.0);
        }
        other => panic!("expected WhitenNotConverged, got {other:?}"),
    }
    service.shutdown();
}
