//! The serving-API contract, enforced: whatever the coalescer and the
//! shard router do — however many submitting threads race, whatever
//! batches requests get packed into, whichever shard a request lands
//! on — every response's bits are identical to executing that request
//! alone, serially, on a freshly built backend. Rows are independent,
//! the engine walks a batch row by row, and every shard executes the
//! identical plan, so micro-batching and sharding may only ever change
//! throughput, never output.
//!
//! The sweep covers every execution point (all three emulated formats plus
//! native FP32) × every registry method × shard counts {1, 2, 4} ×
//! submitting-thread counts {1, 2, 3, 8}, with the zero-row (m = 0 rows)
//! request and a mixed-d request rejected identically no matter how busy
//! the sharded service is, mixed normalize and whitening traffic under a
//! fixed and a zero coalescing window, and `QueueFull` backpressure
//! exercised by the companion `service_resilience` suite. CI runs this suite in debug *and*
//! release mode, like the backend identity suite.

use std::sync::{Arc, Barrier};
use std::time::Duration;

use iterl2norm::backend::{build_backend, BackendKind, FormatKind};
use iterl2norm::service::{NormRequest, Placement, ServiceConfig};
use iterl2norm::whiten::{build_whiten, WhitenSpec};
use iterl2norm::{MethodSpec, NormError, ReduceOrder, SimdLevel};
use softfloat::Fp32;
use workloads::{Distribution, VectorGen};

const SUBMITTERS: [usize; 4] = [1, 2, 3, 8];
const SHARDS: [usize; 3] = [1, 2, 4];
const EXEC_POINTS: [(BackendKind, FormatKind); 4] = [
    (BackendKind::Emulated, FormatKind::Fp32),
    (BackendKind::Emulated, FormatKind::Fp16),
    (BackendKind::Emulated, FormatKind::Bf16),
    (BackendKind::Native, FormatKind::Fp32),
];

/// Deterministic request payload for submitter `who`: `rows × d` storage
/// bit patterns in `format`, distinct per submitter.
fn request_bits(format: FormatKind, d: usize, rows: usize, who: u64) -> Vec<u32> {
    let gen = VectorGen::new(Distribution::Uniform, 0xC0A1_E5CE ^ who);
    let mut bits = Vec::with_capacity(rows * d);
    for r in 0..rows as u64 {
        bits.extend(gen.vector_f64(d, r).iter().map(|&v| format.encode_f64(v)));
    }
    bits
}

/// Serial per-request reference: a fresh backend normalizes `bits` alone.
fn serial_reference(
    backend: BackendKind,
    format: FormatKind,
    d: usize,
    spec: &MethodSpec,
    bits: &[u32],
) -> Vec<u32> {
    let mut reference = build_backend(backend, format, d, spec, ReduceOrder::HwTree).unwrap();
    let mut out = vec![0u32; bits.len()];
    reference.normalize_batch_bits(bits, &mut out, 1).unwrap();
    out
}

/// Serial whitening reference: a fresh executor whitens `bits` as one
/// emulated FP32 group.
fn serial_whiten(d: usize, bits: &[u32]) -> Vec<u32> {
    let mut exec = build_whiten(
        BackendKind::Emulated,
        FormatKind::Fp32,
        d,
        WhitenSpec::default(),
        SimdLevel::Auto,
    )
    .unwrap();
    let mut out = vec![0u32; bits.len()];
    exec.whiten_groups(bits, &mut out, &[bits.len() / d], 1)
        .unwrap();
    out
}

#[test]
fn coalesced_matches_serial_for_every_exec_point_method_shard_and_submitter_count() {
    let d = 33;
    for (backend, format) in EXEC_POINTS {
        for spec in MethodSpec::REGISTRY {
            for shards in SHARDS {
                for submitters in SUBMITTERS {
                    let service = ServiceConfig::new(d)
                        .with_backend(backend)
                        .with_format(format)
                        .with_method(spec)
                        .with_shards(shards)
                        .with_window(Duration::from_millis(2))
                        .build()
                        .unwrap();
                    let barrier = Arc::new(Barrier::new(submitters));
                    let context = format!(
                        "{}/{} {} shards={shards} submitters={submitters}",
                        backend.name(),
                        format.name(),
                        spec.label()
                    );
                    std::thread::scope(|scope| {
                        let handles: Vec<_> = (0..submitters)
                            .map(|who| {
                                let service = service.clone();
                                let barrier = Arc::clone(&barrier);
                                scope.spawn(move || {
                                    // Different row counts per submitter so the
                                    // coalescer's split-back is never uniform.
                                    let rows = 1 + who % 3;
                                    let bits = request_bits(format, d, rows, who as u64);
                                    barrier.wait();
                                    let response =
                                        service.submit(NormRequest::bits(&bits)).unwrap();
                                    (bits, response)
                                })
                            })
                            .collect();
                        for handle in handles {
                            let (bits, response) = handle.join().unwrap();
                            assert_eq!(response.rows(), bits.len() / d, "{context}");
                            assert!(response.batch_rows() >= response.rows(), "{context}");
                            assert!(response.batch_requests() >= 1, "{context}");
                            let expect = serial_reference(backend, format, d, &spec, &bits);
                            assert_eq!(
                                response.bits(),
                                &expect[..],
                                "{context}: sharded/coalesced bits differ from serial \
                                 per-request bits"
                            );
                        }
                    });
                    let stats = service.stats();
                    assert_eq!(stats.requests, submitters as u64, "{context}");
                    assert!(stats.batches <= stats.requests, "{context}");
                }
            }
        }
    }
}

#[test]
fn async_submit_matches_blocking_and_serial_for_every_method_shard_and_submitter_count() {
    // The PR-5 acceptance sweep: submit_async must produce bits identical
    // to blocking submit and to serial per-request execution, across
    // every execution point × registry method × shards {1, 2, 4} ×
    // submitter counts {1, 2, 3, 8}. Each submitter pipelines two async
    // tickets around a blocking submit (the intended overlap pattern), on
    // a request-hash-placed service where half the traffic is keyed — so
    // sticky placement, round-robin fallback, and driver rounds mixing
    // async and blocking entries all occur in one run.
    let d = 33;
    for (backend, format) in EXEC_POINTS {
        for spec in MethodSpec::REGISTRY {
            for shards in SHARDS {
                for submitters in SUBMITTERS {
                    let service = ServiceConfig::new(d)
                        .with_backend(backend)
                        .with_format(format)
                        .with_method(spec)
                        .with_shards(shards)
                        .with_placement(Placement::RequestHash)
                        .with_window(Duration::from_millis(1))
                        .build()
                        .unwrap();
                    let barrier = Arc::new(Barrier::new(submitters));
                    let context = format!(
                        "{}/{} {} shards={shards} submitters={submitters}",
                        backend.name(),
                        format.name(),
                        spec.label()
                    );
                    std::thread::scope(|scope| {
                        let handles: Vec<_> = (0..submitters)
                            .map(|who| {
                                let service = service.clone();
                                let barrier = Arc::clone(&barrier);
                                scope.spawn(move || {
                                    let rows = 1 + who % 3;
                                    let a = request_bits(format, d, rows, 100 + who as u64);
                                    let b = request_bits(format, d, rows, 200 + who as u64);
                                    let c = request_bits(format, d, rows, 300 + who as u64);
                                    barrier.wait();
                                    // Pipeline: two tickets in flight while a
                                    // blocking submit runs in between (whose
                                    // round may execute the tickets' work).
                                    let mut t1 =
                                        service.submit_async(NormRequest::bits(&a)).unwrap();
                                    let mut t2 = service
                                        .submit_async(NormRequest::bits(&b).with_key(who as u64))
                                        .unwrap();
                                    let blocking = service.submit(NormRequest::bits(&c)).unwrap();
                                    let r1 = t1.wait().unwrap();
                                    let r2 = t2
                                        .wait_timeout(Duration::from_secs(60))
                                        .expect("async request starved for 60 s")
                                        .unwrap();
                                    // Direct async ≡ blocking on the same
                                    // payload and service.
                                    let again = service.submit(NormRequest::bits(&a)).unwrap();
                                    assert_eq!(r1.bits(), again.bits());
                                    [(a, r1), (b, r2), (c, blocking)]
                                })
                            })
                            .collect();
                        for handle in handles {
                            for (bits, response) in handle.join().unwrap() {
                                let expect = serial_reference(backend, format, d, &spec, &bits);
                                assert_eq!(
                                    response.bits(),
                                    &expect[..],
                                    "{context}: async/blocking bits differ from serial \
                                     per-request bits"
                                );
                            }
                        }
                    });
                    let stats = service.stats();
                    // 2 async + 2 blocking requests per submitter.
                    assert_eq!(stats.requests, 4 * submitters as u64, "{context}");
                    assert_eq!(stats.abandoned_tickets, 0, "{context}");
                }
            }
        }
    }
}

#[test]
fn request_hash_placement_is_sticky_and_bit_identical() {
    let d = 24;
    let bits = request_bits(FormatKind::Fp32, d, 2, 9);
    let reference = serial_reference(
        BackendKind::Emulated,
        FormatKind::Fp32,
        d,
        &MethodSpec::iterl2(5),
        &bits,
    );
    for shards in SHARDS {
        let service = ServiceConfig::new(d)
            .with_shards(shards)
            .with_placement(Placement::RequestHash)
            .build()
            .unwrap();
        let home = service.shard_for(0xFEED);
        assert!(home < shards);
        for _ in 0..3 {
            // Sticky: the mapping never drifts between calls.
            assert_eq!(service.shard_for(0xFEED), home);
            let keyed = service
                .submit(NormRequest::bits(&bits).with_key(0xFEED))
                .unwrap();
            assert_eq!(keyed.bits(), &reference[..], "shards={shards}");
            let mut ticket = service
                .submit_async(NormRequest::bits(&bits).with_key(0xFEED))
                .unwrap();
            assert_eq!(ticket.shard(), home, "async placement follows the key");
            assert_eq!(ticket.wait().unwrap().bits(), &reference[..]);
        }
    }
}

#[test]
fn empty_and_mixed_d_requests_are_rejected_identically_under_load() {
    let d = 16;
    // Sharded on purpose: shape rejection happens at the door, before
    // placement, so it must look identical no matter the shard count.
    let service = ServiceConfig::new(d)
        .with_shards(2)
        .with_window(Duration::from_millis(2))
        .build()
        .unwrap();
    // Alone: the zero-row request and the ragged request fail cleanly.
    assert_eq!(
        service.submit(NormRequest::bits(&[])).unwrap_err(),
        NormError::EmptyRequest
    );
    let ragged = vec![0u32; 2 * d + 3];
    assert_eq!(
        service.submit(NormRequest::bits(&ragged)).unwrap_err(),
        NormError::BatchLengthMismatch {
            rows: 2,
            d,
            actual: 2 * d + 3
        }
    );
    // Under concurrent load: same rejections, and the valid neighbors'
    // bits are still identical to serial execution.
    let barrier = Arc::new(Barrier::new(4));
    std::thread::scope(|scope| {
        let valid: Vec<_> = (0..2)
            .map(|who| {
                let service = service.clone();
                let barrier = Arc::clone(&barrier);
                scope.spawn(move || {
                    let bits = request_bits(FormatKind::Fp32, d, 2, 77 + who);
                    barrier.wait();
                    let response = service.submit(NormRequest::bits(&bits)).unwrap();
                    (bits, response)
                })
            })
            .collect();
        let empty = {
            let service = service.clone();
            let barrier = Arc::clone(&barrier);
            scope.spawn(move || {
                barrier.wait();
                service.submit(NormRequest::bits(&[])).unwrap_err()
            })
        };
        let mixed = {
            let service = service.clone();
            let barrier = Arc::clone(&barrier);
            scope.spawn(move || {
                let ragged = vec![0u32; d + 1];
                barrier.wait();
                service.submit(NormRequest::bits(&ragged)).unwrap_err()
            })
        };
        assert_eq!(empty.join().unwrap(), NormError::EmptyRequest);
        assert_eq!(
            mixed.join().unwrap(),
            NormError::BatchLengthMismatch {
                rows: 1,
                d,
                actual: d + 1
            }
        );
        for handle in valid {
            let (bits, response) = handle.join().unwrap();
            let expect = serial_reference(
                BackendKind::Emulated,
                FormatKind::Fp32,
                d,
                &MethodSpec::iterl2(5),
                &bits,
            );
            assert_eq!(response.bits(), &expect[..]);
        }
    });
}

#[test]
fn coalescing_actually_happens_under_concurrent_load() {
    // Structural smoke test for the micro-batcher: with a generous window
    // and a barrier start, concurrent submitters should share a backend
    // batch. Retried to tolerate scheduler hiccups on loaded hosts; the
    // bit-identity guarantees above hold regardless of grouping.
    let d = 64;
    let submitters = 4;
    let mut observed_sharing = false;
    for _attempt in 0..3 {
        let service = ServiceConfig::new(d)
            .with_backend(BackendKind::Native)
            .with_window(Duration::from_millis(250))
            .build()
            .unwrap();
        let barrier = Arc::new(Barrier::new(submitters));
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..submitters)
                .map(|who| {
                    let service = service.clone();
                    let barrier = Arc::clone(&barrier);
                    scope.spawn(move || {
                        let bits = request_bits(FormatKind::Fp32, d, 1, who as u64);
                        barrier.wait();
                        service.submit(NormRequest::bits(&bits)).unwrap()
                    })
                })
                .collect();
            for handle in handles {
                if handle.join().unwrap().batch_requests() > 1 {
                    observed_sharing = true;
                }
            }
        });
        let stats = service.stats();
        assert_eq!(stats.requests, submitters as u64);
        if observed_sharing {
            assert!(stats.coalesced_requests >= 2);
            assert!(stats.batches < stats.requests);
            break;
        }
    }
    assert!(
        observed_sharing,
        "4 barrier-started submitters never shared a batch within a 250ms window (3 attempts)"
    );
}

#[test]
fn fixed_and_zero_windows_are_bit_identical() {
    // Window policy may regroup rounds, never change bits: every
    // response under both policies must equal the same serial
    // per-request reference, under concurrent mixed-kind traffic.
    let d = 16;
    let submitters = 4;
    let whiten_rows = 6;
    let spec = MethodSpec::iterl2(5);
    for shards in [1usize, 2] {
        for (policy, window) in [
            ("fixed-window", Duration::from_millis(1)),
            ("no-window", Duration::ZERO),
        ] {
            let service = ServiceConfig::new(d)
                .with_window(window)
                .with_shards(shards)
                .with_whiten(WhitenSpec::default())
                .build()
                .unwrap();
            let barrier = Arc::new(Barrier::new(submitters));
            std::thread::scope(|scope| {
                let handles: Vec<_> = (0..submitters)
                    .map(|who| {
                        let service = service.clone();
                        let barrier = Arc::clone(&barrier);
                        scope.spawn(move || {
                            let rows = 1 + who % 3;
                            let norm = request_bits(FormatKind::Fp32, d, rows, who as u64);
                            let group =
                                request_bits(FormatKind::Fp32, d, whiten_rows, 0x100 + who as u64);
                            barrier.wait();
                            let normalized = service.submit(NormRequest::bits(&norm)).unwrap();
                            let mut ticket = service
                                .submit_async(NormRequest::whiten_group(&group))
                                .unwrap();
                            let whitened = ticket.wait().unwrap();
                            (norm, normalized, group, whitened)
                        })
                    })
                    .collect();
                for handle in handles {
                    let (norm, normalized, group, whitened) = handle.join().unwrap();
                    let expect =
                        serial_reference(BackendKind::Emulated, FormatKind::Fp32, d, &spec, &norm);
                    assert_eq!(
                        normalized.bits(),
                        &expect[..],
                        "{policy} shards={shards}: normalize bits diverged"
                    );
                    assert_eq!(
                        whitened.bits(),
                        &serial_whiten(d, &group)[..],
                        "{policy} shards={shards}: whiten bits diverged"
                    );
                }
            });
            let stats = service.stats();
            assert_eq!(stats.requests, 2 * submitters as u64, "{policy}");
            assert_eq!(stats.whiten_requests, submitters as u64, "{policy}");
        }
    }
}

#[test]
fn submit_into_is_bit_identical_under_concurrency() {
    // The buffer-reusing entry point parks in the combining queue under
    // a window (its result is copied out of a shared driver round);
    // output must still match serial per-request execution exactly.
    let d = 40;
    let service = ServiceConfig::new(d)
        .with_window(Duration::from_millis(2))
        .build()
        .unwrap();
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..4)
            .map(|who| {
                let service = service.clone();
                scope.spawn(move || {
                    let bits = request_bits(FormatKind::Fp32, d, 2, 200 + who);
                    let mut out = vec![0u32; bits.len()];
                    let rows = service
                        .submit_into(NormRequest::bits(&bits), &mut out)
                        .unwrap();
                    assert_eq!(rows, 2);
                    (bits, out)
                })
            })
            .collect();
        for handle in handles {
            let (bits, out) = handle.join().unwrap();
            let expect = serial_reference(
                BackendKind::Emulated,
                FormatKind::Fp32,
                d,
                &MethodSpec::iterl2(5),
                &bits,
            );
            assert_eq!(out, expect);
        }
    });
}

#[test]
fn affine_service_matches_affine_backend_bitwise() {
    let d = 96;
    let gamma: Vec<u32> = (0..d)
        .map(|i| Fp32::from_f64(0.8 + (i % 7) as f64 * 0.06).to_bits())
        .collect();
    let beta: Vec<u32> = (0..d)
        .map(|i| Fp32::from_f64((i % 5) as f64 * 0.02 - 0.04).to_bits())
        .collect();
    let bits = request_bits(FormatKind::Fp32, d, 3, 23);
    let mut reference = iterl2norm::build_backend_affine(
        BackendKind::Emulated,
        FormatKind::Fp32,
        d,
        &MethodSpec::iterl2(5),
        ReduceOrder::HwTree,
        Some(&gamma),
        Some(&beta),
        iterl2norm::SimdLevel::Auto,
    )
    .unwrap();
    let mut expect = vec![0u32; bits.len()];
    reference
        .normalize_batch_bits(&bits, &mut expect, 1)
        .unwrap();
    for backend in BackendKind::ALL {
        let service = ServiceConfig::new(d)
            .with_backend(backend)
            .with_affine_bits(&gamma, &beta)
            .build()
            .unwrap();
        let response = service.submit(NormRequest::bits(&bits)).unwrap();
        assert_eq!(response.bits(), &expect[..], "{}", service.label());
    }
}

#[test]
fn simd_service_reports_its_level_and_matches_forced_scalar_bitwise() {
    let d = 129; // never a whole number of 64-wide chunks or 8-row blocks
    let bits = request_bits(FormatKind::Fp32, d, 11, 77);

    // Forced-scalar native is the in-service reference.
    let scalar = ServiceConfig::new(d)
        .with_backend(BackendKind::Native)
        .with_simd(SimdLevel::Scalar)
        .build()
        .unwrap();
    assert_eq!(scalar.simd_level(), SimdLevel::Scalar);
    let reference = scalar.submit(NormRequest::bits(&bits)).unwrap();
    assert_eq!(reference.simd_level(), SimdLevel::Scalar);

    // Auto resolves to a concrete level, reports it on service and
    // response, and changes no bits — with sharding in play.
    let auto = ServiceConfig::new(d)
        .with_backend(BackendKind::Native)
        .with_shards(2)
        .build()
        .unwrap();
    assert_ne!(auto.simd_level(), SimdLevel::Auto, "auto must resolve");
    let response = auto.submit(NormRequest::bits(&bits)).unwrap();
    assert_eq!(response.simd_level(), auto.simd_level());
    assert_eq!(response.bits(), reference.bits(), "simd changed bits");

    // The emulated backend always reports scalar under auto.
    let emulated = ServiceConfig::new(d).build().unwrap();
    assert_eq!(emulated.simd_level(), SimdLevel::Scalar);

    // A forced vector level the backend cannot run fails the *build*,
    // never a later submit.
    let err = ServiceConfig::new(d)
        .with_simd(SimdLevel::Avx2)
        .build()
        .map(|_| ())
        .unwrap_err();
    assert!(matches!(err, NormError::SimdUnsupported { .. }), "{err}");
}
