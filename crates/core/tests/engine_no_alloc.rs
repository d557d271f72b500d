//! Proof of the engine's zero-allocation hot path: a counting global
//! allocator observes `normalize_into` / `normalize_in_place` /
//! `normalize_batch` after plan construction — and a warm native
//! backend's batch and in-place calls at every SIMD level, and a warm
//! native whitening executor's group calls — and asserts that not a
//! single heap allocation happens on the calling thread.

// The counting allocator below is the one test in the workspace that needs
// unsafe outside the SIMD kernels; it opts in explicitly per L002.
#![allow(unsafe_code)]

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use iterl2norm::{
    build_backend_affine, build_whiten, BackendKind, FormatKind, MethodSpec, NormError, NormPlan,
    Normalizer, ReduceOrder, SimdLevel, WhitenSpec,
};
use softfloat::{Bf16, Float, Fp16, Fp32};

thread_local! {
    static ALLOC_COUNT: Cell<u64> = const { Cell::new(0) };
}

struct CountingAllocator;

// SAFETY: delegates every operation to the system allocator unchanged; the
// only addition is a thread-local counter bump (const-initialized Cell, so
// the TLS access itself never allocates).
unsafe impl GlobalAlloc for CountingAllocator {
    // SAFETY: same layout contract as `System.alloc`, to which this forwards.
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOC_COUNT.with(|c| c.set(c.get() + 1));
        System.alloc(layout)
    }

    // SAFETY: same ptr/layout contract as `System.dealloc`, to which this forwards.
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    // SAFETY: same ptr/layout contract as `System.realloc`, to which this forwards.
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOC_COUNT.with(|c| c.set(c.get() + 1));
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator;

fn allocations() -> u64 {
    ALLOC_COUNT.with(Cell::get)
}

fn assert_hot_path_allocation_free<F: Float>(d: usize, rows: usize) {
    for spec in MethodSpec::REGISTRY {
        for reduce in [ReduceOrder::HwTree, ReduceOrder::Linear] {
            // Setup (may allocate): plan, engine, buffers, method tables.
            let gamma: Vec<F> = (0..d)
                .map(|i| F::from_f64(1.0 + (i % 3) as f64 * 0.5))
                .collect();
            let beta: Vec<F> = (0..d).map(|_| F::from_f64(0.125)).collect();
            let plan = NormPlan::new(d)
                .unwrap()
                .with_reduce(reduce)
                .with_affine(&gamma, &beta)
                .unwrap();
            let mut engine = Normalizer::for_plan(spec.build::<F>(), &plan);
            let flat: Vec<F> = (0..rows * d)
                .map(|i| F::from_f64(((i * 29 % 97) as f64) / 24.0 - 2.0))
                .collect();
            let mut out = vec![F::zero(); flat.len()];
            let mut row = flat[..d].to_vec();

            // Hot path: everything below must allocate nothing.
            let before = allocations();
            for _ in 0..4 {
                engine
                    .normalize_batch(&plan, &flat, &mut out)
                    .expect("batch shape");
                engine
                    .normalize_into(&plan, &flat[..d], &mut row)
                    .expect("row shape");
                engine
                    .normalize_in_place(&plan, &mut row)
                    .expect("row shape");
                engine
                    .normalize_batch_in_place(&plan, &mut out)
                    .expect("batch shape");
            }
            let after = allocations();
            assert_eq!(
                after - before,
                0,
                "{} {} reduce={reduce:?} d={d}: hot path allocated {} times",
                F::NAME,
                spec.label(),
                after - before
            );
        }
    }
}

#[test]
fn hot_path_is_allocation_free_fp32() {
    assert_hot_path_allocation_free::<Fp32>(768, 8);
}

#[test]
fn hot_path_is_allocation_free_fp16() {
    assert_hot_path_allocation_free::<Fp16>(384, 4);
}

#[test]
fn hot_path_is_allocation_free_bf16() {
    assert_hot_path_allocation_free::<Bf16>(129, 3);
}

#[test]
fn warm_native_norm_calls_are_allocation_free_at_every_simd_level() {
    // The serving shapes (one 768 row, 64 × 4096) plus a width with a
    // partial chunk and a partial eight-chunk batch, and a row count
    // that leaves the last block short.
    let levels = [
        SimdLevel::Scalar,
        SimdLevel::Portable,
        SimdLevel::Sse2,
        SimdLevel::Avx2,
    ];
    for (d, rows) in [(768usize, 1usize), (4096, 64), (4097, 9)] {
        let bits: Vec<u32> = (0..rows * d)
            .map(|i| ((i * 29 % 97) as f32 / 24.0 - 2.0).to_bits())
            .collect();
        let gamma: Vec<u32> = (0..d).map(|j| (1.0 + j as f32 * 1e-3).to_bits()).collect();
        let beta: Vec<u32> = (0..d).map(|j| (j as f32 * 1e-4 - 0.5).to_bits()).collect();
        for level in levels {
            for spec in MethodSpec::REGISTRY {
                for reduce in [ReduceOrder::HwTree, ReduceOrder::Linear] {
                    for affine in [false, true] {
                        let (g, b) = if affine {
                            (Some(&gamma[..]), Some(&beta[..]))
                        } else {
                            (None, None)
                        };
                        let mut backend = match build_backend_affine(
                            BackendKind::Native,
                            FormatKind::Fp32,
                            d,
                            &spec,
                            reduce,
                            g,
                            b,
                            level,
                        ) {
                            Ok(backend) => backend,
                            Err(NormError::SimdUnsupported { .. }) => {
                                eprintln!("notice: skipping simd level '{level}' on this host");
                                break;
                            }
                            Err(other) => panic!("building the {level} backend failed: {other}"),
                        };
                        let mut out = vec![0u32; bits.len()];
                        let mut in_place = bits.clone();
                        // Warm-up sizes any scratch the scalar engine keeps.
                        backend
                            .normalize_batch_bits(&bits, &mut out, 1)
                            .expect("batch shape");
                        backend
                            .normalize_in_place(&mut [&mut in_place[..]])
                            .expect("segment shape");
                        let before = allocations();
                        for _ in 0..2 {
                            backend
                                .normalize_batch_bits(&bits, &mut out, 1)
                                .expect("batch shape");
                            backend
                                .normalize_in_place(&mut [&mut in_place[..]])
                                .expect("segment shape");
                        }
                        let after = allocations();
                        assert_eq!(
                            after - before,
                            0,
                            "{level} {} reduce={reduce:?} affine={affine} d={d} rows={rows}: \
                             warm calls allocated {} times",
                            spec.label(),
                            after - before
                        );
                    }
                }
            }
        }
    }
}

#[test]
fn warm_native_whitening_group_calls_are_allocation_free() {
    // The served whitening shape: 256 × 64 groups, T = 5.
    let (m, d) = (256usize, 64usize);
    let bits: Vec<u32> = (0..m * d)
        .map(|i| ((i * 29 % 97) as f32 / 24.0 - 2.0).to_bits())
        .collect();
    let mut out = vec![0u32; bits.len()];
    // Every level the host can build, Auto included.
    for level in SimdLevel::ALL {
        let mut exec = match build_whiten(
            BackendKind::Native,
            FormatKind::Fp32,
            d,
            WhitenSpec::default(),
            level,
        ) {
            Ok(exec) => exec,
            Err(NormError::SimdUnsupported { .. }) => {
                eprintln!("notice: skipping simd level '{level}' on this host");
                continue;
            }
            Err(other) => panic!("building the {level} whitening executor failed: {other}"),
        };
        // Warm-up sizes the scratch buffers.
        exec.whiten_groups(&bits, &mut out, &[m], 1)
            .expect("group shape");
        let before = allocations();
        for _ in 0..2 {
            exec.whiten_groups(&bits, &mut out, &[m], 1)
                .expect("group shape");
            exec.whiten_groups(&bits, &mut out, &[m / 2, m / 2], 1)
                .expect("group shape");
        }
        let after = allocations();
        assert_eq!(
            after - before,
            0,
            "{}: warm group calls allocated {} times",
            exec.label(),
            after - before
        );
    }
}

#[test]
fn one_shot_wrapper_does_allocate_as_documented() {
    // Sanity check that the counter actually observes this thread's
    // allocations: the compatibility wrapper allocates its output Vec.
    let x: Vec<Fp32> = (0..64).map(|i| Fp32::from_f64(i as f64)).collect();
    let before = allocations();
    let z = iterl2norm::layer_norm(
        iterl2norm::LayerNormInputs::unscaled(&x),
        &iterl2norm::IterL2Norm::new(),
    )
    .unwrap();
    let after = allocations();
    assert!(after > before, "counter failed to observe an allocation");
    assert_eq!(z.len(), 64);
}
