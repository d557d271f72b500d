//! Reductions in the exact operation order of the IterL2Norm macro.
//!
//! Floating-point addition is not associative, so the *order* of a reduction
//! changes the result bits. The macro's Add block (paper Fig. 1c) sums a
//! 64-element chunk through eight 8-input L1 adder trees plus one 8-input L2
//! tree; chunk sums land in the partial-sum buffer and are tree-summed again
//! at the end. This module implements that order in software, which is what
//! lets the cycle-accurate simulator and the pure-software pipeline agree
//! *bit-exactly* (see the cross-crate integration tests).
//!
//! The linear (left-to-right) order is provided alongside for ablations of
//! the order sensitivity.

use softfloat::Float;

/// Number of elements the Mul/Add blocks consume per cycle
/// (`n_b · w_b = 8 banks × 8 elements`).
pub const CHUNK: usize = 64;

/// Width of one adder tree (8 inputs).
pub const TREE_WIDTH: usize = 8;

/// Reduction order used for the mean and `m = ‖y‖²` computations.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ReduceOrder {
    /// The macro's chunked adder-tree order (default — matches hardware).
    #[default]
    HwTree,
    /// Plain left-to-right accumulation (software baseline / ablation).
    Linear,
}

/// Sum of up to 8 values through one binary adder tree:
/// `((v₀+v₁)+(v₂+v₃)) + ((v₄+v₅)+(v₆+v₇))`; missing inputs are +0.
///
/// # Examples
///
/// ```
/// use iterl2norm::hworder::tree_sum8;
/// use softfloat::{Float, Fp32};
///
/// let v: Vec<Fp32> = (1..=8).map(|i| Fp32::from_f64(i as f64)).collect();
/// assert_eq!(tree_sum8(&v).to_f64(), 36.0);
/// ```
///
/// # Panics
///
/// Panics if more than [`TREE_WIDTH`] values are passed.
pub fn tree_sum8<F: Float>(values: &[F]) -> F {
    assert!(
        values.len() <= TREE_WIDTH,
        "tree_sum8 takes at most {TREE_WIDTH} inputs, got {}",
        values.len()
    );
    let get = |i: usize| values.get(i).copied().unwrap_or_else(F::zero);
    let l0 = get(0) + get(1);
    let l1 = get(2) + get(3);
    let l2 = get(4) + get(5);
    let l3 = get(6) + get(7);
    (l0 + l1) + (l2 + l3)
}

/// Sum of up to [`CHUNK`] values in the Add block's order: eight L1 trees
/// over consecutive groups of 8, then one L2 tree over the L1 outputs.
///
/// # Panics
///
/// Panics if more than [`CHUNK`] values are passed.
pub fn chunk_sum<F: Float>(values: &[F]) -> F {
    assert!(
        values.len() <= CHUNK,
        "chunk_sum takes at most {CHUNK} inputs, got {}",
        values.len()
    );
    let mut l1 = [F::zero(); TREE_WIDTH];
    for (i, slot) in l1.iter_mut().enumerate() {
        let start = i * TREE_WIDTH;
        if start < values.len() {
            let end = (start + TREE_WIDTH).min(values.len());
            *slot = tree_sum8(&values[start..end]);
        }
    }
    tree_sum8(&l1)
}

/// Fold the partial-sum buffer through 8-input trees until one value
/// remains, in place (no allocation). Bit-identical to repeatedly
/// collecting `chunks(TREE_WIDTH).map(tree_sum8)` into a fresh buffer.
/// Crate-visible as the reference the SIMD kernels' streaming fold
/// (`simd::ChunkFold`) is tested against.
pub(crate) fn fold_partials<F: Float>(partials: &mut Vec<F>) -> F {
    if partials.is_empty() {
        return F::zero();
    }
    while partials.len() > 1 {
        let groups = partials.len().div_ceil(TREE_WIDTH);
        for g in 0..groups {
            let start = g * TREE_WIDTH;
            let end = (start + TREE_WIDTH).min(partials.len());
            let mut tree = [F::zero(); TREE_WIDTH];
            tree[..end - start].copy_from_slice(&partials[start..end]);
            partials[g] = tree_sum8(&tree[..end - start]);
        }
        partials.truncate(groups);
    }
    partials[0]
}

/// Full-vector sum in the macro's order: per-chunk sums collected into the
/// partial-sum buffer, then folded through 8-input trees until one value
/// remains (a 16-entry buffer folds as two trees + one final tree).
///
/// # Examples
///
/// ```
/// use iterl2norm::hworder::hw_sum;
/// use softfloat::{Float, Fp32};
///
/// let v: Vec<Fp32> = (0..100).map(|i| Fp32::from_f64(i as f64)).collect();
/// assert_eq!(hw_sum(&v).to_f64(), 4950.0);
/// ```
pub fn hw_sum<F: Float>(values: &[F]) -> F {
    hw_sum_with(values, &mut Vec::new())
}

/// [`hw_sum`] with a caller-provided partial-sum buffer, so steady-state
/// callers (the [`Normalizer`](crate::Normalizer) hot path) allocate
/// nothing. `scratch` is cleared on entry; capacity `⌈values.len()/64⌉`
/// avoids growth.
pub fn hw_sum_with<F: Float>(values: &[F], scratch: &mut Vec<F>) -> F {
    scratch.clear();
    scratch.extend(values.chunks(CHUNK).map(chunk_sum));
    fold_partials(scratch)
}

/// Full-vector sum of elementwise squares in the macro's order: each chunk
/// passes through the 64-multiplier Mul block, then the Add block, exactly
/// like the `m = ‖y‖²` phase.
pub fn hw_sum_sq<F: Float>(values: &[F]) -> F {
    hw_sum_sq_with(values, &mut Vec::new())
}

/// [`hw_sum_sq`] with a caller-provided partial-sum buffer (see
/// [`hw_sum_with`]). The per-chunk squares live on the stack — the 64
/// registers of the Mul block — so the whole reduction is allocation-free
/// once `scratch` has capacity.
pub fn hw_sum_sq_with<F: Float>(values: &[F], scratch: &mut Vec<F>) -> F {
    scratch.clear();
    scratch.extend(values.chunks(CHUNK).map(|chunk| {
        let mut squared = [F::zero(); CHUNK];
        for (s, &v) in squared.iter_mut().zip(chunk) {
            *s = v * v;
        }
        chunk_sum(&squared[..chunk.len()])
    }));
    fold_partials(scratch)
}

/// Plain left-to-right sum (the software-order ablation).
pub fn linear_sum<F: Float>(values: &[F]) -> F {
    values.iter().fold(F::zero(), |acc, &v| acc + v)
}

/// Plain left-to-right sum of squares.
pub fn linear_sum_sq<F: Float>(values: &[F]) -> F {
    values.iter().fold(F::zero(), |acc, &v| acc + v * v)
}

impl ReduceOrder {
    /// Sum `values` in this order.
    pub fn sum<F: Float>(self, values: &[F]) -> F {
        match self {
            ReduceOrder::HwTree => hw_sum(values),
            ReduceOrder::Linear => linear_sum(values),
        }
    }

    /// Sum the squares of `values` in this order.
    pub fn sum_sq<F: Float>(self, values: &[F]) -> F {
        match self {
            ReduceOrder::HwTree => hw_sum_sq(values),
            ReduceOrder::Linear => linear_sum_sq(values),
        }
    }

    /// [`ReduceOrder::sum`] with a reusable partial-sum buffer (unused by
    /// the linear order). Bit-identical to `sum`.
    pub fn sum_with<F: Float>(self, values: &[F], scratch: &mut Vec<F>) -> F {
        match self {
            ReduceOrder::HwTree => hw_sum_with(values, scratch),
            ReduceOrder::Linear => linear_sum(values),
        }
    }

    /// [`ReduceOrder::sum_sq`] with a reusable partial-sum buffer (unused
    /// by the linear order). Bit-identical to `sum_sq`.
    pub fn sum_sq_with<F: Float>(self, values: &[F], scratch: &mut Vec<F>) -> F {
        match self {
            ReduceOrder::HwTree => hw_sum_sq_with(values, scratch),
            ReduceOrder::Linear => linear_sum_sq(values),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use softfloat::{Fp16, Fp32};

    fn v32(vals: &[f64]) -> Vec<Fp32> {
        vals.iter().map(|&v| Fp32::from_f64(v)).collect()
    }

    #[test]
    fn tree_sum8_handles_short_inputs() {
        assert_eq!(tree_sum8::<Fp32>(&[]).to_f64(), 0.0);
        assert_eq!(tree_sum8(&v32(&[5.0])).to_f64(), 5.0);
        assert_eq!(tree_sum8(&v32(&[1.0, 2.0, 3.0])).to_f64(), 6.0);
    }

    #[test]
    #[should_panic(expected = "at most 8")]
    fn tree_sum8_rejects_oversize() {
        let v = v32(&[0.0; 9]);
        let _ = tree_sum8(&v);
    }

    #[test]
    fn chunk_sum_matches_exact_for_integers() {
        // Integer values up to 64·64 are exactly representable: any order
        // gives the exact sum, so chunk_sum must equal it.
        let v: Vec<Fp32> = (0..64).map(|i| Fp32::from_f64(i as f64)).collect();
        assert_eq!(chunk_sum(&v).to_f64(), (0..64).sum::<i64>() as f64);
        let w: Vec<Fp32> = (0..37).map(|i| Fp32::from_f64(i as f64)).collect();
        assert_eq!(chunk_sum(&w).to_f64(), (0..37).sum::<i64>() as f64);
    }

    #[test]
    fn hw_sum_over_many_chunks_matches_exact_for_integers() {
        for d in [64usize, 65, 128, 384, 1000, 1024] {
            let v: Vec<Fp32> = (0..d).map(|i| Fp32::from_f64((i % 10) as f64)).collect();
            let exact: f64 = (0..d).map(|i| (i % 10) as f64).sum();
            assert_eq!(hw_sum(&v).to_f64(), exact, "d = {d}");
        }
    }

    #[test]
    fn hw_sum_sq_matches_exact_for_small_integers() {
        let v: Vec<Fp32> = (0..200).map(|i| Fp32::from_f64((i % 7) as f64)).collect();
        let exact: f64 = (0..200).map(|i| ((i % 7) * (i % 7)) as f64).sum();
        assert_eq!(hw_sum_sq(&v).to_f64(), exact);
    }

    #[test]
    fn orders_differ_on_rounding_sensitive_input() {
        // 1 + 2⁻²⁴ repeated: linear accumulation loses every tiny addend to
        // rounding once the accumulator is ≥ 2; the tree keeps pairs intact.
        let mut vals = vec![1.0f64];
        vals.extend(std::iter::repeat_n(0.5f64.powi(24), 63));
        let v = v32(&vals);
        let lin = linear_sum(&v).to_f64();
        let tree = hw_sum(&v).to_f64();
        assert_ne!(lin, tree, "expected order sensitivity");
        let exact: f64 = vals.iter().sum();
        assert!((tree - exact).abs() <= (lin - exact).abs());
    }

    #[test]
    fn empty_input_sums_to_zero() {
        assert_eq!(hw_sum::<Fp32>(&[]).to_f64(), 0.0);
        assert_eq!(hw_sum_sq::<Fp32>(&[]).to_f64(), 0.0);
        assert_eq!(linear_sum::<Fp32>(&[]).to_f64(), 0.0);
    }

    #[test]
    fn reduce_order_dispatch() {
        let v = v32(&[1.5, 2.5, -0.5]);
        assert_eq!(ReduceOrder::HwTree.sum(&v).to_f64(), hw_sum(&v).to_f64());
        assert_eq!(
            ReduceOrder::Linear.sum(&v).to_f64(),
            linear_sum(&v).to_f64()
        );
        assert_eq!(
            ReduceOrder::HwTree.sum_sq(&v).to_f64(),
            hw_sum_sq(&v).to_f64()
        );
    }

    #[test]
    fn in_place_fold_matches_collecting_fold_bitwise() {
        // The scratch-reusing fold must reproduce the original
        // collect-into-fresh-buffers fold bit for bit.
        for d in [1usize, 7, 63, 64, 65, 129, 640, 1024, 4097] {
            let v: Vec<Fp32> = (0..d)
                .map(|i| Fp32::from_f64(((i * 37 % 101) as f64) / 17.0 - 2.0))
                .collect();
            let mut partials: Vec<Fp32> = v.chunks(CHUNK).map(chunk_sum).collect();
            while partials.len() > 1 {
                partials = partials.chunks(TREE_WIDTH).map(tree_sum8).collect();
            }
            let reference = partials[0];
            let mut scratch = Vec::new();
            assert_eq!(
                hw_sum_with(&v, &mut scratch).to_bits(),
                reference.to_bits(),
                "d = {d}"
            );
            assert_eq!(hw_sum(&v).to_bits(), reference.to_bits(), "d = {d}");
            // Squares: reference built with a per-chunk temporary Vec.
            let mut sq_partials: Vec<Fp32> = v
                .chunks(CHUNK)
                .map(|chunk| {
                    let squared: Vec<Fp32> = chunk.iter().map(|&x| x * x).collect();
                    chunk_sum(&squared)
                })
                .collect();
            while sq_partials.len() > 1 {
                sq_partials = sq_partials.chunks(TREE_WIDTH).map(tree_sum8).collect();
            }
            assert_eq!(
                hw_sum_sq_with(&v, &mut scratch).to_bits(),
                sq_partials[0].to_bits(),
                "d = {d}"
            );
        }
    }

    #[test]
    fn scratch_capacity_is_reused_across_calls() {
        let v: Vec<Fp32> = (0..1024).map(|i| Fp32::from_f64(i as f64)).collect();
        let mut scratch = Vec::with_capacity(1024usize.div_ceil(CHUNK));
        let first = hw_sum_with(&v, &mut scratch);
        let cap = scratch.capacity();
        for _ in 0..10 {
            assert_eq!(hw_sum_with(&v, &mut scratch).to_bits(), first.to_bits());
        }
        assert_eq!(scratch.capacity(), cap, "scratch grew unexpectedly");
    }

    #[test]
    fn partial_fold_handles_sixteen_chunks() {
        // d = 1024 → 16 partial sums → two tree passes.
        let v: Vec<Fp16> = (0..1024)
            .map(|i| Fp16::from_f64(((i % 3) as f64) - 1.0))
            .collect();
        let exact: f64 = (0..1024).map(|i| ((i % 3) as f64) - 1.0).sum();
        // Values are in {−1, 0, 1}: all partial sums are small integers, so
        // the fp16 result is exact in any order.
        assert_eq!(hw_sum(&v).to_f64(), exact);
    }
}
