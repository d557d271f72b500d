//! Request payloads made from the seed, the served configuration, and the
//! expected outputs every reply is checked against bit for bit.
//!
//! Expected outputs come from the emulated soft-float backend — the
//! workspace's reference oracle — and are computed once, before any
//! timing starts. The served native backend must reproduce them exactly.

use iterl2norm::{
    build_backend, build_whiten, BackendKind, FormatKind, GroupMode, MethodSpec, Placement,
    ReduceOrder, ServiceConfig, SimdLevel, WhitenSpec,
};

use crate::stats::Rng;

/// Worker threads the oracle precompute may use.
const ORACLE_THREADS: usize = 2;

/// What a deployment must set, and nothing more: every executor knob
/// (window, adaptive, coalescing, buffer pool, shard threads) stays at
/// its default, so a later change to a default is measured by this
/// unchanged code.
pub fn served_config(d: usize) -> ServiceConfig {
    ServiceConfig::new(d)
        .with_backend(BackendKind::Native)
        .with_format(FormatKind::Fp32)
        .with_method(MethodSpec::iterl2(5))
        .with_shards(2)
        .with_placement(Placement::RequestHash)
}

/// The whitening group shape: d = 64 features, m = 256 samples.
pub const WHITEN_D: usize = 64;
pub const WHITEN_M: usize = 256;

/// IterNorm whitening with `T = 5` Newton–Schulz steps on centered
/// groups of `m ≥ d` samples.
pub fn whiten_spec() -> WhitenSpec {
    WhitenSpec::new()
        .with_t(5)
        .with_group_mode(GroupMode::Center)
}

/// Paper-style Uniform(−1, 1) inputs as FP32 storage bits.
pub fn random_bits(rng: &mut Rng, len: usize) -> Vec<u32> {
    (0..len)
        .map(|_| ((rng.unit() * 2.0 - 1.0) as f32).to_bits())
        .collect()
}

/// A pool of payloads of one shape with their oracle outputs.
#[derive(Debug)]
pub struct Pool {
    pub d: usize,
    /// Rows per payload (`m` for a whitening group).
    pub rows: usize,
    pub inputs: Vec<Vec<u32>>,
    /// Empty when the pool is only fed to a direct layer call.
    pub expected: Vec<Vec<u32>>,
}

impl Pool {
    /// `count` normalization payloads of `rows × d`.
    pub fn norm(rng: &mut Rng, d: usize, rows: usize, count: usize) -> Result<Pool, String> {
        let inputs: Vec<Vec<u32>> = (0..count).map(|_| random_bits(rng, rows * d)).collect();
        let mut oracle = build_backend(
            BackendKind::Emulated,
            FormatKind::Fp32,
            d,
            &MethodSpec::iterl2(5),
            ReduceOrder::default(),
        )
        .map_err(|e| format!("oracle backend: {e}"))?;
        let mut expected = Vec::with_capacity(count);
        for input in &inputs {
            let mut out = vec![0; input.len()];
            oracle
                .normalize_batch_bits(input, &mut out, ORACLE_THREADS)
                .map_err(|e| format!("oracle normalize: {e}"))?;
            expected.push(out);
        }
        Ok(Pool {
            d,
            rows,
            inputs,
            expected,
        })
    }

    /// `count` whitening groups of `m × d`; the oracle runs only when
    /// `with_oracle` is set (soft-float whitening of one 256 × 64 group
    /// takes a few tenths of a second).
    pub fn whiten(
        rng: &mut Rng,
        d: usize,
        m: usize,
        count: usize,
        with_oracle: bool,
    ) -> Result<Pool, String> {
        let inputs: Vec<Vec<u32>> = (0..count).map(|_| random_bits(rng, m * d)).collect();
        let mut expected = Vec::new();
        if with_oracle {
            let mut oracle = build_whiten(
                BackendKind::Emulated,
                FormatKind::Fp32,
                d,
                whiten_spec(),
                SimdLevel::Auto,
            )
            .map_err(|e| format!("oracle whiten: {e}"))?;
            for input in &inputs {
                let mut out = vec![0; input.len()];
                oracle
                    .whiten_groups(input, &mut out, &[m], ORACLE_THREADS)
                    .map_err(|e| format!("oracle whiten: {e}"))?;
                expected.push(out);
            }
        }
        Ok(Pool {
            d,
            rows: m,
            inputs,
            expected,
        })
    }

    pub fn len(&self) -> usize {
        self.inputs.len()
    }

    /// Whether `got` is bit-identical to the oracle's output for payload
    /// `idx`. Anything else — one flipped bit, a short reply — fails.
    pub fn check(&self, idx: usize, got: &[u32]) -> bool {
        self.expected.get(idx).is_some_and(|want| want == got)
    }
}

/// The outcome counts every workload reports.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
}

impl Tally {
    /// Count one request: it fails unless it returned bits that match.
    pub fn record(&mut self, ok: bool) {
        self.attempted += 1;
        self.failed += u64::from(!ok);
    }

    pub fn add(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn one_flipped_bit_counts_the_reply_as_failed() {
        let mut rng = Rng::new(3);
        let pool = Pool::norm(&mut rng, 64, 2, 2).unwrap();
        let service = served_config(64).build().unwrap();
        let mut tally = Tally::default();
        for idx in 0..pool.len() {
            let reply = service
                .submit(iterl2norm::NormRequest::bits(&pool.inputs[idx]))
                .unwrap();
            tally.record(pool.check(idx, reply.bits()));
            let mut flipped = reply.bits().to_vec();
            flipped[idx * 17] ^= 1;
            tally.record(pool.check(idx, &flipped));
        }
        tally.record(pool.check(0, &pool.expected[0][1..]));
        assert_eq!(
            tally,
            Tally {
                attempted: 5,
                failed: 3
            }
        );
    }

    #[test]
    fn inputs_follow_the_seed() {
        let a = random_bits(&mut Rng::new(11), 32);
        assert_eq!(a, random_bits(&mut Rng::new(11), 32));
        assert_ne!(a, random_bits(&mut Rng::new(12), 32));
    }
}
