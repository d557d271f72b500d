//! The decoder-only model: weights, forward pass and perplexity.
//!
//! Normalization runs through the core crate's type-erased serving API:
//! weight materialization registers every LayerNorm location (γ₁/β₁,
//! γ₂/β₂ per layer, plus the final norm) as a *site* in one shared
//! `NormServicePool` (this crate's `pool` module), and each forward pass
//! submits rows to the pool's cached [`NormService`]s — the same service
//! objects are reused across forward calls and across the threads of
//! [`Model::perplexity_threaded`], so concurrent evaluation shares one
//! plan, one scratch pool and one backend per norm site (and requests may
//! be micro-batched together — bit-identical either way). The final norm
//! is **pipelined**: each position's final-norm request is submitted
//! asynchronously ([`NormService::submit_async`]) and collected one
//! position later, after the next layer stack has run, so the head
//! projection is off the next position's critical path. When the site's
//! shard is idle (one forward pass alone), the norm runs inline inside
//! `submit_async` and the ticket comes back complete — one row's norm
//! is cheaper than handing it to another thread. When concurrent
//! windows keep the shard busy, the ticket queues and the site's
//! resident shard driver executes it *while* the next layer stack runs
//! on this thread, batching it with the other windows' final norms
//! (output bits identical either way, like every serving knob). The honest
//! trade vs the old typed per-worker engines: concurrent workers'
//! norm submissions serialize (or batch) on each site's shared backend.
//! That is acceptable here because the matvecs around every norm dominate
//! per-token cost by a factor of `d_model`. Should a profile ever say
//! otherwise, the serving layer now supports sharding each service across
//! independent backend replicas (`ServiceConfig::with_shards` on the pool
//! template — output bits are shard-independent, so the model's
//! bit-identity guarantees are unaffected); the model keeps the
//! single-shard default because its submissions are one row at a time
//! between dominant matvecs, where extra shards only add placement
//! overhead.
//!
//! The execution backend follows the format parameter through
//! [`ExecFloat`]: `Model<Fp32>` serves its norms from the softfloat
//! emulator, while `Model<softfloat::HostF32>` uses the native-f32
//! backend and runs the identical operation sequence on the host FPU —
//! bit-identical logits at native speed (see the
//! `native_f32_model_matches_emulated_bitwise` test).

use std::sync::Arc;

use iterl2norm::service::{NormRequest, NormService, NormTicket, ServiceConfig};
use iterl2norm::{ExecFloat, ReduceOrder};
use softfloat::Float;

use crate::config::{NormPlacement, TransformerConfig};
use crate::norm::NormMethod;
use crate::pool::NormServicePool;
use crate::tensor::{add, dot, Matrix};

/// Master weights in `f64`, format-agnostic. Materialize per format with
/// [`Model::from_spec`]. Constructed by [`ModelSpec::random`] or
/// [`ModelSpec::bigram`] (see `init.rs`).
#[derive(Debug, Clone)]
pub struct ModelSpec {
    /// Architecture hyperparameters.
    pub config: TransformerConfig,
    pub(crate) w: WeightsF64,
}

#[derive(Debug, Clone)]
pub(crate) struct WeightsF64 {
    pub(crate) embed: Vec<f64>,
    pub(crate) pos: Vec<f64>,
    pub(crate) layers: Vec<LayerF64>,
    pub(crate) final_gamma: Vec<f64>,
    pub(crate) final_beta: Vec<f64>,
    pub(crate) head: Vec<f64>,
    pub(crate) head_bias: Vec<f64>,
}

#[derive(Debug, Clone)]
pub(crate) struct LayerF64 {
    pub(crate) wq: Vec<f64>,
    pub(crate) wk: Vec<f64>,
    pub(crate) wv: Vec<f64>,
    pub(crate) wo: Vec<f64>,
    pub(crate) bq: Vec<f64>,
    pub(crate) bk: Vec<f64>,
    pub(crate) bv: Vec<f64>,
    pub(crate) bo: Vec<f64>,
    pub(crate) ln1_gamma: Vec<f64>,
    pub(crate) ln1_beta: Vec<f64>,
    pub(crate) ln2_gamma: Vec<f64>,
    pub(crate) ln2_beta: Vec<f64>,
    pub(crate) w1: Vec<f64>,
    pub(crate) b1: Vec<f64>,
    pub(crate) w2: Vec<f64>,
    pub(crate) b2: Vec<f64>,
}

struct Layer<F> {
    wq: Matrix<F>,
    wk: Matrix<F>,
    wv: Matrix<F>,
    wo: Matrix<F>,
    bq: Vec<F>,
    bk: Vec<F>,
    bv: Vec<F>,
    bo: Vec<F>,
    /// Pool site of the attention-side LayerNorm (owns γ₁/β₁).
    ln1: usize,
    /// Pool site of the feed-forward-side LayerNorm (owns γ₂/β₂).
    ln2: usize,
    w1: Matrix<F>,
    b1: Vec<F>,
    w2: Matrix<F>,
    b2: Vec<F>,
}

/// A decoder materialized in format `F` — every matrix product and residual
/// add runs in `F` arithmetic (like running OPT under the corresponding
/// torch dtype); softmax/exp/log run on the host.
///
/// See the crate docs for an end-to-end example.
pub struct Model<F> {
    config: TransformerConfig,
    embed: Matrix<F>,
    pos: Matrix<F>,
    layers: Vec<Layer<F>>,
    /// One service pool over the `d_model` shape: every LayerNorm site
    /// (2 per layer + the final norm) registers its γ/β here, and forward
    /// passes fetch shared, lazily built services per method.
    norm_pool: NormServicePool,
    /// Pool site of the final LayerNorm (owns the final γ/β).
    final_site: usize,
    head: Matrix<F>,
    head_bias: Vec<F>,
}

fn fv<F: Float>(v: &[f64]) -> Vec<F> {
    v.iter().map(|&x| F::from_f64(x)).collect()
}

/// Round f64 master parameters into `F` and re-tag as storage bits — the
/// type-erased currency the service pool speaks. The round trip is exact,
/// so the pool's plans hold exactly the values the typed path held.
fn bits_of<F: Float>(v: &[f64]) -> Vec<u32> {
    v.iter().map(|&x| F::from_f64(x).to_bits()).collect()
}

/// Normalize one `d_model` row through a shared service: encode to bits,
/// submit (possibly coalesced with rows from concurrent forward calls —
/// bit-identical either way), decode into `out`. Both bit buffers are
/// reused across calls, and `submit_into` writes into the caller's buffer,
/// so the uncontended per-LayerNorm path stays allocation-free.
fn norm_row<F: Float>(
    service: &NormService,
    x: &[F],
    bits_buf: &mut Vec<u32>,
    out_bits: &mut Vec<u32>,
    out: &mut [F],
) {
    bits_buf.clear();
    bits_buf.extend(x.iter().map(|v| v.to_bits()));
    out_bits.clear();
    out_bits.resize(x.len(), 0);
    service
        .submit_into(NormRequest::bits(bits_buf), out_bits)
        .expect("norm wiring: x matches d_model and gamma/beta lengths match");
    for (slot, &b) in out.iter_mut().zip(out_bits.iter()) {
        *slot = F::from_bits(b);
    }
}

impl<F: ExecFloat> Model<F> {
    /// Round the master weights into format `F`.
    pub fn from_spec(spec: &ModelSpec) -> Self {
        let c = spec.config;
        let d = c.d_model;
        // The model has always reduced in linear order (the software
        // baseline); the pool template bakes that in, and `ExecFloat`
        // routes HostF32 models onto the native-f32 backend.
        let mut pool = NormServicePool::new(
            ServiceConfig::new(d)
                .with_format(F::FORMAT)
                .with_backend(F::BACKEND)
                .with_reduce(ReduceOrder::Linear),
        );
        let layers = spec
            .w
            .layers
            .iter()
            .map(|l| Layer {
                wq: Matrix::from_f64(d, d, &l.wq),
                wk: Matrix::from_f64(d, d, &l.wk),
                wv: Matrix::from_f64(d, d, &l.wv),
                wo: Matrix::from_f64(d, d, &l.wo),
                bq: fv(&l.bq),
                bk: fv(&l.bk),
                bv: fv(&l.bv),
                bo: fv(&l.bo),
                ln1: pool.add_site(
                    Some(&bits_of::<F>(&l.ln1_gamma)),
                    Some(&bits_of::<F>(&l.ln1_beta)),
                ),
                ln2: pool.add_site(
                    Some(&bits_of::<F>(&l.ln2_gamma)),
                    Some(&bits_of::<F>(&l.ln2_beta)),
                ),
                w1: Matrix::from_f64(c.d_ff, d, &l.w1),
                b1: fv(&l.b1),
                w2: Matrix::from_f64(d, c.d_ff, &l.w2),
                b2: fv(&l.b2),
            })
            .collect();
        let final_site = pool.add_site(
            Some(&bits_of::<F>(&spec.w.final_gamma)),
            Some(&bits_of::<F>(&spec.w.final_beta)),
        );
        Model {
            config: c,
            embed: Matrix::from_f64(c.vocab, d, &spec.w.embed),
            pos: Matrix::from_f64(c.max_seq, d, &spec.w.pos),
            layers,
            norm_pool: pool,
            final_site,
            head: Matrix::from_f64(c.vocab, d, &spec.w.head),
            head_bias: fv(&spec.w.head_bias),
        }
    }

    /// The architecture configuration.
    pub fn config(&self) -> TransformerConfig {
        self.config
    }

    /// Teacher-forced forward pass: logits (length `vocab`) at every
    /// position of `tokens`.
    ///
    /// # Panics
    ///
    /// Panics if `tokens` is longer than `max_seq` or contains an id ≥
    /// `vocab`.
    pub fn forward(&self, tokens: &[u16], norm: &NormMethod) -> Vec<Vec<F>> {
        let c = &self.config;
        assert!(
            tokens.len() <= c.max_seq,
            "sequence length {} exceeds max_seq {}",
            tokens.len(),
            c.max_seq
        );
        let n_heads = c.n_heads;
        let dh = c.head_dim();
        let inv_sqrt_dh = F::from_f64(1.0 / (dh as f64).sqrt());

        // Fetch the shared per-site services for this method once per
        // forward pass; the pool caches them, so repeated forward calls
        // (and concurrent perplexity windows) reuse the same objects. The
        // normalized-row and bit buffers are reused across every layer
        // and position.
        let spec = norm.spec();
        let fetch = |site: usize| -> Arc<NormService> {
            self.norm_pool
                .service(site, &spec)
                .expect("norm wiring: gamma/beta lengths match d_model")
        };
        let services: Vec<(Arc<NormService>, Arc<NormService>)> = self
            .layers
            .iter()
            .map(|layer| (fetch(layer.ln1), fetch(layer.ln2)))
            .collect();
        let final_service = fetch(self.final_site);
        let mut norm_buf = vec![F::zero(); c.d_model];
        let mut bits_buf: Vec<u32> = Vec::with_capacity(c.d_model);
        let mut out_bits: Vec<u32> = Vec::with_capacity(c.d_model);

        // Per-layer KV caches: keys[layer][pos] is a d_model vector.
        let mut keys: Vec<Vec<Vec<F>>> = vec![Vec::new(); c.n_layers];
        let mut values: Vec<Vec<Vec<F>>> = vec![Vec::new(); c.n_layers];
        let mut logits_out = Vec::with_capacity(tokens.len());
        // The previous position's final norm, submitted asynchronously:
        // its head projection is off the next position's critical path
        // (the KV caches never see it), so the ticket rides through the
        // next layer stack before being collected. The site's resident
        // shard driver executes it meanwhile — alongside other threads'
        // requests under concurrent evaluation (threaded perplexity
        // windows sharing this model's services), alone otherwise —
        // and wait() at collect time only parks if the round is still
        // in flight. Bit-identical either way.
        let mut pending_final: Option<NormTicket> = None;

        for (pos, &tok) in tokens.iter().enumerate() {
            assert!((tok as usize) < c.vocab, "token id {tok} out of vocab");
            let mut x = add(self.embed.row(tok as usize), self.pos.row(pos));

            for (li, layer) in self.layers.iter().enumerate() {
                let (ln1_service, ln2_service) = &services[li];
                // --- Attention sub-block.
                let attn_in: &[F] = match c.placement {
                    NormPlacement::Pre => {
                        norm_row(ln1_service, &x, &mut bits_buf, &mut out_bits, &mut norm_buf);
                        &norm_buf
                    }
                    NormPlacement::Post => &x,
                };
                let q = layer.wq.matvec_bias(attn_in, &layer.bq);
                let k = layer.wk.matvec_bias(attn_in, &layer.bk);
                let v = layer.wv.matvec_bias(attn_in, &layer.bv);
                keys[li].push(k);
                values[li].push(v);

                let mut ctx = vec![F::zero(); c.d_model];
                for h in 0..n_heads {
                    let lo = h * dh;
                    let hi = lo + dh;
                    let qh = &q[lo..hi];
                    // Scores against every cached position (causal).
                    let scores: Vec<f64> = keys[li]
                        .iter()
                        .map(|kp| (dot(qh, &kp[lo..hi]) * inv_sqrt_dh).to_f64())
                        .collect();
                    // Host softmax (stable).
                    let max = scores.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
                    let exps: Vec<f64> = scores.iter().map(|s| (s - max).exp()).collect();
                    let z: f64 = exps.iter().sum();
                    // Weighted sum of cached V in format arithmetic.
                    for (p, w) in exps.iter().enumerate() {
                        let weight = F::from_f64(w / z);
                        let vp = &values[li][p][lo..hi];
                        for (slot, &vv) in ctx[lo..hi].iter_mut().zip(vp) {
                            *slot = *slot + weight * vv;
                        }
                    }
                }
                let attn_out = layer.wo.matvec_bias(&ctx, &layer.bo);
                x = add(&x, &attn_out);
                if c.placement == NormPlacement::Post {
                    norm_row(ln1_service, &x, &mut bits_buf, &mut out_bits, &mut norm_buf);
                    std::mem::swap(&mut x, &mut norm_buf);
                }

                // --- Feed-forward sub-block (ReLU, as in OPT).
                let ffn_in: &[F] = match c.placement {
                    NormPlacement::Pre => {
                        norm_row(ln2_service, &x, &mut bits_buf, &mut out_bits, &mut norm_buf);
                        &norm_buf
                    }
                    NormPlacement::Post => &x,
                };
                let mut h1 = layer.w1.matvec_bias(ffn_in, &layer.b1);
                for hv in h1.iter_mut() {
                    if hv.is_sign_negative() && !hv.is_zero() {
                        *hv = F::zero();
                    }
                }
                let ffn_out = layer.w2.matvec_bias(&h1, &layer.b2);
                x = add(&x, &ffn_out);
                if c.placement == NormPlacement::Post {
                    norm_row(ln2_service, &x, &mut bits_buf, &mut out_bits, &mut norm_buf);
                    std::mem::swap(&mut x, &mut norm_buf);
                }
            }

            // Collect the previous position's final norm (in order, so
            // logits_out stays position-aligned) before pre-submitting
            // this position's.
            if let Some(ticket) = pending_final.take() {
                logits_out.push(self.collect_final(ticket, &mut norm_buf));
            }
            bits_buf.clear();
            bits_buf.extend(x.iter().map(|v| v.to_bits()));
            // submit_async is done with the payload when it returns (it
            // ran inline, or encoded a queued copy), so bits_buf is free
            // for the next position immediately.
            pending_final = Some(
                final_service
                    .submit_async(NormRequest::bits(&bits_buf))
                    .expect("norm wiring: x matches d_model and gamma/beta lengths match"),
            );
        }
        if let Some(ticket) = pending_final.take() {
            logits_out.push(self.collect_final(ticket, &mut norm_buf));
        }
        logits_out
    }

    /// Join a pre-submitted final-norm ticket and project it through the
    /// output head. Decoding reuses the forward pass's norm buffer.
    fn collect_final(&self, mut ticket: NormTicket, norm_buf: &mut [F]) -> Vec<F> {
        let response = ticket
            .wait()
            .expect("norm wiring: the final-norm service outlives the forward pass");
        for (slot, &b) in norm_buf.iter_mut().zip(response.bits()) {
            *slot = F::from_bits(b);
        }
        self.head.matvec_bias(norm_buf, &self.head_bias)
    }

    /// Negative log-likelihood subtotal of one window: `(Σ nll, predicted)`
    /// over positions 1.. of `window`. The per-window grouping is the unit
    /// both the serial and the threaded perplexity paths fold over, which
    /// is what makes their final `f64` bit-identical.
    fn window_nll(&self, window: &[u16], norm: &NormMethod) -> (f64, usize) {
        let logits = self.forward(window, norm);
        let mut nll = 0.0;
        let mut predicted = 0usize;
        for (p, &target) in window.iter().enumerate().skip(1) {
            let row: Vec<f64> = logits[p - 1].iter().map(|v| v.to_f64()).collect();
            let max = row.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
            let z: f64 = row.iter().map(|v| (v - max).exp()).sum();
            nll -= row[target as usize] - max - z.ln();
            predicted += 1;
        }
        (nll, predicted)
    }

    /// Teacher-forced perplexity of `tokens` under this model: `exp` of the
    /// mean next-token negative log-likelihood. Sequences longer than
    /// `max_seq` are evaluated in non-overlapping windows.
    ///
    /// The host-`f64` accumulation folds per-window subtotals (the same
    /// grouping the threaded path uses). Note for multi-window inputs this
    /// re-associates the sum relative to the pre-backend-layer
    /// implementation's single running accumulator, so perplexities can
    /// differ from that old code in the last ulp — the format-arithmetic
    /// logits themselves are untouched.
    ///
    /// # Panics
    ///
    /// Panics if fewer than 2 tokens are supplied.
    pub fn perplexity(&self, tokens: &[u16], norm: &NormMethod) -> f64 {
        self.perplexity_threaded(tokens, norm, 1)
            .expect("one thread is always a valid configuration")
    }

    /// [`perplexity`](Model::perplexity) with the non-overlapping windows
    /// partitioned across up to `threads` scoped worker threads. Windows
    /// are independent forward passes and the per-window subtotals are
    /// folded in window order, so the result is **bit-identical** to the
    /// serial call for every thread count.
    ///
    /// # Errors
    ///
    /// [`NormError`](iterl2norm::NormError)`::ZeroThreads` when
    /// `threads == 0`.
    ///
    /// # Panics
    ///
    /// Panics if fewer than 2 tokens are supplied.
    pub fn perplexity_threaded(
        &self,
        tokens: &[u16],
        norm: &NormMethod,
        threads: usize,
    ) -> Result<f64, iterl2norm::NormError> {
        assert!(tokens.len() >= 2, "perplexity needs at least two tokens");
        if threads == 0 {
            return Err(iterl2norm::NormError::ZeroThreads);
        }
        let windows: Vec<&[u16]> = tokens
            .chunks(self.config.max_seq)
            .filter(|w| w.len() >= 2)
            .collect();
        let mut subtotals = vec![(0.0f64, 0usize); windows.len()];
        let workers = threads.min(windows.len());
        if workers <= 1 {
            for (slot, window) in subtotals.iter_mut().zip(&windows) {
                *slot = self.window_nll(window, norm);
            }
        } else {
            let per_worker = windows.len().div_ceil(workers);
            std::thread::scope(|scope| {
                for (window_chunk, slot_chunk) in windows
                    .chunks(per_worker)
                    .zip(subtotals.chunks_mut(per_worker))
                {
                    scope.spawn(move || {
                        for (slot, window) in slot_chunk.iter_mut().zip(window_chunk) {
                            *slot = self.window_nll(window, norm);
                        }
                    });
                }
            });
        }
        let (mut nll, mut predicted) = (0.0f64, 0usize);
        for (n, p) in subtotals {
            nll += n;
            predicted += p;
        }
        Ok((nll / predicted as f64).exp())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use softfloat::{Bf16, Fp16, Fp32};

    fn tiny_model() -> Model<Fp32> {
        let spec = ModelSpec::random(TransformerConfig::tiny(24), 3);
        Model::from_spec(&spec)
    }

    #[test]
    fn forward_shapes() {
        let m = tiny_model();
        let logits = m.forward(&[1, 2, 3, 4], &NormMethod::exact());
        assert_eq!(logits.len(), 4);
        assert!(logits.iter().all(|row| row.len() == 24));
    }

    #[test]
    fn forward_is_deterministic() {
        let m = tiny_model();
        let a = m.forward(&[5, 6, 7], &NormMethod::exact());
        let b = m.forward(&[5, 6, 7], &NormMethod::exact());
        for (ra, rb) in a.iter().zip(&b) {
            for (x, y) in ra.iter().zip(rb) {
                assert_eq!(x.to_bits(), y.to_bits());
            }
        }
    }

    #[test]
    fn causality_prefix_invariance() {
        // Logits at position p must not depend on tokens after p.
        let m = tiny_model();
        let full = m.forward(&[3, 1, 4, 1, 5], &NormMethod::exact());
        let prefix = m.forward(&[3, 1, 4], &NormMethod::exact());
        for (a, b) in full[..3].iter().zip(&prefix) {
            for (x, y) in a.iter().zip(b) {
                assert_eq!(x.to_bits(), y.to_bits(), "causality violated");
            }
        }
    }

    #[test]
    #[should_panic(expected = "exceeds max_seq")]
    fn over_length_rejected() {
        let m = tiny_model();
        let long = vec![0u16; 65];
        let _ = m.forward(&long, &NormMethod::exact());
    }

    #[test]
    #[should_panic(expected = "out of vocab")]
    fn out_of_vocab_rejected() {
        let m = tiny_model();
        let _ = m.forward(&[99], &NormMethod::exact());
    }

    #[test]
    fn perplexity_is_positive_and_bounded_by_vocab_scale() {
        let m = tiny_model();
        let tokens: Vec<u16> = (0..120).map(|i| (i * 7 % 24) as u16).collect();
        let ppl = m.perplexity(&tokens, &NormMethod::exact());
        assert!(ppl > 1.0, "ppl {ppl}");
        assert!(ppl < 1000.0, "ppl {ppl} absurd for vocab 24");
    }

    #[test]
    fn iterl2_ppl_converges_to_baseline_with_steps() {
        // The Table IV shape: |ppl(n) − ppl(baseline)| shrinks as n grows.
        let m = tiny_model();
        let tokens: Vec<u16> = (0..60).map(|i| (i * 5 % 24) as u16).collect();
        let base = m.perplexity(&tokens, &NormMethod::exact());
        let d3 = (m.perplexity(&tokens, &NormMethod::iterl2(3)) - base).abs();
        let d10 = (m.perplexity(&tokens, &NormMethod::iterl2(10)) - base).abs();
        assert!(
            d10 <= d3 + 1e-9,
            "delta at 10 steps ({d10}) above delta at 3 steps ({d3})"
        );
        assert!(d10 / base < 0.02, "10-step delta {d10} too large");
    }

    #[test]
    fn runs_in_all_three_formats() {
        let spec = ModelSpec::random(TransformerConfig::tiny(16), 11);
        let tokens: Vec<u16> = (0..40).map(|i| (i % 16) as u16).collect();
        let p32 = Model::<Fp32>::from_spec(&spec).perplexity(&tokens, &NormMethod::exact());
        let p16 = Model::<Fp16>::from_spec(&spec).perplexity(&tokens, &NormMethod::exact());
        let pbf = Model::<Bf16>::from_spec(&spec).perplexity(&tokens, &NormMethod::exact());
        // Same model, coarser formats: perplexities near the FP32 value.
        assert!((p16 - p32).abs() / p32 < 0.3, "fp16 {p16} vs fp32 {p32}");
        assert!((pbf - p32).abs() / p32 < 0.5, "bf16 {pbf} vs fp32 {p32}");
    }

    #[test]
    fn windowing_long_sequences() {
        let m = tiny_model(); // max_seq 64
        let tokens: Vec<u16> = (0..200).map(|i| (i % 24) as u16).collect();
        let ppl = m.perplexity(&tokens, &NormMethod::exact());
        assert!(ppl.is_finite() && ppl > 1.0);
    }

    #[test]
    #[should_panic(expected = "at least two tokens")]
    fn single_token_ppl_rejected() {
        let m = tiny_model();
        let _ = m.perplexity(&[1], &NormMethod::exact());
    }

    #[test]
    fn native_f32_model_matches_emulated_bitwise() {
        // The native backend end to end: the same master weights
        // materialized as Model<HostF32> must produce logits bit-identical
        // to Model<Fp32> — every matvec, residual add, softmax weight and
        // cached-plan LayerNorm included.
        use softfloat::HostF32;
        let spec = ModelSpec::random(TransformerConfig::tiny(20), 7);
        let emulated = Model::<Fp32>::from_spec(&spec);
        let native = Model::<HostF32>::from_spec(&spec);
        let tokens: Vec<u16> = (0..30).map(|i| (i * 3 % 20) as u16).collect();
        for method in [
            NormMethod::exact(),
            NormMethod::iterl2(5),
            NormMethod::fisr(),
        ] {
            let le = emulated.forward(&tokens, &method);
            let ln = native.forward(&tokens, &method);
            for (re, rn) in le.iter().zip(&ln) {
                for (a, b) in re.iter().zip(rn) {
                    assert_eq!(a.to_bits(), b.to_bits(), "{}", method.label());
                }
            }
            // Perplexity (an f64 fold over those logits) follows.
            let pe = emulated.perplexity(&tokens, &method);
            let pn = native.perplexity(&tokens, &method);
            assert_eq!(pe.to_bits(), pn.to_bits(), "{}", method.label());
        }
    }

    #[test]
    fn threaded_perplexity_is_bit_identical_to_serial() {
        let m = tiny_model(); // max_seq 64
        let tokens: Vec<u16> = (0..300).map(|i| (i * 7 % 24) as u16).collect();
        let serial = m.perplexity(&tokens, &NormMethod::iterl2(5));
        for threads in [1usize, 2, 3, 8] {
            let threaded = m
                .perplexity_threaded(&tokens, &NormMethod::iterl2(5), threads)
                .unwrap();
            assert_eq!(serial.to_bits(), threaded.to_bits(), "threads={threads}");
        }
        assert_eq!(
            m.perplexity_threaded(&tokens, &NormMethod::iterl2(5), 0)
                .unwrap_err(),
            iterl2norm::NormError::ZeroThreads
        );
    }
}
