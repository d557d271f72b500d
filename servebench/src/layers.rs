//! The traced run's per-layer measurements, taken from the benchmark's
//! own files: each layer's public entry point is called and timed from
//! outside, and nothing is added inside the program.
//!
//! Three sources feed the per-layer metrics:
//! * direct calls to the native `NormBackend` and `WhitenExec` on the
//!   workload's payloads (kernel and whitening cost with no service);
//! * a replay of a sample of the workload, one request at a time, first
//!   over the wire and then through the layers in the order the server
//!   calls them: `protocol::decode_body`, `Admission::admit`,
//!   `NormService::submit_async` + `wait`, `protocol::encode_frame`;
//! * `ServiceStats` deltas around the traced load phase.

use std::hint::black_box;
use std::io::{BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

use iterl2norm::{
    build_backend_simd, build_whiten, BackendKind, FormatKind, MethodSpec, NormRequest,
    NormService, Priority, ReduceOrder, ServiceStats, SimdLevel,
};
use normserver::admission::{Admission, Decision};
use normserver::protocol::{
    decode_body, encode_frame, read_frame, Frame, RequestFrame, ResponseFrame,
};

use crate::oracle::{whiten_spec, Pool, WHITEN_D, WHITEN_M};
use crate::report::{metric, Metric, Report};
use crate::stats::{median, ns, percentile, wait_until, Hist, Rng};

/// Direct kernel calls cycle through the pool for at least this long, so
/// each payload is as cold in cache as it is under the workload.
const KERNEL_SPAN: Duration = Duration::from_millis(20);

/// Direct native kernel cost per call, one entry per payload of `pool`
/// (its median over rounds), plus the SIMD level the backend resolved to.
pub fn kernel_per_payload(pool: &Pool) -> Result<(Vec<f64>, SimdLevel), String> {
    let mut backend = build_backend_simd(
        BackendKind::Native,
        FormatKind::Fp32,
        pool.d,
        &MethodSpec::iterl2(5),
        ReduceOrder::default(),
        SimdLevel::Auto,
    )
    .map_err(|e| format!("native backend: {e}"))?;
    let mut out = vec![0u32; pool.rows * pool.d];
    let mut run = |input: &[u32], out: &mut [u32]| {
        backend
            .normalize_batch_bits(black_box(input), out, 1)
            .map_err(|e| format!("direct kernel call: {e}"))
    };
    let mut rounds: Vec<Vec<f64>> = vec![Vec::new(); pool.len()];
    let start = Instant::now();
    while rounds[0].len() < 3 || start.elapsed() < KERNEL_SPAN {
        for (input, times) in pool.inputs.iter().zip(&mut rounds) {
            let t0 = Instant::now();
            run(input, &mut out)?;
            times.push(ns(t0.elapsed()) as f64);
            black_box(&out);
        }
    }
    let per_call = rounds.iter().map(|times| median(times)).collect();
    Ok((per_call, backend.simd_level()))
}

/// Direct `whiten_group_detailed` cost per group (µs) and the largest
/// convergence residual over the pool. When the pool carries oracle
/// outputs, the direct path's bits are checked against them too.
pub fn whiten_per_group(pool: &Pool) -> Result<(Vec<f64>, f64), String> {
    let mut exec = build_whiten(
        BackendKind::Native,
        FormatKind::Fp32,
        pool.d,
        whiten_spec(),
        SimdLevel::Auto,
    )
    .map_err(|e| format!("native whiten: {e}"))?;
    let mut out = vec![0u32; pool.rows * pool.d];
    exec.whiten_group_detailed(&pool.inputs[0], &mut out)
        .map_err(|e| format!("direct whiten call: {e}"))?;
    let mut us = Vec::with_capacity(pool.len());
    let mut residual_max = 0.0f64;
    for (idx, input) in pool.inputs.iter().enumerate() {
        let t0 = Instant::now();
        let detail = exec
            .whiten_group_detailed(black_box(input), &mut out)
            .map_err(|e| format!("direct whiten call: {e}"))?;
        us.push(t0.elapsed().as_secs_f64() * 1e6);
        residual_max = residual_max.max(detail.residual);
        if !pool.expected.is_empty() && !pool.check(idx, &out) {
            return Err(format!(
                "direct whiten of group {idx} differs from the oracle"
            ));
        }
    }
    Ok((us, residual_max))
}

/// [`whiten_per_group`] on a few seeded groups of the workload shape,
/// for workloads that send no whitening requests themselves: every
/// traced run reports the whitening layer.
pub fn whiten_off_path(rng: &mut Rng) -> Result<(Vec<f64>, f64), String> {
    whiten_per_group(&Pool::whiten(rng, WHITEN_D, WHITEN_M, 4, false)?)
}

/// One request of a replay sample.
#[derive(Debug, Clone, Copy)]
pub struct Item {
    pub payload: usize,
    pub tenant: u64,
    pub key: Option<u64>,
    pub high: bool,
    pub whiten: bool,
}

impl Item {
    pub fn frame(&self, request_id: u64, pool: &Pool) -> Frame {
        Frame::Request(RequestFrame {
            request_id,
            tenant: self.tenant,
            key: self.key,
            priority: if self.high {
                Priority::High
            } else {
                Priority::Normal
            },
            whiten: self.whiten,
            d: pool.d as u32,
            bits: pool.inputs[self.payload].clone(),
        })
    }
}

/// Per-request span durations of a replay, in nanoseconds.
#[derive(Debug, Default)]
pub struct Replay {
    /// Client write to reply decoded, over the wire.
    pub rtt: Vec<u64>,
    pub decode: Vec<u64>,
    pub admit: Vec<u64>,
    /// `submit_async` to `wait` returning.
    pub service: Vec<u64>,
    pub encode: Vec<u64>,
    /// Direct kernel or whitening cost of the same payload.
    pub compute: Vec<u64>,
    pub rejected: u64,
}

impl Replay {
    pub fn extend(&mut self, other: Replay) {
        self.rtt.extend(other.rtt);
        self.decode.extend(other.decode);
        self.admit.extend(other.admit);
        self.service.extend(other.service);
        self.encode.extend(other.encode);
        self.compute.extend(other.compute);
        self.rejected += other.rejected;
    }

    /// `server` self time per request: the wire round trip minus the
    /// in-process chain the server runs for it.
    pub fn server_self(&self) -> Vec<u64> {
        (0..self.rtt.len())
            .map(|i| {
                let chain = self.decode[i] + self.admit[i] + self.service[i] + self.encode[i];
                self.rtt[i].saturating_sub(chain)
            })
            .collect()
    }

    /// `service` self time per request: its span minus the compute.
    pub fn service_self(&self) -> Vec<u64> {
        self.service
            .iter()
            .zip(&self.compute)
            .map(|(s, c)| s.saturating_sub(*c))
            .collect()
    }
}

/// Replay `items` one at a time: over the wire to the server at `addr`,
/// then through the layers in server order against `service`.
/// `compute_ns[p]` is payload `p`'s direct compute cost. Every reply —
/// wire and in-process — is checked against the oracle. An open-loop
/// workload passes its mean arrival `gap`, waited out before the wire
/// request and before the service call, so the server's threads and the
/// shard drivers are as idle when the request arrives as under the load.
pub fn replay(
    addr: SocketAddr,
    service: &NormService,
    pool: &Pool,
    items: &[Item],
    compute_ns: &[f64],
    admission: &Admission,
    gap: Duration,
) -> Result<Replay, String> {
    let stream = TcpStream::connect(addr).map_err(|e| format!("replay connect: {e}"))?;
    let _ = stream.set_nodelay(true);
    let mut writer = stream
        .try_clone()
        .map_err(|e| format!("replay socket: {e}"))?;
    let mut reader = BufReader::with_capacity(1 << 16, stream);
    let mut out = Replay::default();
    for (i, item) in items.iter().enumerate() {
        let request_id = i as u64 + 1;
        let wire = encode_frame(&item.frame(request_id, pool));

        wait_until(Instant::now() + gap);
        let t0 = Instant::now();
        writer
            .write_all(&wire)
            .map_err(|e| format!("replay write: {e}"))?;
        let reply = read_frame(&mut reader).map_err(|e| format!("replay read: {e}"))?;
        out.rtt.push(ns(t0.elapsed()));
        match reply {
            Some(Frame::Response(r)) if r.request_id == request_id => {
                if !pool.check(item.payload, &r.bits) {
                    return Err(format!(
                        "replayed request {request_id}: wire reply differs from the oracle"
                    ));
                }
            }
            Some(Frame::Error(e)) => {
                return Err(format!(
                    "replayed request {request_id}: {:?}: {}",
                    e.code, e.message
                ))
            }
            _ => return Err(format!("replayed request {request_id}: no matching reply")),
        }

        let body = &wire[4..];
        let t0 = Instant::now();
        let decoded = decode_body(black_box(body));
        out.decode.push(ns(t0.elapsed()));
        decoded.map_err(|e| format!("decode_body: {e}"))?;

        let t0 = Instant::now();
        let decision = admission.admit(black_box(item.tenant));
        out.admit.push(ns(t0.elapsed()));
        let priority = match decision {
            Decision::RejectQuota => {
                out.rejected += 1;
                Priority::Normal
            }
            Decision::Admit(Priority::High) if item.high => Priority::High,
            Decision::Admit(_) => Priority::Normal,
        };

        let bits = &pool.inputs[item.payload];
        let mut request = if item.whiten {
            NormRequest::whiten_group(bits)
        } else {
            NormRequest::bits(bits)
        }
        .with_priority(priority);
        if let Some(key) = item.key {
            request = request.with_key(key);
        }
        wait_until(Instant::now() + gap);
        let t0 = Instant::now();
        let served = service.submit_async(request).and_then(|mut t| t.wait());
        out.service.push(ns(t0.elapsed()));
        let response = served.map_err(|e| format!("replayed submit: {e}"))?;
        if !pool.check(item.payload, response.bits()) {
            return Err(format!(
                "replayed request {request_id}: in-process reply differs from the oracle"
            ));
        }

        let frame = Frame::Response(ResponseFrame {
            request_id,
            rows: response.rows() as u32,
            bits: response.into_bits(),
        });
        let t0 = Instant::now();
        let encoded = encode_frame(black_box(&frame));
        out.encode.push(ns(t0.elapsed()));
        black_box(encoded);

        out.compute.push(compute_ns[item.payload] as u64);
    }
    Ok(out)
}

/// Counter growth between two snapshots of one service.
pub fn stats_delta(before: &ServiceStats, after: &ServiceStats) -> ServiceStats {
    ServiceStats {
        requests: after.requests - before.requests,
        batches: after.batches - before.batches,
        coalesced_requests: after.coalesced_requests - before.coalesced_requests,
        rows: after.rows - before.rows,
        queue_full_rejections: after.queue_full_rejections - before.queue_full_rejections,
        abandoned_tickets: after.abandoned_tickets - before.abandoned_tickets,
        queue_wait: after.queue_wait.saturating_sub(before.queue_wait),
        execute: after.execute.saturating_sub(before.execute),
        whiten_requests: after.whiten_requests - before.whiten_requests,
        whiten_rows: after.whiten_rows - before.whiten_rows,
        worker_busy: after.worker_busy.saturating_sub(before.worker_busy),
        worker_idle: after.worker_idle.saturating_sub(before.worker_idle),
        worker_wakeups: after.worker_wakeups - before.worker_wakeups,
        waker_panics: after.waker_panics - before.waker_panics,
    }
}

/// Sum of several services' deltas (`inproc-heavy` runs two), over the
/// counters [`service_metrics`] reads.
pub fn stats_sum(parts: &[ServiceStats]) -> ServiceStats {
    let mut total = ServiceStats::default();
    for p in parts {
        total.requests += p.requests;
        total.batches += p.batches;
        total.queue_full_rejections += p.queue_full_rejections;
        total.queue_wait += p.queue_wait;
        total.execute += p.execute;
        total.worker_busy += p.worker_busy;
        total.worker_idle += p.worker_idle;
        total.worker_wakeups += p.worker_wakeups;
    }
    total
}

/// The `service.*` counter metrics from a traced phase's stats delta.
pub fn service_metrics(delta: &ServiceStats) -> Vec<Metric> {
    let requests = delta.requests.max(1) as f64;
    let batches = delta.batches.max(1) as f64;
    let busy = delta.worker_busy.as_secs_f64();
    let awake_or_parked = busy + delta.worker_idle.as_secs_f64();
    vec![
        metric(
            "service.queue_wait_us_per_req",
            delta.queue_wait.as_secs_f64() * 1e6 / requests,
            "us",
        ),
        metric(
            "service.execute_us_per_batch",
            delta.execute.as_secs_f64() * 1e6 / batches,
            "us",
        ),
        metric(
            "service.requests_per_batch",
            delta.requests as f64 / batches,
            "req/batch",
        ),
        metric(
            "service.worker_busy_frac",
            if awake_or_parked > 0.0 {
                busy / awake_or_parked
            } else {
                0.0
            },
            "ratio",
        ),
        metric(
            "service.wakeups_per_req",
            delta.worker_wakeups as f64 / requests,
            "wakeups/req",
        ),
        metric(
            "service.queue_full",
            delta.queue_full_rejections as f64,
            "count",
        ),
    ]
}

/// The metrics of the layers only the replay reaches: server, protocol
/// and admission.
pub fn replay_metrics(replay: &Replay) -> Vec<Metric> {
    let p50_us = |v: &[u64]| percentile(v, 0.5) as f64 / 1e3;
    vec![
        metric("server.self_us_p50", p50_us(&replay.server_self()), "us"),
        metric("protocol.decode_request_us", p50_us(&replay.decode), "us"),
        metric("protocol.encode_response_us", p50_us(&replay.encode), "us"),
        metric(
            "admission.admit_ns",
            percentile(&replay.admit, 0.5) as f64,
            "ns",
        ),
        metric("admission.rejected", replay.rejected as f64, "count"),
    ]
}

/// The honesty pair: tracing overhead, and how much of the traced
/// latency median the self times leave unexplained.
pub fn trace_metrics(untraced_p50_ns: f64, traced_p50_ns: f64, self_sum_ns: f64) -> Vec<Metric> {
    vec![
        metric(
            "trace.overhead_pct",
            (traced_p50_ns - untraced_p50_ns) / untraced_p50_ns * 100.0,
            "%",
        ),
        metric(
            "trace.unaccounted_us",
            (traced_p50_ns - self_sum_ns) / 1e3,
            "us",
        ),
    ]
}

/// The traced run's self times must account for its latency median:
/// the remainder may be at most this share of it.
const UNACCOUNTED_TOLERANCE: f64 = 0.5;

pub fn check_accounting(traced_p50_ns: f64, self_sum_ns: f64, problems: &mut Vec<String>) {
    let rest = traced_p50_ns - self_sum_ns;
    if rest.abs() > UNACCOUNTED_TOLERANCE * traced_p50_ns {
        problems.push(format!(
            "self times sum to {:.2} us but the traced latency median is {:.2} us",
            self_sum_ns / 1e3,
            traced_p50_ns / 1e3
        ));
    }
}

/// Median of a histogram in nanoseconds, or 0 when it is empty.
pub fn hist_p50(h: &Hist) -> f64 {
    if h.count() == 0 {
        0.0
    } else {
        h.quantile(0.5)
    }
}

/// The kernel and whitening metrics every traced run reports.
pub fn finish_layers(report: &mut Report, kernel_row_ns: f64, whiten_us: &[f64], residual: f64) {
    report
        .metrics
        .push(metric("kernel.ns_per_row", kernel_row_ns, "ns"));
    report
        .metrics
        .push(metric("whiten.us_per_group", median(whiten_us), "us"));
    report
        .metrics
        .push(metric("whiten.residual_max", residual, "abs"));
}

/// A workload-design check from the traced run: reported, never fatal.
pub fn design_check(what: &str, value: f64, limit: f64) -> String {
    format!(
        "design check: {what}: {} ({value:.3} vs {limit:.3})",
        if value < limit { "pass" } else { "FAIL" }
    )
}
