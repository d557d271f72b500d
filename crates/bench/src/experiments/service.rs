//! Serving-API throughput: the [`NormService`] micro-batching coalescer
//! vs per-request execution vs pipelined async submission, across shard
//! counts and with the response-buffer pool on/off, under 1–8 submitting
//! threads.
//!
//! Every point drives the same request mix through the same native-f32
//! service configuration; the variables are whether concurrent requests
//! may be packed into one partitioned backend batch (`coalesced`), each
//! request runs as its own blocking backend call (`per-request`), or each
//! submitter pipelines requests through `submit_async` with
//! [`PIPELINE_DEPTH`] tickets in flight (`async`, collecting the oldest
//! ticket before submitting the next), plus how many independent
//! backend+queue shards the service runs (`--shards`-equivalent), each
//! shard's resident worker count (`--shard-threads`-equivalent — the
//! executor axis), and whether response buffers are leased from the pool
//! or freshly allocated per request. Every point also reports the
//! resident workers' wait/execute split: `queue_wait` is time requests
//! spent waiting in the shard queue (execution excluded), `worker_busy`
//! is driver time inside rounds, `worker_idle` is parked time, and
//! `worker_wakeups` counts driver unparks. A self-check asserts every
//! variant produces bit-identical
//! output before any number is reported — coalescing, sharding, async
//! submission and pooling are throughput knobs, never results knobs.
//!
//! Emits `results/BENCH_service.json`, whose `host` block names the
//! machine it ran on (cores, resolved SIMD tier, rustc, git revision).
//! Coalescing and sharding can only win when submitters actually
//! overlap, so read the shard and submitter curves against that core
//! count. A structural effect visible on any host is the async mode's
//! self-coalescing: a submitter's in-flight tickets drain in one
//! combining round when it finally collects, so `reqs/batch` climbs
//! toward the pipeline depth — same total work per request, fewer
//! backend calls. A driver round runs in place in the requests' own
//! payload buffers, so a coalesced round costs no more memory traffic
//! than the requests run one by one. The buffer-pool on/off pairs are
//! both recorded: the removed malloc/free costs ~1 µs against ~30 µs of
//! execution per d = 4096 request, so the pair is expected within noise.
//!
//! A final sweep sends whitening traffic ([`NormRequest::whiten_group`])
//! through the same variants: one `32 x 64` group per request under the
//! default `whiten[t=5]` spec, self-checked bit for bit against the
//! direct [`iterl2norm::build_whiten`] executor. A whiten request costs
//! `T·d³` matmul work instead of a handful of row reductions, so its
//! per-request figures sit orders of magnitude above the norm rows —
//! the point of the row is the contrast, and that the same queueing
//! machinery carries both kinds without touching either's bits.

use std::sync::{Arc, Barrier};
use std::time::Instant;

use iterl2norm::backend::{build_backend, BackendKind, FormatKind};
use iterl2norm::service::{NormRequest, NormService, ServiceConfig};
use iterl2norm::{build_whiten, MethodSpec, ReduceOrder, SimdLevel, WhitenSpec};
use workloads::VectorGen;

use crate::io::{banner, host_json, print_table, write_json};

/// The swept service variants: `(mode, shards, buffer_pool,
/// shard_threads)` — the last being each shard's resident worker count
/// (the executor axis: 1 = a lone driver per shard, 2 = driver + one
/// partition helper, so rounds of more than one request split across
/// workers). All workers spawn at service build and park when idle.
const VARIANTS: [(&str, usize, bool, usize); 11] = [
    ("per-request", 1, true, 1),
    ("per-request", 1, false, 1),
    ("coalesced", 1, true, 1),
    ("coalesced", 1, false, 1),
    ("coalesced", 2, true, 1),
    ("coalesced", 2, true, 2),
    ("coalesced", 4, true, 1),
    ("async", 1, true, 1),
    ("async", 2, true, 1),
    ("async", 2, true, 2),
    ("async", 4, true, 1),
];

/// Maximum tickets each async-mode submitter keeps in flight before
/// collecting the oldest — the pipelining shape an inference loop uses
/// (submit the next layer's norm, keep computing, join later).
pub const PIPELINE_DEPTH: usize = 4;

/// The whitening-traffic sweep: group dimension, rows per group, and the
/// service variants the whiten rows run under. One whiten request is one
/// `rows x d` group, so a request is ~`T·d³` of matmul work — orders of
/// magnitude heavier than a row-norm request, which is why the whiten
/// rows report far fewer requests/s at far higher per-request cost.
const WHITEN_D: usize = 64;
const WHITEN_ROWS: usize = 32;
const WHITEN_VARIANTS: [(&str, usize, bool, usize); 4] = [
    ("per-request", 1, true, 1),
    ("coalesced", 1, true, 1),
    ("coalesced", 1, true, 2),
    ("async", 1, true, 1),
];

/// One measured configuration.
struct Point {
    workload: &'static str,
    d: usize,
    submitters: usize,
    mode: &'static str,
    shards: usize,
    buffer_pool: bool,
    shard_threads: usize,
    rows_per_s: f64,
    us_per_request: f64,
    requests_per_batch: f64,
    queue_wait_us_per_request: f64,
    worker_busy_us_per_request: f64,
    worker_idle_us: f64,
    worker_wakeups: u64,
}

/// Deterministic request payload for submitter `who`, request `req`.
fn request_bits(d: usize, rows: usize, who: u64, req: u64) -> Vec<u32> {
    let gen = VectorGen::paper();
    let mut bits = Vec::with_capacity(rows * d);
    for r in 0..rows as u64 {
        bits.extend(
            gen.vector_f64(d, who.wrapping_mul(10_007).wrapping_add(req * 31 + r))
                .iter()
                .map(|&v| FormatKind::Fp32.encode_f64(v)),
        );
    }
    bits
}

/// The request constructor for one payload: a whiten-group request or a
/// plain row-norm request over the same bits.
fn request_for(bits: &[u32], whiten: bool) -> NormRequest<'_> {
    if whiten {
        NormRequest::whiten_group(bits)
    } else {
        NormRequest::bits(bits)
    }
}

/// Drive `submitters` threads, each submitting `requests` pre-generated
/// requests of `rows` rows, through `service`; returns the wall-clock
/// seconds from the first worker's post-barrier start to the last
/// worker's finish. Blocking modes submit-and-wait per request; the
/// `async` mode pipelines with up to [`PIPELINE_DEPTH`] tickets in
/// flight, collecting the oldest before submitting the next. Each worker
/// timestamps its own span — a main-thread clock would race the workers
/// on a single-core host, where the barrier release can run a worker to
/// completion before the main thread is rescheduled.
fn measure(
    service: &NormService,
    mode: &'static str,
    submitters: usize,
    requests: usize,
    rows: usize,
    whiten: bool,
) -> f64 {
    let barrier = Arc::new(Barrier::new(submitters));
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..submitters)
            .map(|who| {
                let service = service.clone();
                let barrier = Arc::clone(&barrier);
                scope.spawn(move || {
                    let d = service.d();
                    let payloads: Vec<Vec<u32>> = (0..requests)
                        .map(|req| request_bits(d, rows, who as u64, req as u64))
                        .collect();
                    barrier.wait();
                    let begin = Instant::now();
                    if mode == "async" {
                        let mut inflight = std::collections::VecDeque::new();
                        for bits in &payloads {
                            if inflight.len() == PIPELINE_DEPTH {
                                let mut ticket: iterl2norm::NormTicket =
                                    inflight.pop_front().expect("depth > 0");
                                let response =
                                    ticket.wait().expect("bench requests are well-formed");
                                std::hint::black_box(response.rows());
                            }
                            inflight.push_back(
                                service
                                    .submit_async(request_for(bits, whiten))
                                    .expect("bench queue depth is never exceeded"),
                            );
                        }
                        for mut ticket in inflight {
                            let response = ticket.wait().expect("bench requests are well-formed");
                            std::hint::black_box(response.rows());
                        }
                    } else {
                        for bits in &payloads {
                            let response = service
                                .submit(request_for(bits, whiten))
                                .expect("bench requests are well-formed");
                            std::hint::black_box(response.rows());
                        }
                    }
                    (begin, Instant::now())
                })
            })
            .collect();
        let spans: Vec<(Instant, Instant)> = handles
            .into_iter()
            .map(|handle| handle.join().expect("bench submitter panicked"))
            .collect();
        let start = spans
            .iter()
            .map(|span| span.0)
            .min()
            .expect("submitters > 0");
        let end = spans
            .iter()
            .map(|span| span.1)
            .max()
            .expect("submitters > 0");
        end.duration_since(start).as_secs_f64()
    })
}

/// Build the service for one variant.
fn service_for(
    d: usize,
    mode: &str,
    shards: usize,
    buffer_pool: bool,
    shard_threads: usize,
) -> NormService {
    ServiceConfig::new(d)
        .with_backend(BackendKind::Native)
        .with_format(FormatKind::Fp32)
        .with_method(MethodSpec::iterl2(5))
        // Async submission needs the combining queue; only the
        // per-request baseline runs without it.
        .with_coalescing(mode != "per-request")
        .with_shards(shards)
        .with_threads(shard_threads)
        .with_buffer_pool(buffer_pool)
        .build()
        .expect("bench service config is valid")
}

/// Run the service bench at the given dimensions and submitter counts,
/// printing the table and writing `results/BENCH_service.json`.
///
/// # Errors
///
/// Propagates JSON-write failures.
pub fn run_at(
    dims: &[usize],
    submitter_counts: &[usize],
    requests_per_thread: usize,
    rows_per_request: usize,
) -> std::io::Result<()> {
    banner(
        "NormService throughput — blocking/coalesced/async x shards x buffer pool, \
         1-8 submitting threads",
    );
    let spec = MethodSpec::iterl2(5);
    let mut points: Vec<Point> = Vec::new();
    let mut table = Vec::new();

    for &d in dims {
        // Self-check: every variant must be bit-identical to the raw
        // backend before its numbers mean anything.
        let probe = request_bits(d, rows_per_request, 0, 0);
        let mut reference = build_backend(
            BackendKind::Native,
            FormatKind::Fp32,
            d,
            &spec,
            ReduceOrder::HwTree,
        )
        .map_err(std::io::Error::other)?;
        let mut expect = vec![0u32; probe.len()];
        reference
            .normalize_batch_bits(&probe, &mut expect, 1)
            .map_err(std::io::Error::other)?;
        for (mode, shards, buffer_pool, shard_threads) in VARIANTS {
            let service = service_for(d, mode, shards, buffer_pool, shard_threads);
            let response = service
                .submit(NormRequest::bits(&probe))
                .map_err(std::io::Error::other)?;
            assert_eq!(
                response.bits(),
                &expect[..],
                "service output diverged from the backend at \
                 d = {d} ({mode}, shards={shards}, pool={buffer_pool}, \
                 threads={shard_threads})"
            );
            // The async path must agree bit for bit too before its
            // throughput numbers mean anything.
            let mut ticket = service
                .submit_async(NormRequest::bits(&probe))
                .map_err(std::io::Error::other)?;
            let waited = ticket.wait().map_err(std::io::Error::other)?;
            assert_eq!(
                waited.bits(),
                &expect[..],
                "async output diverged from the backend at \
                 d = {d} ({mode}, shards={shards}, pool={buffer_pool}, \
                 threads={shard_threads})"
            );
        }

        for &submitters in submitter_counts {
            for (mode, shards, buffer_pool, shard_threads) in VARIANTS {
                let service = service_for(d, mode, shards, buffer_pool, shard_threads);
                // Warm-up sizes the conversion buffers and scratch.
                let warm = request_bits(d, rows_per_request, 99, 0);
                let _ = service
                    .submit(NormRequest::bits(&warm))
                    .map_err(std::io::Error::other)?;
                // Baseline after warm-up: every reported ratio below uses
                // deltas, so the untimed warm-up request never skews them.
                let base = service.stats();
                let seconds = measure(
                    &service,
                    mode,
                    submitters,
                    requests_per_thread,
                    rows_per_request,
                    false,
                );
                let stats = service.stats();
                let total_requests = (submitters * requests_per_thread) as f64;
                let total_rows = total_requests * rows_per_request as f64;
                let measured_requests = (stats.requests - base.requests) as f64;
                let requests_per_batch =
                    measured_requests / ((stats.batches - base.batches) as f64).max(1.0);
                let queue_wait_us_per_request = (stats.queue_wait - base.queue_wait).as_secs_f64()
                    * 1e6
                    / measured_requests.max(1.0);
                let worker_busy_us_per_request =
                    (stats.worker_busy - base.worker_busy).as_secs_f64() * 1e6
                        / measured_requests.max(1.0);
                points.push(Point {
                    workload: "norm",
                    d,
                    submitters,
                    mode,
                    shards,
                    buffer_pool,
                    shard_threads,
                    rows_per_s: total_rows / seconds,
                    us_per_request: seconds * 1e6 / total_requests,
                    requests_per_batch,
                    queue_wait_us_per_request,
                    worker_busy_us_per_request,
                    worker_idle_us: (stats.worker_idle - base.worker_idle).as_secs_f64() * 1e6,
                    worker_wakeups: stats.worker_wakeups - base.worker_wakeups,
                });
                table.push(vec![
                    "norm".to_string(),
                    d.to_string(),
                    submitters.to_string(),
                    mode.to_string(),
                    shards.to_string(),
                    if buffer_pool { "on" } else { "off" }.to_string(),
                    shard_threads.to_string(),
                    format!("{:.0}", total_rows / seconds),
                    format!("{:.1}", seconds * 1e6 / total_requests),
                    format!("{requests_per_batch:.2}"),
                    format!("{queue_wait_us_per_request:.2}"),
                    format!("{worker_busy_us_per_request:.2}"),
                ]);
            }
        }
    }

    // Whitening traffic through the same front door: each request is one
    // WHITEN_ROWS x WHITEN_D group whitened under the service's default
    // spec. Self-check against the direct executor first, then time the
    // blocking, coalesced and pipelined paths.
    let whiten_spec = WhitenSpec::new();
    {
        let probe = request_bits(WHITEN_D, WHITEN_ROWS, 0, 0);
        let mut reference = build_whiten(
            BackendKind::Native,
            FormatKind::Fp32,
            WHITEN_D,
            whiten_spec,
            SimdLevel::Auto,
        )
        .map_err(std::io::Error::other)?;
        let mut expect = vec![0u32; probe.len()];
        reference
            .whiten_groups(&probe, &mut expect, &[WHITEN_ROWS], 1)
            .map_err(std::io::Error::other)?;
        for (mode, shards, buffer_pool, shard_threads) in WHITEN_VARIANTS {
            let service = service_for(WHITEN_D, mode, shards, buffer_pool, shard_threads);
            let response = service
                .submit(NormRequest::whiten_group(&probe))
                .map_err(std::io::Error::other)?;
            assert_eq!(
                response.bits(),
                &expect[..],
                "service whitening diverged from the direct executor \
                 ({mode}, shards={shards}, pool={buffer_pool}, \
                 threads={shard_threads})"
            );
        }
        for &submitters in submitter_counts {
            for (mode, shards, buffer_pool, shard_threads) in WHITEN_VARIANTS {
                let service = service_for(WHITEN_D, mode, shards, buffer_pool, shard_threads);
                let warm = request_bits(WHITEN_D, WHITEN_ROWS, 99, 0);
                let _ = service
                    .submit(NormRequest::whiten_group(&warm))
                    .map_err(std::io::Error::other)?;
                let base = service.stats();
                let seconds = measure(
                    &service,
                    mode,
                    submitters,
                    requests_per_thread,
                    WHITEN_ROWS,
                    true,
                );
                let stats = service.stats();
                let total_requests = (submitters * requests_per_thread) as f64;
                let total_rows = total_requests * WHITEN_ROWS as f64;
                let measured_requests = (stats.whiten_requests - base.whiten_requests) as f64;
                let requests_per_batch =
                    measured_requests / ((stats.batches - base.batches) as f64).max(1.0);
                let queue_wait_us_per_request = (stats.queue_wait - base.queue_wait).as_secs_f64()
                    * 1e6
                    / measured_requests.max(1.0);
                let worker_busy_us_per_request =
                    (stats.worker_busy - base.worker_busy).as_secs_f64() * 1e6
                        / measured_requests.max(1.0);
                points.push(Point {
                    workload: "whiten",
                    d: WHITEN_D,
                    submitters,
                    mode,
                    shards,
                    buffer_pool,
                    shard_threads,
                    rows_per_s: total_rows / seconds,
                    us_per_request: seconds * 1e6 / total_requests,
                    requests_per_batch,
                    queue_wait_us_per_request,
                    worker_busy_us_per_request,
                    worker_idle_us: (stats.worker_idle - base.worker_idle).as_secs_f64() * 1e6,
                    worker_wakeups: stats.worker_wakeups - base.worker_wakeups,
                });
                table.push(vec![
                    "whiten".to_string(),
                    WHITEN_D.to_string(),
                    submitters.to_string(),
                    mode.to_string(),
                    shards.to_string(),
                    if buffer_pool { "on" } else { "off" }.to_string(),
                    shard_threads.to_string(),
                    format!("{:.0}", total_rows / seconds),
                    format!("{:.1}", seconds * 1e6 / total_requests),
                    format!("{requests_per_batch:.2}"),
                    format!("{queue_wait_us_per_request:.2}"),
                    format!("{worker_busy_us_per_request:.2}"),
                ]);
            }
        }
    }

    print_table(
        &[
            "workload",
            "d",
            "submitters",
            "mode",
            "shards",
            "pool",
            "threads",
            "rows/s",
            "us/request",
            "reqs/batch",
            "qwait us/req",
            "busy us/req",
        ],
        &table,
    );

    let mut json = String::new();
    json.push_str("{\n");
    json.push_str("  \"bench\": \"service_throughput\",\n");
    json.push_str(&format!("  \"method\": \"{}\",\n", spec.label()));
    json.push_str("  \"format\": \"FP32\",\n");
    json.push_str("  \"backend\": \"native-f32\",\n");
    json.push_str("  \"reduce\": \"hwtree\",\n");
    json.push_str(&format!("  \"rows_per_request\": {rows_per_request},\n"));
    json.push_str(&format!(
        "  \"requests_per_thread\": {requests_per_thread},\n"
    ));
    json.push_str(&format!("  \"async_pipeline_depth\": {PIPELINE_DEPTH},\n"));
    json.push_str(&format!(
        "  \"whiten_method\": \"{}\",\n",
        whiten_spec.label()
    ));
    json.push_str(&format!("  \"whiten_rows_per_group\": {WHITEN_ROWS},\n"));
    json.push_str("  \"bit_identity_checked\": true,\n");
    let native = build_backend(
        BackendKind::Native,
        FormatKind::Fp32,
        1,
        &spec,
        ReduceOrder::HwTree,
    )
    .map_err(std::io::Error::other)?;
    json.push_str(&format!(
        "  \"host\": {},\n",
        host_json(native.simd_level().name())
    ));
    json.push_str("  \"points\": [\n");
    for (i, p) in points.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"workload\": \"{}\", \"d\": {}, \"submitters\": {}, \"mode\": \"{}\", \
             \"shards\": {}, \"buffer_pool\": {}, \"shard_threads\": {}, \
             \"rows_per_s\": {:.1}, \"us_per_request\": {:.1}, \
             \"requests_per_batch\": {:.2}, \
             \"queue_wait_us_per_request\": {:.2}, \
             \"worker_busy_us_per_request\": {:.2}, \
             \"worker_idle_us\": {:.1}, \"worker_wakeups\": {}}}{}\n",
            p.workload,
            p.d,
            p.submitters,
            p.mode,
            p.shards,
            p.buffer_pool,
            p.shard_threads,
            p.rows_per_s,
            p.us_per_request,
            p.requests_per_batch,
            p.queue_wait_us_per_request,
            p.worker_busy_us_per_request,
            p.worker_idle_us,
            p.worker_wakeups,
            if i + 1 < points.len() { "," } else { "" }
        ));
    }
    json.push_str("  ]\n}");
    let path = write_json("BENCH_service", &json)?;
    println!("\nwrote {}", path.display());
    Ok(())
}

/// The standard configuration: the README's d points, submitters 1/2/4/8.
///
/// # Errors
///
/// Propagates JSON-write failures.
pub fn run(requests_per_thread: usize) -> std::io::Result<()> {
    run_at(&[384, 768, 4096], &[1, 2, 4, 8], requests_per_thread, 4)
}
