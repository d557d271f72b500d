//! Serving-API throughput: the [`NormService`] with blocking submitters
//! vs pipelined async submission, across shard counts, under 1–8
//! submitting threads.
//!
//! Every point drives the same request mix through the same native-f32
//! service configuration; the variables are whether each submitter
//! blocks on one request at a time (`coalesced`: concurrent requests
//! may be packed into one backend batch) or pipelines
//! requests through `submit_async` with [`PIPELINE_DEPTH`] tickets in
//! flight (`async`, collecting the oldest ticket before submitting the
//! next), plus how many independent backend+queue shards the service
//! runs (`--shards`-equivalent — the executor axis: each shard runs one
//! resident driver). Every point also reports the
//! resident drivers' wait/execute split: `queue_wait` is time requests
//! spent waiting in the shard queue (execution excluded), `worker_busy`
//! is driver time inside rounds, `worker_idle` is parked time, and
//! `worker_wakeups` counts driver unparks. A self-check asserts every
//! variant produces bit-identical
//! output before any number is reported — coalescing, sharding and async
//! submission are throughput knobs, never results knobs.
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
//! than the requests run one by one.
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
use iterl2norm::{build_whiten, MethodSpec, NormError, ReduceOrder, SimdLevel, WhitenSpec};
use workloads::VectorGen;

use crate::io::{banner, host_json, print_table, write_json};

/// The swept service variants: `(mode, shards)`. Each shard runs one
/// resident driver, spawned at service build and parked when idle.
type Variant = (&'static str, usize);

const VARIANTS: [Variant; 6] = [
    ("coalesced", 1),
    ("coalesced", 2),
    ("coalesced", 4),
    ("async", 1),
    ("async", 2),
    ("async", 4),
];

/// Timed repetitions per point. Rep `r` times the variants starting at
/// variant `r mod n`, so the host's drift between minutes spreads over
/// every variant instead of ranking them by when they ran, and one
/// scheduler hiccup cannot become the reported number: each point is its
/// median repetition by throughput.
pub const REPS: usize = 3;

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
const WHITEN_VARIANTS: [Variant; 4] = [
    ("coalesced", 1),
    ("coalesced", 2),
    ("async", 1),
    ("async", 2),
];

/// One measured configuration.
struct Point {
    workload: &'static str,
    d: usize,
    submitters: usize,
    mode: &'static str,
    shards: usize,
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
fn service_for(d: usize, shards: usize) -> NormService {
    ServiceConfig::new(d)
        .with_backend(BackendKind::Native)
        .with_format(FormatKind::Fp32)
        .with_method(MethodSpec::iterl2(5))
        .with_shards(shards)
        .build()
        .expect("bench service config is valid")
}

/// One request shape: `rows x d` whiten groups when `whiten`, otherwise
/// `rows`-row norm requests.
struct Sweep {
    d: usize,
    rows: usize,
    whiten: bool,
}

impl Sweep {
    /// Check every variant's blocking and async output against the
    /// direct kernel (`reference`, run on one probe request) before any
    /// number is taken, then time each variant at each submitter count
    /// [`REPS`] times in rotation on one warmed-up service per variant,
    /// keeping each point's median repetition.
    fn run(
        &self,
        variants: &[Variant],
        submitter_counts: &[usize],
        requests_per_thread: usize,
        reference: impl FnOnce(&[u32], &mut [u32]) -> Result<usize, NormError>,
    ) -> std::io::Result<Vec<Point>> {
        let Sweep { d, rows, whiten } = *self;
        let probe = request_bits(d, rows, 0, 0);
        let mut expect = vec![0u32; probe.len()];
        reference(&probe, &mut expect).map_err(std::io::Error::other)?;
        for &(mode, shards) in variants {
            let service = service_for(d, shards);
            let blocking = service
                .submit(request_for(&probe, whiten))
                .map_err(std::io::Error::other)?;
            let waited = service
                .submit_async(request_for(&probe, whiten))
                .and_then(|mut ticket| ticket.wait())
                .map_err(std::io::Error::other)?;
            for (path, bits) in [("blocking", blocking.bits()), ("async", waited.bits())] {
                assert_eq!(
                    bits, expect,
                    "{path} output diverged from the direct kernel at d = {d} \
                     (whiten={whiten}, {mode}, shards={shards})"
                );
            }
        }
        let mut points = Vec::new();
        let n = variants.len();
        for &submitters in submitter_counts {
            let services = variants
                .iter()
                .map(|&(_, shards)| self.warmed(shards))
                .collect::<std::io::Result<Vec<_>>>()?;
            let mut reps: Vec<Vec<Point>> = (0..n).map(|_| Vec::with_capacity(REPS)).collect();
            for rep in 0..REPS {
                for k in 0..n {
                    let i = (rep + k) % n;
                    let point =
                        self.time(&services[i], variants[i], submitters, requests_per_thread);
                    reps[i].push(point);
                }
            }
            for mut samples in reps {
                samples.sort_by(|a, b| a.rows_per_s.total_cmp(&b.rows_per_s));
                points.push(samples.swap_remove(REPS / 2));
            }
        }
        Ok(points)
    }

    /// A fresh service with `shards` shards, warmed up: one untimed
    /// request sizes its conversion buffers and scratch.
    fn warmed(&self, shards: usize) -> std::io::Result<NormService> {
        let Sweep { d, rows, whiten } = *self;
        let service = service_for(d, shards);
        let warm = request_bits(d, rows, 99, 0);
        let _ = service
            .submit(request_for(&warm, whiten))
            .map_err(std::io::Error::other)?;
        Ok(service)
    }

    /// Time one repetition of one variant at one submitter count on its
    /// warmed-up `service`.
    fn time(
        &self,
        service: &NormService,
        (mode, shards): Variant,
        submitters: usize,
        requests_per_thread: usize,
    ) -> Point {
        let Sweep { d, rows, whiten } = *self;
        // Baseline before the run: every reported ratio below uses
        // deltas, so the warm-up and earlier repetitions never skew them.
        let base = service.stats();
        let seconds = measure(service, mode, submitters, requests_per_thread, rows, whiten);
        let stats = service.stats();
        let total_requests = (submitters * requests_per_thread) as f64;
        let measured_requests = if whiten {
            stats.whiten_requests - base.whiten_requests
        } else {
            stats.requests - base.requests
        } as f64;
        let per_request =
            |span: std::time::Duration| span.as_secs_f64() * 1e6 / measured_requests.max(1.0);
        Point {
            workload: if whiten { "whiten" } else { "norm" },
            d,
            submitters,
            mode,
            shards,
            rows_per_s: total_requests * rows as f64 / seconds,
            us_per_request: seconds * 1e6 / total_requests,
            requests_per_batch: measured_requests
                / ((stats.batches - base.batches) as f64).max(1.0),
            queue_wait_us_per_request: per_request(stats.queue_wait - base.queue_wait),
            worker_busy_us_per_request: per_request(stats.worker_busy - base.worker_busy),
            worker_idle_us: (stats.worker_idle - base.worker_idle).as_secs_f64() * 1e6,
            worker_wakeups: stats.worker_wakeups - base.worker_wakeups,
        }
    }
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
    banner("NormService throughput — coalesced/async x shards, 1-8 submitting threads");
    let spec = MethodSpec::iterl2(5);
    let mut points: Vec<Point> = Vec::new();

    for &d in dims {
        let sweep = Sweep {
            d,
            rows: rows_per_request,
            whiten: false,
        };
        points.extend(sweep.run(
            &VARIANTS,
            submitter_counts,
            requests_per_thread,
            |probe, expect| {
                build_backend(
                    BackendKind::Native,
                    FormatKind::Fp32,
                    d,
                    &spec,
                    ReduceOrder::HwTree,
                )?
                .normalize_batch_bits(probe, expect, 1)
            },
        )?);
    }

    // Whitening traffic through the same front door: each request is one
    // WHITEN_ROWS x WHITEN_D group whitened under the service's default
    // spec, checked against the direct executor.
    let whiten_spec = WhitenSpec::new();
    let sweep = Sweep {
        d: WHITEN_D,
        rows: WHITEN_ROWS,
        whiten: true,
    };
    points.extend(sweep.run(
        &WHITEN_VARIANTS,
        submitter_counts,
        requests_per_thread,
        |probe, expect| {
            build_whiten(
                BackendKind::Native,
                FormatKind::Fp32,
                WHITEN_D,
                whiten_spec,
                SimdLevel::Auto,
            )?
            .whiten_groups(probe, expect, &[WHITEN_ROWS], 1)
        },
    )?);

    print_table(
        &[
            "workload",
            "d",
            "submitters",
            "mode",
            "shards",
            "rows/s",
            "us/request",
            "reqs/batch",
            "qwait us/req",
            "busy us/req",
        ],
        &points
            .iter()
            .map(|p| {
                vec![
                    p.workload.to_string(),
                    p.d.to_string(),
                    p.submitters.to_string(),
                    p.mode.to_string(),
                    p.shards.to_string(),
                    format!("{:.0}", p.rows_per_s),
                    format!("{:.1}", p.us_per_request),
                    format!("{:.2}", p.requests_per_batch),
                    format!("{:.2}", p.queue_wait_us_per_request),
                    format!("{:.2}", p.worker_busy_us_per_request),
                ]
            })
            .collect::<Vec<_>>(),
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
    json.push_str(&format!("  \"reps_median_of\": {REPS},\n"));
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
             \"shards\": {}, \
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
