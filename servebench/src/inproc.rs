//! The in-process workloads: closed loops straight into `NormService`.
//!
//! * `inproc-small` — two submitter threads each call `submit_into` with
//!   one row of d = 768, the transformer's per-token call. There is no
//!   network, and the hand-off to the shard driver outweighs the kernel:
//!   this is where removing that hand-off must show. Each submitter is one
//!   caller with its own session key, which request-hash placement pins
//!   to its own shard; unkeyed, the two callers alternate between both
//!   drivers and the latency median sits on the edge between a same-core
//!   and a cross-core hand-off, moving by a third from run to run.
//! * `inproc-heavy` — two submitter threads each keep a few
//!   `submit_async` tickets in flight, sending a seeded mix of d = 4096
//!   (OPT-6.7b) 64-row norm requests from a payload pool larger than a
//!   core's 2 MiB L2, and centered whitening groups (d = 64, m = 256,
//!   T = 5). The norm and whitening kernels do nearly all the work. A
//!   service has one `d`, so the two kinds are served by two services
//!   that share the cores and the submitter threads.

use std::time::{Duration, Instant};

use iterl2norm::{NormRequest, NormService, TicketSet};

use crate::layers::{self, design_check, finish_layers, Item, Replay};
use crate::oracle::{served_config, whiten_spec, Pool, Tally, WHITEN_D, WHITEN_M};
use crate::report::{metric, Report};
use crate::stats::{median, ns, Hist, Rng, Windowed};
use crate::wire::{serve_loopback, stop, SILVER};
use crate::{segmented, Args, Watchdog};

const SUBMITTERS: usize = 2;

const SMALL_D: usize = 768;
const SMALL_PAYLOADS: usize = 1024;
const SMALL_REPLAY: usize = 400;

const HEAVY_D: usize = 4096;
const HEAVY_ROWS: usize = 64;
/// Six 1 MiB payloads: three times a core's L2.
const HEAVY_PAYLOADS: usize = 6;
const WHITEN_GROUPS: usize = 4;
/// Share of `inproc-heavy` requests that are whitening groups, set so
/// each kind takes about half of the execution time in the traced run.
const WHITEN_SHARE: f64 = 0.12;
/// Tickets each heavy submitter keeps in flight.
const DEPTH: usize = 3;
const HEAVY_REPLAY: usize = 48;

/// Which kind of request, and which payload of its pool.
#[derive(Debug, Clone, Copy)]
enum Kind {
    Norm(usize),
    Whiten(usize),
}

/// What one closed-loop phase observed, merged over submitters.
#[derive(Debug)]
struct Phase {
    tally: Tally,
    windows: Windowed,
    wall: Duration,
    /// Traced phases only: the gap between a submitter's previous reply
    /// and its next call, service self time, and compute per request.
    lag: Hist,
    service_self: Hist,
    compute: Hist,
    compute_sum_ns: f64,
    whiten_compute_ns: f64,
    /// Time the submitters spent comparing replies with the oracle.
    check_ns: f64,
}

impl Phase {
    fn new(seconds: f64) -> Self {
        Phase {
            tally: Tally::default(),
            windows: Windowed::new(seconds),
            wall: Duration::ZERO,
            lag: Hist::default(),
            service_self: Hist::default(),
            compute: Hist::default(),
            compute_sum_ns: 0.0,
            whiten_compute_ns: 0.0,
            check_ns: 0.0,
        }
    }

    fn merge(&mut self, other: Phase) {
        self.tally.add(other.tally);
        self.windows.merge(&other.windows);
        self.wall = self.wall.max(other.wall);
        self.lag.merge(&other.lag);
        self.service_self.merge(&other.service_self);
        self.compute.merge(&other.compute);
        self.compute_sum_ns += other.compute_sum_ns;
        self.whiten_compute_ns += other.whiten_compute_ns;
        self.check_ns += other.check_ns;
    }

    /// Record one traced request of `kind`, given each payload's direct
    /// compute cost.
    fn trace(&mut self, span_ns: u64, kind: Kind, compute: &Compute) {
        let cost = compute.of(kind);
        self.service_self
            .record(span_ns.saturating_sub(cost as u64));
        self.compute.record(cost as u64);
        self.compute_sum_ns += cost;
        if let Kind::Whiten(_) = kind {
            self.whiten_compute_ns += cost;
        }
    }
}

/// Direct compute cost (ns) per payload, per kind.
struct Compute {
    norm: Vec<f64>,
    whiten: Vec<f64>,
}

impl Compute {
    fn of(&self, kind: Kind) -> f64 {
        match kind {
            Kind::Norm(p) => self.norm[p],
            Kind::Whiten(p) => self.whiten[p],
        }
    }
}

/// Run `SUBMITTERS` copies of `submitter` (given its index) for
/// `seconds` and merge them.
fn closed_loop<F>(rng: &mut Rng, seconds: f64, submitter: F) -> Phase
where
    F: Fn(usize, Rng, Instant, Instant) -> Phase + Sync,
{
    let start = Instant::now();
    let end = start + Duration::from_secs_f64(seconds);
    let rngs: Vec<Rng> = (0..SUBMITTERS).map(|_| rng.fork()).collect();
    let mut total = Phase::new(seconds);
    std::thread::scope(|s| {
        let threads: Vec<_> = rngs
            .into_iter()
            .enumerate()
            .map(|(i, r)| {
                let submitter = &submitter;
                s.spawn(move || submitter(i, r, start, end))
            })
            .collect();
        for t in threads {
            match t.join() {
                Ok(phase) => total.merge(phase),
                Err(_) => total.tally.record(false),
            }
        }
    });
    total
}

fn small_submitter(
    service: &NormService,
    pool: &Pool,
    key: u64,
    compute: Option<&Compute>,
    mut rng: Rng,
    start: Instant,
    end: Instant,
) -> Phase {
    let mut phase = Phase::new((end - start).as_secs_f64());
    let mut out = vec![0u32; pool.rows * pool.d];
    let mut last_reply: Option<Instant> = None;
    loop {
        let p = rng.below(pool.len());
        let t0 = Instant::now();
        if t0 >= end {
            break;
        }
        let request = NormRequest::bits(&pool.inputs[p]).with_key(key);
        let served = service.submit_into(request, &mut out);
        let t1 = Instant::now();
        let ok = served.is_ok() && pool.check(p, &out);
        phase.tally.record(ok);
        if ok {
            phase
                .windows
                .record(t1 - start, ns(t1 - t0), pool.rows as u64);
        }
        if let Some(compute) = compute {
            if let Some(prev) = last_reply {
                phase.lag.record(ns(t0 - prev));
            }
            phase.trace(ns(t1 - t0), Kind::Norm(p), compute);
            last_reply = Some(t1);
        }
    }
    phase.wall = start.elapsed();
    phase
}

struct Heavy<'a> {
    norm: NormService,
    whiten: NormService,
    norm_pool: &'a Pool,
    whiten_pool: &'a Pool,
}

impl Heavy<'_> {
    fn next(&self, rng: &mut Rng) -> Kind {
        if rng.unit() < WHITEN_SHARE {
            Kind::Whiten(rng.below(self.whiten_pool.len()))
        } else {
            Kind::Norm(rng.below(self.norm_pool.len()))
        }
    }

    fn submit(&self, kind: Kind) -> Result<iterl2norm::NormTicket, iterl2norm::NormError> {
        match kind {
            Kind::Norm(p) => self
                .norm
                .submit_async(NormRequest::bits(&self.norm_pool.inputs[p])),
            Kind::Whiten(p) => self
                .whiten
                .submit_async(NormRequest::whiten_group(&self.whiten_pool.inputs[p])),
        }
    }

    fn check(&self, kind: Kind, bits: &[u32]) -> bool {
        match kind {
            Kind::Norm(p) => self.norm_pool.check(p, bits),
            Kind::Whiten(p) => self.whiten_pool.check(p, bits),
        }
    }

    fn rows(&self, kind: Kind) -> u64 {
        match kind {
            Kind::Norm(_) => self.norm_pool.rows as u64,
            Kind::Whiten(_) => self.whiten_pool.rows as u64,
        }
    }

    /// Keep `DEPTH` tickets in flight until `end`, harvesting in
    /// completion order; each request is timed from its call.
    fn submitter(
        &self,
        compute: Option<&Compute>,
        mut rng: Rng,
        start: Instant,
        end: Instant,
    ) -> Phase {
        let mut phase = Phase::new((end - start).as_secs_f64());
        let mut set = TicketSet::new();
        // Indexed by the set's ticket index, which counts up from zero.
        let mut meta: Vec<(Kind, Instant)> = Vec::new();
        let mut last_reply: Option<Instant> = None;
        loop {
            while set.outstanding() < DEPTH {
                let kind = self.next(&mut rng);
                let t0 = Instant::now();
                if t0 >= end {
                    break;
                }
                if let (Some(_), Some(prev)) = (compute, last_reply.take()) {
                    phase.lag.record(ns(t0 - prev));
                }
                match self.submit(kind) {
                    Ok(ticket) => {
                        let idx = set.insert(ticket);
                        debug_assert_eq!(idx, meta.len());
                        meta.push((kind, t0));
                    }
                    Err(_) => phase.tally.record(false),
                }
            }
            let Some((idx, result)) = set.wait_any() else {
                break;
            };
            let t1 = Instant::now();
            let (kind, t0) = meta[idx];
            let ok = result.is_ok_and(|r| self.check(kind, r.bits()));
            if compute.is_some() {
                phase.check_ns += ns(t1.elapsed()) as f64;
            }
            phase.tally.record(ok);
            if ok {
                phase
                    .windows
                    .record(t1 - start, ns(t1 - t0), self.rows(kind));
            }
            if let Some(compute) = compute {
                phase.trace(ns(t1 - t0), kind, compute);
                last_reply = Some(t1);
            }
        }
        phase.wall = start.elapsed();
        phase
    }
}

/// Set up the small workload's service: build to first correct reply.
fn start_small(pool: &Pool) -> Result<(NormService, Duration), String> {
    let t0 = Instant::now();
    let service = served_config(SMALL_D)
        .build()
        .map_err(|e| format!("build: {e}"))?;
    let mut out = vec![0u32; SMALL_D];
    service
        .submit_into(NormRequest::bits(&pool.inputs[0]), &mut out)
        .map_err(|e| format!("first request: {e}"))?;
    let elapsed = t0.elapsed();
    if !pool.check(0, &out) {
        return Err("first reply is not the oracle's output".into());
    }
    Ok((service, elapsed))
}

/// Set up both heavy services: build to the first correct reply of each
/// kind (the whitening executor is built lazily by its first request).
fn start_heavy(
    norm_pool: &Pool,
    whiten_pool: &Pool,
) -> Result<(NormService, NormService, Duration), String> {
    let t0 = Instant::now();
    let norm = served_config(HEAVY_D)
        .build()
        .map_err(|e| format!("build: {e}"))?;
    let whiten = served_config(WHITEN_D)
        .with_whiten(whiten_spec())
        .build()
        .map_err(|e| format!("build: {e}"))?;
    let first_norm = norm
        .submit(NormRequest::bits(&norm_pool.inputs[0]))
        .map_err(|e| format!("first norm request: {e}"))?;
    let first_whiten = whiten
        .submit(NormRequest::whiten_group(&whiten_pool.inputs[0]))
        .map_err(|e| format!("first whitening request: {e}"))?;
    let elapsed = t0.elapsed();
    if !norm_pool.check(0, first_norm.bits()) || !whiten_pool.check(0, first_whiten.bits()) {
        return Err("first reply is not the oracle's output".into());
    }
    Ok((norm, whiten, elapsed))
}

/// Shut in-process services down under the watchdog.
fn stop_services(services: Vec<NormService>, dog: &Watchdog) {
    dog.teardown("service shutdown");
    for s in &services {
        s.shutdown();
    }
    drop(services);
}

/// Session keys that place submitter `i` on shard `i`: each submitter is
/// one caller pinned to its own shard by request-hash placement.
fn submitter_keys(service: &NormService, rng: &mut Rng) -> Vec<u64> {
    let base = rng.next_u64() >> 1;
    (0..SUBMITTERS)
        .map(|i| {
            (base..)
                .find(|&k| service.shard_for(k) == i % service.shards())
                .unwrap_or(base)
        })
        .collect()
}

pub fn run_small(args: &Args, dog: &Watchdog) -> Result<Report, String> {
    let mut rng = Rng::new(args.seed);
    let mut inputs = rng.fork();
    let mut traffic = rng.fork();
    dog.phase("oracle precompute", Duration::from_secs(60));
    let pool = Pool::norm(&mut inputs, SMALL_D, 1, SMALL_PAYLOADS)?;
    let load =
        |service: &NormService, keys: &[u64], rng: &mut Rng, seconds, compute: Option<&Compute>| {
            closed_loop(rng, seconds, |i, r, start, end| {
                small_submitter(service, &pool, keys[i], compute, r, start, end)
            })
        };

    if !args.trace {
        let mut keys = None;
        return segmented(
            args,
            dog,
            || start_small(&pool),
            |service| vec![service.clone()],
            |service, seconds, report| {
                let keys = keys
                    .get_or_insert_with(|| submitter_keys(service, &mut traffic))
                    .clone();
                let phase = load(service, &keys, &mut traffic, seconds, None);
                report.tally.add(phase.tally);
                Ok(phase.windows)
            },
            |service| stop_services(vec![service], dog),
        );
    }

    dog.phase("setup", Duration::from_secs(30));
    let (service, _) = start_small(&pool)?;
    let keys = submitter_keys(&service, &mut traffic);
    let mut report = Report::new(vec![service.config().clone()], service.simd_level());
    dog.phase("direct layer calls", Duration::from_secs(30));
    let (kernel_ns, _) = layers::kernel_per_payload(&pool)?;
    let (whiten_us, residual) = layers::whiten_off_path(&mut inputs)?;
    let compute = Compute {
        norm: kernel_ns.clone(),
        whiten: Vec::new(),
    };

    let half = args.seconds / 2.0;
    dog.phase("untraced load", Duration::from_secs_f64(half + 30.0));
    let untraced = load(&service, &keys, &mut traffic, half, None);
    dog.phase("traced load", Duration::from_secs_f64(half + 30.0));
    let before = service.stats();
    let traced = load(&service, &keys, &mut traffic, half, Some(&compute));
    let delta = layers::stats_delta(&before, &service.stats());
    report.tally = untraced.tally;
    report.tally.add(traced.tally);

    dog.phase("replay", Duration::from_secs(60));
    let items: Vec<Item> = (0..SMALL_REPLAY)
        .map(|_| Item {
            payload: traffic.below(pool.len()),
            tenant: SILVER,
            key: None,
            high: false,
            whiten: false,
        })
        .collect();
    let (handle, addr) = serve_loopback(service.clone())?;
    let replay = layers::replay(
        addr,
        &service,
        &pool,
        &items,
        &kernel_ns,
        &crate::wire::admission(),
        Duration::ZERO,
    );
    stop(handle, dog);
    let replay = replay?;
    stop_services(vec![service], dog);

    let kernel_row_ns = median(&kernel_ns) / pool.rows as f64;
    let service_self = layers::hist_p50(&traced.service_self);
    layer_report(&mut report, &traced, &replay, &delta);
    finish_layers(&mut report, kernel_row_ns, &whiten_us, residual);
    finish_trace(&mut report, &traced, &untraced);
    report.notes.push(design_check(
        "kernel time per request is under service.self_us_p50",
        kernel_row_ns * pool.rows as f64,
        service_self,
    ));
    Ok(report)
}

pub fn run_heavy(args: &Args, dog: &Watchdog) -> Result<Report, String> {
    let mut rng = Rng::new(args.seed);
    let mut inputs = rng.fork();
    let mut traffic = rng.fork();
    dog.phase("oracle precompute", Duration::from_secs(90));
    let norm_pool = Pool::norm(&mut inputs, HEAVY_D, HEAVY_ROWS, HEAVY_PAYLOADS)?;
    let whiten_pool = Pool::whiten(&mut inputs, WHITEN_D, WHITEN_M, WHITEN_GROUPS, true)?;
    let start = || {
        start_heavy(&norm_pool, &whiten_pool).map(|(norm, whiten, span)| {
            let heavy = Heavy {
                norm,
                whiten,
                norm_pool: &norm_pool,
                whiten_pool: &whiten_pool,
            };
            (heavy, span)
        })
    };
    let load = |heavy: &Heavy, rng: &mut Rng, seconds, compute: Option<&Compute>| {
        closed_loop(rng, seconds, |_, r, start, end| {
            heavy.submitter(compute, r, start, end)
        })
    };

    if !args.trace {
        return segmented(
            args,
            dog,
            start,
            |heavy| vec![heavy.norm.clone(), heavy.whiten.clone()],
            |heavy, seconds, report| {
                let phase = load(heavy, &mut traffic, seconds, None);
                report.tally.add(phase.tally);
                Ok(phase.windows)
            },
            |heavy| stop_services(vec![heavy.norm, heavy.whiten], dog),
        );
    }

    dog.phase("setup", Duration::from_secs(30));
    let (heavy, _) = start()?;
    let mut report = Report::new(
        vec![heavy.norm.config().clone(), heavy.whiten.config().clone()],
        heavy.norm.simd_level(),
    );
    dog.phase("direct layer calls", Duration::from_secs(30));
    let (kernel_ns, _) = layers::kernel_per_payload(heavy.norm_pool)?;
    let (whiten_us, residual) = layers::whiten_per_group(heavy.whiten_pool)?;
    let compute = Compute {
        norm: kernel_ns.clone(),
        whiten: whiten_us.iter().map(|us| us * 1e3).collect(),
    };

    let half = args.seconds / 2.0;
    dog.phase("untraced load", Duration::from_secs_f64(half + 30.0));
    let untraced = load(&heavy, &mut traffic, half, None);
    dog.phase("traced load", Duration::from_secs_f64(half + 30.0));
    let before = [heavy.norm.stats(), heavy.whiten.stats()];
    let traced = load(&heavy, &mut traffic, half, Some(&compute));
    let delta = layers::stats_sum(&[
        layers::stats_delta(&before[0], &heavy.norm.stats()),
        layers::stats_delta(&before[1], &heavy.whiten.stats()),
    ]);
    report.tally = untraced.tally;
    report.tally.add(traced.tally);

    dog.phase("replay", Duration::from_secs(60));
    let mut replay = Replay::default();
    for (service, pool, whiten, costs) in [
        (&heavy.norm, &heavy.norm_pool, false, &compute.norm),
        (&heavy.whiten, &heavy.whiten_pool, true, &compute.whiten),
    ] {
        let count = if whiten {
            (HEAVY_REPLAY as f64 * WHITEN_SHARE) as usize
        } else {
            (HEAVY_REPLAY as f64 * (1.0 - WHITEN_SHARE)) as usize
        };
        let items: Vec<Item> = (0..count)
            .map(|_| Item {
                payload: traffic.below(pool.len()),
                tenant: SILVER,
                key: None,
                high: false,
                whiten,
            })
            .collect();
        let (handle, addr) = serve_loopback(service.clone())?;
        let part = layers::replay(
            addr,
            service,
            pool,
            &items,
            costs,
            &crate::wire::admission(),
            Duration::ZERO,
        );
        stop(handle, dog);
        replay.extend(part?);
    }
    let Heavy { norm, whiten, .. } = heavy;
    stop_services(vec![norm, whiten], dog);

    let kernel_row_ns = median(&kernel_ns) / HEAVY_ROWS as f64;
    layer_report(&mut report, &traced, &replay, &delta);
    finish_layers(&mut report, kernel_row_ns, &whiten_us, residual);
    finish_trace(&mut report, &traced, &untraced);
    let busy_ns = SUBMITTERS as f64 * traced.wall.as_secs_f64() * 1e9;
    report.notes.push(format!(
        "oracle comparison share of submitter busy time: {:.3}; service execute share {:.3}; shard driver busy share {:.3}",
        traced.check_ns / busy_ns,
        delta.execute.as_secs_f64() * 1e9 / busy_ns,
        delta.worker_busy.as_secs_f64() * 1e9 / busy_ns,
    ));
    report.notes.push(design_check(
        "submitter busy time not spent in kernel + whitening is under 20%",
        1.0 - traced.compute_sum_ns / busy_ns,
        0.2,
    ));
    report.notes.push(format!(
        "whitening share of kernel + whitening time: {:.3}",
        traced.whiten_compute_ns / traced.compute_sum_ns
    ));
    Ok(report)
}

/// The per-layer metrics both in-process workloads share.
fn layer_report(
    report: &mut Report,
    traced: &Phase,
    replay: &Replay,
    delta: &iterl2norm::ServiceStats,
) {
    let lag_p99 = if traced.lag.count() == 0 {
        0.0
    } else {
        traced.lag.quantile(0.99)
    };
    report
        .metrics
        .push(metric("loadgen.send_lag_p99_us", lag_p99 / 1e3, "us"));
    report.metrics.extend(layers::replay_metrics(replay));
    report.metrics.push(metric(
        "service.self_us_p50",
        layers::hist_p50(&traced.service_self) / 1e3,
        "us",
    ));
    report.metrics.extend(layers::service_metrics(delta));
}

/// Trace honesty metrics: on the in-process path the chain is the
/// service and the compute under it.
fn finish_trace(report: &mut Report, traced: &Phase, untraced: &Phase) {
    let traced_p50 = traced.windows.latency(0.5);
    let self_sum = layers::hist_p50(&traced.service_self) + layers::hist_p50(&traced.compute);
    report.metrics.extend(layers::trace_metrics(
        untraced.windows.latency(0.5),
        traced_p50,
        self_sum,
    ));
    layers::check_accounting(traced_p50, self_sum, &mut report.problems);
}
