//! `wire-small`: open loop over TCP on one pipelined connection.
//!
//! The kernel is about 1% of a request's latency here, so socket I/O,
//! the frame protocol, admission, the server's reader/writer threads and
//! the hand-off to the shard driver dominate; a kernel change should not
//! move this workload.
//!
//! The load generator is the benchmark's own. One sender thread writes each
//! request at its due time on a seeded Poisson schedule, one receiver
//! thread reads replies off the same connection, and every request is
//! timed from when it was *due*, so a stalled sender shows up in the
//! latency of everything it delayed (no coordinated omission). Frames
//! are written and read with the `protocol` module directly: a
//! `NormClient` owns both halves of its socket and cannot be split
//! across the two threads. `NormClient` makes the set-up connection, its
//! first request, and the in-band metrics fetch.
//!
//! This workload is runnable by name but not listed in `BENCHMARK.json`:
//! on a two-vCPU virtual machine the host takes a core away for a few
//! milliseconds several times a second, about 1% of wall time, so an open
//! loop's p99 and peak RSS are set by the host (ten 30-second runs spread
//! 124% and 28% between quartiles) and cannot gate a change. The traced
//! runs of the in-process workloads still replay their requests through
//! the server, protocol and admission layers.

use std::collections::BTreeMap;
use std::io::{BufReader, Write};
use std::net::{Shutdown, SocketAddr, TcpStream};
use std::time::{Duration, Instant};

use iterl2norm::{NormService, Priority};
use normserver::admission::{Admission, TenantSpec};
use normserver::protocol::{encode_frame, read_frame, Frame};
use normserver::{serve, ClientRequest, NormClient, ServerHandle, ServerOptions, ServerReply};

use crate::layers::{self, Item};
use crate::oracle::{served_config, Pool, Tally};
use crate::report::{metric, Report};
use crate::stats::{median, ns, percentile, wait_until, Rng, Windowed};
use crate::{segmented, Args, Watchdog};

/// OPT-125m's hidden size.
const D: usize = 768;
const ROWS: usize = 4;
/// Offered load, requests/s: well below the ~17k req/s this path serves
/// closed loop on two cores, so host stalls of a few milliseconds drain
/// instead of building a backlog.
const RATE: f64 = 2000.0;
const PAYLOADS: usize = 64;
/// Placement keys per tenant for the keyed half of the traffic.
const SESSIONS: u64 = 8;
const GOLD: u64 = 1;
pub const SILVER: u64 = 2;
/// Replies may trail the last due time by this much before they count as
/// missing.
const REPLY_GRACE: Duration = Duration::from_secs(2);
/// Requests replayed one at a time in the traced run.
const REPLAY: usize = 400;

/// Both tenants provisioned far above the offered rate, so admission
/// never refuses a request by design.
pub fn admission() -> Admission {
    let spec = |tenant, priority| TenantSpec {
        tenant,
        rate: 1e6,
        burst: 1e6,
        priority,
    };
    Admission::new(
        vec![spec(GOLD, Priority::High), spec(SILVER, Priority::Normal)],
        Instant::now(),
    )
}

/// One scheduled request.
#[derive(Debug, Clone, Copy)]
struct Scheduled {
    due: Duration,
    item: Item,
}

/// A traffic item: gold (high priority) gets a third of the requests,
/// silver two thirds; half of each tenant's requests carry a session key.
fn traffic_item(rng: &mut Rng, payloads: usize) -> Item {
    let gold = rng.below(3) == 0;
    let tenant = if gold { GOLD } else { SILVER };
    let key = (rng.below(2) == 0).then(|| tenant * 1000 + rng.below(SESSIONS as usize) as u64);
    Item {
        payload: rng.below(payloads),
        tenant,
        key,
        high: gold,
        whiten: false,
    }
}

/// Poisson arrivals at `rate` per second for `seconds`.
fn schedule(rng: &mut Rng, payloads: usize, rate: f64, seconds: f64) -> Vec<Scheduled> {
    let mut due = 0.0;
    let mut plan = Vec::new();
    loop {
        due += rng.exp(1.0 / rate);
        if due >= seconds {
            return plan;
        }
        plan.push(Scheduled {
            due: Duration::from_secs_f64(due),
            item: traffic_item(rng, payloads),
        });
    }
}

/// Start a server over `service` on an ephemeral loopback port.
pub fn serve_loopback(service: NormService) -> Result<(ServerHandle, SocketAddr), String> {
    let handle = serve(
        service,
        admission(),
        ServerOptions::default(),
        Some("127.0.0.1:0"),
        None,
    )
    .map_err(|e| format!("serve: {e}"))?;
    let addr = handle.tcp_addr().ok_or("server has no tcp address")?;
    Ok((handle, addr))
}

/// A running server plus its set-up connection.
struct Server {
    handle: ServerHandle,
    addr: SocketAddr,
    client: NormClient,
}

/// Build, bind, connect and get the first correct reply. The returned
/// span is one `setup_s` sample.
fn start(pool: &Pool) -> Result<(Server, Duration), String> {
    let t0 = Instant::now();
    let service = served_config(D)
        .build()
        .map_err(|e| format!("build: {e}"))?;
    let (handle, addr) = serve_loopback(service)?;
    let mut client = NormClient::connect_tcp(addr).map_err(|e| format!("connect: {e}"))?;
    let reply = client
        .request(&ClientRequest::new(SILVER, D as u32, &pool.inputs[0]))
        .map_err(|e| format!("first request: {e}"))?;
    let elapsed = t0.elapsed();
    match reply {
        ServerReply::Bits { bits, .. } if pool.check(0, &bits) => Ok((
            Server {
                handle,
                addr,
                client,
            },
            elapsed,
        )),
        other => Err(format!("first reply is not the oracle's output: {other:?}")),
    }
}

/// Shut a server down under the watchdog.
pub fn stop(handle: ServerHandle, dog: &Watchdog) {
    dog.teardown("server shutdown");
    handle.shutdown();
}

/// What one open-loop phase observed.
#[derive(Debug, Default)]
struct OpenLoop {
    tally: Tally,
    /// Due time to reply, per request (`None`: failed or missing).
    latency: Vec<Option<u64>>,
    /// Sent minus due, per request written.
    lag: Vec<u64>,
    /// Error frames received.
    error_frames: u64,
    first_error: Option<String>,
}

impl OpenLoop {
    /// Replies by completion time, relative to the phase's start.
    fn windows(&self, plan: &[Scheduled], seconds: f64) -> Windowed {
        let mut w = Windowed::new(seconds);
        for (l, s) in self.latency.iter().zip(plan) {
            if let Some(l) = l {
                w.record(s.due + Duration::from_nanos(*l), *l, ROWS as u64);
            }
        }
        w
    }
}

/// Drive `plan` open loop over one fresh connection to `addr`.
/// `before_send(i)` runs just before request `i` is written (a test seam
/// for injecting sender stalls).
fn open_loop(
    addr: SocketAddr,
    plan: &[Scheduled],
    pool: &Pool,
    before_send: &(dyn Fn(usize) + Sync),
) -> Result<OpenLoop, String> {
    let stream = TcpStream::connect(addr).map_err(|e| format!("connect: {e}"))?;
    let _ = stream.set_nodelay(true);
    let reader = stream.try_clone().map_err(|e| format!("socket: {e}"))?;
    let killer = stream.try_clone().map_err(|e| format!("socket: {e}"))?;
    let start = Instant::now() + Duration::from_millis(2);
    let last_due = plan.last().map_or(Duration::ZERO, |s| s.due);
    let deadline = start + last_due + REPLY_GRACE;

    let (sent, received) = std::thread::scope(|s| {
        let sender = s.spawn(move || send_all(stream, plan, pool, start, before_send));
        let receiver = s.spawn(move || receive_all(reader, plan, pool, start));
        while !receiver.is_finished() {
            if Instant::now() >= deadline {
                // Unblocks both threads; what has not arrived is missing.
                let _ = killer.shutdown(Shutdown::Both);
                break;
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        (sender.join(), receiver.join())
    });
    let lag = sent.map_err(|_| "sender thread panicked")?;
    let mut result = received.map_err(|_| "receiver thread panicked")?;
    result.lag = lag;
    for l in &result.latency {
        result.tally.record(l.is_some());
    }
    Ok(result)
}

/// The sender: encode the next frame, wait for its due time, write it.
/// Returns each written request's lateness. A write error (the socket
/// was shut at the deadline) ends the phase; unsent requests never get
/// a reply and count as failed.
fn send_all(
    mut stream: TcpStream,
    plan: &[Scheduled],
    pool: &Pool,
    start: Instant,
    before_send: &(dyn Fn(usize) + Sync),
) -> Vec<u64> {
    let mut lag = Vec::with_capacity(plan.len());
    for (i, s) in plan.iter().enumerate() {
        let wire = encode_frame(&s.item.frame(i as u64 + 1, pool));
        let due = start + s.due;
        wait_until(due);
        before_send(i);
        let sent = Instant::now();
        if stream.write_all(&wire).is_err() {
            break;
        }
        lag.push(ns(sent - due));
    }
    lag
}

/// The receiver: read replies until every request is answered or the
/// socket is shut, checking each against the oracle.
fn receive_all(stream: TcpStream, plan: &[Scheduled], pool: &Pool, start: Instant) -> OpenLoop {
    let mut reader = BufReader::with_capacity(1 << 16, stream);
    let mut out = OpenLoop {
        latency: vec![None; plan.len()],
        ..OpenLoop::default()
    };
    let mut answered = 0;
    while answered < plan.len() {
        let frame = match read_frame(&mut reader) {
            Ok(Some(frame)) => frame,
            Ok(None) | Err(_) => break,
        };
        let at = Instant::now();
        answered += 1;
        match frame {
            Frame::Response(r) => {
                let idx = r.request_id.wrapping_sub(1) as usize;
                if let Some(s) = plan.get(idx) {
                    if pool.check(s.item.payload, &r.bits) {
                        out.latency[idx] = Some(ns(at.saturating_duration_since(start + s.due)));
                    }
                }
            }
            Frame::Error(e) => {
                out.error_frames += 1;
                out.first_error
                    .get_or_insert(format!("{:?}: {}", e.code, e.message));
            }
            _ => break,
        }
    }
    out
}

/// Per-tenant counts the server's metrics frame must agree with.
#[derive(Debug, Default)]
struct Expected {
    requests: BTreeMap<u64, u64>,
    completed: BTreeMap<u64, u64>,
    rows: BTreeMap<u64, u64>,
}

impl Expected {
    fn probe(&mut self) {
        *self.requests.entry(SILVER).or_default() += 1;
        *self.completed.entry(SILVER).or_default() += 1;
        *self.rows.entry(SILVER).or_default() += ROWS as u64;
    }

    /// Count a phase's requests; only those actually written reached the
    /// server.
    fn phase(&mut self, plan: &[Scheduled], run: &OpenLoop) {
        for (i, s) in plan.iter().enumerate().take(run.lag.len()) {
            let t = s.item.tenant;
            *self.requests.entry(t).or_default() += 1;
            if run.latency[i].is_some() {
                *self.completed.entry(t).or_default() += 1;
                *self.rows.entry(t).or_default() += ROWS as u64;
            }
        }
    }

    /// Compare with the in-band metrics export.
    fn check(&self, client: &mut NormClient, problems: &mut Vec<String>) {
        let text = match client.metrics() {
            Ok(text) => text,
            Err(e) => {
                problems.push(format!("metrics frame: {e}"));
                return;
            }
        };
        let values: BTreeMap<&str, u64> = text
            .lines()
            .filter(|l| !l.starts_with('#'))
            .filter_map(|l| {
                let (k, v) = l.rsplit_once(' ')?;
                Some((k, v.parse().ok()?))
            })
            .collect();
        let mut expect = |key: String, want: u64| {
            let got = values.get(key.as_str()).copied().unwrap_or(0);
            if got != want {
                problems.push(format!(
                    "metrics frame: {key} = {got}, load generator counted {want}"
                ));
            }
        };
        for (&t, &n) in &self.requests {
            expect(format!("norm_tenant_requests{{tenant=\"{t}\"}}"), n);
            let done = self.completed.get(&t).copied().unwrap_or(0);
            expect(format!("norm_tenant_completed{{tenant=\"{t}\"}}"), done);
            let rows = self.rows.get(&t).copied().unwrap_or(0);
            expect(format!("norm_tenant_rows{{tenant=\"{t}\"}}"), rows);
        }
        expect(
            "norm_service_requests".to_string(),
            self.requests.values().sum(),
        );
        let rejected: u64 = values
            .iter()
            .filter(|(k, _)| k.starts_with("norm_tenant_rejected"))
            .map(|(_, v)| v)
            .sum();
        if rejected != 0 {
            problems.push(format!("metrics frame: {rejected} requests rejected"));
        }
    }
}

pub fn run(args: &Args, dog: &Watchdog) -> Result<Report, String> {
    let mut rng = Rng::new(args.seed);
    let mut inputs = rng.fork();
    let mut traffic = rng.fork();
    dog.phase("oracle precompute", Duration::from_secs(60));
    let pool = Pool::norm(&mut inputs, D, ROWS, PAYLOADS)?;
    if !args.trace {
        return run_segments(args, dog, &pool, &mut traffic);
    }

    dog.phase("setup", Duration::from_secs(30));
    let (
        Server {
            handle,
            addr,
            mut client,
        },
        _,
    ) = start(&pool)?;
    let service = handle.service().clone();
    let mut report = Report::new(vec![service.config().clone()], service.simd_level());
    let mut expected = Expected::default();
    expected.probe();

    dog.phase("direct layer calls", Duration::from_secs(30));
    let (kernel_ns, _) = layers::kernel_per_payload(&pool)?;
    let (whiten_us, residual) = layers::whiten_off_path(&mut inputs)?;

    let half = args.seconds / 2.0;
    dog.phase("untraced load", Duration::from_secs_f64(half + 30.0));
    let plan_u = schedule(&mut traffic, PAYLOADS, RATE, half);
    let untraced = open_loop(addr, &plan_u, &pool, &|_| {})?;
    expected.phase(&plan_u, &untraced);

    dog.phase("traced load", Duration::from_secs_f64(half + 30.0));
    let plan_t = schedule(&mut traffic, PAYLOADS, RATE, half);
    let before = service.stats();
    let traced = open_loop(addr, &plan_t, &pool, &|_| {})?;
    let delta = layers::stats_delta(&before, &service.stats());
    expected.phase(&plan_t, &traced);
    report.tally = untraced.tally;
    report.tally.add(traced.tally);
    note_errors(&untraced, &mut report);
    note_errors(&traced, &mut report);

    dog.phase("metrics check", Duration::from_secs(10));
    expected.check(&mut client, &mut report.problems);

    dog.phase("replay", Duration::from_secs(60));
    let items: Vec<Item> = plan_t.iter().take(REPLAY).map(|s| s.item).collect();
    let gap = Duration::from_secs_f64(1.0 / RATE);
    let replay = layers::replay(addr, &service, &pool, &items, &kernel_ns, &admission(), gap)?;
    drop(client);
    stop(handle, dog);

    let p50 = |v: &[u64]| percentile(v, 0.5) as f64;
    let traced_p50 = traced.windows(&plan_t, half).latency(0.5);
    let service_self = p50(&replay.service_self());
    let self_sum = p50(&replay.server_self())
        + p50(&replay.decode)
        + p50(&replay.admit)
        + service_self
        + p50(&replay.compute)
        + p50(&replay.encode);
    let kernel_row_ns = median(&kernel_ns) / ROWS as f64;
    report.metrics = vec![metric(
        "loadgen.send_lag_p99_us",
        percentile(&traced.lag, 0.99) as f64 / 1e3,
        "us",
    )];
    report.metrics.extend(layers::replay_metrics(&replay));
    report
        .metrics
        .push(metric("service.self_us_p50", service_self / 1e3, "us"));
    report.metrics.extend(layers::service_metrics(&delta));
    layers::finish_layers(&mut report, kernel_row_ns, &whiten_us, residual);
    report.metrics.extend(layers::trace_metrics(
        untraced.windows(&plan_u, half).latency(0.5),
        traced_p50,
        self_sum,
    ));
    layers::check_accounting(traced_p50, self_sum, &mut report.problems);
    report.notes.push(layers::design_check(
        "kernel time is under 5% of latency_p50_us",
        kernel_row_ns * ROWS as f64,
        0.05 * traced_p50,
    ));
    Ok(report)
}

/// A `--trace 0` run: each part gets a fresh server, its share of the
/// schedule, and its own check of the in-band metrics.
fn run_segments(
    args: &Args,
    dog: &Watchdog,
    pool: &Pool,
    traffic: &mut Rng,
) -> Result<Report, String> {
    segmented(
        args,
        dog,
        || start(pool),
        |server| vec![server.handle.service().clone()],
        |server, seconds, report| {
            let plan = schedule(traffic, PAYLOADS, RATE, seconds);
            let load = open_loop(server.addr, &plan, pool, &|_| {})?;
            report.tally.add(load.tally);
            note_errors(&load, report);
            dog.phase("metrics check", Duration::from_secs(10));
            let mut expected = Expected::default();
            expected.probe();
            expected.phase(&plan, &load);
            expected.check(&mut server.client, &mut report.problems);
            Ok(load.windows(&plan, seconds))
        },
        |Server { handle, client, .. }| {
            drop(client);
            stop(handle, dog);
        },
    )
}

fn note_errors(run: &OpenLoop, report: &mut Report) {
    if let Some(e) = &run.first_error {
        report
            .notes
            .push(format!("{} error frames, first: {e}", run.error_frames));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use normserver::protocol::{write_frame, ResponseFrame};
    use std::net::TcpListener;

    /// Echoes every request's bits back as its reply.
    fn echo_server() -> (SocketAddr, std::thread::JoinHandle<()>) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let handle = std::thread::spawn(move || {
            let (stream, _) = listener.accept().unwrap();
            let mut writer = stream.try_clone().unwrap();
            let mut reader = BufReader::new(stream);
            while let Ok(Some(Frame::Request(r))) = read_frame(&mut reader) {
                let reply = Frame::Response(ResponseFrame {
                    request_id: r.request_id,
                    rows: 1,
                    bits: r.bits,
                });
                if write_frame(&mut writer, &reply).is_err() {
                    return;
                }
            }
        });
        (addr, handle)
    }

    #[test]
    fn latency_counts_from_the_due_time_through_a_sender_stall() {
        let mut rng = Rng::new(5);
        let inputs: Vec<Vec<u32>> = (0..4)
            .map(|_| crate::oracle::random_bits(&mut rng, 8))
            .collect();
        let pool = Pool {
            d: 8,
            rows: 1,
            expected: inputs.clone(),
            inputs,
        };
        // Twenty requests due 2 ms apart; the sender stalls 30 ms before
        // writing request 5.
        let plan: Vec<Scheduled> = (0..20)
            .map(|i| Scheduled {
                due: Duration::from_millis(2 * i as u64),
                item: Item {
                    payload: i % 4,
                    tenant: SILVER,
                    key: None,
                    high: false,
                    whiten: false,
                },
            })
            .collect();
        let stall = Duration::from_millis(30);
        let (addr, echo) = echo_server();
        let run = open_loop(addr, &plan, &pool, &|i| {
            if i == 5 {
                std::thread::sleep(stall);
            }
        })
        .unwrap();
        echo.join().unwrap();
        assert_eq!(
            run.tally,
            Tally {
                attempted: 20,
                failed: 0
            }
        );
        let ms = |ns: u64| ns as f64 / 1e6;
        let latency: Vec<f64> = run.latency.iter().map(|l| ms(l.unwrap())).collect();
        // Request 5 waited out the whole stall; the requests due during
        // it carry what remained of the stall at their due time.
        assert!(latency[5] >= 30.0, "{latency:?}");
        for i in 6..=19 {
            let remaining = 30.0 - 2.0 * (i as f64 - 5.0);
            assert!(latency[i] >= remaining, "request {i}: {latency:?}");
            assert!(latency[i] >= ms(run.lag[i]), "request {i}");
        }
        // Before the stall the echo answers in well under a millisecond.
        assert!(latency[..5].iter().all(|&l| l < 10.0), "{latency:?}");
        // The generator reports how late it ran.
        assert!(ms(percentile(&run.lag, 0.99)) >= 30.0);
    }

    #[test]
    fn schedule_is_seeded_poisson_at_the_rate() {
        let plan = schedule(&mut Rng::new(9), 8, 2000.0, 5.0);
        let again = schedule(&mut Rng::new(9), 8, 2000.0, 5.0);
        assert_eq!(plan.len(), again.len());
        assert!(
            (plan.len() as f64 - 10_000.0).abs() < 400.0,
            "{}",
            plan.len()
        );
        let gold = plan.iter().filter(|s| s.item.tenant == GOLD).count() as f64;
        assert!((gold / plan.len() as f64 - 1.0 / 3.0).abs() < 0.02);
        let keyed = plan.iter().filter(|s| s.item.key.is_some()).count() as f64;
        assert!((keyed / plan.len() as f64 - 0.5).abs() < 0.02);
    }
}
