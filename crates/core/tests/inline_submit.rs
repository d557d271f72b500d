//! The idle-shard inline path, enforced:
//!
//! * A submit that finds its shard idle runs on the calling thread, and
//!   its bits equal the emulated soft-float oracle — for every registry
//!   method × shards {1, 2} × both backends × both workloads, through
//!   `submit` and `submit_into` alike, and through `submit_async` for
//!   bit and `f32` payloads.
//! * Sequential inline calls never touch the resident driver: zero
//!   worker wake-ups, one backend call per request.
//! * Work that arrives while an inline caller holds the shard queues
//!   behind it and is served by the driver once the claim is released —
//!   never stranded, never run by the inline caller.
//! * A service with a fixed coalescing window never runs inline.
//! * A panic inside an inline call surfaces on the caller's thread and
//!   fails the shard like a driver-round panic: a ticket queued behind
//!   it collects `ServiceShutdown` instead of hanging.
//! * `submit_async` on an idle shard runs inline too: on the caller's
//!   thread, without waking the driver, and the ticket is complete when
//!   the call returns; on a busy shard the ticket still queues for the
//!   driver. A dropped inline ticket is counted and its reply buffer goes
//!   back to the pool, and a panicking backend yields a `ServiceShutdown`
//!   ticket instead of unwinding into the submitter.
//!
//! The gated backends record the name of every thread that enters them:
//! resident drivers are named `ns{service}s{shard}d`, so "who executed
//! this call" is observable without touching private state.

use std::collections::HashSet;
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use iterl2norm::backend::{build_backend, BackendKind, FormatKind};
use iterl2norm::service::{NormRequest, ServiceConfig};
use iterl2norm::whiten::{build_whiten, WhitenSpec};
use iterl2norm::SimdLevel;
use iterl2norm::{MethodSpec, NormBackend, NormError, NormService, ReduceOrder, RowMoments};
use workloads::{Distribution, VectorGen};

const D: usize = 16;

/// Name given to the test's own submitter threads.
const CALLER: &str = "inline-caller";

fn request_bits(rows: usize, seed: u64) -> Vec<u32> {
    let gen = VectorGen::new(Distribution::Uniform, seed);
    let mut bits = Vec::with_capacity(rows * D);
    for r in 0..rows as u64 {
        bits.extend(gen.vector_f64(D, r).iter().map(|&v| (v as f32).to_bits()));
    }
    bits
}

/// Serial normalization on a fresh emulated backend: the oracle.
fn oracle_norm(spec: &MethodSpec, bits: &[u32]) -> Vec<u32> {
    let mut backend = build_backend(
        BackendKind::Emulated,
        FormatKind::Fp32,
        D,
        spec,
        ReduceOrder::HwTree,
    )
    .unwrap();
    let mut out = vec![0u32; bits.len()];
    backend.normalize_batch_bits(bits, &mut out, 1).unwrap();
    out
}

/// Serial whitening on a fresh emulated executor: the oracle.
fn oracle_whiten(bits: &[u32]) -> Vec<u32> {
    let mut exec = build_whiten(
        BackendKind::Emulated,
        FormatKind::Fp32,
        D,
        WhitenSpec::default(),
        SimdLevel::Auto,
    )
    .unwrap();
    let mut out = vec![0u32; bits.len()];
    exec.whiten_groups(bits, &mut out, &[bits.len() / D], 1)
        .unwrap();
    out
}

/// `true` for a resident shard driver's thread name.
fn is_driver(name: &str) -> bool {
    name.starts_with("ns") && name.ends_with('d')
}

/// A gate the test controls: backend calls block in `pass` until the
/// test opens it (bounded, so a bug fails instead of hanging), and each
/// entry records the entering thread's name.
#[derive(Default)]
struct Gate {
    state: Mutex<GateState>,
    cv: Condvar,
}

#[derive(Default)]
struct GateState {
    entered: Vec<String>,
    open: bool,
}

impl Gate {
    fn new(open: bool) -> Arc<Self> {
        let gate = Gate::default();
        gate.state.lock().unwrap().open = open;
        Arc::new(gate)
    }

    fn pass(&self) {
        let mut state = self.state.lock().unwrap();
        let name = std::thread::current().name().unwrap_or("").to_string();
        state.entered.push(name);
        self.cv.notify_all();
        let deadline = Instant::now() + Duration::from_secs(10);
        while !state.open && Instant::now() < deadline {
            state = self
                .cv
                .wait_timeout(state, Duration::from_millis(50))
                .unwrap()
                .0;
        }
    }

    /// Wait until `n` backend calls have entered the gate.
    fn await_entered(&self, n: usize) {
        let deadline = Instant::now() + Duration::from_secs(10);
        let mut state = self.state.lock().unwrap();
        while state.entered.len() < n {
            assert!(Instant::now() < deadline, "backend never entered the gate");
            state = self
                .cv
                .wait_timeout(state, Duration::from_millis(50))
                .unwrap()
                .0;
        }
    }

    fn open(&self) {
        self.state.lock().unwrap().open = true;
        self.cv.notify_all();
    }

    fn entered(&self) -> Vec<String> {
        self.state.lock().unwrap().entered.clone()
    }
}

/// An identity backend that waits at the gate first, then panics if
/// `panics` is set.
struct GatedBackend {
    gate: Arc<Gate>,
    panics: bool,
}

impl NormBackend for GatedBackend {
    fn backend(&self) -> BackendKind {
        BackendKind::Emulated
    }

    fn format_name(&self) -> &'static str {
        "FP32"
    }

    fn d(&self) -> usize {
        D
    }

    fn method_label(&self) -> String {
        "gated-test".into()
    }

    fn normalize_batch_bits(
        &mut self,
        input: &[u32],
        out: &mut [u32],
        _threads: usize,
    ) -> Result<usize, NormError> {
        self.gate.pass();
        assert!(!self.panics, "injected inline backend panic");
        out.copy_from_slice(input);
        Ok(input.len() / D)
    }

    fn normalize_row_bits_detailed(
        &mut self,
        input: &[u32],
        out: &mut [u32],
    ) -> Result<RowMoments, NormError> {
        self.normalize_batch_bits(input, out, 1)?;
        Ok(RowMoments {
            mean: 0.0,
            m: 1.0,
            scale: 1.0,
        })
    }
}

fn gated(config: ServiceConfig, gate: &Arc<Gate>, panics: bool) -> NormService {
    config
        .build_with_backends(|| {
            Box::new(GatedBackend {
                gate: Arc::clone(gate),
                panics,
            })
        })
        .unwrap()
}

/// Every live thread of this process as `(tid, comm, state)`, read from
/// `/proc/self/task/*/{comm,stat}`; a thread that exits mid-read is
/// skipped.
fn tasks() -> Vec<(String, String, char)> {
    let read = |entry: std::io::Result<std::fs::DirEntry>| {
        let dir = entry.ok()?.path();
        let comm = std::fs::read_to_string(dir.join("comm")).ok()?;
        let stat = std::fs::read_to_string(dir.join("stat")).ok()?;
        // `stat` reads `tid (comm) state …`, and comm may itself hold
        // parentheses, so the state follows the *last* `)`.
        let state = stat.rsplit_once(')')?.1.trim_start().chars().next()?;
        let tid = dir.file_name()?.to_string_lossy().into_owned();
        Some((tid, comm.trim().to_string(), state))
    };
    let dir = std::fs::read_dir("/proc/self/task").expect("procfs task dir");
    dir.filter_map(read).collect()
}

/// [`gated`], then wait (bounded) until the service's resident driver is
/// parked. A driver that first runs after work was queued finds that
/// work without ever parking, so a test that needs the driver to be
/// *woken* must not race its start-up.
///
/// The service is built on a thread named `SPAWNER`, and a new thread
/// carries its spawner's name until it starts and renames itself. The
/// wait ends once no thread still carries `SPAWNER`'s name and every
/// driver thread that appeared during the build has been seen asleep
/// (`S`). Nothing has been submitted yet, so nobody holds the queue
/// lock: a sleeping driver is parked on its work condvar.
fn gated_with_parked_driver(gate: &Arc<Gate>) -> NormService {
    const SPAWNER: &str = "busy-shard-spn";
    let before: HashSet<String> = tasks().into_iter().map(|(tid, ..)| tid).collect();
    let gate = Arc::clone(gate);
    let service = std::thread::Builder::new()
        .name(SPAWNER.into())
        .spawn(move || gated(ServiceConfig::new(D), &gate, false))
        .unwrap()
        .join()
        .unwrap();
    let mut asleep = HashSet::new();
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let live = tasks();
        let mut parked = live.iter().all(|(_, comm, _)| comm != SPAWNER);
        for (tid, _, state) in live
            .iter()
            .filter(|(tid, comm, _)| is_driver(comm) && !before.contains(tid))
        {
            if *state == 'S' {
                asleep.insert(tid.clone());
            }
            parked &= asleep.contains(tid);
        }
        if parked {
            return service;
        }
        assert!(
            Instant::now() < deadline,
            "the shard driver never parked: {live:?}"
        );
        std::thread::sleep(Duration::from_micros(200));
    }
}

/// Poll until `n` requests were accepted (a queued submitter counts
/// before it parks).
fn await_accepted(service: &NormService, n: u64) {
    let deadline = Instant::now() + Duration::from_secs(10);
    while service.stats().requests < n {
        assert!(
            Instant::now() < deadline,
            "never saw {n} accepted requests (stats: {:?})",
            service.stats()
        );
        std::thread::sleep(Duration::from_micros(100));
    }
}

#[test]
fn idle_shard_submits_match_the_emulated_oracle() {
    for backend in [BackendKind::Emulated, BackendKind::Native] {
        for spec in MethodSpec::REGISTRY {
            for shards in [1usize, 2] {
                let context = format!("{}/{} shards={shards}", backend.name(), spec.label());
                let service = ServiceConfig::new(D)
                    .with_backend(backend)
                    .with_method(spec)
                    .with_shards(shards)
                    .with_whiten(WhitenSpec::default())
                    .build()
                    .unwrap();
                // One caller, one request at a time: every shard it
                // lands on is idle, so every call runs inline.
                for salt in 0..2 * shards as u64 {
                    let norm = request_bits(1 + salt as usize % 3, 0x1000 + salt);
                    let group = request_bits(5, 0x2000 + salt);
                    let expect_norm = oracle_norm(&spec, &norm);
                    let expect_group = oracle_whiten(&group);

                    let response = service.submit(NormRequest::bits(&norm)).unwrap();
                    assert_eq!(response.bits(), &expect_norm[..], "{context}: submit");
                    assert_eq!(response.batch_requests(), 1, "{context}");
                    let mut out = vec![0u32; norm.len()];
                    service
                        .submit_into(NormRequest::bits(&norm), &mut out)
                        .unwrap();
                    assert_eq!(out, expect_norm, "{context}: submit_into");

                    let response = service.submit(NormRequest::whiten_group(&group)).unwrap();
                    assert_eq!(response.bits(), &expect_group[..], "{context}: whiten");
                    let mut out = vec![0u32; group.len()];
                    service
                        .submit_into(NormRequest::whiten_group(&group), &mut out)
                        .unwrap();
                    assert_eq!(out, expect_group, "{context}: whiten submit_into");
                }
                let stats = service.stats();
                assert_eq!(stats.requests, 8 * shards as u64, "{context}");
                assert_eq!(stats.batches, stats.requests, "{context}");
                assert_eq!(stats.whiten_requests, 4 * shards as u64, "{context}");
            }
        }
    }
}

#[test]
fn sequential_inline_calls_never_wake_the_driver() {
    let service = ServiceConfig::new(D)
        .with_backend(BackendKind::Native)
        .build()
        .unwrap();
    let bits = request_bits(1, 0x3000);
    let expect = oracle_norm(&MethodSpec::iterl2(5), &bits);
    let mut out = vec![0u32; bits.len()];
    let before = service.stats();
    for _ in 0..1000 {
        service
            .submit_into(NormRequest::bits(&bits), &mut out)
            .unwrap();
    }
    assert_eq!(out, expect);
    let after = service.stats();
    assert_eq!(
        after.worker_wakeups - before.worker_wakeups,
        0,
        "an idle shard's blocking submits must not hand off to the driver"
    );
    assert_eq!(after.requests - before.requests, 1000);
    assert_eq!(after.batches, after.requests);
    assert_eq!(after.coalesced_requests, 0);
    assert_eq!(after.rows - before.rows, 1000);
}

#[test]
fn work_arriving_behind_an_inline_caller_is_served_by_the_driver() {
    let gate = Gate::new(false);
    let service = gated(ServiceConfig::new(D), &gate, false);
    let first = request_bits(1, 0x4001);
    let second = request_bits(2, 0x4002);
    let third = request_bits(1, 0x4003);

    std::thread::scope(|scope| {
        let inline = std::thread::Builder::new()
            .name(CALLER.into())
            .spawn_scoped(scope, || service.submit(NormRequest::bits(&first)))
            .unwrap();
        gate.await_entered(1);
        assert_eq!(
            gate.entered(),
            vec![CALLER.to_string()],
            "an idle shard's blocking submit must run on the caller"
        );

        // The shard is claimed: a second blocking submit and a ticket
        // both queue behind the inline call.
        let queued = std::thread::Builder::new()
            .name(CALLER.into())
            .spawn_scoped(scope, || service.submit(NormRequest::bits(&second)))
            .unwrap();
        let mut ticket = service.submit_async(NormRequest::bits(&third)).unwrap();
        await_accepted(&service, 3);
        assert!(ticket.try_take().is_none(), "nothing may run while claimed");
        assert_eq!(
            gate.entered().len(),
            1,
            "the driver must wait for the claim"
        );

        gate.open();
        let inline = inline.join().unwrap().unwrap();
        assert_eq!(inline.bits(), &first[..]);
        assert_eq!(inline.batch_requests(), 1);
        let queued = queued.join().unwrap().unwrap();
        assert_eq!(queued.bits(), &second[..], "identity backend");
        let ticket = ticket
            .wait_timeout(Duration::from_secs(10))
            .expect("the ticket queued behind the claim was stranded")
            .unwrap();
        assert_eq!(ticket.bits(), &third[..]);
        // Both queued requests were waiting when the claim came back, so
        // the driver ran them as one round.
        assert_eq!(queued.batch_requests(), 2);
        assert_eq!(ticket.batch_requests(), 2);
    });

    let entered = gate.entered();
    assert_eq!(entered.len(), 2, "one inline call + one driver round");
    assert!(is_driver(&entered[1]), "queued work ran on {entered:?}");
    let stats = service.stats();
    assert_eq!(stats.requests, 3);
    assert_eq!(stats.rows, 4);
    assert_eq!(stats.batches, 2);
    assert_eq!(stats.coalesced_requests, 2);
}

#[test]
fn a_fixed_window_never_runs_inline() {
    let gate = Gate::new(true);
    let service = gated(
        ServiceConfig::new(D).with_window(Duration::from_micros(200)),
        &gate,
        false,
    );
    let bits = request_bits(1, 0x5000);
    let mut out = vec![0u32; bits.len()];
    for _ in 0..10 {
        assert_eq!(
            service.submit(NormRequest::bits(&bits)).unwrap().bits(),
            &bits[..]
        );
        service
            .submit_into(NormRequest::bits(&bits), &mut out)
            .unwrap();
        assert_eq!(out, bits);
    }
    let entered = gate.entered();
    assert_eq!(entered.len(), 20);
    assert!(
        entered.iter().all(|name| is_driver(name)),
        "a windowed service ran a backend call off the driver: {entered:?}"
    );
}

#[test]
fn a_panicking_inline_call_fails_the_ticket_queued_behind_it() {
    let gate = Gate::new(false);
    let service = gated(ServiceConfig::new(D), &gate, true);
    let bits = request_bits(1, 0x6000);

    std::thread::scope(|scope| {
        let victim = std::thread::Builder::new()
            .name(CALLER.into())
            .spawn_scoped(scope, || {
                std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    service.submit(NormRequest::bits(&bits)).map(|r| r.rows())
                }))
            })
            .unwrap();
        gate.await_entered(1);
        assert_eq!(gate.entered(), vec![CALLER.to_string()]);

        let mut ticket = service.submit_async(NormRequest::bits(&bits)).unwrap();
        gate.open();
        assert!(
            victim.join().unwrap().is_err(),
            "the inline panic must unwind on the caller's own thread"
        );
        let outcome = ticket
            .wait_timeout(Duration::from_secs(10))
            .expect("a ticket queued behind a panicking inline call hung");
        assert_eq!(outcome.unwrap_err(), NormError::ServiceShutdown);
    });

    assert!(service.is_shutdown());
    assert_eq!(
        gate.entered().len(),
        1,
        "the failed shard must not run queued work"
    );
    assert_eq!(
        service.submit(NormRequest::bits(&bits)).unwrap_err(),
        NormError::ServiceShutdown
    );
    let mut out = vec![0u32; bits.len()];
    assert_eq!(
        service
            .submit_into(NormRequest::bits(&bits), &mut out)
            .unwrap_err(),
        NormError::ServiceShutdown
    );
}

#[test]
fn an_idle_shard_ticket_runs_on_the_caller_and_is_complete_on_return() {
    let gate = Gate::new(true);
    let service = gated(ServiceConfig::new(D), &gate, false);
    let bits = request_bits(2, 0x7000);
    let before = service.stats();
    let (mut ticket, immediate) = std::thread::scope(|scope| {
        std::thread::Builder::new()
            .name(CALLER.into())
            .spawn_scoped(scope, || {
                let mut ticket = service.submit_async(NormRequest::bits(&bits)).unwrap();
                let immediate = ticket.try_take();
                (ticket, immediate)
            })
            .unwrap()
            .join()
            .unwrap()
    });
    let response = immediate
        .expect("an inline ticket is complete when submit_async returns")
        .unwrap();
    assert_eq!(response.bits(), &bits[..], "identity backend");
    assert_eq!(response.rows(), 2);
    assert_eq!(response.batch_requests(), 1);
    assert_eq!(
        gate.entered(),
        vec![CALLER.to_string()],
        "an idle shard's ticket must run on the submitting thread"
    );
    let after = service.stats();
    assert_eq!(
        after.worker_wakeups, before.worker_wakeups,
        "an inline ticket must not hand off to the driver"
    );
    assert_eq!(after.requests - before.requests, 1);
    assert_eq!(after.rows - before.rows, 2);
    assert_eq!(after.abandoned_tickets, 0);
    drop(response);
    // The ticket is spent: exactly-once delivery holds for inline tickets.
    let respent = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| ticket.try_take()));
    assert!(
        respent.is_err(),
        "a spent inline ticket must panic on reuse"
    );
}

#[test]
fn a_busy_shard_ticket_is_still_served_by_the_driver() {
    let gate = Gate::new(false);
    let service = gated_with_parked_driver(&gate);
    let held = request_bits(1, 0x7100);
    let queued = request_bits(3, 0x7101);

    std::thread::scope(|scope| {
        let occupier = std::thread::Builder::new()
            .name(CALLER.into())
            .spawn_scoped(scope, || service.submit(NormRequest::bits(&held)))
            .unwrap();
        gate.await_entered(1);
        let before = service.stats();
        let mut ticket = service.submit_async(NormRequest::bits(&queued)).unwrap();
        assert!(
            ticket.try_take().is_none(),
            "a ticket on a busy shard must queue, not run inline"
        );
        gate.open();
        assert_eq!(occupier.join().unwrap().unwrap().bits(), &held[..]);
        let response = ticket
            .wait_timeout(Duration::from_secs(10))
            .expect("the queued ticket was stranded")
            .unwrap();
        assert_eq!(response.bits(), &queued[..]);
        assert!(
            service.stats().worker_wakeups > before.worker_wakeups,
            "the driver must have been woken for the queued ticket"
        );
    });

    let entered = gate.entered();
    assert_eq!(entered.len(), 2, "one inline call + one driver round");
    assert_eq!(entered[0], CALLER);
    assert!(
        is_driver(&entered[1]),
        "the queued ticket ran on {entered:?}"
    );
}

#[test]
fn inline_tickets_match_the_emulated_oracle() {
    for backend in [BackendKind::Emulated, BackendKind::Native] {
        for spec in MethodSpec::REGISTRY {
            for shards in [1usize, 2] {
                let context = format!("{}/{} shards={shards}", backend.name(), spec.label());
                let service = ServiceConfig::new(D)
                    .with_backend(backend)
                    .with_method(spec)
                    .with_shards(shards)
                    .with_whiten(WhitenSpec::default())
                    .build()
                    .unwrap();
                for salt in 0..2 * shards as u64 {
                    let norm = request_bits(1 + salt as usize % 3, 0x8000 + salt);
                    let norm_f32: Vec<f32> = norm.iter().map(|&b| f32::from_bits(b)).collect();
                    let group = request_bits(5, 0x9000 + salt);
                    let group_f32: Vec<f32> = group.iter().map(|&b| f32::from_bits(b)).collect();
                    let expect_norm = oracle_norm(&spec, &norm);
                    let expect_group = oracle_whiten(&group);
                    for (request, expect, what) in [
                        (NormRequest::bits(&norm), &expect_norm, "norm bits"),
                        (NormRequest::f32(&norm_f32), &expect_norm, "norm f32"),
                        (
                            NormRequest::whiten_group(&group),
                            &expect_group,
                            "whiten bits",
                        ),
                        (
                            NormRequest::whiten_group_f32(&group_f32),
                            &expect_group,
                            "whiten f32",
                        ),
                    ] {
                        // One caller, one request at a time: every shard
                        // it lands on is idle, so every ticket runs inline.
                        let response = service
                            .submit_async(request)
                            .unwrap()
                            .try_take()
                            .unwrap_or_else(|| panic!("{context}: {what} ticket queued"))
                            .unwrap();
                        assert_eq!(response.bits(), &expect[..], "{context}: {what}");
                        // The caller's-buffer sink takes the same path.
                        let mut out = vec![0u32; expect.len()];
                        service.submit_into(request, &mut out).unwrap();
                        assert_eq!(&out, expect, "{context}: {what} submit_into");
                    }
                }
                let stats = service.stats();
                assert_eq!(stats.requests, 16 * shards as u64, "{context}");
                assert_eq!(stats.batches, stats.requests, "{context}");
            }
        }
    }
}

#[test]
fn a_dropped_inline_ticket_is_counted_and_its_buffer_returns_to_the_pool() {
    let service = ServiceConfig::new(D)
        .with_backend(BackendKind::Native)
        .build()
        .unwrap();
    let bits = request_bits(4, 0xA000);
    // Prime the shard's pool with one reply buffer of this length.
    let first = service
        .submit_async(NormRequest::bits(&bits))
        .unwrap()
        .try_take()
        .unwrap()
        .unwrap();
    let pooled = first.bits().as_ptr();
    drop(first);

    // The next inline ticket leases that buffer; dropped uncollected, it
    // must hand the buffer straight back.
    drop(service.submit_async(NormRequest::bits(&bits)).unwrap());
    assert_eq!(service.stats().abandoned_tickets, 1);
    // Had the buffer been freed instead of pooled, the allocator would
    // likely hand its address to this same-sized allocation.
    let hog = vec![0u32; bits.len()];
    let reply = service
        .submit_async(NormRequest::bits(&bits))
        .unwrap()
        .try_take()
        .unwrap()
        .unwrap();
    assert_eq!(
        reply.bits().as_ptr(),
        pooled,
        "the dropped ticket's reply buffer was not returned to the pool"
    );
    assert_eq!(
        reply.bits(),
        &oracle_norm(&MethodSpec::iterl2(5), &bits)[..]
    );
    drop(hog);
    assert_eq!(service.stats().abandoned_tickets, 1);
}

#[test]
fn a_panicking_inline_ticket_reports_shutdown_without_unwinding() {
    let gate = Gate::new(true);
    let service = gated(ServiceConfig::new(D), &gate, true);
    let bits = request_bits(1, 0xB000);
    let submitted = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        service.submit_async(NormRequest::bits(&bits))
    }));
    let mut ticket = submitted.expect("submit_async unwound").unwrap();
    assert_eq!(
        ticket
            .try_take()
            .expect("an inline ticket is complete when submit_async returns")
            .unwrap_err(),
        NormError::ServiceShutdown
    );
    assert!(service.is_shutdown());
    assert_eq!(gate.entered().len(), 1);
    assert_eq!(
        service.submit_async(NormRequest::bits(&bits)).unwrap_err(),
        NormError::ServiceShutdown
    );
    assert_eq!(
        service.submit(NormRequest::bits(&bits)).unwrap_err(),
        NormError::ServiceShutdown
    );
}
