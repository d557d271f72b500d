//! The serving layer's failure-containment contract, enforced:
//!
//! * A panicking request (a backend bug mid-execution) must never brick
//!   the service for everyone else — the resident driver contains the
//!   unwind, re-raises it on the submitter whose request was executing,
//!   wakes everyone else in the round with a clean
//!   [`NormError::ServiceShutdown`], and every later submit gets the
//!   same clean `Err` instead of a poisoned-mutex panic cascade.
//! * A waiter parked mid-round when [`NormService::shutdown`] lands is
//!   always woken and never hangs: its already-accepted request completes,
//!   and only *new* submissions are refused (stress-tested with submitters
//!   racing shutdown).
//! * A shard whose waiting line is at the configured queue depth rejects
//!   with [`NormError::QueueFull`] instead of buffering unboundedly behind
//!   a deliberately slowed backend — and a request the driver has already
//!   drained into an executing round no longer occupies a waiting slot.
//!
//! The injected backends go through [`ServiceConfig::build_with_backends`],
//! the same extension point a custom production backend would use. CI runs
//! this suite in the debug profile, so every `debug_assert` in the service
//! and engine is armed while the races run.

use std::sync::{Arc, Barrier, Condvar, Mutex};
use std::time::Duration;

use iterl2norm::service::{NormRequest, ServiceConfig};
use iterl2norm::{BackendKind, NormBackend, NormError, Priority, RowMoments};

const D: usize = 8;

/// Deterministic one-row request payload (FP32 bit patterns).
fn row_bits(salt: u32) -> Vec<u32> {
    (0..D as u32)
        .map(|i| (1.0f32 + (i.wrapping_mul(31).wrapping_add(salt) % 17) as f32 * 0.25).to_bits())
        .collect()
}

/// A gate the test controls: injected backends block on it until the test
/// releases them (bounded by a 10 s timeout so a bug can never hang the
/// suite), and flag when the first call has entered the backend.
struct Gate {
    state: Mutex<GateState>,
    cv: Condvar,
}

#[derive(Default)]
struct GateState {
    entered: bool,
    open: bool,
}

impl Gate {
    fn new() -> Arc<Self> {
        Arc::new(Gate {
            state: Mutex::new(GateState::default()),
            cv: Condvar::new(),
        })
    }

    /// Called by the backend: announce entry, then block until opened.
    fn pass(&self) {
        let mut state = self.state.lock().unwrap();
        state.entered = true;
        self.cv.notify_all();
        let deadline = Duration::from_secs(10);
        while !state.open {
            let (next, timeout) = self.cv.wait_timeout(state, deadline).unwrap();
            state = next;
            if timeout.timed_out() {
                break; // never hang the suite on a test bug
            }
        }
    }

    /// Called by the test: wait until a backend call is inside `pass`.
    fn await_entered(&self) {
        let mut state = self.state.lock().unwrap();
        let deadline = Duration::from_secs(10);
        while !state.entered {
            let (next, timeout) = self.cv.wait_timeout(state, deadline).unwrap();
            state = next;
            assert!(!timeout.timed_out(), "backend never entered the gate");
        }
    }

    /// Called by the test: let all blocked and future calls through.
    fn open(&self) {
        self.state.lock().unwrap().open = true;
        self.cv.notify_all();
    }
}

/// An injected backend that waits at the gate, then either panics (if
/// `panics`) or copies the input bits through unchanged.
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
        assert!(!self.panics, "injected backend panic");
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

fn gated_service(gate: &Arc<Gate>, panics: bool, queue_depth: usize) -> iterl2norm::NormService {
    ServiceConfig::new(D)
        .with_queue_depth(queue_depth)
        .build_with_backends(|| {
            Box::new(GatedBackend {
                gate: Arc::clone(gate),
                panics,
            })
        })
        .unwrap()
}

/// Poll the aggregate request counter until `n` requests were accepted —
/// the queued submitter increments it before parking, so this observes
/// "the waiter is (about to be) parked" without touching private state.
fn await_accepted(service: &iterl2norm::NormService, n: u64) {
    for _ in 0..10_000 {
        if service.stats().requests >= n {
            return;
        }
        std::thread::sleep(Duration::from_micros(100));
    }
    panic!(
        "never saw {n} accepted requests (stats: {:?})",
        service.stats()
    );
}

#[test]
fn panicking_submitter_does_not_brick_the_service() {
    let gate = Gate::new();
    let service = gated_service(&gate, true, 64);

    std::thread::scope(|scope| {
        // Victim: its request is drained into the round whose backend
        // call panics once released. The resident driver contains the
        // unwind and re-raises it on this submitter — it must never
        // escape onto an unrelated thread.
        let victim = {
            let service = service.clone();
            scope.spawn(move || {
                let bits = row_bits(1);
                std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    service.submit(NormRequest::bits(&bits)).map(|r| r.rows())
                }))
            })
        };
        gate.await_entered();

        // Follower: enqueues behind the doomed round and parks.
        let follower = {
            let service = service.clone();
            scope.spawn(move || {
                let bits = row_bits(2);
                service.submit(NormRequest::bits(&bits)).map(|r| r.rows())
            })
        };
        await_accepted(&service, 2);

        // Release the gate: the driver's backend call panics.
        gate.open();

        let victim_outcome = victim.join().unwrap();
        assert!(
            victim_outcome.is_err(),
            "the panicking request's submitter must observe the unwind"
        );
        // The parked follower is woken with a clean error — never a hang,
        // never a poisoned-mutex panic.
        assert_eq!(
            follower.join().expect("follower must not panic"),
            Err(NormError::ServiceShutdown)
        );
    });

    // The service marked itself shut down; every later submit (from any
    // clone, on any thread) gets a clean Err — not a panic.
    assert!(service.is_shutdown());
    let bits = row_bits(3);
    assert_eq!(
        service.submit(NormRequest::bits(&bits)).unwrap_err(),
        NormError::ServiceShutdown
    );
    assert_eq!(
        service
            .submit_detailed(NormRequest::bits(&bits))
            .unwrap_err(),
        NormError::ServiceShutdown
    );
    let mut out = vec![0u32; D];
    assert_eq!(
        service
            .submit_into(NormRequest::bits(&bits), &mut out)
            .unwrap_err(),
        NormError::ServiceShutdown
    );
    // Stats stay readable after the poison recovery.
    let _ = service.stats();
}

#[test]
fn queue_full_fires_under_a_slowed_backend() {
    let gate = Gate::new();
    let service = gated_service(&gate, false, 1);

    std::thread::scope(|scope| {
        // First request occupies the backend (blocked at the gate).
        let executing = {
            let service = service.clone();
            scope.spawn(move || {
                let bits = row_bits(10);
                let response = service.submit(NormRequest::bits(&bits)).unwrap();
                assert_eq!(response.bits(), &bits[..], "identity backend");
            })
        };
        gate.await_entered();

        // Second request fills the single queue slot and parks.
        let queued = {
            let service = service.clone();
            scope.spawn(move || {
                let bits = row_bits(11);
                let response = service.submit(NormRequest::bits(&bits)).unwrap();
                assert_eq!(response.bits(), &bits[..]);
            })
        };
        await_accepted(&service, 2);

        // Third request finds the waiting line at its bound: rejected
        // fast, with the configured depth in the error.
        let bits = row_bits(12);
        assert_eq!(
            service.submit(NormRequest::bits(&bits)).unwrap_err(),
            NormError::QueueFull { depth: 1 }
        );
        let stats = service.stats();
        assert_eq!(stats.queue_full_rejections, 1);
        // The shed request was never accepted.
        assert_eq!(stats.requests, 2);

        // Draining the backend lets both accepted requests complete.
        gate.open();
        executing.join().unwrap();
        queued.join().unwrap();
    });

    let stats = service.stats();
    assert_eq!(stats.requests, 2);
    assert_eq!(stats.rows, 2);
    // The parked request spent real time waiting on the gated backend;
    // the split accounting must show it as queue wait, not execution.
    assert!(
        stats.queue_wait > Duration::ZERO,
        "queued request's wait must be accounted: {stats:?}"
    );
}

#[test]
fn waiter_parked_mid_round_survives_shutdown() {
    let gate = Gate::new();
    let service = gated_service(&gate, false, 64);

    std::thread::scope(|scope| {
        let executing = {
            let service = service.clone();
            scope.spawn(move || {
                let bits = row_bits(20);
                service.submit(NormRequest::bits(&bits)).map(|r| r.rows())
            })
        };
        gate.await_entered();
        let parked = {
            let service = service.clone();
            scope.spawn(move || {
                let bits = row_bits(21);
                service.submit(NormRequest::bits(&bits)).map(|r| r.rows())
            })
        };
        await_accepted(&service, 2);

        // Shutdown lands while one request executes and one is parked
        // mid-round. New work is refused immediately…
        service.shutdown();
        let bits = row_bits(22);
        assert_eq!(
            service.submit(NormRequest::bits(&bits)).unwrap_err(),
            NormError::ServiceShutdown
        );

        // …but both accepted requests drain: the parked waiter is woken
        // and served, never hung. (If the wakeup were lost, these joins
        // would block until the gate's 10 s failsafe fired and the row
        // assertions below failed.)
        gate.open();
        assert_eq!(executing.join().unwrap(), Ok(1));
        assert_eq!(parked.join().unwrap(), Ok(1));
    });

    let stats = service.stats();
    assert_eq!(stats.requests, 2);
    assert_eq!(stats.rows, 2);
}

#[test]
fn executing_round_does_not_occupy_the_waiting_line() {
    // Once the resident driver drains a request into an executing round,
    // that request has left the waiting line — the queue-depth bound
    // counts only parked entries. At depth 1, a submitter arriving while
    // another request executes must be admitted, not shed with QueueFull.
    let gate = Gate::new();
    let service = gated_service(&gate, false, 1);

    std::thread::scope(|scope| {
        let executing = {
            let service = service.clone();
            scope.spawn(move || {
                let bits = row_bits(5);
                service.submit(NormRequest::bits(&bits)).map(|r| r.rows())
            })
        };
        // The gate admits exactly one backend call at a time, so once we
        // observe entry the driver has drained the request: the waiting
        // line is provably empty again.
        gate.await_entered();

        let queued = {
            let service = service.clone();
            scope.spawn(move || {
                let bits = row_bits(6);
                service.submit(NormRequest::bits(&bits)).map(|r| r.rows())
            })
        };
        await_accepted(&service, 2);

        gate.open();
        assert_eq!(executing.join().unwrap(), Ok(1));
        assert_eq!(
            queued.join().unwrap(),
            Ok(1),
            "a submitter was shed even though the only other request was \
             already executing, not waiting"
        );
    });
    assert_eq!(service.stats().queue_full_rejections, 0);
    assert_eq!(service.stats().requests, 2);
}

#[test]
fn submitters_racing_shutdown_always_get_a_clean_outcome() {
    // Loom-style schedule shaking on the real primitives: submitters race
    // a shutdown call over and over; every submit must return either a
    // real result or ServiceShutdown — never hang, never panic. Sweeping
    // shards and windows varies which protocol path (idle driver wakeup,
    // drain-in-progress, coalescing-window hold) the race hits.
    for (shards, window_us) in [(1, 0), (2, 0), (1, 200), (4, 200)] {
        for round in 0..12u32 {
            let service = ServiceConfig::new(D)
                .with_shards(shards)
                .with_window(Duration::from_micros(window_us))
                .build()
                .unwrap();
            let barrier = Arc::new(Barrier::new(5));
            std::thread::scope(|scope| {
                for who in 0..4u32 {
                    let service = service.clone();
                    let barrier = Arc::clone(&barrier);
                    scope.spawn(move || {
                        let bits = row_bits(who.wrapping_add(round));
                        barrier.wait();
                        for _ in 0..4 {
                            match service.submit(NormRequest::bits(&bits)) {
                                Ok(response) => assert_eq!(response.rows(), 1),
                                Err(NormError::ServiceShutdown) => {}
                                Err(other) => panic!("unexpected error: {other}"),
                            }
                        }
                    });
                }
                let service = service.clone();
                let barrier = Arc::clone(&barrier);
                scope.spawn(move || {
                    barrier.wait();
                    if round % 3 != 0 {
                        std::thread::yield_now();
                    }
                    service.shutdown();
                });
            });
            assert!(service.is_shutdown());
            // After the race settles, the refusal is deterministic.
            let bits = row_bits(round);
            assert_eq!(
                service.submit(NormRequest::bits(&bits)).unwrap_err(),
                NormError::ServiceShutdown
            );
        }
    }
}

#[test]
fn elapsed_starts_after_validation_and_stats_split_wait_from_execute() {
    let service = ServiceConfig::new(D).build().unwrap();
    let bits = row_bits(30);
    let response = service.submit(NormRequest::bits(&bits)).unwrap();
    // The documented span covers execution, so it can never be zero…
    assert!(response.elapsed() > Duration::ZERO);
    // …and the aggregate split accounts the same request: executing took
    // real time, and the uncontended submit only waited for the driver's
    // handoff — far less than it executed.
    let stats = service.stats();
    assert!(stats.execute > Duration::ZERO);
    assert!(
        stats.queue_wait < stats.execute,
        "uncontended submit must not charge execution to queue wait: {stats:?}"
    );
    // Shape-rejected requests are never timed or counted.
    assert!(service.submit(NormRequest::bits(&bits[..D - 1])).is_err());
    assert_eq!(service.stats().requests, 1);
}

#[test]
fn ticket_wait_timeout_expires_cleanly_on_a_gated_backend() {
    // A ticket parked behind an in-flight round must honor its deadline:
    // wait_timeout/try_take return None while the gated backend holds the
    // round open, and the same ticket collects normally once the gate
    // lifts. The bound covers *parked* time — the resident driver owns
    // execution, so the ticket's collect path only ever parks.
    let gate = Gate::new();
    let service = gated_service(&gate, false, 64);

    std::thread::scope(|scope| {
        // A blocking submit whose round is held open inside the backend.
        let executing = {
            let service = service.clone();
            scope.spawn(move || {
                let bits = row_bits(40);
                service.submit(NormRequest::bits(&bits)).map(|r| r.rows())
            })
        };
        gate.await_entered();

        // The async request queues behind the stuck round.
        let bits = row_bits(41);
        let mut ticket = service.submit_async(NormRequest::bits(&bits)).unwrap();
        assert!(
            ticket.try_take().is_none(),
            "a round is in flight: polling must not deliver or block"
        );
        let begin = std::time::Instant::now();
        assert!(
            ticket.wait_timeout(Duration::from_millis(50)).is_none(),
            "the gated round cannot finish within the bound"
        );
        assert!(
            begin.elapsed() >= Duration::from_millis(50),
            "wait_timeout returned before its deadline"
        );

        gate.open();
        assert_eq!(executing.join().unwrap(), Ok(1));
        // Same ticket, same mailbox: the driver's next round serves it.
        let response = ticket.wait().unwrap();
        assert_eq!(response.bits(), &bits[..], "identity backend");
    });
    assert_eq!(service.stats().requests, 2);
    assert_eq!(service.stats().abandoned_tickets, 0);
}

#[test]
fn tickets_accepted_before_shutdown_still_complete() {
    // Graceful shutdown drains: the resident driver executes every
    // request accepted before `shutdown()` landed, so a ticket outliving
    // the call collects a *real* response through every collect method —
    // only new submissions are refused. (Contrast with the panic path,
    // where queued tickets fail with ServiceShutdown; see
    // `panicking_round_fails_queued_tickets_cleanly`.)
    let service = ServiceConfig::new(D).build().unwrap();
    let bits = row_bits(50);
    let mut waited = service.submit_async(NormRequest::bits(&bits)).unwrap();
    let mut polled = service.submit_async(NormRequest::bits(&bits)).unwrap();
    let mut timed = service.submit_async(NormRequest::bits(&bits)).unwrap();
    service.shutdown();
    // New work is refused at the door…
    assert_eq!(
        service.submit_async(NormRequest::bits(&bits)).unwrap_err(),
        NormError::ServiceShutdown
    );
    // …but the three accepted requests drain with real results.
    assert_eq!(waited.wait().unwrap().rows(), 1);
    assert_eq!(
        timed
            .wait_timeout(Duration::from_secs(10))
            .expect("accepted work drains promptly on shutdown")
            .unwrap()
            .rows(),
        1
    );
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    let polled_response = loop {
        if let Some(result) = polled.try_take() {
            break result.unwrap();
        }
        assert!(
            std::time::Instant::now() < deadline,
            "the drain never delivered the polled ticket's outcome"
        );
        std::thread::yield_now();
    };
    assert_eq!(polled_response.rows(), 1);
    // All three were accepted, executed, and collected — none abandoned.
    let stats = service.stats();
    assert_eq!(stats.requests, 3);
    assert_eq!(stats.rows, 3);
    assert_eq!(stats.abandoned_tickets, 0);
}

#[test]
fn dropped_ticket_behind_a_gated_round_is_recycled_not_stranded() {
    // Drop-without-wait while a round is in flight: the orphaned entry
    // is still executed by a later driver round, its result buffer goes
    // straight back to the shard pool, the drop is counted, and the
    // service keeps serving.
    let gate = Gate::new();
    let service = gated_service(&gate, false, 64);

    std::thread::scope(|scope| {
        let executing = {
            let service = service.clone();
            scope.spawn(move || {
                let bits = row_bits(60);
                service.submit(NormRequest::bits(&bits)).map(|r| r.rows())
            })
        };
        gate.await_entered();

        let bits = row_bits(61);
        let ticket = service.submit_async(NormRequest::bits(&bits)).unwrap();
        drop(ticket);
        assert_eq!(service.stats().abandoned_tickets, 1);

        gate.open();
        assert_eq!(executing.join().unwrap(), Ok(1));
    });

    // The driver drains the orphaned entry (same round as our submit or
    // an earlier one — FIFO puts it ahead of us either way) and still
    // serves new traffic.
    let bits = row_bits(62);
    let response = service.submit(NormRequest::bits(&bits)).unwrap();
    assert_eq!(response.bits(), &bits[..]);
    let stats = service.stats();
    assert_eq!(stats.requests, 3);
    assert_eq!(
        stats.rows, 3,
        "the orphaned request must execute, not strand in the queue"
    );
    assert_eq!(stats.abandoned_tickets, 1);
}

#[test]
fn async_backpressure_rejects_at_enqueue_time() {
    // QueueFull for submit_async fires when the ticket is requested — a
    // caller never holds a ticket whose request was silently shed.
    let gate = Gate::new();
    let service = gated_service(&gate, false, 1);

    std::thread::scope(|scope| {
        let executing = {
            let service = service.clone();
            scope.spawn(move || {
                let bits = row_bits(70);
                service.submit(NormRequest::bits(&bits)).map(|r| r.rows())
            })
        };
        gate.await_entered();

        // Fills the single waiting slot.
        let bits = row_bits(71);
        let mut admitted = service.submit_async(NormRequest::bits(&bits)).unwrap();
        // The line is at its bound: rejected now, not at collect time.
        let more = row_bits(72);
        assert_eq!(
            service.submit_async(NormRequest::bits(&more)).unwrap_err(),
            NormError::QueueFull { depth: 1 }
        );
        assert_eq!(service.stats().queue_full_rejections, 1);

        gate.open();
        assert_eq!(executing.join().unwrap(), Ok(1));
        assert_eq!(admitted.wait().unwrap().bits(), &bits[..]);
    });
    assert_eq!(service.stats().requests, 2);
}

#[test]
fn panicking_round_fails_queued_tickets_cleanly() {
    // The driver's panic containment extends to async waiters: a ticket
    // queued behind a panicking round collects a clean ServiceShutdown —
    // never a hang, never a poisoned-mutex panic.
    let gate = Gate::new();
    let service = gated_service(&gate, true, 64);

    std::thread::scope(|scope| {
        let victim = {
            let service = service.clone();
            scope.spawn(move || {
                let bits = row_bits(80);
                std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    service.submit(NormRequest::bits(&bits)).map(|r| r.rows())
                }))
            })
        };
        gate.await_entered();

        let bits = row_bits(81);
        let mut ticket = service.submit_async(NormRequest::bits(&bits)).unwrap();

        gate.open();
        assert!(victim.join().unwrap().is_err(), "victim observes unwind");
        assert_eq!(ticket.wait().unwrap_err(), NormError::ServiceShutdown);
    });
    assert!(service.is_shutdown());
    // Later async submissions are refused at the door.
    let bits = row_bits(82);
    assert_eq!(
        service.submit_async(NormRequest::bits(&bits)).unwrap_err(),
        NormError::ServiceShutdown
    );
}

#[test]
fn high_priority_is_admitted_past_a_full_waiting_line() {
    // The priority class's admission contract at queue depth 1: once the
    // line is full, normal traffic is shed but a high-priority request is
    // still admitted into the reserved overflow region — and that region
    // itself is bounded at one extra depth, so a second high request is
    // shed too. Backpressure stays bounded for every class.
    let gate = Gate::new();
    let service = gated_service(&gate, false, 1);

    std::thread::scope(|scope| {
        // Occupies the backend (blocked at the gate).
        let executing = {
            let service = service.clone();
            scope.spawn(move || {
                let bits = row_bits(90);
                service.submit(NormRequest::bits(&bits)).map(|r| r.rows())
            })
        };
        gate.await_entered();

        // Fills the single waiting slot.
        let normal_bits = row_bits(91);
        let mut normal = service
            .submit_async(NormRequest::bits(&normal_bits))
            .unwrap();

        // Normal traffic now sheds…
        let shed = row_bits(92);
        assert_eq!(
            service.submit_async(NormRequest::bits(&shed)).unwrap_err(),
            NormError::QueueFull { depth: 1 }
        );

        // …but a high-priority request jumps the full line.
        let high_bits = row_bits(93);
        let mut high = service
            .submit_async(NormRequest::bits(&high_bits).with_priority(Priority::High))
            .unwrap();

        // The overflow region is itself bounded: 2 × depth waiting
        // requests refuse even high-priority work.
        assert_eq!(
            service
                .submit_async(NormRequest::bits(&shed).with_priority(Priority::High))
                .unwrap_err(),
            NormError::QueueFull { depth: 1 }
        );

        gate.open();
        assert_eq!(executing.join().unwrap(), Ok(1));
        assert_eq!(normal.wait().unwrap().bits(), &normal_bits[..]);
        assert_eq!(high.wait().unwrap().bits(), &high_bits[..]);
    });

    let stats = service.stats();
    assert_eq!(stats.requests, 3);
    assert_eq!(stats.queue_full_rejections, 2);
}

/// An injected backend that records every batch it executes (input bits,
/// in batch order) after waiting at the gate — how the priority tests
/// observe where in a combined round each request's rows landed.
struct RecordingBackend {
    gate: Arc<Gate>,
    batches: Arc<Mutex<Vec<Vec<u32>>>>,
}

impl NormBackend for RecordingBackend {
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
        "recording-test".into()
    }

    fn normalize_batch_bits(
        &mut self,
        input: &[u32],
        out: &mut [u32],
        _threads: usize,
    ) -> Result<usize, NormError> {
        self.gate.pass();
        self.batches.lock().unwrap().push(input.to_vec());
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

#[test]
fn high_priority_rides_at_the_front_of_the_next_round() {
    // Ordering half of the priority contract: a high request submitted
    // *after* a parked normal request still leads the next combined
    // round — its rows come first in the backend's batch input.
    let gate = Gate::new();
    let batches: Arc<Mutex<Vec<Vec<u32>>>> = Arc::new(Mutex::new(Vec::new()));
    let service = ServiceConfig::new(D)
        .with_queue_depth(8)
        .build_with_backends(|| {
            Box::new(RecordingBackend {
                gate: Arc::clone(&gate),
                batches: Arc::clone(&batches),
            })
        })
        .unwrap();

    let normal_bits = row_bits(94);
    let high_bits = row_bits(95);
    std::thread::scope(|scope| {
        // A round occupies the backend; everything below queues behind it.
        let executing = {
            let service = service.clone();
            scope.spawn(move || {
                let bits = row_bits(96);
                service.submit(NormRequest::bits(&bits)).map(|r| r.rows())
            })
        };
        gate.await_entered();

        // Normal first, high second — arrival order.
        let mut normal = service
            .submit_async(NormRequest::bits(&normal_bits))
            .unwrap();
        let mut high = service
            .submit_async(NormRequest::bits(&high_bits).with_priority(Priority::High))
            .unwrap();
        await_accepted(&service, 3);

        gate.open();
        assert_eq!(executing.join().unwrap(), Ok(1));
        let normal_response = normal.wait().unwrap();
        let high_response = high.wait().unwrap();
        // Both rode one combined round, bits intact.
        assert_eq!(normal_response.bits(), &normal_bits[..]);
        assert_eq!(high_response.bits(), &high_bits[..]);
        assert_eq!(high_response.batch_requests(), 2);
    });

    let batches = batches.lock().unwrap();
    assert_eq!(batches.len(), 2, "first round + one combined round");
    // The combined round's batch starts with the high request's rows even
    // though the normal request arrived first.
    assert_eq!(
        &batches[1][..D],
        &high_bits[..],
        "high-priority rows must lead the combined batch"
    );
    assert_eq!(&batches[1][D..], &normal_bits[..]);
}

#[test]
fn high_priority_is_fifo_within_its_class() {
    // Two high requests behind a parked normal request: both jump the
    // normal request, but keep their own arrival order — a newer high
    // request must never preempt an older one still waiting, or
    // sustained high-priority load would starve its own oldest request.
    let gate = Gate::new();
    let batches: Arc<Mutex<Vec<Vec<u32>>>> = Arc::new(Mutex::new(Vec::new()));
    let service = ServiceConfig::new(D)
        .with_queue_depth(8)
        .build_with_backends(|| {
            Box::new(RecordingBackend {
                gate: Arc::clone(&gate),
                batches: Arc::clone(&batches),
            })
        })
        .unwrap();

    let normal_bits = row_bits(97);
    let first_high_bits = row_bits(98);
    let second_high_bits = row_bits(99);
    std::thread::scope(|scope| {
        // A round occupies the backend; everything below queues behind it.
        let executing = {
            let service = service.clone();
            scope.spawn(move || {
                let bits = row_bits(100);
                service.submit(NormRequest::bits(&bits)).map(|r| r.rows())
            })
        };
        gate.await_entered();

        let mut normal = service
            .submit_async(NormRequest::bits(&normal_bits))
            .unwrap();
        let mut first_high = service
            .submit_async(NormRequest::bits(&first_high_bits).with_priority(Priority::High))
            .unwrap();
        let mut second_high = service
            .submit_async(NormRequest::bits(&second_high_bits).with_priority(Priority::High))
            .unwrap();
        await_accepted(&service, 4);

        gate.open();
        assert_eq!(executing.join().unwrap(), Ok(1));
        assert_eq!(normal.wait().unwrap().bits(), &normal_bits[..]);
        assert_eq!(first_high.wait().unwrap().bits(), &first_high_bits[..]);
        assert_eq!(second_high.wait().unwrap().bits(), &second_high_bits[..]);
    });

    let batches = batches.lock().unwrap();
    assert_eq!(batches.len(), 2, "first round + one combined round");
    // High beats normal, but within the high class arrival order holds.
    assert_eq!(
        &batches[1][..D],
        &first_high_bits[..],
        "the older high request must stay first in its class"
    );
    assert_eq!(&batches[1][D..2 * D], &second_high_bits[..]);
    assert_eq!(&batches[1][2 * D..], &normal_bits[..]);
}

// ---------------------------------------------------------------------
// Poisoned whiten lock (PR 9 regression test): a whitening executor that
// panics mid-call poisons the shard's whiten mutex. Every later request
// must see a clean `NormError::ServiceShutdown` — never a poisoned-mutex
// panic cascade, and never a hang.
// ---------------------------------------------------------------------

/// An injected whitening executor whose every execution panics — the
/// worst-case backend bug, unwinding with the whiten lock held.
struct PanickingWhiten;

impl iterl2norm::WhitenExec for PanickingWhiten {
    fn backend(&self) -> BackendKind {
        BackendKind::Emulated
    }

    fn format_name(&self) -> &'static str {
        "FP32"
    }

    fn d(&self) -> usize {
        D
    }

    fn spec(&self) -> iterl2norm::WhitenSpec {
        iterl2norm::WhitenSpec::default()
    }

    fn whiten_groups(
        &mut self,
        _input: &[u32],
        _out: &mut [u32],
        _group_rows: &[usize],
        _threads: usize,
    ) -> Result<usize, NormError> {
        panic!("injected whitening panic");
    }

    fn whiten_group_detailed(
        &mut self,
        _input: &[u32],
        _out: &mut [u32],
    ) -> Result<iterl2norm::WhitenDetail, NormError> {
        panic!("injected whitening panic");
    }
}

/// A minimal pass-through backend so normalization traffic works while
/// the whiten executor is rigged to panic.
struct PassBackend;

impl NormBackend for PassBackend {
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
        "pass-test".into()
    }

    fn normalize_batch_bits(
        &mut self,
        input: &[u32],
        out: &mut [u32],
        _threads: usize,
    ) -> Result<usize, NormError> {
        out.copy_from_slice(input);
        Ok(input.len() / D)
    }

    fn normalize_row_bits_detailed(
        &mut self,
        input: &[u32],
        out: &mut [u32],
    ) -> Result<RowMoments, NormError> {
        out.copy_from_slice(input);
        Ok(RowMoments {
            mean: 0.0,
            m: 1.0,
            scale: 1.0,
        })
    }
}

#[test]
fn poisoned_whiten_lock_fails_closed_not_cascading() {
    let service = ServiceConfig::new(D)
        .build_with_backends_and_whiten(|| Box::new(PassBackend), || Box::new(PanickingWhiten))
        .unwrap();

    // Normalization works before anything whitens (the executor is lazy).
    let bits = row_bits(7);
    assert_eq!(service.submit(NormRequest::bits(&bits)).unwrap().rows(), 1);

    // First whitening call: the injected executor panics with the whiten
    // mutex held, poisoning it. The resident driver contains the unwind
    // and re-raises it on this submitter — catch it here like a real
    // caller's panic hook would.
    let panicked = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        let group = row_bits(9);
        let _ = service.submit(NormRequest::whiten_group(&group));
    }));
    assert!(panicked.is_err(), "the injected whitening panic must fire");

    // Second whitening call: the poisoned whiten mutex must surface as a
    // clean ServiceShutdown through `whiten_of`'s recovery — not a
    // poisoned-lock panic, not a hang.
    let group = row_bits(11);
    match service.submit(NormRequest::whiten_group(&group)) {
        Err(NormError::ServiceShutdown) => {}
        other => panic!("expected clean ServiceShutdown after poison, got {other:?}"),
    }

    // The service is now shut down as a precaution; normalization is
    // refused cleanly too — again an `Err`, never a cascade.
    match service.submit(NormRequest::bits(&bits)) {
        Err(NormError::ServiceShutdown) => {}
        other => panic!("expected ServiceShutdown at the door, got {other:?}"),
    }
}
