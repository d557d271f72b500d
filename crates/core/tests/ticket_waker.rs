//! The ticket-waker lifecycle contract, enforced:
//!
//! * [`NormTicket::on_ready`] fires its callback **exactly once**, on
//!   both sides of the registration race — registered before the
//!   resident driver completes the round (fires from the driver) and
//!   after (fires immediately, on the registering thread).
//! * A callback that drops its ticket uncollected recycles the result
//!   buffer and is counted as an abandonment — nothing strands.
//! * A panicking callback is contained inside the driver and counted
//!   in [`ServiceStats::waker_panics`]; the executor keeps serving.
//! * [`TicketSet::wait_any`] over tickets on different shards returns
//!   them in **completion** order, pinned here by gating each shard's
//!   backend independently and releasing them out of insertion order.
//!
//! The gate/backend helpers mirror `service_resilience.rs`: injected
//! through [`ServiceConfig::build_with_backends`], bounded by a 10 s
//! failsafe so a bug can never hang the suite.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc;
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use iterl2norm::service::{NormRequest, Placement, ServiceConfig};
use iterl2norm::{BackendKind, NormBackend, NormError, RowMoments, TicketSet};

const D: usize = 8;

fn row_bits(salt: u32) -> Vec<u32> {
    (0..D as u32)
        .map(|i| (1.0f32 + (i.wrapping_mul(29).wrapping_add(salt) % 13) as f32 * 0.125).to_bits())
        .collect()
}

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

    fn await_entered(&self) {
        let mut state = self.state.lock().unwrap();
        let deadline = Duration::from_secs(10);
        while !state.entered {
            let (next, timeout) = self.cv.wait_timeout(state, deadline).unwrap();
            state = next;
            assert!(!timeout.timed_out(), "backend never entered the gate");
        }
    }

    fn open(&self) {
        self.state.lock().unwrap().open = true;
        self.cv.notify_all();
    }
}

/// Identity backend blocking at its gate — how these tests hold a
/// driver's round open while they arrange the race under test.
struct GatedBackend {
    gate: Arc<Gate>,
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

fn gated_service(gate: &Arc<Gate>) -> iterl2norm::NormService {
    ServiceConfig::new(D)
        .build_with_backends(|| {
            Box::new(GatedBackend {
                gate: Arc::clone(gate),
            })
        })
        .unwrap()
}

/// Poll the aggregate counters until `stats` satisfies `done`, bounded.
fn await_stats(
    service: &iterl2norm::NormService,
    context: &str,
    done: impl Fn(&iterl2norm::ServiceStats) -> bool,
) {
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        if done(&service.stats()) {
            return;
        }
        assert!(
            Instant::now() < deadline,
            "{context} (stats: {:?})",
            service.stats()
        );
        std::thread::yield_now();
    }
}

#[test]
fn callback_registered_before_completion_fires_exactly_once() {
    let gate = Gate::new();
    let service = gated_service(&gate);
    let fired = Arc::new(AtomicUsize::new(0));
    let (tx, rx) = mpsc::channel();

    // Hold the driver's round open so the registration provably lands
    // before the outcome exists.
    let pending = {
        let service = service.clone();
        std::thread::spawn(move || {
            let bits = row_bits(1);
            service.submit(NormRequest::bits(&bits)).map(|r| r.rows())
        })
    };
    gate.await_entered();

    let bits = row_bits(2);
    let ticket = service.submit_async(NormRequest::bits(&bits)).unwrap();
    {
        let fired = Arc::clone(&fired);
        let bits = bits.clone();
        ticket.on_ready(move |mut ticket| {
            fired.fetch_add(1, Ordering::SeqCst);
            let response = ticket
                .try_take()
                .expect("a fired waker's outcome is already stored")
                .expect("identity backend cannot fail");
            assert_eq!(response.bits(), &bits[..]);
            tx.send(response.rows()).unwrap();
        });
    }
    assert_eq!(
        fired.load(Ordering::SeqCst),
        0,
        "the gated round cannot have completed yet"
    );

    gate.open();
    assert_eq!(pending.join().unwrap(), Ok(1));
    assert_eq!(
        rx.recv_timeout(Duration::from_secs(10)).unwrap(),
        1,
        "the callback must fire once the driver delivers"
    );
    // Exactly once: no second delivery however long we watch.
    assert!(rx.recv_timeout(Duration::from_millis(50)).is_err());
    assert_eq!(fired.load(Ordering::SeqCst), 1);
    assert_eq!(service.stats().waker_panics, 0);
    assert_eq!(service.stats().abandoned_tickets, 0);
}

#[test]
fn callback_registered_after_completion_fires_immediately() {
    let service = ServiceConfig::new(D).build().unwrap();
    let bits = row_bits(3);
    let ticket = service.submit_async(NormRequest::bits(&bits)).unwrap();
    // Wait until the driver has served the request, so registration
    // definitely happens on the already-complete side of the race.
    await_stats(&service, "driver never served the async request", |s| {
        s.rows >= 1
    });

    let fired = Arc::new(AtomicUsize::new(0));
    {
        let fired = Arc::clone(&fired);
        ticket.on_ready(move |mut ticket| {
            fired.fetch_add(1, Ordering::SeqCst);
            assert_eq!(ticket.try_take().unwrap().unwrap().rows(), 1);
        });
    }
    // The immediate path runs the callback on the registering thread,
    // before on_ready returns.
    assert_eq!(fired.load(Ordering::SeqCst), 1);
    assert_eq!(service.stats().waker_panics, 0);
}

#[test]
fn callback_dropping_its_ticket_recycles_and_counts_the_abandonment() {
    let service = ServiceConfig::new(D).build().unwrap();
    let (tx, rx) = mpsc::channel();
    let bits = row_bits(4);
    let ticket = service.submit_async(NormRequest::bits(&bits)).unwrap();
    ticket.on_ready(move |ticket| {
        // Deliberately walk away without collecting: the ticket's Drop
        // must recycle the delivered buffer into the shard pool.
        drop(ticket);
        tx.send(()).unwrap();
    });
    rx.recv_timeout(Duration::from_secs(10))
        .expect("the callback must fire");
    await_stats(&service, "the dropped ticket was never counted", |s| {
        s.abandoned_tickets == 1
    });
    // The service keeps serving afterwards — nothing stranded.
    assert_eq!(service.submit(NormRequest::bits(&bits)).unwrap().rows(), 1);
    assert_eq!(service.stats().waker_panics, 0);
}

#[test]
fn panicking_callback_is_contained_in_the_driver_and_counted() {
    // Registered while the round is provably still gated, so the waker
    // always fires from the resident driver — the side of the race
    // where containment is the driver's job. (A waker registered after
    // completion runs synchronously on the registering thread, where a
    // panic is the caller's own to catch — documented on `on_ready`.)
    let bits = row_bits(5);
    for _round in 0..2 {
        // Fresh gate and service per round: an opened gate stays open,
        // and the determinism argument needs the round gated.
        let gate = Gate::new();
        let service = gated_service(&gate);
        let pending = {
            let service = service.clone();
            let bits = bits.clone();
            std::thread::spawn(move || service.submit(NormRequest::bits(&bits)).map(|r| r.rows()))
        };
        gate.await_entered();
        let ticket = service.submit_async(NormRequest::bits(&bits)).unwrap();
        ticket.on_ready(|_ticket| panic!("injected waker panic"));
        gate.open();
        assert_eq!(pending.join().unwrap(), Ok(1));
        // The driver contained the unwind and counted it…
        await_stats(&service, "the waker panic was never counted", |s| {
            s.waker_panics == 1
        });
        // …and survived: the same service keeps serving both waiters.
        assert_eq!(service.submit(NormRequest::bits(&bits)).unwrap().rows(), 1);
        let mut ticket = service.submit_async(NormRequest::bits(&bits)).unwrap();
        assert_eq!(ticket.wait().unwrap().rows(), 1);
        assert!(
            !service.is_shutdown(),
            "a waker panic must not shut down the service"
        );
    }
}

#[test]
fn wait_any_returns_mixed_shard_tickets_in_completion_order() {
    // One gate per shard (build_with_backends calls the factory once
    // per shard, in shard order), so the test scripts which shard's
    // round finishes first — the set must surface tickets in that
    // order, not insertion order.
    let gates = [Gate::new(), Gate::new()];
    let service = {
        let gates = gates.clone();
        let next = AtomicUsize::new(0);
        ServiceConfig::new(D)
            .with_shards(2)
            .with_placement(Placement::RequestHash)
            .build_with_backends(move || {
                let shard = next.fetch_add(1, Ordering::SeqCst);
                Box::new(GatedBackend {
                    gate: Arc::clone(&gates[shard]),
                })
            })
            .unwrap()
    };
    // Keys that land on shard 0 and shard 1 respectively.
    let key_for = |shard: usize| {
        (0..64u64)
            .find(|&k| service.shard_for(k) == shard)
            .expect("some key maps to each of 2 shards")
    };
    let (key0, key1) = (key_for(0), key_for(1));

    // A ticket on an idle shard runs inline on the submitting thread, so
    // occupy each shard first: a helper's blocking submit takes the
    // shard's claim and holds it inside the gate, and the tickets below
    // queue behind it for the shard's driver.
    let occupiers: Vec<_> = [key0, key1]
        .into_iter()
        .map(|key| {
            let service = service.clone();
            std::thread::spawn(move || {
                let bits = row_bits(8);
                service
                    .submit(NormRequest::bits(&bits).with_key(key))
                    .map(|r| r.rows())
            })
        })
        .collect();
    gates[0].await_entered();
    gates[1].await_entered();

    let first_bits = row_bits(6);
    let second_bits = row_bits(7);
    let mut set = TicketSet::new();
    let on_shard0 = set.insert(
        service
            .submit_async(NormRequest::bits(&first_bits).with_key(key0))
            .unwrap(),
    );
    let on_shard1 = set.insert(
        service
            .submit_async(NormRequest::bits(&second_bits).with_key(key1))
            .unwrap(),
    );
    assert_eq!(set.outstanding(), 2);

    // Release shard 1 first: its ticket must surface first even though
    // it was inserted second.
    gates[1].open();
    let (index, outcome) = set.wait_any().expect("one ticket outstanding");
    assert_eq!(index, on_shard1, "completion order, not insertion order");
    assert_eq!(outcome.unwrap().bits(), &second_bits[..]);

    gates[0].open();
    let (index, outcome) = set.wait_any().expect("one ticket left");
    assert_eq!(index, on_shard0);
    assert_eq!(outcome.unwrap().bits(), &first_bits[..]);
    for occupier in occupiers {
        assert_eq!(occupier.join().unwrap(), Ok(1));
    }

    // Drained: the set reports completion, forever.
    assert!(set.wait_any().is_none());
    assert!(set.is_empty());
    assert_eq!(service.stats().abandoned_tickets, 0);
}
