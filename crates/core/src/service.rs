//! The type-erased normalization serving API: one front door over
//! format × method × backend, with request micro-batching, sharding and
//! bounded backpressure.
//!
//! The execution layer underneath ([`backend`](crate::backend)) is already
//! runtime-polymorphic, but every caller still had to monomorphize its own
//! dispatch (the CLI's old `with_exec!` macro, the transformer's typed
//! per-layer plans). [`NormService`] removes that: a [`ServiceConfig`]
//! names the whole execution point — dimension, format, scale method,
//! backend, reduction order, affine parameters, shards — and
//! [`ServiceConfig::build`] erases it behind one object. Callers submit
//! [`NormRequest`]s (row-major `u32` storage bits, or native `f32` slices)
//! and get [`NormResponse`]s with per-request execution metadata. No
//! generic parameters, no macros.
//!
//! # The resident shard executor
//!
//! Each shard owns exactly one **resident driver** thread, spawned once at
//! [`ServiceConfig::build`] and joined when the service shuts down or the
//! last clone drops. The driver parks on the shard's work condvar, drains
//! the combining queue and runs the backend calls with the serial
//! kernels; shards are the service's only parallelism. An idle driver
//! parks — no busy-spin — and shutdown joins every driver, so a
//! built-then-dropped service leaks nothing (proven by
//! `tests/executor_hygiene.rs`).
//!
//! # The idle-shard inline path
//!
//! Handing a request to the driver and back costs a condvar round trip —
//! several times the kernel for a small request — plus, for a queued
//! request, a copy of its payload into a pooled buffer. So every entry
//! point ([`NormService::submit`], [`NormService::submit_into`] and
//! [`NormService::submit_async`]) that finds its shard idle runs inline:
//! nothing queued and no thread executing on the shard. The caller
//! takes the shard's claim, runs its own request on the shard's backend
//! — reading a bit payload where the caller holds it and writing
//! straight into a `submit_into` buffer or a pooled reply — and gives
//! the claim back. An
//! inline `submit_async` returns an already-complete ticket. While the claim is held, other arrivals
//! queue and the driver waits; the releasing caller wakes it if anything
//! queued. Submitters still never execute other callers' work: an inline
//! caller runs only its own request, and the driver is the only thread
//! that runs queued work. A panic in an inline call fails the shard and
//! shuts the service down exactly like a driver-round panic; it surfaces
//! on a blocking caller's own thread, and an inline ticket holds
//! [`NormError::ServiceShutdown`](crate::NormError::ServiceShutdown) instead.
//!
//! # Micro-batching
//!
//! A service is [`Clone`] + [`Sync`]: concurrent callers share the same
//! plans, scratch and backends. Requests that are waiting in a shard's
//! queue when its driver starts a round — those that queued while the
//! previous round ran — run as **one**
//! [`normalize_in_place`](crate::NormBackend::normalize_in_place) call
//! over the requests' own payload buffers, each normalized where it
//! sits and handed back as that caller's reply. Rows are independent and
//! the engine processes each row the same way wherever it lives, so the
//! coalesced output bits are
//! **identical** to serial per-request execution (enforced across
//! formats × methods × shard counts × submitter counts by
//! `tests/service_bit_identity.rs`). Coalescing therefore changes only
//! throughput, never results; the wins show up only under concurrent
//! load — a single submitting thread's request is drained alone and runs
//! as its own batch.
//!
//! # Async submission
//!
//! [`NormService::submit`] holds the submitting thread until its result
//! is ready; queued, it parks on its request's own slot.
//! [`NormService::submit_async`] does not: on a busy shard it enqueues
//! into the shard's combining queue and returns a [`NormTicket`]
//! immediately, so a caller can overlap its own work with normalization
//! the way an inference loop overlaps layers, then collect through
//! [`NormTicket::try_take`] (poll), [`NormTicket::wait`] (park),
//! [`NormTicket::wait_timeout`] (bounded park) or — waker-native —
//! [`NormTicket::on_ready`] (a completion callback the driver invokes) and
//! [`TicketSet::wait_any`] (collect a batch of tickets in completion
//! order, without polling). On an idle shard the ticket's request runs
//! inline (above) and the ticket comes back already complete — the
//! collect methods then return at once. Queued async requests ride the
//! *same* driver rounds as queued blocking ones, so async, blocking
//! (inline or queued) and serial per-request execution are all
//! bit-identical (enforced by `tests/service_bit_identity.rs` and
//! `tests/inline_submit.rs`). Backpressure applies at enqueue time: a
//! full shard fails `submit_async` with [`NormError::QueueFull`](crate::NormError::QueueFull) before
//! any request-sized work is done.
//!
//! ```
//! use iterl2norm::service::{NormRequest, ServiceConfig};
//!
//! # fn main() -> Result<(), iterl2norm::NormError> {
//! let d = 64;
//! let service = ServiceConfig::new(d).build()?;
//! let rows: Vec<u32> = (0..2 * d as u32).map(|i| f32::to_bits(0.5 + i as f32)).collect();
//!
//! // Enqueue without blocking, overlap other work, collect later.
//! let mut ticket = service.submit_async(NormRequest::bits(&rows))?;
//! let overlapped_work = 6 * 7; // ... the caller's own computation ...
//! let response = ticket.wait()?;
//! assert_eq!(overlapped_work, 42);
//! assert_eq!(response.rows(), 2);
//!
//! // Bit-identical to the blocking path.
//! let blocking = service.submit(NormRequest::bits(&rows))?;
//! assert_eq!(response.bits(), blocking.bits());
//! # Ok(())
//! # }
//! ```
//!
//! # Sharding, placement and backpressure
//!
//! One combining queue over one backend mutex serializes *all* traffic on
//! a single lock. [`ServiceConfig::with_shards`] splits the service into N
//! independent shards — each owns its own backend instance (built from the
//! identical plan), combining queue and coalescing state — and requests
//! are placed across shards by the configured [`Placement`]: round-robin
//! by default, or sticky request-hash
//! ([`ServiceConfig::with_placement`] + [`NormRequest::with_key`]), which
//! keeps a hot caller's traffic on one shard so that shard's backend
//! scratch and buffer pool stay warm. Because every shard executes the
//! same plan with the same arithmetic, output bits are independent of the
//! shard count, the placement policy and of which shard served a request.
//!
//! Each shard's waiting line is bounded by
//! [`ServiceConfig::with_queue_depth`]: a request that arrives when the
//! shard's queue is full fails fast with [`NormError::QueueFull`](crate::NormError::QueueFull) instead
//! of buffering unboundedly behind a slow backend. Response buffers are
//! leased from a small per-shard pool and returned when the
//! [`NormResponse`] drops, so steady-state serving does not allocate a fresh output buffer per
//! request — and the pool's lock is shard-local, not another global
//! serialization point.
//!
//! # Failure containment
//!
//! No internal lock acquisition panics on poison. If a backend call
//! panics mid-execution (a backend bug, an allocation failure), the
//! resident driver **contains** the panic: the service marks itself shut
//! down, the panic payload is re-raised on the submitting thread of the
//! failed round's first blocking waiter (panics do not silently vanish
//! into a worker), and every other waiter fails with
//! [`NormError::ServiceShutdown`](crate::NormError::ServiceShutdown) — one panicking request never leaves
//! other callers parked forever, panicking on a poisoned mutex, or served
//! by a dead driver. A panic in an inline call is contained the same
//! way by the caller's claim guard: the service shuts down, entries that
//! queued behind the claim fail with [`NormError::ServiceShutdown`](crate::NormError::ServiceShutdown), and
//! the payload unwinds on a blocking caller's own thread — an inline
//! ticket catches it and reports [`NormError::ServiceShutdown`](crate::NormError::ServiceShutdown), so
//! `submit_async` never unwinds. A panicking
//! [`NormTicket::on_ready`] callback is likewise contained in the driver
//! and counted ([`ServiceStats::waker_panics`]). Plain-data state (the
//! request slots, a ticket set's ready queue) recovers the poisoned guard
//! and continues, since a panic cannot leave it inconsistent.
//!
//! Every path that sets the shutdown flag — [`NormService::shutdown`],
//! the last handle's drop, poison and panic recovery — takes each
//! shard's queue lock between the store and the driver's notify, so a
//! driver between its flag check and its park can never miss the wakeup.
//! Submitters need no such wakeup: a queued request parks on its own
//! slot, and the driver fills every slot it drains, shutdown or not.
//!
//! # Example
//!
//! ```
//! use iterl2norm::service::{NormRequest, ServiceConfig};
//! use iterl2norm::{BackendKind, FormatKind, MethodSpec};
//!
//! # fn main() -> Result<(), iterl2norm::NormError> {
//! let d = 64;
//! let service = ServiceConfig::new(d)
//!     .with_format(FormatKind::Fp32)
//!     .with_backend(BackendKind::Native)
//!     .with_method(MethodSpec::iterl2(5))
//!     .with_shards(2)
//!     .with_queue_depth(256)
//!     .build()?;
//!
//! // Native f32 traffic straight in; two rows in one request.
//! let rows: Vec<f32> = (0..2 * d).map(|i| (i as f32 * 0.37).sin()).collect();
//! let response = service.submit(NormRequest::f32(&rows))?;
//! assert_eq!(response.rows(), 2);
//! assert_eq!(response.bits().len(), 2 * d);
//! # Ok(())
//! # }
//! ```
//!
//! # Layout
//!
//! `config` holds [`ServiceConfig`] and [`Placement`]; `request` the
//! request, response and buffer-pool types; `stats` the counters;
//! `serve` the [`NormService`] entry points, admission, the inline path
//! and the shard state; `driver` the resident shard driver and its
//! rounds; `ticket` the completion slots, [`NormTicket`] and
//! [`TicketSet`].

// normlint: module(no-panic)
// A panic here unwinds inside the shard protocol and poisons shard
// locks: recover, fail closed through `Core::torn_state`, or attach a
// justified waiver.

mod config;
mod driver;
mod request;
mod serve;
mod stats;
mod ticket;

pub use config::{Placement, ServiceConfig, DEFAULT_QUEUE_DEPTH};
pub use request::{NormRequest, NormResponse, Priority, RequestKind};
pub use serve::NormService;
pub use stats::{ServiceStats, ServiceStatsSnapshot};
pub use ticket::{NormTicket, TicketSet};

#[cfg(test)]
mod tests {
    use std::time::{Duration, Instant};

    use super::serve::Shard;
    use super::*;
    use crate::backend::{build_backend, BackendKind, FormatKind};
    use crate::engine::MethodSpec;
    use crate::error::NormError;
    use crate::hworder::ReduceOrder;

    fn row_bits(d: usize, salt: u64) -> Vec<u32> {
        (0..d as u64)
            .map(|i| {
                FormatKind::Fp32.encode_f64(
                    (((i.wrapping_mul(2654435761).wrapping_add(salt)) % 1000) as f64) / 250.0 - 2.0,
                )
            })
            .collect()
    }

    #[test]
    fn shards_never_share_a_cache_line_pair() {
        // Shards sit side by side in one `Vec`: a 128-byte alignment and a
        // size that is a whole number of 128-byte pairs keep each shard's
        // locks off every neighbour's lines.
        assert!(core::mem::align_of::<Shard>() >= 128);
        assert_eq!(core::mem::size_of::<Shard>() % 128, 0);
    }

    #[test]
    fn config_validation_errors_surface_at_build() {
        assert_eq!(
            ServiceConfig::new(0).build().unwrap_err(),
            NormError::EmptyInput
        );
        assert_eq!(
            ServiceConfig::new(8).with_shards(0).build().unwrap_err(),
            NormError::ZeroShards
        );
        // Depth 0 would reject every request that finds its shard busy —
        // refused up front instead of misbehaving at runtime.
        assert_eq!(
            ServiceConfig::new(8)
                .with_queue_depth(0)
                .build()
                .unwrap_err(),
            NormError::ZeroQueueDepth
        );
        assert_eq!(
            ServiceConfig::new(8)
                .with_backend(BackendKind::Native)
                .with_format(FormatKind::Fp16)
                .build()
                .unwrap_err(),
            NormError::BackendFormatMismatch {
                backend: "native-f32",
                format: "FP16",
            }
        );
        assert_eq!(
            ServiceConfig::new(8)
                .with_gamma_bits(&[0; 7])
                .build()
                .unwrap_err(),
            NormError::GammaLengthMismatch {
                expected: 8,
                actual: 7
            }
        );
    }

    #[test]
    fn executor_knobs_round_trip_and_build() {
        let config = ServiceConfig::new(8).with_shards(2);
        assert_eq!(config.shards(), 2);
        let service = config.build().unwrap();
        let bits = row_bits(8, 1);
        let response = service.submit(NormRequest::bits(&bits)).unwrap();
        assert_eq!(response.rows(), 1);
    }

    #[test]
    fn config_reports_sharding_and_backpressure_knobs() {
        let config = ServiceConfig::new(8).with_shards(4).with_queue_depth(7);
        assert_eq!(config.shards(), 4);
        assert_eq!(config.queue_depth(), 7);
        let service = config.build().unwrap();
        assert_eq!(service.shards(), 4);
        assert_eq!(service.config().queue_depth(), 7);
        // Defaults: one shard, bounded queue.
        let default = ServiceConfig::new(8);
        assert_eq!(default.shards(), 1);
        assert_eq!(default.queue_depth(), DEFAULT_QUEUE_DEPTH);
    }

    #[test]
    fn submit_matches_direct_backend_execution() {
        let d = 24;
        let service = ServiceConfig::new(d).build().unwrap();
        let bits: Vec<u32> = (0..3).flat_map(|r| row_bits(d, r)).collect();
        let response = service.submit(NormRequest::bits(&bits)).unwrap();
        assert_eq!(response.rows(), 3);
        assert_eq!(response.batch_requests(), 1);

        let mut reference = build_backend(
            BackendKind::Emulated,
            FormatKind::Fp32,
            d,
            &MethodSpec::iterl2(5),
            ReduceOrder::HwTree,
        )
        .unwrap();
        let mut expect = vec![0u32; bits.len()];
        reference
            .normalize_batch_bits(&bits, &mut expect, 1)
            .unwrap();
        assert_eq!(response.bits(), &expect[..]);

        let stats = service.stats();
        assert_eq!(stats.requests, 1);
        assert_eq!(stats.batches, 1);
        assert_eq!(stats.rows, 3);
        assert_eq!(stats.queue_full_rejections, 0);
        assert!(stats.execute > Duration::ZERO, "execute time was recorded");
    }

    #[test]
    fn sharded_services_are_bitwise_equivalent_to_single_shard() {
        let d = 24;
        let bits: Vec<u32> = (0..3).flat_map(|r| row_bits(d, r)).collect();
        let expect = ServiceConfig::new(d)
            .build()
            .unwrap()
            .submit(NormRequest::bits(&bits))
            .unwrap()
            .into_bits();
        for shards in [2, 4] {
            let service = ServiceConfig::new(d).with_shards(shards).build().unwrap();
            // Several submits so round-robin visits every shard.
            for _ in 0..2 * shards {
                let response = service.submit(NormRequest::bits(&bits)).unwrap();
                assert_eq!(response.bits(), &expect[..], "shards={shards}");
            }
            let stats = service.stats();
            assert_eq!(stats.requests, 2 * shards as u64, "stats aggregate shards");
            assert_eq!(stats.rows, 6 * shards as u64);
        }
    }

    #[test]
    fn pooled_responses_return_buffers_for_reuse() {
        let d = 16;
        let service = ServiceConfig::new(d).build().unwrap();
        let bits = row_bits(d, 3);
        // Drop responses between submits: a reused pooled buffer is
        // refilled from the request and fully overwritten.
        let first = service
            .submit(NormRequest::bits(&bits))
            .unwrap()
            .into_bits();
        for _ in 0..5 {
            let response = service.submit(NormRequest::bits(&bits)).unwrap();
            assert_eq!(response.bits(), &first[..]);
        }
        // into_bits detaches the buffer from the pool: the caller owns it.
        let owned = service
            .submit(NormRequest::bits(&bits))
            .unwrap()
            .into_bits();
        assert_eq!(owned, first);
    }

    #[test]
    fn f32_requests_match_bits_requests() {
        let d = 16;
        let service = ServiceConfig::new(d)
            .with_backend(BackendKind::Native)
            .build()
            .unwrap();
        let values: Vec<f32> = (0..2 * d).map(|i| (i as f32 * 0.71).sin()).collect();
        let bits: Vec<u32> = values.iter().map(|v| v.to_bits()).collect();
        let via_f32 = service.submit(NormRequest::f32(&values)).unwrap();
        let via_bits = service.submit(NormRequest::bits(&bits)).unwrap();
        assert_eq!(via_f32.bits(), via_bits.bits());
        assert_eq!(via_f32.to_f32_vec().len(), 2 * d);
        // f64 decode agrees with the f32 view.
        for (a, b) in via_f32.to_f64_vec().iter().zip(via_f32.to_f32_vec()) {
            assert_eq!(*a, f64::from(b));
        }
    }

    #[test]
    fn empty_and_ragged_requests_are_rejected_up_front() {
        let d = 8;
        let service = ServiceConfig::new(d).build().unwrap();
        assert_eq!(
            service.submit(NormRequest::bits(&[])).unwrap_err(),
            NormError::EmptyRequest
        );
        assert_eq!(
            service.submit(NormRequest::f32(&[])).unwrap_err(),
            NormError::EmptyRequest
        );
        let ragged = vec![0u32; d + 1];
        assert_eq!(
            service.submit(NormRequest::bits(&ragged)).unwrap_err(),
            NormError::BatchLengthMismatch {
                rows: 1,
                d,
                actual: d + 1
            }
        );
        // Rejections never count as accepted traffic.
        assert_eq!(service.stats().requests, 0);
    }

    #[test]
    fn shutdown_refuses_new_work() {
        let d = 8;
        let service = ServiceConfig::new(d).with_shards(2).build().unwrap();
        let bits = row_bits(d, 1);
        let _ = service.submit(NormRequest::bits(&bits)).unwrap();
        assert!(!service.is_shutdown());
        service.shutdown();
        assert!(service.is_shutdown());
        assert_eq!(
            service.submit(NormRequest::bits(&bits)).unwrap_err(),
            NormError::ServiceShutdown
        );
        // A clone shares the shutdown state.
        assert!(service.clone().is_shutdown());
    }

    #[test]
    fn submit_into_matches_submit_and_validates_shapes() {
        let d = 20;
        let service = ServiceConfig::new(d).build().unwrap();
        let bits: Vec<u32> = (0..2).flat_map(|r| row_bits(d, r)).collect();
        let expect = service.submit(NormRequest::bits(&bits)).unwrap();
        let mut out = vec![0u32; bits.len()];
        assert_eq!(
            service
                .submit_into(NormRequest::bits(&bits), &mut out)
                .unwrap(),
            2
        );
        assert_eq!(&out[..], expect.bits());
        let mut short = vec![0u32; d];
        assert_eq!(
            service
                .submit_into(NormRequest::bits(&bits), &mut short)
                .unwrap_err(),
            NormError::OutputLengthMismatch {
                expected: 2 * d,
                actual: d
            }
        );
        assert_eq!(
            service
                .submit_into(NormRequest::bits(&[]), &mut [])
                .unwrap_err(),
            NormError::EmptyRequest
        );
        service.shutdown();
        let bits = row_bits(d, 1);
        let mut out = vec![0u32; d];
        assert_eq!(
            service
                .submit_into(NormRequest::bits(&bits), &mut out)
                .unwrap_err(),
            NormError::ServiceShutdown
        );
    }

    #[test]
    fn submit_async_matches_blocking_submit() {
        let d = 24;
        let service = ServiceConfig::new(d).build().unwrap();
        let bits: Vec<u32> = (0..3).flat_map(|r| row_bits(d, r)).collect();
        let expect = service.submit(NormRequest::bits(&bits)).unwrap();

        // wait() parks until the resident driver's round delivers.
        let mut ticket = service.submit_async(NormRequest::bits(&bits)).unwrap();
        assert_eq!(ticket.rows(), 3);
        let waited = ticket.wait().unwrap();
        assert_eq!(waited.bits(), expect.bits());
        assert_eq!(waited.rows(), 3);

        // try_take() never parks; the resident driver completes the
        // round on its own schedule — poll under a generous deadline.
        let mut ticket = service.submit_async(NormRequest::bits(&bits)).unwrap();
        let deadline = Instant::now() + Duration::from_secs(10);
        let polled = loop {
            if let Some(result) = ticket.try_take() {
                break result;
            }
            assert!(Instant::now() < deadline, "driver never served the ticket");
            std::thread::yield_now();
        };
        assert_eq!(polled.unwrap().bits(), expect.bits());

        // wait_timeout() within budget delivers the same bits.
        let mut ticket = service.submit_async(NormRequest::bits(&bits)).unwrap();
        let timed = ticket
            .wait_timeout(Duration::from_secs(5))
            .expect("bounded wait covers the driver's round");
        assert_eq!(timed.unwrap().bits(), expect.bits());

        // The "effectively forever" idiom must wait, not overflow-panic.
        let mut ticket = service.submit_async(NormRequest::bits(&bits)).unwrap();
        let forever = ticket
            .wait_timeout(Duration::MAX)
            .expect("an unbounded wait always delivers");
        assert_eq!(forever.unwrap().bits(), expect.bits());
    }

    #[test]
    fn submit_async_rejects_bad_shapes_and_shutdown_at_the_door() {
        let d = 8;
        let service = ServiceConfig::new(d).build().unwrap();
        assert_eq!(
            service.submit_async(NormRequest::bits(&[])).unwrap_err(),
            NormError::EmptyRequest
        );
        let ragged = vec![0u32; d + 1];
        assert_eq!(
            service
                .submit_async(NormRequest::bits(&ragged))
                .unwrap_err(),
            NormError::BatchLengthMismatch {
                rows: 1,
                d,
                actual: d + 1
            }
        );
        service.shutdown();
        let bits = row_bits(d, 1);
        assert_eq!(
            service.submit_async(NormRequest::bits(&bits)).unwrap_err(),
            NormError::ServiceShutdown
        );
    }

    #[test]
    #[should_panic(expected = "result already taken")]
    fn spent_ticket_panics_on_reuse() {
        let d = 8;
        let service = ServiceConfig::new(d).build().unwrap();
        let bits = row_bits(d, 1);
        let mut ticket = service.submit_async(NormRequest::bits(&bits)).unwrap();
        let _ = ticket.wait();
        let _ = ticket.try_take();
    }

    #[test]
    fn ticket_set_holds_only_the_outstanding_span() {
        let d = 8;
        let service = ServiceConfig::new(d).build().unwrap();
        let bits = row_bits(d, 5);
        let mut set = TicketSet::new();
        for expect in 0..1000usize {
            let index = set.insert(service.submit_async(NormRequest::bits(&bits)).unwrap());
            assert_eq!(index, expect, "indices count up from zero");
            let (got, result) = set.wait_any().unwrap();
            assert_eq!(got, index);
            assert_eq!(result.unwrap().rows(), 1);
            assert!(set.tickets.is_empty(), "a collected front is trimmed");
        }
        assert!(set.wait_any().is_none());
    }

    #[test]
    fn abandoned_tickets_are_counted_and_service_keeps_working() {
        let d = 16;
        let service = ServiceConfig::new(d).build().unwrap();
        let bits = row_bits(d, 4);
        let expect = service.submit(NormRequest::bits(&bits)).unwrap();

        // Dropped before collection: the resident driver still executes
        // the orphaned entry, and the abandoned slot recycles its result
        // buffer instead of stranding it.
        let ticket = service.submit_async(NormRequest::bits(&bits)).unwrap();
        drop(ticket);
        assert_eq!(service.stats().abandoned_tickets, 1);
        let after = service.submit(NormRequest::bits(&bits)).unwrap();
        assert_eq!(after.bits(), expect.bits());

        // Dropped after its round ran: the delivered outcome is reclaimed
        // at drop time. The blocking submit returning proves the earlier
        // ticket's entry was already served — the driver drains the whole
        // queue every round, in order.
        let ticket = service.submit_async(NormRequest::bits(&bits)).unwrap();
        let kicked = service.submit(NormRequest::bits(&bits)).unwrap();
        assert_eq!(kicked.bits(), expect.bits());
        drop(ticket);
        assert_eq!(service.stats().abandoned_tickets, 2);
        // The service stays fully usable.
        let last = service.submit(NormRequest::bits(&bits)).unwrap();
        assert_eq!(last.bits(), expect.bits());
    }

    #[test]
    fn request_hash_placement_is_deterministic_and_in_range() {
        let d = 8;
        let service = ServiceConfig::new(d)
            .with_shards(4)
            .with_placement(Placement::RequestHash)
            .build()
            .unwrap();
        assert_eq!(service.config().placement(), Placement::RequestHash);
        for key in [0u64, 1, 7, 0xDEAD_BEEF, u64::MAX] {
            let shard = service.shard_for(key);
            assert!(shard < 4);
            for _ in 0..3 {
                assert_eq!(service.shard_for(key), shard, "sticky for key {key}");
            }
        }
        // Distinct keys spread: 64 sequential keys must not all collapse
        // onto one shard (splitmix64 mixes sequential inputs).
        let hit: std::collections::BTreeSet<usize> =
            (0..64u64).map(|k| service.shard_for(k)).collect();
        assert!(hit.len() > 1, "sequential keys all landed on one shard");
        // Keyed submissions produce the same bits as unkeyed ones.
        let bits = row_bits(d, 6);
        let unkeyed = service.submit(NormRequest::bits(&bits)).unwrap();
        let keyed = service
            .submit(NormRequest::bits(&bits).with_key(42))
            .unwrap();
        assert_eq!(unkeyed.bits(), keyed.bits());
        let mut ticket = service
            .submit_async(NormRequest::bits(&bits).with_key(42))
            .unwrap();
        assert_eq!(ticket.shard(), service.shard_for(42));
        assert_eq!(ticket.wait().unwrap().bits(), unkeyed.bits());
    }

    #[test]
    fn placement_parses_and_displays() {
        assert_eq!(Placement::parse("round-robin"), Some(Placement::RoundRobin));
        assert_eq!(Placement::parse("RR"), Some(Placement::RoundRobin));
        assert_eq!(
            Placement::parse("Request-Hash"),
            Some(Placement::RequestHash)
        );
        assert_eq!(Placement::parse("hash"), Some(Placement::RequestHash));
        assert_eq!(Placement::parse("random"), None);
        for placement in Placement::ALL {
            assert_eq!(Placement::parse(placement.name()), Some(placement));
            assert_eq!(placement.to_string(), placement.name());
        }
        assert_eq!(Placement::default(), Placement::RoundRobin);
    }

    #[test]
    fn request_key_accessors_round_trip() {
        let data = [0u32; 4];
        let plain = NormRequest::bits(&data);
        assert_eq!(plain.key(), None);
        assert_eq!(plain.with_key(9).key(), Some(9));
        let values = [0.0f32; 4];
        assert_eq!(NormRequest::f32(&values).with_key(3).key(), Some(3));
    }

    #[test]
    fn priority_parses_and_displays() {
        assert_eq!(Priority::parse("normal"), Some(Priority::Normal));
        assert_eq!(Priority::parse("HIGH"), Some(Priority::High));
        assert_eq!(Priority::parse("urgent"), None);
        for priority in Priority::ALL {
            assert_eq!(Priority::parse(priority.name()), Some(priority));
            assert_eq!(priority.to_string(), priority.name());
        }
        assert_eq!(Priority::default(), Priority::Normal);
    }

    #[test]
    fn request_priority_accessors_round_trip() {
        let data = [0u32; 4];
        assert_eq!(NormRequest::bits(&data).priority(), Priority::Normal);
        assert_eq!(
            NormRequest::bits(&data)
                .with_priority(Priority::High)
                .priority(),
            Priority::High
        );
        // Priority composes with keys and never affects output bits.
        let d = 8;
        let service = ServiceConfig::new(d).build().unwrap();
        let bits = row_bits(d, 3);
        let normal = service.submit(NormRequest::bits(&bits)).unwrap();
        let high = service
            .submit(
                NormRequest::bits(&bits)
                    .with_priority(Priority::High)
                    .with_key(5),
            )
            .unwrap();
        assert_eq!(normal.bits(), high.bits());
    }

    #[test]
    fn stats_snapshot_mirrors_every_counter() {
        let stats = ServiceStats {
            requests: 1,
            batches: 2,
            coalesced_requests: 3,
            rows: 4,
            queue_full_rejections: 5,
            abandoned_tickets: 6,
            queue_wait: Duration::from_micros(7),
            execute: Duration::from_micros(8),
            whiten_requests: 9,
            whiten_rows: 10,
            worker_busy: Duration::from_micros(11),
            worker_idle: Duration::from_micros(12),
            worker_wakeups: 13,
            waker_panics: 14,
        };
        let snap = stats.snapshot();
        assert_eq!(snap.queue_wait_us, 7);
        assert_eq!(snap.execute_us, 8);
        // fields() covers each counter exactly once, in declaration
        // order, with the struct's own values.
        let fields = snap.fields();
        let expect = [
            ("requests", 1u64),
            ("batches", 2),
            ("coalesced_requests", 3),
            ("rows", 4),
            ("queue_full_rejections", 5),
            ("abandoned_tickets", 6),
            ("queue_wait_us", 7),
            ("execute_us", 8),
            ("whiten_requests", 9),
            ("whiten_rows", 10),
            ("worker_busy_us", 11),
            ("worker_idle_us", 12),
            ("worker_wakeups", 13),
            ("waker_panics", 14),
        ];
        assert_eq!(fields, expect);
        let mut names: Vec<&str> = fields.iter().map(|(n, _)| *n).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), fields.len(), "duplicate field name");
    }

    #[test]
    fn stats_snapshot_saturates_on_absurd_durations() {
        let stats = ServiceStats {
            queue_wait: Duration::MAX,
            ..ServiceStats::default()
        };
        assert_eq!(stats.snapshot().queue_wait_us, u64::MAX);
    }

    #[test]
    fn live_service_snapshot_tracks_traffic() {
        let d = 8;
        let service = ServiceConfig::new(d).build().unwrap();
        let bits = row_bits(d, 1);
        let _ = service.submit(NormRequest::bits(&bits)).unwrap();
        let _ = service.submit(NormRequest::bits(&bits)).unwrap();
        let snap = service.stats().snapshot();
        assert_eq!(snap.requests, 2);
        assert_eq!(snap.rows, 2);
        assert_eq!(snap.queue_full_rejections, 0);
    }
}
