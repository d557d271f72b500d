//! Thread hygiene of the resident shard executor, enforced against the
//! OS rather than internal counters: every resident thread this crate
//! spawns is a shard driver named `ns{service}s{shard}d` (within the
//! 15-byte comm limit), so enumerating `/proc/self/task` gives the
//! ground truth the contract is stated in —
//!
//! * exactly `shards` drivers spawn, one per shard, once, at
//!   [`ServiceConfig::build`] — submitting traffic never spawns more;
//! * an idle service takes (almost) no wake-ups over a scripted idle
//!   window — residents park, they never busy-spin;
//! * [`NormService::shutdown`] retires the shard drivers and the final
//!   `Drop` joins them — a 100-iteration build/drop churn
//!   leaves the process with zero service threads.
//!
//! Thread accounting is process-global, so every test serializes on
//! one mutex and proves the process clean before releasing it.

use std::sync::{Mutex, MutexGuard};
use std::time::{Duration, Instant};

use iterl2norm::service::{NormRequest, ServiceConfig};

const D: usize = 8;

/// Serializes the tests in this binary: concurrent services would
/// pollute each other's `/proc/self/task` census.
static CENSUS: Mutex<()> = Mutex::new(());

fn census_lock() -> MutexGuard<'static, ()> {
    // A failed test poisons the lock; the census itself is stateless,
    // so later tests can still run (and report their own failures).
    CENSUS.lock().unwrap_or_else(|e| e.into_inner())
}

/// The comm names of every live service thread in this process — the
/// resident drivers (`ns{sid}s{i}d`) — sorted for stable comparison.
fn service_threads() -> Vec<String> {
    let mut names = Vec::new();
    for entry in std::fs::read_dir("/proc/self/task").expect("procfs task dir") {
        let comm_path = entry.expect("task dir entry").path().join("comm");
        // The thread may exit between readdir and read: skip, don't fail.
        if let Ok(comm) = std::fs::read_to_string(comm_path) {
            let comm = comm.trim();
            if let Some(rest) = comm.strip_prefix("ns") {
                if rest.starts_with(|c: char| c.is_ascii_digit()) {
                    names.push(comm.to_string());
                }
            }
        }
    }
    names.sort();
    names
}

/// Poll until exactly `expected` service workers are visible, then
/// return the stable census. Needed right after `build()`: the workers
/// are already spawned, but each sets its own comm name from inside
/// the child thread, so the names appear a beat after spawn returns.
fn await_service_census(expected: usize, context: &str) -> Vec<String> {
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let live = service_threads();
        if live.len() == expected {
            return live;
        }
        assert!(
            Instant::now() < deadline,
            "{context}: expected {expected} workers, census {live:?}"
        );
        std::thread::yield_now();
    }
}

/// Assert the process reaches zero service threads within `bound` —
/// joins are synchronous, but a retired (unjoined) thread's procfs
/// entry disappears only when the OS reaps it.
fn await_no_service_threads(bound: Duration, context: &str) {
    let deadline = Instant::now() + bound;
    loop {
        let live = service_threads();
        if live.is_empty() {
            return;
        }
        assert!(
            Instant::now() < deadline,
            "{context}: service threads still alive: {live:?}"
        );
        std::thread::yield_now();
    }
}

fn row_bits(salt: u32) -> Vec<u32> {
    (0..D as u32)
        .map(|i| (1.0f32 + (i.wrapping_mul(13).wrapping_add(salt) % 11) as f32 * 0.25).to_bits())
        .collect()
}

#[test]
fn build_spawns_exactly_the_configured_workers_once() {
    let _guard = census_lock();
    await_no_service_threads(Duration::from_secs(10), "census must start clean");

    // Three shards — three residents, one driver each.
    let service = ServiceConfig::new(D).with_shards(3).build().unwrap();
    let at_build = await_service_census(3, "one driver per shard must spawn");
    let sid = at_build[0]
        .strip_prefix("ns")
        .and_then(|rest| rest.split_once('s'))
        .map(|(sid, _)| sid.to_string())
        .unwrap_or_else(|| panic!("unexpected resident name: {at_build:?}"));
    let expected: Vec<String> = (0..3).map(|i| format!("ns{sid}s{i}d")).collect();
    assert_eq!(at_build, expected, "exactly one driver per shard");

    // Traffic reuses the residents — the census is identical after
    // blocking, async, and whiten-free submissions from several threads.
    std::thread::scope(|scope| {
        for who in 0..3u32 {
            let service = service.clone();
            scope.spawn(move || {
                let bits = row_bits(who);
                for _ in 0..5 {
                    assert_eq!(service.submit(NormRequest::bits(&bits)).unwrap().rows(), 1);
                    let mut ticket = service.submit_async(NormRequest::bits(&bits)).unwrap();
                    assert_eq!(ticket.wait().unwrap().rows(), 1);
                }
            });
        }
    });
    assert_eq!(
        service_threads(),
        at_build,
        "traffic must never spawn or retire residents"
    );

    drop(service);
    await_no_service_threads(Duration::from_secs(10), "drop must join every worker");
}

#[test]
fn idle_residents_park_without_wakeups() {
    let _guard = census_lock();
    await_no_service_threads(Duration::from_secs(10), "census must start clean");

    let service = ServiceConfig::new(D).with_shards(2).build().unwrap();
    // Let the spawn-time wake-ups (drivers parking for the first time)
    // settle, then take the baseline.
    let bits = row_bits(1);
    assert_eq!(service.submit(NormRequest::bits(&bits)).unwrap().rows(), 1);
    let baseline = service.stats().worker_wakeups;

    // A scripted idle window: no traffic for 100 ms. Parked residents
    // must not wake themselves — polling stats doesn't count, and the
    // executor has no timer-based spinning to leak wake-ups through.
    let idle_until = Instant::now() + Duration::from_millis(100);
    while Instant::now() < idle_until {
        std::thread::sleep(Duration::from_millis(10));
        let _ = service.stats();
    }
    let woke = service.stats().worker_wakeups - baseline;
    assert!(
        woke <= 2,
        "idle residents must stay parked: {woke} wake-ups over the idle window"
    );

    drop(service);
    await_no_service_threads(Duration::from_secs(10), "drop must join every worker");
}

#[test]
fn shutdown_retires_drivers_and_drop_joins_the_rest() {
    let _guard = census_lock();
    await_no_service_threads(Duration::from_secs(10), "census must start clean");

    let service = ServiceConfig::new(D).with_shards(2).build().unwrap();
    let bits = row_bits(2);
    assert_eq!(service.submit(NormRequest::bits(&bits)).unwrap().rows(), 1);

    // Graceful shutdown: the shard drivers drain and exit on their own
    // (observable as their `…d` names leaving the census) before the
    // service is dropped…
    service.shutdown();
    await_no_service_threads(
        Duration::from_secs(10),
        "shutdown never retired the drivers",
    );
    // …and a shut-down service still answers stats() until the drop
    // joins the retired drivers.
    let _ = service.stats();

    drop(service);
    await_no_service_threads(Duration::from_secs(10), "drop must join every worker");
}

#[test]
fn hundred_build_drop_cycles_leak_no_threads() {
    let _guard = census_lock();
    await_no_service_threads(Duration::from_secs(10), "census must start clean");

    for cycle in 0..100u32 {
        let service = ServiceConfig::new(D).with_shards(2).build().unwrap();
        let bits = row_bits(cycle);
        // Exercise both waiters so every cycle runs a real round; drop
        // one ticket uncollected to churn the abandonment path too.
        assert_eq!(service.submit(NormRequest::bits(&bits)).unwrap().rows(), 1);
        let ticket = service.submit_async(NormRequest::bits(&bits)).unwrap();
        if cycle % 2 == 0 {
            drop(ticket);
        } else {
            let mut ticket = ticket;
            assert_eq!(ticket.wait().unwrap().rows(), 1);
        }
        drop(service);
        await_no_service_threads(
            Duration::from_secs(10),
            &format!("cycle {cycle} leaked a worker"),
        );
    }
}
