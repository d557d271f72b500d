//! Serving-API bench: `NormService` blocking (coalesced) vs pipelined
//! async-submission throughput across shard counts {1, 2, 4}, under 1-8
//! submitting threads, emitting `results/BENCH_service.json`.
//!
//! Requests per submitting thread via `ITERL2_BENCH_REQS` (default 64).
fn main() -> std::io::Result<()> {
    let requests = std::env::var("ITERL2_BENCH_REQS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(64);
    benchkit::experiments::service::run(requests)
}
