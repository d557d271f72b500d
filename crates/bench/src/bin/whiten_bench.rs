//! Whitening bench: native-f32 Newton–Schulz `Σ^{-1/2}` vs the softfloat
//! oracle per SIMD tier at T ∈ {0, 1, 5} and d ∈ {16, 64, 256}, plus the
//! served shape (d = 64, m = 256, T = 5), emitting
//! `results/BENCH_whiten.json` after a bit-identity self-check.
//!
//! Rows per group of the grid via `ITERL2_BENCH_ROWS` (default 32).
fn main() -> std::io::Result<()> {
    let rows = std::env::var("ITERL2_BENCH_ROWS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(32);
    benchkit::experiments::whiten::run(rows)
}
