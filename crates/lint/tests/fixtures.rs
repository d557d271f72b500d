//! Golden-diagnostic tests: each rule has a fixture under `fixtures/`
//! that provokes it, and the rendered diagnostics (path, line, col,
//! message) are pinned exactly. The fixture directory is excluded from
//! the workspace walk, so the fixtures are lint-dirty on purpose without
//! dirtying `workspace_is_lint_clean`.
//!
//! Fixtures are linted under *synthetic* workspace-relative paths — the
//! on-disk `fixtures/` segment would otherwise mark them as test code
//! and suppress the very rules under test.

use normlint::diag::RuleId;
use normlint::{check_file_source, Config};

/// Read a fixture from the crate's `fixtures/` directory.
fn fixture(name: &str) -> String {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("fixtures")
        .join(name);
    std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("fixture {} unreadable: {e}", path.display()))
}

/// Lint a fixture under a synthetic path with the default (deny-all)
/// config and return the rendered diagnostics.
fn lint_as(name: &str, rel_path: &str) -> Vec<String> {
    let src = fixture(name);
    check_file_source(rel_path, &src, &Config::default())
        .iter()
        .map(|d| d.render_text())
        .collect()
}

#[test]
fn l001_fires_on_lock_unwrap_and_expect() {
    let got = lint_as("l001_lock_unwrap.rs", "crates/server/src/shard.rs");
    assert_eq!(
        got,
        vec![
            "crates/server/src/shard.rs:5:15: [L001] .unwrap() on a `lock()` result panics on \
             poison — use unwrap_or_else(PoisonError::into_inner) or the shard recovery helpers",
            "crates/server/src/shard.rs:9:15: [L001] .expect() on a `lock()` result panics on \
             poison — use unwrap_or_else(PoisonError::into_inner) or the shard recovery helpers",
        ]
    );
}

#[test]
fn l001_no_panic_pragma_bans_every_unwrap() {
    let got = lint_as("l001_no_panic.rs", "crates/core/src/service.rs");
    assert_eq!(
        got,
        vec![
            "crates/core/src/service.rs:5:7: [L001] .unwrap() in a `module(no-panic)` file — \
             recover or return an error (a panic here poisons shard locks)",
            "crates/core/src/service.rs:9:7: [L001] .expect() in a `module(no-panic)` file — \
             recover or return an error (a panic here poisons shard locks)",
        ]
    );
}

#[test]
fn l002_fires_without_file_opt_in() {
    let got = lint_as("l002_unsafe_no_optin.rs", "crates/server/src/peek.rs");
    assert_eq!(
        got,
        vec![
            "crates/server/src/peek.rs:4:5: [L002] `unsafe` in a file without \
             `#![allow(unsafe_code)]` — unsafe is confined to modules that opt in",
        ]
    );
}

#[test]
fn l002_fires_on_missing_safety_comment_only() {
    // Three unsafe sites in the fixture; only the undocumented one fires
    // (same-line and above-the-attribute SAFETY comments both count).
    let got = lint_as("l002_missing_safety.rs", "crates/core/src/ffi.rs");
    assert_eq!(
        got,
        vec![
            "crates/core/src/ffi.rs:5:5: [L002] `unsafe` without a `// SAFETY:` comment on the \
             same line or directly above",
        ]
    );
}

#[test]
fn l003_fires_only_on_value_path_files() {
    // Same source, two paths: on the configured value path it fires ...
    let on_path = lint_as("l003_timing.rs", "crates/core/src/engine.rs");
    assert_eq!(
        on_path,
        vec![
            "crates/core/src/engine.rs:3:16: [L003] `Instant` in a value-path module — kernels \
             must be deterministic; move timing to the service/bench layer",
            "crates/core/src/engine.rs:6:14: [L003] `Instant` in a value-path module — kernels \
             must be deterministic; move timing to the service/bench layer",
            "crates/core/src/engine.rs:14:18: [L003] `sleep` in a value-path module — kernels \
             must be deterministic; move timing to the service/bench layer",
        ]
    );

    // ... and off it the identical source is clean.
    let off_path = lint_as("l003_timing.rs", "crates/server/src/metrics.rs");
    assert_eq!(off_path, Vec::<String>::new());
}

#[test]
fn l003_value_path_pragma_opts_a_file_in() {
    let got = lint_as("l003_pragma.rs", "crates/workloads/src/anywhere.rs");
    assert_eq!(got.len(), 3, "every `SystemTime` mention fires: {got:#?}");
    assert!(got.iter().all(|d| d.contains("[L003] `SystemTime`")));
}

#[test]
fn l003_flags_spawn_outside_test_regions() {
    let got = lint_as("l003_spawn.rs", "crates/core/src/whiten.rs");
    assert_eq!(
        got,
        vec![
            "crates/core/src/whiten.rs:6:15: [L003] `spawn` in a value-path module — partition \
             through `executor::fork` (executor.rs), the one fork-join vehicle",
            "crates/core/src/whiten.rs:12:18: [L003] `spawn` in a value-path module — partition \
             through `executor::fork` (executor.rs), the one fork-join vehicle",
        ]
    );
    // The executor, which owns the scoped fork, is not on the value path.
    let off_path = lint_as("l003_spawn.rs", "crates/core/src/executor.rs");
    assert_eq!(off_path, Vec::<String>::new());
}

#[test]
fn l004_fires_inside_kernel_regions_only() {
    let got = lint_as("l004_kernel_div.rs", "crates/core/src/simd.rs");
    assert_eq!(
        got,
        vec![
            "crates/core/src/simd.rs:11:25: [L004] division inside a kernel region — the \
             Newton–Schulz path is multiply/add only",
            "crates/core/src/simd.rs:12:24: [L004] `.sqrt()` inside a kernel region — hardware \
             divide/sqrt/FMA rounds differently across targets",
            "crates/core/src/simd.rs:13:21: [L004] `.mul_add()` inside a kernel region — \
             hardware divide/sqrt/FMA rounds differently across targets",
        ]
    );
}

#[test]
fn l005_fires_on_nested_guard_but_not_scoped_or_dropped() {
    let got = lint_as("l005_nested_guard.rs", "crates/core/src/service.rs");
    assert_eq!(
        got,
        vec![
            "crates/core/src/service.rs:12:29: [L005] `.lock()` while guard `queue` is live — \
             drop it first (lock-order hazard)",
        ]
    );
}

#[test]
fn l006_fires_on_variant_missing_from_display() {
    let got = lint_as("l006_display_gap.rs", "crates/core/src/error.rs");
    assert_eq!(
        got,
        vec![
            "crates/core/src/error.rs:7:5: [L006] variant `QueueFull` is not named in the \
             `Display` impl for `NormError`",
        ]
    );
}

#[test]
fn l007_fires_on_notify_after_store_without_a_lock() {
    let got = lint_as("l007_lost_wakeup.rs", "crates/core/src/service.rs");
    assert_eq!(
        got,
        vec![
            "crates/core/src/service.rs:14:23: [L007] `.notify_all()` after the atomic store \
             on line 12 with no lock taken in between — a waiter between its flag check and \
             its wait misses this wakeup; lock the condvar's mutex after the store",
        ]
    );
}

#[test]
fn well_formed_waiver_silences_the_rule() {
    let got = lint_as("waived.rs", "crates/server/src/shard.rs");
    assert_eq!(got, Vec::<String>::new());
}

#[test]
fn broken_waivers_report_l000_and_waive_nothing() {
    let got = lint_as("l000_bad_directives.rs", "crates/server/src/shard.rs");
    assert_eq!(
        got,
        vec![
            "crates/server/src/shard.rs:6:5: [L000] waiver for L001 has no reason — write \
             `allow(L001) — why`",
            "crates/server/src/shard.rs:7:15: [L001] .unwrap() on a `lock()` result panics on \
             poison — use unwrap_or_else(PoisonError::into_inner) or the shard recovery helpers",
            "crates/server/src/shard.rs:10:1: [L000] unrecognized normlint directive \
             `allom(L001) — typo in the directive verb`",
        ]
    );
}

#[test]
fn allow_flag_suppresses_a_rule() {
    let mut cfg = Config::default();
    cfg.allow(RuleId::L001);
    let src = fixture("l001_lock_unwrap.rs");
    let got = check_file_source("crates/server/src/shard.rs", &src, &cfg);
    assert!(got.is_empty(), "allowed rule must not fire: {got:#?}");
}

#[test]
fn json_rendering_is_stable() {
    let src = fixture("l006_display_gap.rs");
    let got = check_file_source("crates/core/src/error.rs", &src, &Config::default());
    assert_eq!(got.len(), 1);
    let json = normlint::diag::render_json(&got);
    assert!(json.starts_with("[\n  {\"rule\":\"L006\""), "{json}");
    assert!(
        json.contains("\"path\":\"crates/core/src/error.rs\""),
        "{json}"
    );
    assert!(json.contains("\"line\":7,\"col\":5"), "{json}");
}
