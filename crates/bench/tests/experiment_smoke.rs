//! Smoke tests: every experiment runs end-to-end at reduced scale and
//! leaves its CSV behind. (Full-scale runs are the release binaries.)

use std::sync::Once;

static INIT: Once = Once::new();

fn results_dir() -> std::path::PathBuf {
    let dir = std::env::temp_dir().join("iterl2-bench-smoke");
    INIT.call_once(|| {
        std::env::set_var("ITERL2_RESULTS", &dir);
    });
    dir
}

fn assert_csv(name: &str) {
    let path = results_dir().join(format!("{name}.csv"));
    let content = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("missing {}: {e}", path.display()));
    assert!(content.lines().count() > 1, "{name}.csv has no data rows");
}

#[test]
fn fig3_smoke() {
    let _ = results_dir();
    benchkit::experiments::fig3_precision::run(2).unwrap();
    assert_csv("fig3_precision");
    assert_csv("fig3_histogram");
}

#[test]
fn table1_smoke() {
    let _ = results_dir();
    benchkit::experiments::table1_fisr_cmp::run(2).unwrap();
    assert_csv("table1_fisr_cmp");
}

#[test]
fn fig4_smoke() {
    let _ = results_dir();
    benchkit::experiments::fig4_convergence::run(2).unwrap();
    assert_csv("fig4_convergence");
}

#[test]
fn fig5_smoke() {
    let _ = results_dir();
    benchkit::experiments::fig5_latency::run().unwrap();
    assert_csv("fig5_latency");
}

#[test]
fn backend_smoke() {
    let _ = results_dir();
    benchkit::experiments::backend::run_at(&[32], 8, &[1, 2]).unwrap();
    let path = results_dir().join("BENCH_backend.json");
    let content = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("missing {}: {e}", path.display()));
    assert!(
        content.contains("\"bench\": \"backend_throughput\""),
        "{content}"
    );
    assert!(content.contains("\"backend\": \"native-f32\""), "{content}");
    assert!(content.contains("\"backend\": \"emulated\""), "{content}");
    // The forced tiers skip the one `auto` already measured: no native
    // configuration appears twice.
    let native: Vec<&str> = content
        .lines()
        .filter(|line| line.contains("native-f32"))
        .map(|line| line.split("\"rows_per_s\"").next().unwrap())
        .collect();
    let distinct: std::collections::HashSet<&str> = native.iter().copied().collect();
    assert_eq!(distinct.len(), native.len(), "{content}");
}

#[test]
fn table2_and_fig6_smoke() {
    let _ = results_dir();
    benchkit::experiments::table2_synthesis::run().unwrap();
    benchkit::experiments::fig6_breakdown::run().unwrap();
    assert_csv("table2_synthesis");
    assert_csv("fig6_breakdown");
}

#[test]
fn table3_smoke() {
    let _ = results_dir();
    benchkit::experiments::table3_comparison::run().unwrap();
    assert_csv("table3_comparison");
}

#[test]
fn table4_smoke() {
    let _ = results_dir();
    benchkit::experiments::table4_llm::run(40).unwrap();
    assert_csv("table4_llm");
}

#[test]
fn ablations_smoke() {
    let _ = results_dir();
    benchkit::experiments::ablations::run(3).unwrap();
    assert_csv("ablations");
}

#[test]
fn service_smoke() {
    // The serving sweep end to end at tiny scale: every mode (blocking
    // coalesced, pipelined async) runs its bit-identity self-check and
    // lands in the JSON.
    let _ = results_dir();
    benchkit::experiments::service::run_at(&[32], &[1, 2], 4, 2).unwrap();
    let path = results_dir().join("BENCH_service.json");
    let content = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("missing {}: {e}", path.display()));
    assert!(
        content.contains("\"bench\": \"service_throughput\""),
        "{content}"
    );
    for mode in ["coalesced", "async"] {
        assert!(content.contains(&format!("\"mode\": \"{mode}\"")), "{mode}");
        // Whitening runs each mode on one and two shards.
        for shards in [1, 2] {
            let point = format!(
                "\"workload\": \"whiten\", \"d\": 64, \"submitters\": 2, \
                 \"mode\": \"{mode}\", \"shards\": {shards},"
            );
            assert!(content.contains(&point), "{point}");
        }
    }
    // Six norm variants and four whiten variants at each of two
    // submitter counts; shards are the only executor axis.
    assert_eq!(content.matches("\"workload\": \"norm\"").count(), 12);
    assert_eq!(content.matches("\"workload\": \"whiten\"").count(), 8);
    assert!(!content.contains("threads"), "{content}");
    assert!(content.contains("\"async_pipeline_depth\": 4"), "{content}");
}

#[test]
fn knobs_read_environment() {
    // Defaults when unset (the var used here is never set by these tests).
    assert_eq!(benchkit::trials(), 1000);
    assert_eq!(benchkit::llm_tokens(), 1000);
}
