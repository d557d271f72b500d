//! Result output: CSV files under the results directory and aligned
//! console tables.

use std::fs;
use std::io::Write;
use std::path::PathBuf;
use std::process::Command;

/// The results directory (`ITERL2_RESULTS`, default `results/`), created on
/// demand.
///
/// # Errors
///
/// Propagates directory-creation failures.
pub fn results_dir() -> std::io::Result<PathBuf> {
    let dir = std::env::var("ITERL2_RESULTS")
        .map(PathBuf::from)
        .unwrap_or_else(|_| PathBuf::from("results"));
    fs::create_dir_all(&dir)?;
    Ok(dir)
}

/// Write `rows` (comma-joined) with a header line to
/// `results/<name>.csv`.
///
/// # Errors
///
/// Propagates I/O failures.
pub fn write_csv(name: &str, header: &str, rows: &[String]) -> std::io::Result<PathBuf> {
    let path = results_dir()?.join(format!("{name}.csv"));
    let mut f = fs::File::create(&path)?;
    writeln!(f, "{header}")?;
    for row in rows {
        writeln!(f, "{row}")?;
    }
    Ok(path)
}

/// Write a pre-serialized JSON document to `results/<name>.json`.
///
/// The workspace builds offline (no serde); callers assemble the JSON
/// text themselves — see `experiments/backend.rs` for the pattern.
///
/// # Errors
///
/// Propagates I/O failures.
pub fn write_json(name: &str, json: &str) -> std::io::Result<PathBuf> {
    let path = results_dir()?.join(format!("{name}.json"));
    let mut f = fs::File::create(&path)?;
    writeln!(f, "{json}")?;
    Ok(path)
}

/// The `host` object a checked-in bench JSON records: core count, the
/// resolved SIMD level, the compiler, and the source revision (suffixed
/// `-dirty` when the tree has uncommitted changes; `unknown` outside a
/// git checkout).
pub fn host_json(simd: &str) -> String {
    let cores = std::thread::available_parallelism().map_or(0, usize::from);
    let rustc = command_output("rustc", &["--version"]);
    let git = command_output("git", &["describe", "--always", "--dirty", "--abbrev=12"]);
    format!(
        "{{\"cores\": {cores}, \"simd\": \"{simd}\", \"rustc\": \"{rustc}\", \"git\": \"{git}\"}}"
    )
}

/// A command's trimmed stdout, or `unknown` when it cannot run or fails.
fn command_output(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|out| out.status.success())
        .map_or_else(
            || "unknown".to_string(),
            |out| String::from_utf8_lossy(&out.stdout).trim().to_string(),
        )
}

/// Print a section banner.
pub fn banner(title: &str) {
    println!();
    println!("=== {title} ===");
}

/// Print rows as a fixed-width table; `widths` are per-column minimums.
pub fn print_table(header: &[&str], rows: &[Vec<String>]) {
    let cols = header.len();
    let mut widths: Vec<usize> = header.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate().take(cols) {
            widths[i] = widths[i].max(cell.len());
        }
    }
    let line = |cells: &[String]| {
        let parts: Vec<String> = cells
            .iter()
            .enumerate()
            .map(|(i, c)| format!("{:>width$}", c, width = widths[i.min(cols - 1)]))
            .collect();
        println!("  {}", parts.join("  "));
    };
    line(&header.iter().map(|s| s.to_string()).collect::<Vec<_>>());
    let total: usize = widths.iter().sum::<usize>() + 2 * cols;
    println!("  {}", "-".repeat(total));
    for row in rows {
        line(row);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn csv_round_trip() {
        std::env::set_var(
            "ITERL2_RESULTS",
            std::env::temp_dir().join("iterl2-test-results"),
        );
        let path = write_csv("unit_test", "a,b", &["1,2".to_string(), "3,4".to_string()]).unwrap();
        let content = std::fs::read_to_string(path).unwrap();
        assert_eq!(content, "a,b\n1,2\n3,4\n");
        std::env::remove_var("ITERL2_RESULTS");
    }
}
