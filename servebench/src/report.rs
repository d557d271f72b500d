//! What one run prints: a host block, any notes, and the result line.

use std::fmt::Write as _;
use std::process::Command;

use iterl2norm::{ServiceConfig, SimdLevel};

use crate::oracle::Tally;

#[derive(Debug, Clone, Copy)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

pub fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

/// One workload run's outcome.
#[derive(Debug)]
pub struct Report {
    pub tally: Tally,
    pub metrics: Vec<Metric>,
    /// Failed consistency checks; any entry makes the run incorrect.
    pub problems: Vec<String>,
    /// Human-readable lines printed before the result.
    pub notes: Vec<String>,
    pub served: Vec<ServiceConfig>,
    pub simd: SimdLevel,
}

impl Report {
    pub fn new(served: Vec<ServiceConfig>, simd: SimdLevel) -> Self {
        Report {
            tally: Tally::default(),
            metrics: Vec::new(),
            problems: Vec::new(),
            notes: Vec::new(),
            served,
            simd,
        }
    }

    pub fn correct(&self) -> bool {
        self.tally.failed == 0 && self.problems.is_empty()
    }

    /// The last line of standard output.
    pub fn result_line(&self) -> String {
        let mut metrics = String::new();
        for (i, m) in self.metrics.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let value = if m.value.is_finite() { m.value } else { -1.0 };
            let _ = write!(
                metrics,
                "{sep}{}: {{\"value\": {value:?}, \"unit\": {}}}",
                json_str(m.name),
                json_str(m.unit)
            );
        }
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
            self.correct(),
            self.tally.attempted.max(1),
            self.tally.failed
        )
    }
}

/// The host and run configuration every result records.
pub fn host_line(workload: &str, seed: u64, seconds: f64, trace: bool, report: &Report) -> String {
    let cores = std::thread::available_parallelism().map_or(0, usize::from);
    let rustc = command_output("rustc", &["--version"]).unwrap_or_else(|| "unknown".into());
    // The benchmark may run from an exported tree that is not a checkout.
    let git = if std::path::Path::new(".git").exists() {
        command_output("git", &["rev-parse", "HEAD"])
    } else {
        None
    }
    .unwrap_or_else(|| "unknown".into());
    let served: Vec<String> = report
        .served
        .iter()
        .map(|c| json_str(&format!("{c:?}")))
        .collect();
    format!(
        "host {{\"cores\": {cores}, \"simd\": {}, \"rustc\": {}, \"git\": {}, \
         \"workload\": {}, \"seed\": {seed}, \"seconds\": {seconds}, \"trace\": {}, \
         \"served\": [{}]}}",
        json_str(report.simd.name()),
        json_str(&rustc),
        json_str(&git),
        json_str(workload),
        u8::from(trace),
        served.join(", ")
    )
}

fn command_output(program: &str, args: &[&str]) -> Option<String> {
    let out = Command::new(program).args(args).output().ok()?;
    out.status
        .success()
        .then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
}

pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// `VmHWM` of this process — the peak resident set — in MiB.
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("reading /proc/self/status: {e}"))?;
    let kb: f64 = status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or("no VmHWM line in /proc/self/status")?;
    Ok(kb / 1024.0)
}
