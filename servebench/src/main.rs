//! The serving benchmark: one command runs a named workload against the
//! served stack, checks every reply bit for bit against the soft-float
//! oracle, and prints its metrics by name with their units.
//!
//! ```text
//! cargo run --release --manifest-path servebench/Cargo.toml -- \
//!     --workload wire-small --seed 1 --seconds 10 --trace 0
//! ```
//!
//! `--trace 0` prints the end-to-end metrics; `--trace 1` runs the
//! workload untraced and traced for half the time each, replays a sample
//! through each layer's public entry points, and prints the per-layer
//! metrics. The last line of standard output is the result as JSON.

mod inproc;
mod layers;
mod oracle;
mod report;
mod stats;
mod wire;

use std::process::ExitCode;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, PoisonError};
use std::time::{Duration, Instant};

use iterl2norm::NormService;

use report::{host_line, metric, peak_rss_mb, Report};
use stats::{median, Windowed, SEGMENTS};

pub const WORKLOADS: [&str; 3] = ["wire-small", "inproc-small", "inproc-heavy"];

/// Every run must end within this, whatever phase it is in.
const RUN_BUDGET: Duration = Duration::from_secs(170);
/// How long a teardown may take before it counts as hung.
const TEARDOWN_BUDGET: Duration = Duration::from_secs(10);
/// Let the shard drivers park before shutdown: a shutdown that lands
/// while a shard driver is between its flag check and its wait can be lost
/// (a known defect), and the watchdog would then fail the run.
const QUIESCE: Duration = Duration::from_millis(20);

#[derive(Debug)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

fn parse_args(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: expected {what}, got '{value}'");
        match flag.as_str() {
            "--workload" if WORKLOADS.contains(&value.as_str()) => workload = Some(value),
            "--workload" => return Err(bad(&WORKLOADS.join(" | "))),
            "--seed" => seed = Some(value.parse().map_err(|_| bad("an integer"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| bad("a number"))?;
                if !(s > 0.0 && s <= 60.0) {
                    return Err(bad("a number in (0, 60]"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0 or 1")),
                })
            }
            _ => return Err(format!("unknown option {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(10.0),
        trace: trace.unwrap_or(false),
    })
}

/// Fails the run — exit code 3, no result line — when a phase overruns
/// its budget, naming the phase. A hung shutdown cannot stall the
/// caller this way.
pub struct Watchdog {
    phase: Arc<Mutex<(String, Instant, Duration)>>,
    done: Arc<AtomicBool>,
    thread: Option<std::thread::JoinHandle<()>>,
}

impl Watchdog {
    fn start() -> Self {
        let phase = Arc::new(Mutex::new((
            "start".to_string(),
            Instant::now(),
            RUN_BUDGET,
        )));
        let done = Arc::new(AtomicBool::new(false));
        let run_deadline = Instant::now() + RUN_BUDGET;
        let thread = {
            let (phase, done) = (Arc::clone(&phase), Arc::clone(&done));
            std::thread::spawn(move || {
                while !done.load(Ordering::SeqCst) {
                    std::thread::sleep(Duration::from_millis(20));
                    let (name, since, budget) =
                        phase.lock().unwrap_or_else(PoisonError::into_inner).clone();
                    let now = Instant::now();
                    if now >= since + budget || now >= run_deadline {
                        eprintln!(
                            "servebench: watchdog: phase '{name}' still running after {:.1} s \
                             (budget {:.0} s); failing the run",
                            (now - since).as_secs_f64(),
                            budget.as_secs_f64()
                        );
                        std::process::exit(3);
                    }
                }
            })
        };
        Watchdog {
            phase,
            done,
            thread: Some(thread),
        }
    }

    /// Enter a phase that must finish within `budget`.
    pub fn phase(&self, name: &str, budget: Duration) {
        *self.phase.lock().unwrap_or_else(PoisonError::into_inner) =
            (name.to_string(), Instant::now(), budget);
    }

    /// Enter a teardown phase, after letting the shard drivers go idle.
    pub fn teardown(&self, name: &str) {
        std::thread::sleep(QUIESCE);
        self.phase(name, TEARDOWN_BUDGET);
    }

    fn stop(mut self) {
        self.done.store(true, Ordering::SeqCst);
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
    }
}

/// A `--trace 0` run in `SEGMENTS` parts. Each part sets up from scratch
/// (one `setup_s` sample), drives the load for its share of the run and
/// tears down: fresh services re-draw where their threads land on the
/// cores, which on a small shared host moves latency more than anything
/// within a part. The figures are medians over every part's windows.
/// `drive` adds the part's tally and findings to the report and returns
/// its windows; `served` names what the set-up built.
pub fn segmented<T>(
    args: &Args,
    dog: &Watchdog,
    mut start: impl FnMut() -> Result<(T, Duration), String>,
    served: impl Fn(&T) -> Vec<NormService>,
    mut drive: impl FnMut(&mut T, f64, &mut Report) -> Result<Windowed, String>,
    mut teardown: impl FnMut(T),
) -> Result<Report, String> {
    let seconds = args.seconds / SEGMENTS as f64;
    let mut report: Option<Report> = None;
    let mut setup_s = Vec::with_capacity(SEGMENTS);
    let mut windows: Option<Windowed> = None;
    for _ in 0..SEGMENTS {
        dog.phase("setup", Duration::from_secs(30));
        let (mut part, span) = start()?;
        setup_s.push(span.as_secs_f64());
        let report = report.get_or_insert_with(|| {
            let services = served(&part);
            Report::new(
                services.iter().map(|s| s.config().clone()).collect(),
                services[0].simd_level(),
            )
        });
        dog.phase("load", Duration::from_secs_f64(seconds + 30.0));
        let w = drive(&mut part, seconds, report)?;
        match &mut windows {
            Some(all) => all.append(w),
            None => windows = Some(w),
        }
        teardown(part);
    }
    let mut report = report.ok_or("no segment ran")?;
    let windows = windows.ok_or("no segment ran")?;
    report.metrics = vec![
        metric("latency_p50_us", windows.latency(0.5) / 1e3, "us"),
        metric("latency_p99_us", windows.latency(0.99) / 1e3, "us"),
        metric("throughput_rows_per_s", windows.throughput(), "rows/s"),
        metric("setup_s", median(&setup_s), "s"),
        metric("peak_rss_mb", peak_rss_mb()?, "MB"),
    ];
    Ok(report)
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("servebench: {e}");
            eprintln!(
                "usage: servebench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
                WORKLOADS.join("|")
            );
            return ExitCode::from(2);
        }
    };
    let dog = Watchdog::start();
    let result = match args.workload.as_str() {
        "wire-small" => wire::run(&args, &dog),
        "inproc-small" => inproc::run_small(&args, &dog),
        _ => inproc::run_heavy(&args, &dog),
    };
    dog.stop();
    let mut report = match result {
        Ok(report) => report,
        Err(e) => {
            eprintln!("servebench: {}: {e}", args.workload);
            return ExitCode::FAILURE;
        }
    };
    for m in &report.metrics {
        if !m.value.is_finite() {
            report.problems.push(format!("{} is not finite", m.name));
        }
    }
    println!(
        "{}",
        host_line(&args.workload, args.seed, args.seconds, args.trace, &report)
    );
    for note in &report.notes {
        println!("{note}");
    }
    for problem in &report.problems {
        println!("check failed: {problem}");
    }
    for m in &report.metrics {
        println!("{:<34} {:>14.4} {}", m.name, m.value, m.unit);
    }
    println!("{}", report.result_line());
    if report.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Result<Args, String> {
        parse_args(list.iter().map(|s| s.to_string()))
    }

    #[test]
    fn parses_the_benchmark_command_line() {
        let a = args(&[
            "--workload",
            "inproc-heavy",
            "--seed",
            "7",
            "--seconds",
            "10",
            "--trace",
            "1",
        ])
        .unwrap();
        assert_eq!(a.workload, "inproc-heavy");
        assert_eq!(a.seed, 7);
        assert_eq!(a.seconds, 10.0);
        assert!(a.trace);
        for bad in [
            &["--workload", "nope"][..],
            &["--seed", "1"],
            &["--workload", "wire-small", "--trace", "2"],
            &["--workload", "wire-small", "--seconds", "0"],
            &["--workload", "wire-small", "--seed"],
        ] {
            assert!(args(bad).is_err(), "{bad:?}");
        }
    }
}
