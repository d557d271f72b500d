//! Byte-level stdout regression tests: the golden strings below were
//! captured from the CLI *before* the subcommands were rerouted through
//! the type-erased `NormService` front door. Every deterministic
//! invocation must keep printing exactly the same bytes — the serving API
//! is a dispatch refactor, not a behavior change. The `batch` subcommand
//! prints wall-clock timings, so only its deterministic structure is
//! pinned.

use std::io::Read;
use std::process::{Command, ExitStatus, Stdio};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// How long one CLI invocation may run before it counts as hung.
const CHILD_DEADLINE: Duration = Duration::from_secs(60);

/// Drain a child's pipe on its own thread, so a chatty child can never
/// block on a full pipe while the test polls for its exit.
fn drain(mut pipe: impl Read + Send + 'static) -> JoinHandle<Vec<u8>> {
    std::thread::spawn(move || {
        let mut bytes = Vec::new();
        let _ = pipe.read_to_end(&mut bytes);
        bytes
    })
}

/// Run the CLI with `args` and return its exit status, stdout and
/// stderr. A child still running after [`CHILD_DEADLINE`] is killed and
/// the test fails naming the command line, instead of hanging the suite.
fn run_child(args: &[&str]) -> (ExitStatus, Vec<u8>, Vec<u8>) {
    let mut child = Command::new(env!("CARGO_BIN_EXE_iterl2norm"))
        .args(args)
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("binary must run");
    let stdout = drain(child.stdout.take().expect("stdout is piped"));
    let stderr = drain(child.stderr.take().expect("stderr is piped"));
    let deadline = Instant::now() + CHILD_DEADLINE;
    let status = loop {
        if let Some(status) = child.try_wait().expect("child status must be readable") {
            break status;
        }
        if Instant::now() >= deadline {
            let _ = child.kill();
            let _ = child.wait();
            panic!(
                "`iterl2norm {}` still running after {CHILD_DEADLINE:?}; killed",
                args.join(" ")
            );
        }
        std::thread::sleep(Duration::from_millis(5));
    };
    (
        status,
        stdout.join().expect("stdout reader"),
        stderr.join().expect("stderr reader"),
    )
}

/// Run the CLI with `args`, require success, and return its stdout.
fn run(args: &[&str]) -> String {
    let (status, stdout, stderr) = run_child(args);
    assert!(
        status.success(),
        "{args:?} failed: {}",
        String::from_utf8_lossy(&stderr)
    );
    String::from_utf8(stdout).expect("stdout must be utf-8")
}

#[test]
fn normalize_stdout_is_byte_identical_across_formats_methods_backends() {
    assert_eq!(
        run(&[
            "normalize",
            "--format",
            "fp16",
            "1.5",
            "-2.0",
            "0.25",
            "3.0"
        ]),
        "format FP16  backend emulated  d 4  method iterl2[5]\n\
         mean 0.687500  m 13.421875  scale 0.545898\n\
         \x20 z[0] = +0.443604   (exact +0.443554)\n\
         \x20 z[1] = -1.466797   (exact -1.467141)\n\
         \x20 z[2] = -0.238770   (exact -0.238837)\n\
         \x20 z[3] = +1.262695   (exact +1.262424)\n\
         max |err| vs exact: 3.442e-4\n"
    );
    assert_eq!(
        run(&["normalize", "--method", "fisr", "1.0", "2.0", "3.0"]),
        "format FP32  backend emulated  d 3  method fisr[1]\n\
         mean 2.000000  m 2.000000  scale 1.222661\n\
         \x20 z[0] = -1.222661   (exact -1.224745)\n\
         \x20 z[1] = +0.000000   (exact +0.000000)\n\
         \x20 z[2] = +1.222661   (exact +1.224745)\n\
         max |err| vs exact: 2.084e-3\n"
    );
    assert_eq!(
        run(&["normalize", "--backend", "native", "1.5", "-2.5", "0.5"]),
        "format FP32  backend native-f32  d 3  method iterl2[5]\n\
         mean -0.166667  m 8.666666  scale 0.587636\n\
         \x20 z[0] = +0.979393   (exact +0.980581)\n\
         \x20 z[1] = -1.371150   (exact -1.372813)\n\
         \x20 z[2] = +0.391757   (exact +0.392232)\n\
         max |err| vs exact: 1.662e-3\n"
    );
    assert_eq!(
        run(&[
            "normalize",
            "--format",
            "bf16",
            "--method",
            "lut:32",
            "0.5",
            "0.75",
            "-0.125",
        ]),
        "format BF16  backend emulated  d 3  method lut[32]\n\
         mean 0.375000  m 0.406250  scale 2.718750\n\
         \x20 z[0] = +0.339844   (exact +0.339683)\n\
         \x20 z[1] = +1.015625   (exact +1.019049)\n\
         \x20 z[2] = -1.359375   (exact -1.358732)\n\
         max |err| vs exact: 3.424e-3\n"
    );
}

#[test]
fn rsqrt_stdout_is_byte_identical() {
    assert_eq!(
        run(&["rsqrt", "--m", "10.5", "--steps", "3"]),
        "format FP32  backend emulated  m = 10.5  target 1/sqrt(m) = 0.308606700\n\
         a0     = 0.250000000   (Eq. 6 exponent seed)\n\
         lambda = 0.043125000   (Eq. 10 exponent rate)\n\
         step  1: a = 0.288913578   rel err -6.381e-2\n\
         step  2: a = 0.305077344   rel err -1.144e-2\n\
         step  3: a = 0.308218986   rel err -1.256e-3\n"
    );
    assert_eq!(
        run(&["rsqrt", "--m", "4.0", "--backend", "native"]),
        "format FP32  backend native-f32  m = 4  target 1/sqrt(m) = 0.500000000\n\
         a0     = 0.500000000   (Eq. 6 exponent seed)\n\
         lambda = 0.086250000   (Eq. 10 exponent rate)\n\
         step  1: a = 0.500000000   rel err +0.000e0\n\
         step  2: a = 0.500000000   rel err +0.000e0\n\
         step  3: a = 0.500000000   rel err +0.000e0\n\
         step  4: a = 0.500000000   rel err +0.000e0\n\
         step  5: a = 0.500000000   rel err +0.000e0\n"
    );
}

#[test]
fn demo_stdout_is_byte_identical() {
    assert_eq!(
        run(&["demo", "--d", "64", "--seed", "3"]),
        "format FP32  backend emulated  d 64  method iterl2[5]  seed 3\n\
         m = 20.0311  scale = 1.787462\n\
         avg |err| 1.263e-5   max |err| 2.618e-5   over 64 elements\n"
    );
    assert_eq!(
        run(&[
            "demo",
            "--d",
            "96",
            "--seed",
            "1",
            "--backend",
            "native",
            "--method",
            "lut",
        ]),
        "format FP32  backend native-f32  d 96  method lut[64]  seed 1\n\
         m = 37.3801  scale = 1.602616\n\
         avg |err| 4.027e-5   max |err| 7.900e-5   over 96 elements\n"
    );
    assert_eq!(
        run(&["demo", "--d", "32", "--format", "fp16", "--method", "fisr", "--seed", "9",]),
        "format FP16  backend emulated  d 32  method fisr[1]  seed 9\n\
         m = 9.9688  scale = 1.791016\n\
         avg |err| 2.294e-4   max |err| 9.508e-4   over 32 elements\n"
    );
}

#[test]
fn batch_stdout_structure_is_preserved() {
    // Timings vary run to run; the deterministic first line and the line
    // prefixes/suffix are pinned.
    let out = run(&[
        "batch",
        "--d",
        "32",
        "--rows",
        "8",
        "--seed",
        "2",
        "--backend",
        "native",
        "--shards",
        "2",
    ]);
    let lines: Vec<&str> = out.lines().collect();
    assert_eq!(lines.len(), 4, "{out}");
    assert_eq!(
        lines[0],
        "format FP32  backend native-f32  d 32  rows 8  method iterl2[5]"
    );
    assert!(lines[1].starts_with("  per-call layer_norm : "), "{out}");
    assert!(lines[1].contains(" rows/s  ("), "{out}");
    assert!(lines[2].starts_with("  engine batch        : "), "{out}");
    assert!(lines[3].starts_with("  speedup             : "), "{out}");
    assert!(
        lines[3].ends_with("x  (plan reuse + zero hot-path allocations)"),
        "{out}"
    );
    let emulated = run(&["batch", "--d", "16", "--rows", "4", "--seed", "5"]);
    assert_eq!(
        emulated.lines().next().unwrap(),
        "format FP32  backend emulated  d 16  rows 4  method iterl2[5]"
    );
}

#[test]
fn whiten_stdout_is_byte_identical_and_backend_independent() {
    assert_eq!(
        run(&["whiten", "--d", "8", "--m", "32", "--seed", "3"]),
        "format FP32  backend emulated  d 8  m 32  whiten[t=5,eps=1e-5,center]  seed 3\n\
         mean 0.020992  trace 2.6521  scale 0.614053\n\
         residual |P^2*Sigma_N - I| 5.219e-2   output covariance max |dev from I| 5.224e-2\n"
    );
    // The native path is bit-identical to the emulated oracle, so its
    // stdout differs only in the backend name.
    assert_eq!(
        run(&[
            "whiten",
            "--d",
            "8",
            "--m",
            "32",
            "--seed",
            "3",
            "--backend",
            "native"
        ]),
        "format FP32  backend native-f32  d 8  m 32  whiten[t=5,eps=1e-5,center]  seed 3\n\
         mean 0.020992  trace 2.6521  scale 0.614053\n\
         residual |P^2*Sigma_N - I| 5.219e-2   output covariance max |dev from I| 5.224e-2\n"
    );
    assert_eq!(
        run(&[
            "whiten",
            "--d",
            "4",
            "--m",
            "16",
            "--seed",
            "1",
            "--format",
            "fp16",
            "--group-mode",
            "raw",
            "--steps",
            "3",
        ]),
        "format FP16  backend emulated  d 4  m 16  whiten[t=3,eps=1e-5,raw]  seed 1\n\
         mean 0.114673  trace 1.5085  scale 0.814181\n\
         residual |P^2*Sigma_N - I| 1.468e-1   output covariance max |dev from I| 1.463e-1\n"
    );
}

#[test]
fn case_insensitive_flags_match_lowercase_output_exactly() {
    // New with the service API: --format/--backend parse case-insensitively
    // and produce byte-identical output to the lowercase spelling.
    assert_eq!(
        run(&["demo", "--d", "64", "--seed", "3", "--format", "FP32"]),
        run(&["demo", "--d", "64", "--seed", "3", "--format", "fp32"])
    );
    assert_eq!(
        run(&["demo", "--d", "64", "--seed", "3", "--backend", "NATIVE"]),
        run(&["demo", "--d", "64", "--seed", "3", "--backend", "native"])
    );
    assert_eq!(
        run(&["normalize", "--format", "Bf16", "1.0", "2.0"]),
        run(&["normalize", "--format", "bf16", "1.0", "2.0"])
    );
}

#[test]
fn unknown_option_exits_1_with_usage_on_stderr() {
    // A misspelt option, or another command's option that this command
    // would ignore, must fail, not run with the default it missed.
    for (args, option) in [
        (
            &["batch", "--d", "32", "--rows", "4", "--thredas", "3"][..],
            "--thredas",
        ),
        (
            &["demo", "--d", "8", "--shards", "0", "--placement", "random"][..],
            "--shards",
        ),
        (&["normalize", "--rows", "5", "1.0", "2.0"][..], "--rows"),
        (&["whiten", "--queue-depth", "9"][..], "--queue-depth"),
    ] {
        let (status, stdout, stderr) = run_child(args);
        let stderr = String::from_utf8(stderr).expect("stderr must be utf-8");
        assert_eq!(status.code(), Some(1), "{stderr}");
        assert!(stdout.is_empty(), "nothing runs before the rejection");
        assert!(
            stderr.starts_with(&format!("error: unknown option {option}\n")),
            "{stderr}"
        );
        assert!(
            stderr.contains("USAGE:"),
            "usage follows the error: {stderr}"
        );
    }
}
