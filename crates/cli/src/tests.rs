//! Command-level tests: every subcommand succeeds on valid input and
//! reports a clear error on invalid input.

use crate::args::Parsed;
use crate::commands;

fn parsed(args: &[&str]) -> Parsed {
    let owned: Vec<String> = args.iter().map(|s| s.to_string()).collect();
    Parsed::parse(&owned).expect("valid test args")
}

#[test]
fn normalize_happy_path_all_formats() {
    for fmt in ["fp32", "fp16", "bf16"] {
        let p = parsed(&["--format", fmt, "1.5", "-2.0", "0.25", "3.0"]);
        commands::normalize(&p).unwrap_or_else(|e| panic!("{fmt}: {e}"));
    }
}

#[test]
fn normalize_rejects_empty_and_garbage() {
    assert!(commands::normalize(&parsed(&[])).is_err());
    let err = commands::normalize(&parsed(&["1.0", "abc"])).unwrap_err();
    assert!(
        err.contains("abc"),
        "error should name the bad token: {err}"
    );
}

#[test]
fn normalize_rejects_unknown_format() {
    let err = commands::normalize(&parsed(&["--format", "fp8", "1.0"])).unwrap_err();
    assert!(err.contains("fp8"));
}

#[test]
fn rsqrt_happy_and_invalid() {
    commands::rsqrt(&parsed(&["--m", "10.5", "--steps", "3"])).unwrap();
    assert!(commands::rsqrt(&parsed(&[])).is_err()); // missing --m
    assert!(commands::rsqrt(&parsed(&["--m", "-1"])).is_err());
}

#[test]
fn macro_happy_and_out_of_range() {
    commands::macro_sim(&parsed(&["--d", "128"])).unwrap();
    commands::macro_sim(&parsed(&[
        "--d",
        "384",
        "--utilization",
        "--format",
        "bf16",
    ]))
    .unwrap();
    let err = commands::macro_sim(&parsed(&["--d", "2048"])).unwrap_err();
    assert!(err.contains("2048"));
}

#[test]
fn cost_and_demo_run() {
    for fmt in ["fp32", "fp16", "bf16"] {
        commands::cost(&parsed(&["--format", fmt])).unwrap();
    }
    commands::demo(&parsed(&["--d", "96", "--seed", "3"])).unwrap();
}

#[test]
fn every_registry_method_works_through_the_cli() {
    for method in ["iterl2", "iterl2:7", "fisr", "fisr:2", "exact", "lut"] {
        let p = parsed(&["--method", method, "1.5", "-2.0", "0.25", "3.0"]);
        commands::normalize(&p).unwrap_or_else(|e| panic!("{method}: {e}"));
    }
    let err = commands::normalize(&parsed(&["--method", "sqrtzilla", "1.0"])).unwrap_err();
    assert!(err.contains("sqrtzilla"));
    let err = commands::normalize(&parsed(&["--method", "iterl2:x", "1.0"])).unwrap_err();
    assert!(err.contains("iterl2:x"));
    // lut:0 must surface as a CLI error, not a LutRsqrt::new panic — and
    // since "lut" is a known family, the message must blame the parameter
    // rather than claim the method is unknown.
    let err = commands::normalize(&parsed(&["--method", "lut:0", "1.0"])).unwrap_err();
    assert!(
        err.contains("lut:0") && err.contains("invalid parameter"),
        "{err}"
    );
    let err = commands::normalize(&parsed(&["--method", "exact:-1", "1.0"])).unwrap_err();
    assert!(err.contains("invalid parameter"), "{err}");
}

#[test]
fn steps_flag_conflicts_with_non_iterl2_methods() {
    // --steps silently doing nothing for fisr/exact/lut would mislead;
    // the combination is rejected with a pointer to the :param syntax.
    let err = commands::normalize(&parsed(&["--method", "fisr", "--steps", "3", "1.0", "2.0"]))
        .unwrap_err();
    assert!(err.contains("--steps") && err.contains("fisr"), "{err}");
    // --steps together with an explicit iterl2:N is ambiguous — rejected.
    let err = commands::normalize(&parsed(&[
        "--method", "iterl2:7", "--steps", "3", "1.0", "2.0",
    ]))
    .unwrap_err();
    assert!(err.contains("conflicts"), "{err}");
    // --steps together with (default or bare) iterl2 still works.
    commands::normalize(&parsed(&["--steps", "3", "1.0", "2.0"])).unwrap();
    commands::normalize(&parsed(&[
        "--method", "iterl2", "--steps", "3", "1.0", "2.0",
    ]))
    .unwrap();
}

#[test]
fn batch_runs_and_validates_args() {
    commands::batch(&parsed(&["--d", "64", "--rows", "16"])).unwrap();
    commands::batch(&parsed(&["--d", "32", "--rows", "8", "--method", "fisr"])).unwrap();
    assert!(commands::batch(&parsed(&["--d", "0"])).is_err());
    assert!(commands::batch(&parsed(&["--rows", "0"])).is_err());
}

#[test]
fn sharding_flags_happy_paths_and_rejections() {
    // Sharded execution end to end on batch and demo (output bits are
    // shard-independent, so these succeed identically to --shards 1).
    commands::batch(&parsed(&["--d", "32", "--rows", "8", "--shards", "2"])).unwrap();
    commands::batch(&parsed(&[
        "--d",
        "32",
        "--rows",
        "8",
        "--shards",
        "4",
        "--queue-depth",
        "16",
        "--backend",
        "native",
    ]))
    .unwrap();
    commands::demo(&parsed(&[
        "--d",
        "48",
        "--shards",
        "2",
        "--queue-depth",
        "8",
    ]))
    .unwrap();
    // Zero shards is rejected with the option named.
    let err = commands::batch(&parsed(&["--d", "32", "--rows", "4", "--shards", "0"])).unwrap_err();
    assert!(
        err.contains("--shards") && err.contains("at least 1"),
        "{err}"
    );
    let err = commands::demo(&parsed(&["--shards", "0"])).unwrap_err();
    assert!(err.contains("--shards"), "{err}");
    // Zero queue depth is rejected with the option named, like --shards.
    let err = commands::demo(&parsed(&["--queue-depth", "0"])).unwrap_err();
    assert!(
        err.contains("--queue-depth") && err.contains("at least 1"),
        "{err}"
    );
    // Garbage values are parse errors that name the option.
    let err =
        commands::batch(&parsed(&["--d", "32", "--rows", "4", "--shards", "two"])).unwrap_err();
    assert!(err.contains("--shards") && err.contains("two"), "{err}");
    let err = commands::demo(&parsed(&["--queue-depth", "-3"])).unwrap_err();
    assert!(err.contains("--queue-depth") && err.contains("-3"), "{err}");
}

#[test]
fn executor_flags_happy_paths_and_rejections() {
    // Shard counts and coalescing knobs end to end — none of them
    // change output bits, so these succeed like the defaults.
    commands::batch(&parsed(&["--d", "32", "--rows", "8", "--shards", "2"])).unwrap();
    commands::batch(&parsed(&["--d", "32", "--rows", "8", "--window-us", "100"])).unwrap();
}

#[test]
fn placement_flag_happy_paths_and_rejections() {
    // Both policies end to end on batch and demo; placement never changes
    // output bits, so these succeed identically to the default.
    commands::batch(&parsed(&[
        "--d",
        "32",
        "--rows",
        "8",
        "--shards",
        "2",
        "--placement",
        "request-hash",
    ]))
    .unwrap();
    commands::demo(&parsed(&[
        "--d",
        "48",
        "--shards",
        "2",
        "--placement",
        "round-robin",
    ]))
    .unwrap();
    // Case-insensitive, like --format/--backend.
    commands::demo(&parsed(&["--d", "16", "--placement", "Request-Hash"])).unwrap();
    // Unknown policies are rejected with the alternatives named.
    let err = commands::demo(&parsed(&["--placement", "random"])).unwrap_err();
    assert!(
        err.contains("random") && err.contains("round-robin") && err.contains("request-hash"),
        "{err}"
    );
}

#[test]
fn backend_flag_happy_paths() {
    // Native on fp32 (explicit and default format), emulated explicitly,
    // and threaded partitioning — all end to end.
    commands::batch(&parsed(&[
        "--d",
        "64",
        "--rows",
        "8",
        "--backend",
        "native",
    ]))
    .unwrap();
    commands::batch(&parsed(&[
        "--d",
        "64",
        "--rows",
        "9",
        "--backend",
        "native",
        "--format",
        "fp32",
    ]))
    .unwrap();
    commands::batch(&parsed(&[
        "--d",
        "32",
        "--rows",
        "8",
        "--backend",
        "emulated",
    ]))
    .unwrap();
    commands::demo(&parsed(&["--d", "64", "--backend", "native"])).unwrap();
    // The long alias parses too.
    commands::demo(&parsed(&["--d", "16", "--backend", "native-f32"])).unwrap();
    // normalize and rsqrt honor --backend as well (no silent ignore).
    commands::normalize(&parsed(&["--backend", "native", "1.5", "-2.0", "0.25"])).unwrap();
    commands::rsqrt(&parsed(&["--m", "10.5", "--backend", "native"])).unwrap();
}

#[test]
fn native_backend_rejects_non_fp32_formats() {
    // The engine's BackendFormatMismatch surfaces with both the backend
    // and format named.
    let err = commands::batch(&parsed(&[
        "--d",
        "32",
        "--rows",
        "4",
        "--backend",
        "native",
        "--format",
        "fp16",
    ]))
    .unwrap_err();
    assert!(err.contains("native-f32") && err.contains("FP16"), "{err}");
    let err = commands::demo(&parsed(&["--backend", "native", "--format", "bf16"])).unwrap_err();
    assert!(err.contains("native-f32") && err.contains("BF16"), "{err}");
    let err = commands::normalize(&parsed(&[
        "--backend",
        "native",
        "--format",
        "fp16",
        "1.0",
        "2.0",
    ]))
    .unwrap_err();
    assert!(err.contains("native-f32") && err.contains("FP16"), "{err}");
    let err = commands::rsqrt(&parsed(&[
        "--m",
        "2.0",
        "--backend",
        "native",
        "--format",
        "bf16",
    ]))
    .unwrap_err();
    assert!(err.contains("native-f32") && err.contains("BF16"), "{err}");
}

#[test]
fn format_and_backend_flags_are_case_insensitive() {
    // CLI dispatch goes through the registry parsers, which fold case.
    commands::normalize(&parsed(&["--format", "FP16", "1.5", "-2.0"])).unwrap();
    commands::normalize(&parsed(&["--format", "Bf16", "1.0", "2.0"])).unwrap();
    commands::demo(&parsed(&["--d", "32", "--backend", "NATIVE"])).unwrap();
    commands::demo(&parsed(&["--d", "32", "--backend", "Native-F32"])).unwrap();
    commands::batch(&parsed(&[
        "--d",
        "16",
        "--rows",
        "4",
        "--backend",
        "EMULATED",
        "--format",
        "FP32",
    ]))
    .unwrap();
    commands::rsqrt(&parsed(&["--m", "2.0", "--format", "BF16"])).unwrap();
    commands::macro_sim(&parsed(&["--d", "64", "--format", "FP16"])).unwrap();
}

#[test]
fn garbage_format_and_backend_values_are_rejected_with_the_input_named() {
    for garbage in ["fp8", "FP-32", "fp 16", "float32", ""] {
        let err = commands::normalize(&parsed(&["--format", garbage, "1.0"])).unwrap_err();
        assert!(
            err.contains(garbage) && err.contains("fp32|fp16|bf16"),
            "{garbage:?}: {err}"
        );
    }
    for garbage in ["gpu", "NATIVE32", "soft float", "cuda", ""] {
        let err = commands::demo(&parsed(&["--d", "16", "--backend", garbage])).unwrap_err();
        assert!(
            err.contains(garbage) && err.contains("emulated|native"),
            "{garbage:?}: {err}"
        );
    }
}

#[test]
fn unknown_backend_and_bad_threads_are_rejected() {
    let err =
        commands::batch(&parsed(&["--d", "32", "--rows", "4", "--backend", "gpu"])).unwrap_err();
    assert!(
        err.contains("gpu") && err.contains("emulated|native"),
        "{err}"
    );
    // Shards are the only parallelism: --threads is not an option at all.
    for value in ["0", "many"] {
        let owned: Vec<String> = ["--d", "32", "--rows", "4", "--threads", value]
            .iter()
            .map(|s| s.to_string())
            .collect();
        assert_eq!(
            Parsed::parse(&owned),
            Err("unknown option --threads".to_string())
        );
    }
}

#[test]
fn simd_flag_happy_paths_and_rejections() {
    // Auto and scalar always build; portable builds on every host; so do
    // the default (no flag) and case-folded spellings.
    commands::batch(&parsed(&[
        "--d",
        "64",
        "--rows",
        "8",
        "--backend",
        "native",
        "--simd",
        "auto",
    ]))
    .unwrap();
    commands::batch(&parsed(&[
        "--d",
        "64",
        "--rows",
        "8",
        "--backend",
        "native",
        "--simd",
        "scalar",
    ]))
    .unwrap();
    commands::batch(&parsed(&[
        "--d",
        "64",
        "--rows",
        "9",
        "--backend",
        "native",
        "--simd",
        "portable",
    ]))
    .unwrap();
    commands::demo(&parsed(&[
        "--d",
        "48",
        "--backend",
        "native",
        "--simd",
        "AVX2",
    ]))
    .or_else(|e| {
        // Hosts without AVX2 must reject the forced level by name —
        // never silently downgrade.
        if e.contains("avx2") {
            Ok(())
        } else {
            Err(e)
        }
    })
    .unwrap();
    // Unknown levels are rejected with every alternative named.
    let err = commands::demo(&parsed(&["--d", "16", "--simd", "neon"])).unwrap_err();
    assert!(
        err.contains("'neon'") && err.contains("auto|scalar|portable|sse2|avx2|avx512"),
        "{err}"
    );
    // Forcing a vector level onto the emulated backend is a config error
    // that names both sides (the emulator has no vector tier).
    let err = commands::batch(&parsed(&[
        "--d",
        "32",
        "--rows",
        "4",
        "--backend",
        "emulated",
        "--simd",
        "portable",
    ]))
    .unwrap_err();
    assert!(
        err.contains("portable") && err.contains("emulated"),
        "{err}"
    );
    // --simd auto on emulated is fine (resolves to the scalar engine).
    commands::batch(&parsed(&[
        "--d",
        "32",
        "--rows",
        "4",
        "--backend",
        "emulated",
        "--simd",
        "auto",
    ]))
    .unwrap();
}

#[test]
fn whiten_happy_paths_all_formats_and_backends() {
    // The emulated oracle on every format, the native f32 path, and a
    // forced scalar tier — all end to end through the service front door.
    for fmt in ["fp32", "fp16", "bf16"] {
        commands::whiten(&parsed(&["--d", "8", "--m", "32", "--format", fmt]))
            .unwrap_or_else(|e| panic!("{fmt}: {e}"));
    }
    commands::whiten(&parsed(&["--d", "8", "--m", "32", "--backend", "native"])).unwrap();
    commands::whiten(&parsed(&[
        "--d",
        "8",
        "--m",
        "32",
        "--backend",
        "native",
        "--simd",
        "scalar",
    ]))
    .unwrap();
    // Both group modes, an explicit ridge, and T = 0 (trace normalization
    // only — reports residual 0 by construction, no convergence claim).
    commands::whiten(&parsed(&["--d", "4", "--m", "16", "--group-mode", "raw"])).unwrap();
    commands::whiten(&parsed(&["--d", "4", "--m", "16", "--eps", "1e-3"])).unwrap();
    commands::whiten(&parsed(&["--d", "4", "--m", "16", "--steps", "0"])).unwrap();
}

#[test]
fn whiten_validates_flags_and_enforces_tol() {
    assert!(commands::whiten(&parsed(&["--d", "0"])).is_err());
    assert!(commands::whiten(&parsed(&["--m", "0"])).is_err());
    let err = commands::whiten(&parsed(&["--group-mode", "zca"])).unwrap_err();
    assert!(err.contains("zca") && err.contains("center|raw"), "{err}");
    let err = commands::whiten(&parsed(&["--eps", "-1"])).unwrap_err();
    assert!(err.contains("--eps"), "{err}");
    // Native whitening is an f32 pipeline, like the native norm backend.
    let err = commands::whiten(&parsed(&["--backend", "native", "--format", "fp16"])).unwrap_err();
    assert!(err.contains("native-f32") && err.contains("FP16"), "{err}");
    // The emulator has no vector tier for whitening either.
    let err = commands::whiten(&parsed(&["--backend", "emulated", "--simd", "sse2"])).unwrap_err();
    assert!(err.contains("sse2") && err.contains("emulated"), "{err}");
    // A zero-step iteration cannot meet a finite residual bar at d > 1:
    // --tol turns the report into the engine's own convergence error.
    let err = commands::whiten(&parsed(&[
        "--d", "8", "--m", "32", "--steps", "1", "--tol", "1e-12",
    ]))
    .unwrap_err();
    assert!(err.contains("did not converge"), "{err}");
}

#[test]
fn serve_requires_a_listener_and_validates_flags() {
    // No listener at all: rejected with both options named.
    let err = commands::serve_impl(&parsed(&[])).unwrap_err();
    assert!(err.contains("--listen") && err.contains("--unix"), "{err}");
    // Bad tenant specs are rejected with the option named before any
    // socket is bound.
    for bad in ["1:100", "1:-5:10", "x:1:1", "1:1:0", "1:1:1;1:2:2"] {
        let err = commands::serve_impl(&parsed(&["--listen", "127.0.0.1:0", "--tenants", bad]))
            .unwrap_err();
        assert!(err.contains("--tenants"), "{bad:?}: {err}");
    }
    // Service-config validation still applies.
    let err = commands::serve_impl(&parsed(&["--listen", "127.0.0.1:0", "--d", "0"])).unwrap_err();
    assert!(err.contains("--d"), "{err}");
    let err =
        commands::serve_impl(&parsed(&["--listen", "127.0.0.1:0", "--shards", "0"])).unwrap_err();
    assert!(err.contains("--shards"), "{err}");
    // An unbindable address surfaces as an error, not a hang.
    assert!(commands::serve_impl(&parsed(&["--listen", "256.0.0.1:bad"])).is_err());
}

#[test]
fn serve_binds_an_ephemeral_port_and_shuts_down() {
    let handle = commands::serve_impl(&parsed(&[
        "--listen",
        "127.0.0.1:0",
        "--d",
        "32",
        "--shards",
        "2",
        "--placement",
        "request-hash",
        "--tenants",
        "1:100:20:high;2:50:10",
    ]))
    .unwrap();
    let addr = handle.tcp_addr().expect("tcp listener was requested");
    assert_ne!(addr.port(), 0, "ephemeral port was assigned");
    assert_eq!(handle.service().d(), 32);
    handle.shutdown();
}

#[test]
fn backend_and_threads_take_values() {
    // --backend is a valued option: a trailing flag with no value is a
    // parse error, not a silent boolean. --threads is no option at all.
    let owned: Vec<String> = vec!["--backend".into()];
    assert!(Parsed::parse(&owned).is_err());
    let owned: Vec<String> = vec!["--threads".into()];
    assert!(Parsed::parse(&owned).is_err());
}
