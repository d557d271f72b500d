//! Error type shared by the normalization entry points.

use core::fmt;

/// Error returned by [`layer_norm`](crate::layer_norm) and friends.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum NormError {
    /// The input vector was empty.
    EmptyInput,
    /// `gamma` had a different length than the input.
    GammaLengthMismatch {
        /// Input length `d`.
        expected: usize,
        /// Observed `gamma.len()`.
        actual: usize,
    },
    /// `beta` had a different length than the input.
    BetaLengthMismatch {
        /// Input length `d`.
        expected: usize,
        /// Observed `beta.len()`.
        actual: usize,
    },
    /// A single-row input did not match the plan's vector length.
    InputLengthMismatch {
        /// The plan's `d`.
        expected: usize,
        /// Observed input length.
        actual: usize,
    },
    /// An output buffer did not match the length the call requires.
    OutputLengthMismatch {
        /// Required output length.
        expected: usize,
        /// Observed output length.
        actual: usize,
    },
    /// A flat batch buffer was not a whole number of `d`-length rows.
    BatchLengthMismatch {
        /// Complete rows contained in the buffer (`actual / d`).
        rows: usize,
        /// The plan's row length `d`.
        d: usize,
        /// Observed buffer length.
        actual: usize,
    },
    /// A backend was asked to execute a format it has no native path for
    /// (e.g. the native-f32 backend with an FP16 or BF16 plan — those
    /// formats only exist in the softfloat emulator).
    BackendFormatMismatch {
        /// The requested backend's name (e.g. `"native-f32"`).
        backend: &'static str,
        /// The requested format's name (e.g. `"FP16"`).
        format: &'static str,
    },
    /// A parallel entry point was asked to run with zero worker threads.
    ZeroThreads,
    /// A service was asked to run with zero shards.
    ZeroShards,
    /// A service was asked to run with a zero queue depth. With no
    /// waiting line at all, any request that cannot execute immediately —
    /// every request that finds its shard busy — would be rejected, so
    /// the misconfiguration is refused at build time.
    ZeroQueueDepth,
    /// A request arrived at a service shard whose waiting line was already
    /// at the configured depth bound — the service sheds load instead of
    /// buffering unboundedly behind a slow backend. The request was not
    /// accepted; retrying later (or raising the bound) is the caller's
    /// call.
    QueueFull {
        /// The configured per-shard queue-depth bound that was hit.
        depth: usize,
    },
    /// A request was submitted to a normalization service that has been
    /// shut down — the service accepts no further work.
    ServiceShutdown,
    /// A service request carried zero rows. Submitting nothing is almost
    /// always a caller bug (a drained buffer, an off-by-one on the row
    /// count), so the service rejects it instead of silently succeeding.
    EmptyRequest,
    /// A forced SIMD level cannot run here: the host lacks the instruction
    /// set, or the backend has no vector path at all (softfloat emulation
    /// is scalar by nature). Forcing a level must fail loudly rather than
    /// silently downgrade — otherwise benchmark points get mislabeled.
    /// `SimdLevel::Auto` is the degrade-gracefully path.
    SimdUnsupported {
        /// The requested level's name (e.g. `"avx2"`).
        level: &'static str,
        /// The backend the level was requested for (e.g. `"emulated"`).
        backend: &'static str,
    },
    /// A whitening group was not a positive whole number of `d`-length
    /// rows. The group analogue of [`BatchLengthMismatch`]: a whitening
    /// request is one `m × d` group, so a ragged buffer cannot even name
    /// its sample count `m`.
    ///
    /// [`BatchLengthMismatch`]: NormError::BatchLengthMismatch
    GroupShapeMismatch {
        /// Complete rows contained in the buffer (`actual / d`).
        rows: usize,
        /// The configured feature length `d`.
        d: usize,
        /// Observed buffer length.
        actual: usize,
    },
    /// The Newton–Schulz whitening iteration did not reach the requested
    /// residual tolerance after its configured step budget — the produced
    /// `P_T` is not close enough to `Σ_N^{-1/2}`. The residual and the
    /// tolerance are carried as exact `f64` bit patterns (`f64::to_bits`)
    /// so the variant stays `Eq`; decode with `f64::from_bits`.
    WhitenNotConverged {
        /// Newton–Schulz steps that ran (the configured `t`).
        steps: u32,
        /// `f64::to_bits` of the measured residual `‖P_T² Σ_N − I‖_max`.
        residual_bits: u64,
        /// `f64::to_bits` of the requested tolerance.
        tol_bits: u64,
    },
}

impl fmt::Display for NormError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NormError::EmptyInput => write!(f, "input vector is empty"),
            NormError::GammaLengthMismatch { expected, actual } => write!(
                f,
                "gamma length {actual} does not match input length {expected}"
            ),
            NormError::BetaLengthMismatch { expected, actual } => write!(
                f,
                "beta length {actual} does not match input length {expected}"
            ),
            NormError::InputLengthMismatch { expected, actual } => write!(
                f,
                "input length {actual} does not match the plan's d = {expected}"
            ),
            NormError::OutputLengthMismatch { expected, actual } => write!(
                f,
                "output buffer length {actual} does not match required length {expected}"
            ),
            NormError::BatchLengthMismatch { rows, d, actual } => write!(
                f,
                "batch buffer length {actual} is not a whole number of rows of length {d} \
                 ({rows} complete rows plus {} leftover elements)",
                // Saturating: the variant's fields are public, so Display
                // must stay total even for inconsistent hand-built values.
                actual.saturating_sub(rows.saturating_mul(*d))
            ),
            NormError::BackendFormatMismatch { backend, format } => write!(
                f,
                "backend '{backend}' cannot execute format {format} \
                 (only FP32 has a native fast path; use the emulated backend)"
            ),
            NormError::ZeroThreads => {
                write!(f, "thread count must be at least 1 (got 0)")
            }
            NormError::ZeroShards => {
                write!(f, "shard count must be at least 1 (got 0)")
            }
            NormError::ZeroQueueDepth => {
                write!(f, "queue depth must be at least 1 (got 0)")
            }
            NormError::QueueFull { depth } => {
                write!(
                    f,
                    "service queue is full ({depth} waiting requests per shard); \
                     retry later or raise the queue depth"
                )
            }
            NormError::ServiceShutdown => {
                write!(
                    f,
                    "normalization service is shut down and accepts no further requests"
                )
            }
            NormError::EmptyRequest => {
                write!(
                    f,
                    "request contains no rows (submit at least one d-length row)"
                )
            }
            NormError::SimdUnsupported { level, backend } => {
                write!(
                    f,
                    "simd level '{level}' is not available for backend '{backend}' on this \
                     host; use 'auto' to pick the best supported level or 'scalar' to force \
                     the generic path"
                )
            }
            NormError::GroupShapeMismatch { rows, d, actual } => write!(
                f,
                "whitening group of length {actual} is not a positive whole number of rows \
                 of length {d} ({rows} complete rows plus {} leftover elements); submit one \
                 m x d group per request",
                // Saturating: the variant's fields are public, so Display
                // must stay total even for inconsistent hand-built values.
                actual.saturating_sub(rows.saturating_mul(*d))
            ),
            NormError::WhitenNotConverged {
                steps,
                residual_bits,
                tol_bits,
            } => write!(
                f,
                "whitening did not converge after {steps} Newton-Schulz steps: residual \
                 {:.3e} exceeds tolerance {:.3e}; raise the step count t, raise eps, or \
                 loosen the tolerance",
                f64::from_bits(*residual_bits),
                f64::from_bits(*tol_bits)
            ),
        }
    }
}

impl std::error::Error for NormError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages_are_lowercase_and_specific() {
        let e = NormError::GammaLengthMismatch {
            expected: 8,
            actual: 4,
        };
        let s = e.to_string();
        assert!(s.contains('8') && s.contains('4'));
        assert!(s.chars().next().unwrap().is_lowercase());
        assert_eq!(NormError::EmptyInput.to_string(), "input vector is empty");
    }

    #[test]
    fn every_variant_displays_its_numbers() {
        // Display coverage: each variant names every numeric field, so a
        // batch-shaped bug report is self-contained.
        let cases: [(NormError, &[usize]); 6] = [
            (NormError::EmptyInput, &[]),
            (
                NormError::GammaLengthMismatch {
                    expected: 8,
                    actual: 4,
                },
                &[8, 4],
            ),
            (
                NormError::BetaLengthMismatch {
                    expected: 9,
                    actual: 5,
                },
                &[9, 5],
            ),
            (
                NormError::InputLengthMismatch {
                    expected: 768,
                    actual: 767,
                },
                &[768, 767],
            ),
            (
                NormError::OutputLengthMismatch {
                    expected: 1536,
                    actual: 768,
                },
                &[1536, 768],
            ),
            (
                NormError::BatchLengthMismatch {
                    rows: 3,
                    d: 768,
                    actual: 2305,
                },
                &[3, 768, 2305],
            ),
        ];
        for (err, numbers) in cases {
            let s = err.to_string();
            assert!(
                s.chars().next().unwrap().is_lowercase(),
                "not lowercase: {s}"
            );
            for n in numbers {
                assert!(s.contains(&n.to_string()), "'{s}' missing {n}");
            }
        }
    }

    #[test]
    fn backend_mismatch_displays_backend_and_format() {
        let e = NormError::BackendFormatMismatch {
            backend: "native-f32",
            format: "FP16",
        };
        let s = e.to_string();
        assert!(
            s.chars().next().unwrap().is_lowercase(),
            "not lowercase: {s}"
        );
        assert!(
            s.contains("native-f32") && s.contains("FP16"),
            "'{s}' must name both the backend and the format"
        );
        // The message points at the escape hatch.
        assert!(s.contains("emulated"), "{s}");
    }

    #[test]
    fn service_shutdown_displays_the_refusal() {
        let s = NormError::ServiceShutdown.to_string();
        assert!(
            s.chars().next().unwrap().is_lowercase(),
            "not lowercase: {s}"
        );
        assert!(
            s.contains("shut down") && s.contains("no further"),
            "'{s}' must say the service is closed for good"
        );
    }

    #[test]
    fn empty_request_displays_the_fix() {
        let s = NormError::EmptyRequest.to_string();
        assert!(
            s.chars().next().unwrap().is_lowercase(),
            "not lowercase: {s}"
        );
        // The message must say what was wrong and what a valid request
        // looks like.
        assert!(
            s.contains("no rows") && s.contains("at least one"),
            "'{s}' must name the problem and the fix"
        );
    }

    #[test]
    fn zero_threads_displays_the_constraint() {
        let s = NormError::ZeroThreads.to_string();
        assert!(
            s.chars().next().unwrap().is_lowercase(),
            "not lowercase: {s}"
        );
        assert!(s.contains("at least 1") && s.contains('0'), "{s}");
    }

    #[test]
    fn zero_shards_displays_the_constraint() {
        let s = NormError::ZeroShards.to_string();
        assert!(
            s.chars().next().unwrap().is_lowercase(),
            "not lowercase: {s}"
        );
        assert!(s.contains("shard") && s.contains("at least 1"), "{s}");
    }

    #[test]
    fn zero_queue_depth_displays_the_constraint() {
        let s = NormError::ZeroQueueDepth.to_string();
        assert!(
            s.chars().next().unwrap().is_lowercase(),
            "not lowercase: {s}"
        );
        assert!(s.contains("queue depth") && s.contains("at least 1"), "{s}");
    }

    #[test]
    fn queue_full_displays_the_bound_and_the_fix() {
        let s = NormError::QueueFull { depth: 37 }.to_string();
        assert!(
            s.chars().next().unwrap().is_lowercase(),
            "not lowercase: {s}"
        );
        // The message must name the configured bound and point at the two
        // ways out (retrying and raising the depth).
        assert!(s.contains("37"), "'{s}' must name the depth bound");
        assert!(s.contains("full") && s.contains("retry"), "{s}");
        assert!(s.contains("queue depth"), "{s}");
    }

    #[test]
    fn simd_unsupported_displays_level_backend_and_escape_hatches() {
        let e = NormError::SimdUnsupported {
            level: "avx2",
            backend: "native-f32",
        };
        let s = e.to_string();
        assert!(
            s.chars().next().unwrap().is_lowercase(),
            "not lowercase: {s}"
        );
        assert!(
            s.contains("avx2") && s.contains("native-f32"),
            "'{s}' must name both the level and the backend"
        );
        // The message points at both ways out: graceful auto-detection and
        // the always-available scalar path.
        assert!(s.contains("auto") && s.contains("scalar"), "{s}");
    }

    #[test]
    fn group_shape_mismatch_displays_its_numbers_and_the_fix() {
        let e = NormError::GroupShapeMismatch {
            rows: 3,
            d: 16,
            actual: 50,
        };
        let s = e.to_string();
        assert!(
            s.chars().next().unwrap().is_lowercase(),
            "not lowercase: {s}"
        );
        for n in [3usize, 16, 50] {
            assert!(s.contains(&n.to_string()), "'{s}' missing {n}");
        }
        assert!(s.contains("2 leftover"), "{s}");
        // The message says what a valid whitening request looks like.
        assert!(s.contains("m x d group"), "{s}");
    }

    #[test]
    fn group_shape_mismatch_display_is_total_for_inconsistent_fields() {
        let e = NormError::GroupShapeMismatch {
            rows: usize::MAX,
            d: usize::MAX,
            actual: 1,
        };
        let _ = e.to_string();
        let e = NormError::GroupShapeMismatch {
            rows: 9,
            d: 10,
            actual: 5,
        };
        assert!(e.to_string().contains("0 leftover"), "{e}");
    }

    #[test]
    fn whiten_not_converged_displays_steps_residual_tolerance_and_fixes() {
        let e = NormError::WhitenNotConverged {
            steps: 5,
            residual_bits: 0.25f64.to_bits(),
            tol_bits: 1e-3f64.to_bits(),
        };
        let s = e.to_string();
        assert!(
            s.chars().next().unwrap().is_lowercase(),
            "not lowercase: {s}"
        );
        assert!(s.contains('5'), "'{s}' must name the step budget");
        assert!(s.contains("2.500e-1"), "'{s}' must show the residual");
        assert!(s.contains("1.000e-3"), "'{s}' must show the tolerance");
        // The message points at every way out: more steps, more damping,
        // or a looser bar.
        assert!(
            s.contains('t') && s.contains("eps") && s.contains("tolerance"),
            "{s}"
        );
    }

    #[test]
    fn whiten_not_converged_display_is_total_for_nan_residuals() {
        // A NaN residual (a blown-up iteration) must still print.
        let e = NormError::WhitenNotConverged {
            steps: 1,
            residual_bits: f64::NAN.to_bits(),
            tol_bits: f64::INFINITY.to_bits(),
        };
        let s = e.to_string();
        assert!(s.contains("NaN"), "{s}");
    }

    #[test]
    fn batch_mismatch_reports_leftover_elements() {
        let e = NormError::BatchLengthMismatch {
            rows: 2,
            d: 100,
            actual: 250,
        };
        assert!(e.to_string().contains("50 leftover"), "{e}");
    }

    #[test]
    fn batch_mismatch_display_is_total_for_inconsistent_fields() {
        // The fields are public, so Display must not panic on hand-built
        // values that the engine itself would never produce.
        let e = NormError::BatchLengthMismatch {
            rows: 9,
            d: 10,
            actual: 5,
        };
        assert!(e.to_string().contains("0 leftover"), "{e}");
        let e = NormError::BatchLengthMismatch {
            rows: usize::MAX,
            d: usize::MAX,
            actual: 1,
        };
        let _ = e.to_string();
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_err<T: std::error::Error + Send + Sync + 'static>() {}
        assert_err::<NormError>();
    }
}
