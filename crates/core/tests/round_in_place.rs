//! Coalesced rounds run in place, enforced:
//!
//! * N tickets queued behind a blocker land in one driver round
//!   (`batch_requests == N` on every reply), and the round executes over
//!   the requests' own payload buffers. Every reply equals the emulated
//!   soft-float oracle run on that request alone — for norm requests of
//!   1, 7, 8, 9 and 64 rows (straddling the SIMD kernel's 8-row blocks)
//!   and whitening groups of m ∈ {64, 100, 256}, alone and mixed in one
//!   round, on the native and emulated backends.
//! * A third-party backend and whitening executor that implement only
//!   the out-of-place methods serve coalesced rounds through the traits'
//!   default in-place implementations: one backend call per round over
//!   the concatenated rows, replies equal to the oracle.
//! * A round whose backend call fails fails every ticket in it; no
//!   reply is delivered as `Ok`.
//!
//! Every round is made deterministic with the shared gate
//! (`common/mod.rs`): a blocker request runs inline on the idle shard
//! and holds its claim inside the gate while the test queues the round's
//! tickets; opening the gate lets the driver drain them all at once. The
//! gate wraps the backend under test and forwards every call to it.

mod common;

use std::sync::{Arc, Mutex};

use common::{gated_real, hold_every_shard, Gate, GatedBackend, Panic};
use iterl2norm::backend::{build_backend, BackendKind, FormatKind};
use iterl2norm::service::{NormRequest, NormTicket, ServiceConfig};
use iterl2norm::whiten::{build_whiten, WhitenDetail, WhitenExec, WhitenSpec};
use iterl2norm::{
    MethodSpec, NormBackend, NormError, NormService, ReduceOrder, RowMoments, SimdLevel, TicketSet,
};
use workloads::{Distribution, VectorGen};

const D: usize = 16;

/// Norm request sizes, in rows.
const NORM_ROWS: [usize; 5] = [1, 7, 8, 9, 64];

/// Whitening group sizes, in samples.
const GROUP_ROWS: [usize; 3] = [64, 100, 256];

fn request_bits(rows: usize, seed: u64) -> Vec<u32> {
    let gen = VectorGen::new(Distribution::Uniform, seed);
    let mut bits = Vec::with_capacity(rows * D);
    for r in 0..rows as u64 {
        bits.extend(gen.vector_f64(D, r).iter().map(|&v| (v as f32).to_bits()));
    }
    bits
}

fn emulated_backend() -> Box<dyn NormBackend> {
    build_backend(
        BackendKind::Emulated,
        FormatKind::Fp32,
        D,
        &MethodSpec::iterl2(5),
        ReduceOrder::HwTree,
    )
    .unwrap()
}

fn emulated_whiten() -> Box<dyn WhitenExec> {
    build_whiten(
        BackendKind::Emulated,
        FormatKind::Fp32,
        D,
        WhitenSpec::default(),
        SimdLevel::Auto,
    )
    .unwrap()
}

/// One request normalized alone on a fresh emulated backend: the oracle.
fn oracle_norm(bits: &[u32]) -> Vec<u32> {
    let mut out = vec![0u32; bits.len()];
    emulated_backend()
        .normalize_batch_bits(bits, &mut out, 1)
        .unwrap();
    out
}

/// One group whitened alone on a fresh emulated executor: the oracle.
fn oracle_whiten(bits: &[u32]) -> Vec<u32> {
    let mut out = vec![0u32; bits.len()];
    emulated_whiten()
        .whiten_groups(bits, &mut out, &[bits.len() / D], 1)
        .unwrap();
    out
}

/// A request of the test's round, with the bits its reply must equal.
struct Expected {
    request: Vec<u32>,
    whiten: bool,
    expect: Vec<u32>,
}

fn norm_requests(seed: u64) -> Vec<Expected> {
    NORM_ROWS
        .iter()
        .enumerate()
        .map(|(i, &rows)| {
            let request = request_bits(rows, seed + i as u64);
            let expect = oracle_norm(&request);
            Expected {
                request,
                whiten: false,
                expect,
            }
        })
        .collect()
}

fn whiten_requests(seed: u64) -> Vec<Expected> {
    GROUP_ROWS
        .iter()
        .enumerate()
        .map(|(i, &rows)| {
            let request = request_bits(rows, seed + i as u64);
            let expect = oracle_whiten(&request);
            Expected {
                request,
                whiten: true,
                expect,
            }
        })
        .collect()
}

/// The one-row request that holds the shard while a round queues.
fn blocker() -> Vec<u32> {
    request_bits(1, 0xB10C)
}

/// Hold the shard with a blocker, submit every request as a ticket
/// behind it, then open the gate so they all share the driver's next
/// round, and check each reply: oracle bits, and a batch holding every
/// request of its kind. Returns the blocker's own outcome.
fn one_round(
    service: &NormService,
    gate: &Gate,
    round: &[Expected],
    label: &str,
) -> Result<Vec<u32>, NormError> {
    gate.close();
    let holders = hold_every_shard(service, gate, &blocker());
    let per_kind = |whiten: bool| round.iter().filter(|e| e.whiten == whiten).count();
    let mut tickets = TicketSet::new();
    let mut index = Vec::new();
    for (i, e) in round.iter().enumerate() {
        let request = if e.whiten {
            NormRequest::whiten_group(&e.request)
        } else {
            NormRequest::bits(&e.request)
        };
        let ticket: NormTicket = service.submit_async(request).unwrap();
        index.push((tickets.insert(ticket), i));
    }
    gate.open();
    let held = holders.into_iter().next().unwrap().join().unwrap();
    while let Some((id, result)) = tickets.wait_any() {
        let &(_, i) = index.iter().find(|(t, _)| *t == id).unwrap();
        let e = &round[i];
        let response = result.unwrap_or_else(|err| panic!("{label}: request {i}: {err}"));
        assert_eq!(response.bits(), &e.expect[..], "{label}: request {i} bits");
        assert_eq!(response.rows(), e.request.len() / D, "{label}: request {i}");
        assert_eq!(
            response.batch_requests(),
            per_kind(e.whiten),
            "{label}: request {i} did not share the round"
        );
        let kind_rows: usize = round
            .iter()
            .filter(|o| o.whiten == e.whiten)
            .map(|o| o.request.len() / D)
            .sum();
        assert_eq!(response.batch_rows(), kind_rows, "{label}: request {i}");
    }
    held.map(|response| response.bits().to_vec())
}

#[test]
fn coalesced_rounds_run_in_place_and_match_the_oracle() {
    let norm = norm_requests(100);
    let whiten = whiten_requests(200);
    let mixed: Vec<Expected> = norm_requests(300)
        .into_iter()
        .chain(whiten_requests(400))
        .collect();
    std::thread::scope(|scope| {
        for backend in BackendKind::ALL {
            let (norm, whiten, mixed) = (&norm, &whiten, &mixed);
            scope.spawn(move || {
                let gate = Gate::new(false);
                let service = gated_real(ServiceConfig::new(D).with_backend(backend), &gate);
                let label = backend.to_string();
                for (round, kinds) in [(norm, "norm"), (whiten, "whiten"), (mixed, "mixed")] {
                    let held = one_round(&service, &gate, round, &format!("{label}, {kinds}"));
                    assert_eq!(held.unwrap(), oracle_norm(&blocker()), "{label}: blocker");
                }
                let stats = service.stats();
                // One backend call per kind per round, plus each of the
                // three rounds' inline blocker.
                assert_eq!(stats.batches, 4 + 3, "{label}");
                assert_eq!(stats.coalesced_requests, stats.requests - 3, "{label}");
            });
        }
    });
}

/// A third-party backend: only the required out-of-place methods, over
/// the emulated oracle, recording the length of every batch it runs.
struct OutOfPlaceOnly {
    inner: Box<dyn NormBackend>,
    batches: Arc<Mutex<Vec<usize>>>,
}

impl NormBackend for OutOfPlaceOnly {
    fn backend(&self) -> BackendKind {
        BackendKind::Emulated
    }

    fn format_name(&self) -> &'static str {
        "FP32"
    }

    fn d(&self) -> usize {
        D
    }

    fn method_label(&self) -> String {
        "out-of-place-only".into()
    }

    fn normalize_batch_bits(
        &mut self,
        input: &[u32],
        out: &mut [u32],
        threads: usize,
    ) -> Result<usize, NormError> {
        self.batches.lock().unwrap().push(input.len());
        self.inner.normalize_batch_bits(input, out, threads)
    }

    fn normalize_row_bits_detailed(
        &mut self,
        input: &[u32],
        out: &mut [u32],
    ) -> Result<RowMoments, NormError> {
        self.inner.normalize_row_bits_detailed(input, out)
    }
}

/// The whitening counterpart of [`OutOfPlaceOnly`].
struct WhitenOutOfPlaceOnly {
    inner: Box<dyn WhitenExec>,
    batches: Arc<Mutex<Vec<usize>>>,
}

impl WhitenExec for WhitenOutOfPlaceOnly {
    fn backend(&self) -> BackendKind {
        BackendKind::Emulated
    }

    fn format_name(&self) -> &'static str {
        "FP32"
    }

    fn d(&self) -> usize {
        D
    }

    fn spec(&self) -> WhitenSpec {
        self.inner.spec()
    }

    fn whiten_groups(
        &mut self,
        input: &[u32],
        out: &mut [u32],
        group_rows: &[usize],
        threads: usize,
    ) -> Result<usize, NormError> {
        self.batches.lock().unwrap().push(input.len());
        self.inner.whiten_groups(input, out, group_rows, threads)
    }

    fn whiten_group_detailed(
        &mut self,
        input: &[u32],
        out: &mut [u32],
    ) -> Result<WhitenDetail, NormError> {
        self.inner.whiten_group_detailed(input, out)
    }
}

#[test]
fn default_in_place_impls_serve_coalesced_rounds() {
    let norm = norm_requests(500);
    let whiten = whiten_requests(600);
    let batches = Arc::new(Mutex::new(Vec::new()));
    let whiten_batches = Arc::new(Mutex::new(Vec::new()));
    let (b, w) = (Arc::clone(&batches), Arc::clone(&whiten_batches));
    let gate = Gate::new(false);
    let service = ServiceConfig::new(D)
        .build_with_backends_and_whiten(
            || {
                Box::new(GatedBackend {
                    gate: Arc::clone(&gate),
                    inner: Box::new(OutOfPlaceOnly {
                        inner: emulated_backend(),
                        batches: Arc::clone(&b),
                    }),
                    panic: Panic::Never,
                })
            },
            move || {
                Box::new(WhitenOutOfPlaceOnly {
                    inner: emulated_whiten(),
                    batches: Arc::clone(&w),
                })
            },
        )
        .unwrap();
    one_round(&service, &gate, &norm, "default impl, norm").unwrap();
    one_round(&service, &gate, &whiten, "default impl, whiten").unwrap();
    let total = |round: &[Expected]| round.iter().map(|e| e.request.len()).sum::<usize>();
    // One out-of-place call per round, over every request's rows. Each
    // round's blocker is one inline norm call of its own, and it returns
    // the claim before the driver's round can start.
    let held = blocker().len();
    assert_eq!(*batches.lock().unwrap(), vec![held, total(&norm), held]);
    assert_eq!(*whiten_batches.lock().unwrap(), vec![total(&whiten)]);
}

/// A backend whose every call scribbles over its output and then fails.
struct Failing;

impl NormBackend for Failing {
    fn backend(&self) -> BackendKind {
        BackendKind::Emulated
    }

    fn format_name(&self) -> &'static str {
        "FP32"
    }

    fn d(&self) -> usize {
        D
    }

    fn method_label(&self) -> String {
        "failing".into()
    }

    fn normalize_batch_bits(
        &mut self,
        _input: &[u32],
        _out: &mut [u32],
        _threads: usize,
    ) -> Result<usize, NormError> {
        Err(NormError::EmptyInput)
    }

    fn normalize_in_place(&mut self, segments: &mut [&mut [u32]]) -> Result<usize, NormError> {
        for seg in segments.iter_mut() {
            seg.fill(u32::MAX);
        }
        Err(NormError::EmptyInput)
    }

    fn normalize_row_bits_detailed(
        &mut self,
        _input: &[u32],
        _out: &mut [u32],
    ) -> Result<RowMoments, NormError> {
        Err(NormError::EmptyInput)
    }
}

#[test]
fn a_failed_round_fails_every_ticket() {
    let gate = Gate::new(false);
    let service = ServiceConfig::new(D)
        .build_with_backends(|| {
            Box::new(GatedBackend {
                gate: Arc::clone(&gate),
                inner: Box::new(Failing),
                panic: Panic::Never,
            })
        })
        .unwrap();
    let holders = hold_every_shard(&service, &gate, &blocker());
    let requests: Vec<Vec<u32>> = NORM_ROWS
        .iter()
        .map(|&rows| request_bits(rows, 700))
        .collect();
    let mut tickets: Vec<NormTicket> = requests
        .iter()
        .map(|bits| service.submit_async(NormRequest::bits(bits)).unwrap())
        .collect();
    gate.open();
    for holder in holders {
        assert_eq!(holder.join().unwrap().unwrap_err(), NormError::EmptyInput);
    }
    for ticket in &mut tickets {
        assert_eq!(ticket.wait().unwrap_err(), NormError::EmptyInput);
    }
    let stats = service.stats();
    assert_eq!(
        stats.batches, 2,
        "the blocker's inline call, then one round the tickets shared"
    );
    assert_eq!(stats.rows, 0, "a failed round processed no rows");
}
