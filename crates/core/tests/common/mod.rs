//! Helpers the service suites share: a gate that holds backend calls
//! until the test opens it, a backend that waits at the gate and then
//! forwards to an inner backend, and a bounded poll on the service's
//! accepted-request counter.
//!
//! Together they give a test a shared driver round without a timer
//! ([`hold_every_shard`]): a blocker request runs inline on each idle
//! shard and waits in the gate while it holds the shard's claim; the
//! test queues its requests and waits until they are accepted; opening
//! the gate lets each shard's driver drain everything queued on it in
//! one round.
//!
//! Every suite is its own crate and uses a subset of these helpers.

#![allow(dead_code)]

use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use iterl2norm::backend::build_backend_simd;
use iterl2norm::service::{NormRequest, NormResponse, ServiceConfig};
use iterl2norm::{BackendKind, NormBackend, NormError, NormService, RowMoments, SimdLevel};

/// A gate the test controls: every backend call that passes through it
/// records the entering thread's name, then blocks until the test opens
/// the gate (bounded at 10 s, so a test bug fails instead of hanging the
/// suite).
#[derive(Default)]
pub struct Gate {
    state: Mutex<GateState>,
    cv: Condvar,
}

#[derive(Default)]
struct GateState {
    entered: Vec<String>,
    open: bool,
}

impl Gate {
    pub fn new(open: bool) -> Arc<Self> {
        let gate = Gate::default();
        gate.state.lock().unwrap().open = open;
        Arc::new(gate)
    }

    /// Called by a backend: record the entry, then block until opened.
    pub fn pass(&self) {
        let mut state = self.state.lock().unwrap();
        let name = std::thread::current().name().unwrap_or("").to_string();
        state.entered.push(name);
        self.cv.notify_all();
        let deadline = Instant::now() + Duration::from_secs(10);
        while !state.open && Instant::now() < deadline {
            state = self
                .cv
                .wait_timeout(state, Duration::from_millis(50))
                .unwrap()
                .0;
        }
    }

    /// Wait until `n` backend calls have entered the gate.
    pub fn await_entered(&self, n: usize) {
        let deadline = Instant::now() + Duration::from_secs(10);
        let mut state = self.state.lock().unwrap();
        while state.entered.len() < n {
            assert!(Instant::now() < deadline, "backend never entered the gate");
            state = self
                .cv
                .wait_timeout(state, Duration::from_millis(50))
                .unwrap()
                .0;
        }
    }

    /// Let every blocked and every later call through.
    pub fn open(&self) {
        self.state.lock().unwrap().open = true;
        self.cv.notify_all();
    }

    /// Hold later calls again.
    pub fn close(&self) {
        self.state.lock().unwrap().open = false;
    }

    /// The names of the threads that entered, in entry order.
    pub fn entered(&self) -> Vec<String> {
        self.state.lock().unwrap().entered.clone()
    }
}

/// `true` for a resident shard driver's thread name
/// (`ns{service}s{shard}d`).
pub fn is_driver(name: &str) -> bool {
    name.starts_with("ns") && name.ends_with('d')
}

/// When a [`GatedBackend`] panics, once it is through its gate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Panic {
    Never,
    Always,
    /// Only on a resident shard driver: inline calls pass.
    OnDriver,
}

/// A backend that waits at its gate before every call and then forwards
/// the call, the in-place one included, to `inner` — or panics with
/// "injected backend panic", as `panic` says.
pub struct GatedBackend {
    pub gate: Arc<Gate>,
    pub inner: Box<dyn NormBackend>,
    pub panic: Panic,
}

impl GatedBackend {
    /// Gated rows of `d` elements, copied through unchanged.
    pub fn identity(gate: &Arc<Gate>, d: usize, panic: Panic) -> Self {
        GatedBackend {
            gate: Arc::clone(gate),
            inner: Box::new(Identity { d }),
            panic,
        }
    }

    fn enter(&self) {
        self.gate.pass();
        let on_driver = is_driver(std::thread::current().name().unwrap_or(""));
        let panics = match self.panic {
            Panic::Never => false,
            Panic::Always => true,
            Panic::OnDriver => on_driver,
        };
        assert!(!panics, "injected backend panic");
    }
}

impl NormBackend for GatedBackend {
    fn backend(&self) -> BackendKind {
        self.inner.backend()
    }

    fn format_name(&self) -> &'static str {
        self.inner.format_name()
    }

    fn d(&self) -> usize {
        self.inner.d()
    }

    fn method_label(&self) -> String {
        self.inner.method_label()
    }

    fn simd_level(&self) -> SimdLevel {
        self.inner.simd_level()
    }

    fn normalize_batch_bits(
        &mut self,
        input: &[u32],
        out: &mut [u32],
        threads: usize,
    ) -> Result<usize, NormError> {
        self.enter();
        self.inner.normalize_batch_bits(input, out, threads)
    }

    fn normalize_in_place(&mut self, segments: &mut [&mut [u32]]) -> Result<usize, NormError> {
        self.enter();
        self.inner.normalize_in_place(segments)
    }

    fn normalize_row_bits_detailed(
        &mut self,
        input: &[u32],
        out: &mut [u32],
    ) -> Result<RowMoments, NormError> {
        self.enter();
        self.inner.normalize_row_bits_detailed(input, out)
    }
}

/// A backend that copies rows of `d` elements through unchanged.
pub struct Identity {
    pub d: usize,
}

impl NormBackend for Identity {
    fn backend(&self) -> BackendKind {
        BackendKind::Emulated
    }

    fn format_name(&self) -> &'static str {
        "FP32"
    }

    fn d(&self) -> usize {
        self.d
    }

    fn method_label(&self) -> String {
        "identity-test".into()
    }

    fn normalize_batch_bits(
        &mut self,
        input: &[u32],
        out: &mut [u32],
        _threads: usize,
    ) -> Result<usize, NormError> {
        out.copy_from_slice(input);
        Ok(input.len() / self.d)
    }

    fn normalize_row_bits_detailed(
        &mut self,
        input: &[u32],
        out: &mut [u32],
    ) -> Result<RowMoments, NormError> {
        self.normalize_batch_bits(input, out, 1)?;
        Ok(RowMoments {
            mean: 0.0,
            m: 1.0,
            scale: 1.0,
        })
    }
}

/// A service built from `config` whose shards run gated identity
/// backends.
pub fn gated(config: ServiceConfig, gate: &Arc<Gate>, panic: Panic) -> NormService {
    let d = config.d();
    config
        .build_with_backends(|| Box::new(GatedBackend::identity(gate, d, panic)))
        .unwrap()
}

/// A service built from `config` whose shards run the normalization
/// backend `config` names, each wrapped in a [`GatedBackend`]. Whitening
/// runs the executor `config` names, ungated: a blocker holding a
/// shard's claim keeps both kinds waiting.
pub fn gated_real(config: ServiceConfig, gate: &Arc<Gate>) -> NormService {
    let named = config.clone();
    config
        .build_with_backends(|| {
            let inner = build_backend_simd(
                named.backend(),
                named.format(),
                named.d(),
                &named.method(),
                named.reduce(),
                named.simd(),
            )
            .unwrap();
            Box::new(GatedBackend {
                gate: Arc::clone(gate),
                inner,
                panic: Panic::Never,
            })
        })
        .unwrap()
}

/// Poll until `n` requests were accepted (a queued submitter counts
/// before it parks).
pub fn await_accepted(service: &NormService, n: u64) {
    let deadline = Instant::now() + Duration::from_secs(10);
    while service.stats().requests < n {
        assert!(
            Instant::now() < deadline,
            "never saw {n} accepted requests (stats: {:?})",
            service.stats()
        );
        std::thread::sleep(Duration::from_micros(100));
    }
}

/// Occupy every shard of a round-robin `service` whose backends wait at
/// the closed `gate`: one blocking submit of `blocker` per shard, each
/// started only once the previous one is in the gate, so the placement
/// cursor sends one to every shard. Each runs inline on its idle shard
/// and holds the shard's claim inside the gate, so every request
/// submitted after this returns queues for its shard's driver. Join the
/// handles after opening the gate.
pub fn hold_every_shard(
    service: &NormService,
    gate: &Gate,
    blocker: &[u32],
) -> Vec<JoinHandle<Result<NormResponse, NormError>>> {
    let entered = gate.entered().len();
    (0..service.shards())
        .map(|k| {
            let service = service.clone();
            let bits = blocker.to_vec();
            let handle = std::thread::spawn(move || service.submit(NormRequest::bits(&bits)));
            gate.await_entered(entered + k + 1);
            handle
        })
        .collect()
}
