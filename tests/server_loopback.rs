//! End-to-end loopback tests for the network serving layer: a real
//! server on an ephemeral TCP port and a temp Unix socket, driven by the
//! wire-protocol client, checked bit for bit against direct in-process
//! execution of an identically configured `NormService`.
//!
//! The wire is a transport, never a results knob — every reply here must
//! be byte-identical to what `NormService::submit` returns for the same
//! payload, across all four methods and shard counts {1, 2, 4}, keyed
//! and unkeyed, over both socket families.

use std::path::PathBuf;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use iterl2norm::backend::FormatKind;
use iterl2norm::{BackendKind, NormBackend, NormError, RowMoments};
use iterl2norm_suite::prelude::*;
use normserver::protocol::ErrorCode;

const D: usize = 16;

/// A temp-dir Unix socket path unique to this process and call site.
fn temp_socket_path(tag: &str) -> PathBuf {
    static COUNTER: AtomicU32 = AtomicU32::new(0);
    let n = COUNTER.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!(
        "iterl2-loopback-{}-{tag}-{n}.sock",
        std::process::id()
    ))
}

/// Deterministic `rows × D` payload, distinct per salt.
fn payload(rows: usize, salt: u32) -> Vec<u32> {
    (0..(rows * D) as u32)
        .map(|i| (0.5f32 + (i.wrapping_mul(37).wrapping_add(salt) % 23) as f32 * 0.125).to_bits())
        .collect()
}

fn service_config(method: MethodSpec, shards: usize) -> ServiceConfig {
    ServiceConfig::new(D)
        .with_format(FormatKind::Fp32)
        .with_backend(BackendKind::Emulated)
        .with_method(method)
        .with_shards(shards)
        .with_placement(Placement::RequestHash)
}

/// Every method × shard count, over both transports: pipelined mixed
/// keyed/unkeyed multi-tenant traffic must return exactly the bits a
/// direct in-process submit of the same payload produces.
#[test]
fn wire_output_is_bit_identical_to_direct_execution() {
    let methods = [
        MethodSpec::iterl2(5),
        MethodSpec::parse("fisr").expect("fisr is registered"),
        MethodSpec::parse("exact").expect("exact is registered"),
        MethodSpec::parse("lut").expect("lut is registered"),
    ];
    for method in methods {
        for shards in [1usize, 2, 4] {
            // The served service and the reference service are built from
            // the same config; the reference runs in-process.
            let served = service_config(method, shards)
                .build()
                .expect("valid config");
            let reference = service_config(method, shards)
                .build()
                .expect("valid config");
            let unix_path = temp_socket_path("ident");
            let handle = serve(
                served,
                Admission::open(),
                ServerOptions::default(),
                Some("127.0.0.1:0"),
                Some(&unix_path),
            )
            .expect("server starts");
            let tcp_addr = handle.tcp_addr().expect("tcp listener requested");

            let mut clients = vec![
                (
                    "tcp",
                    NormClient::connect_tcp(tcp_addr).expect("tcp connect"),
                ),
                (
                    "unix",
                    NormClient::connect_unix(&unix_path).expect("unix connect"),
                ),
            ];
            for (transport, client) in &mut clients {
                // Pipeline a burst of mixed requests, then collect all
                // replies in submission order.
                let requests: Vec<(u64, usize, Option<u64>)> = (0..8u64)
                    .map(|i| {
                        let tenant = 1 + i % 3;
                        let rows = 1 + (i as usize % 3);
                        let key = if i % 2 == 0 { Some(1000 + i) } else { None };
                        (tenant, rows, key)
                    })
                    .collect();
                let payloads: Vec<Vec<u32>> = requests
                    .iter()
                    .enumerate()
                    .map(|(i, (_, rows, _))| payload(*rows, i as u32))
                    .collect();
                let mut ids = Vec::new();
                for ((tenant, _, key), bits) in requests.iter().zip(&payloads) {
                    let mut req = ClientRequest::new(*tenant, D as u32, bits);
                    if let Some(key) = key {
                        req = req.with_key(*key);
                    }
                    ids.push(client.send(&req).expect("send"));
                }
                for (i, ((_, rows, key), bits)) in requests.iter().zip(&payloads).enumerate() {
                    let reply = client.recv_reply().expect("reply");
                    let mut direct = NormRequest::bits(bits);
                    if let Some(key) = key {
                        direct = direct.with_key(*key);
                    }
                    let expect = reference.submit(direct).expect("direct submit");
                    match reply {
                        ServerReply::Bits {
                            request_id,
                            rows: got_rows,
                            bits: got_bits,
                        } => {
                            assert_eq!(request_id, ids[i], "in-order replies over {transport}");
                            assert_eq!(got_rows as usize, *rows);
                            assert_eq!(
                                got_bits,
                                expect.bits(),
                                "wire bits diverged from direct execution: \
                                 {transport}, method {}, shards {shards}, request {i}",
                                method.label()
                            );
                        }
                        ServerReply::Rejected(err) => panic!(
                            "unexpected rejection over {transport} \
                             (method {}, shards {shards}): {err:?}",
                            method.label()
                        ),
                    }
                }
            }
            drop(clients);
            handle.shutdown();
            assert!(!unix_path.exists(), "socket file removed on shutdown");
        }
    }
}

/// A tenant with a zero refill rate and burst 2 gets exactly 2 admits,
/// then `over-quota` error frames — while an unconfigured tenant on the
/// same connection keeps being served.
#[test]
fn over_quota_tenant_is_rejected_while_others_proceed() {
    let served = service_config(MethodSpec::iterl2(5), 1)
        .build()
        .expect("valid");
    let handle = serve(
        served,
        Admission::new(
            vec![TenantSpec {
                tenant: 7,
                rate: 0.0,
                burst: 2.0,
                priority: Priority::Normal,
            }],
            Instant::now(),
        ),
        ServerOptions::default(),
        Some("127.0.0.1:0"),
        None,
    )
    .expect("server starts");
    let mut client = NormClient::connect_tcp(handle.tcp_addr().expect("tcp")).expect("connect");
    let bits = payload(1, 0);

    let mut quota_admits = 0;
    let mut quota_rejects = 0;
    for _ in 0..5 {
        match client
            .request(&ClientRequest::new(7, D as u32, &bits))
            .expect("quota-tenant request")
        {
            ServerReply::Bits { .. } => quota_admits += 1,
            ServerReply::Rejected(err) => {
                assert_eq!(err.code, ErrorCode::OverQuota, "{err:?}");
                quota_rejects += 1;
            }
        }
        // The unlimited tenant is interleaved and never rejected.
        match client
            .request(&ClientRequest::new(8, D as u32, &bits))
            .expect("open-tenant request")
        {
            ServerReply::Bits { .. } => {}
            ServerReply::Rejected(err) => panic!("open tenant rejected: {err:?}"),
        }
    }
    assert_eq!(quota_admits, 2, "burst-2 bucket admits exactly 2");
    assert_eq!(quota_rejects, 3);

    // The rejections are visible in the metrics export.
    let metrics = client.metrics().expect("metrics over the wire");
    assert!(
        metrics.contains("norm_tenant_rejected{tenant=\"7\",cause=\"quota\"} 3"),
        "{metrics}"
    );
    handle.shutdown();
}

/// A gate the test controls: the injected backend's `n`-th call blocks
/// until the test lets `n` calls through (bounded by a 10 s timeout so a
/// bug can never hang the suite).
struct Gate {
    state: Mutex<(usize, usize)>, // (calls entered, calls let through)
    cv: Condvar,
}

impl Gate {
    fn new() -> Arc<Self> {
        Arc::new(Gate {
            state: Mutex::new((0, 0)),
            cv: Condvar::new(),
        })
    }

    fn pass(&self) {
        let mut state = self.state.lock().unwrap();
        state.0 += 1;
        let turn = state.0;
        self.cv.notify_all();
        let deadline = Duration::from_secs(10);
        while state.1 < turn {
            let (next, timeout) = self.cv.wait_timeout(state, deadline).unwrap();
            state = next;
            if timeout.timed_out() {
                break;
            }
        }
    }

    /// Wait until `calls` backend calls have entered the gate.
    fn await_entered(&self, calls: usize) {
        let mut state = self.state.lock().unwrap();
        let deadline = Duration::from_secs(10);
        while state.0 < calls {
            let (next, timeout) = self.cv.wait_timeout(state, deadline).unwrap();
            state = next;
            assert!(!timeout.timed_out(), "backend never entered the gate");
        }
    }

    /// Let the first `calls` backend calls through.
    fn let_through(&self, calls: usize) {
        self.state.lock().unwrap().1 = calls;
        self.cv.notify_all();
    }

    fn open(&self) {
        self.let_through(usize::MAX);
    }
}

/// Occupy the service's only shard: a blocking submit from a helper
/// thread runs inline on the idle shard and holds the shard's claim
/// inside the gate. A wire request that finds a shard idle runs inline
/// on the connection's reader, which would then park in the gate itself
/// and stop parsing frames; behind the claim, wire requests queue for
/// the shard's driver instead.
fn occupy(handle: &ServerHandle, gate: &Gate) -> std::thread::JoinHandle<Result<usize, NormError>> {
    let service = handle.service().clone();
    let occupier = std::thread::spawn(move || {
        service
            .submit(NormRequest::bits(&payload(1, 99)))
            .map(|r| r.rows())
    });
    gate.await_entered(1);
    occupier
}

/// Wait until the service has decided each of the first `sent` frames:
/// accepted into a shard, or rejected because the shard's line was full.
/// `NormClient::send` only writes the socket, so without this wait a test
/// can open the gate before the server's reader has parsed its later
/// frames, and they would then find the line already drained.
fn await_decided(handle: &ServerHandle, sent: u64) {
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let stats = handle.service().stats();
        let decided = stats.requests + stats.queue_full_rejections;
        if decided >= sent {
            return;
        }
        assert!(
            Instant::now() < deadline,
            "the server decided {decided} of {sent} frames within 10 s \
             (accepted {}, queue-full {})",
            stats.requests,
            stats.queue_full_rejections
        );
        std::thread::sleep(Duration::from_millis(1));
    }
}

/// Copy-through backend that blocks at the gate on every call.
struct GatedBackend {
    gate: Arc<Gate>,
}

impl NormBackend for GatedBackend {
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
        "gated-loopback".into()
    }

    fn normalize_batch_bits(
        &mut self,
        input: &[u32],
        out: &mut [u32],
        _threads: usize,
    ) -> Result<usize, NormError> {
        self.gate.pass();
        out.copy_from_slice(input);
        Ok(input.len() / D)
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

/// With a gated backend and queue depth 1, a pipelined burst overruns the
/// shard's waiting line and the overflow comes back as `queue-full` error
/// frames over the wire — per-shard backpressure is visible to clients.
#[test]
fn queue_full_surfaces_as_error_frames_over_the_wire() {
    let gate = Gate::new();
    let served = ServiceConfig::new(D)
        .with_queue_depth(1)
        .build_with_backends(|| {
            Box::new(GatedBackend {
                gate: Arc::clone(&gate),
            })
        })
        .expect("valid config");
    let handle = serve(
        served,
        Admission::open(),
        ServerOptions::default(),
        Some("127.0.0.1:0"),
        None,
    )
    .expect("server starts");
    let mut client = NormClient::connect_tcp(handle.tcp_addr().expect("tcp")).expect("connect");
    let bits = payload(1, 0);

    // Pipeline a burst without reading replies: a helper's request holds
    // the (gated) shard, the first wire request parks in the depth-1
    // waiting line, and the rest find the shard provably full.
    let occupier = occupy(&handle, &gate);
    let burst = 8;
    for _ in 0..burst {
        client
            .send(&ClientRequest::new(1, D as u32, &bits))
            .expect("send");
        gate.await_entered(1);
    }
    // The occupier's request counts as decided too.
    await_decided(&handle, burst as u64 + 1);
    gate.open();
    assert_eq!(occupier.join().unwrap(), Ok(1));
    let mut ok = 0;
    let mut queue_full = 0;
    for _ in 0..burst {
        match client.recv_reply().expect("reply") {
            ServerReply::Bits { bits: got, .. } => {
                assert_eq!(got, bits, "gated backend copies through");
                ok += 1;
            }
            ServerReply::Rejected(err) => {
                assert_eq!(err.code, ErrorCode::QueueFull, "{err:?}");
                queue_full += 1;
            }
        }
    }
    assert!(ok >= 1, "the request the driver is executing completes");
    assert!(
        queue_full >= 1,
        "a depth-1 queue under a pipelined burst must reject ({ok} ok)"
    );
    assert_eq!(ok + queue_full, burst);
    handle.shutdown();
}

/// The wire's high-priority flag is an entitlement, not a free upgrade:
/// with the shard's waiting line full, a flagged request from an
/// unconfigured tenant is shed exactly like normal traffic (no reserved
/// overflow region, no queue jumping), while the same flag from a tenant
/// whose spec grants `high` is admitted past the full line.
#[test]
fn priority_flag_cannot_self_promote_unconfigured_tenants() {
    let gate = Gate::new();
    let served = ServiceConfig::new(D)
        .with_queue_depth(1)
        .build_with_backends(|| {
            Box::new(GatedBackend {
                gate: Arc::clone(&gate),
            })
        })
        .expect("valid config");
    let handle = serve(
        served,
        Admission::new(
            vec![TenantSpec {
                tenant: 1,
                rate: 100_000.0,
                burst: 100_000.0,
                priority: Priority::High,
            }],
            Instant::now(),
        ),
        ServerOptions::default(),
        Some("127.0.0.1:0"),
        None,
    )
    .expect("server starts");
    let mut client = NormClient::connect_tcp(handle.tcp_addr().expect("tcp")).expect("connect");
    let bits = payload(1, 7);

    // Tenant 9 (unconfigured) occupies the backend: its request queues
    // behind a helper's gated request, and once the helper is let
    // through the shard's driver takes it into the gate, leaving the
    // waiting line empty…
    let occupier = occupy(&handle, &gate);
    let executing = client
        .send(&ClientRequest::new(9, D as u32, &bits))
        .expect("send");
    await_decided(&handle, 2);
    gate.let_through(1);
    gate.await_entered(2);
    assert_eq!(occupier.join().unwrap(), Ok(1));
    // …and a second request fills the single waiting slot. The
    // connection's reader processes frames strictly in order, so once
    // the server has parsed the next frame this one has parked.
    let parked = client
        .send(&ClientRequest::new(9, D as u32, &bits))
        .expect("send");

    // The flagged request from the unconfigured tenant competes as
    // normal traffic against the full line: shed.
    let denied = client
        .send(&ClientRequest::new(9, D as u32, &bits).with_priority(Priority::High))
        .expect("send");
    // The same flag from the high-entitled tenant enters the reserved
    // overflow region instead.
    let granted = client
        .send(&ClientRequest::new(1, D as u32, &bits).with_priority(Priority::High))
        .expect("send");

    // Sending only writes the socket: hold the gate until the server has
    // decided all four frames (and the occupier's), or it could drain the
    // line first.
    await_decided(&handle, 5);
    gate.open();
    let replies: Vec<ServerReply> = (0..4)
        .map(|_| client.recv_reply().expect("reply"))
        .collect();
    for (reply, id) in replies.iter().zip([executing, parked, denied, granted]) {
        assert_eq!(reply.request_id(), id, "in-order replies");
    }
    assert!(
        matches!(replies[0], ServerReply::Bits { .. }),
        "{replies:?}"
    );
    assert!(
        matches!(replies[1], ServerReply::Bits { .. }),
        "{replies:?}"
    );
    match &replies[2] {
        ServerReply::Rejected(err) => {
            assert_eq!(err.code, ErrorCode::QueueFull, "{err:?}");
        }
        other => {
            panic!("a self-promoted unknown tenant must be shed like normal traffic: {other:?}")
        }
    }
    assert!(
        matches!(replies[3], ServerReply::Bits { .. }),
        "the entitled tenant rides the overflow region: {replies:?}"
    );
    handle.shutdown();
}

/// The in-band metrics export carries both the service counters and the
/// per-tenant counters, rendered from the stable stats snapshot.
#[test]
fn metrics_export_reports_service_and_tenant_counters() {
    let served = service_config(MethodSpec::iterl2(5), 2)
        .build()
        .expect("valid");
    let handle = serve(
        served,
        Admission::open(),
        ServerOptions::default(),
        Some("127.0.0.1:0"),
        None,
    )
    .expect("server starts");
    let mut client = NormClient::connect_tcp(handle.tcp_addr().expect("tcp")).expect("connect");
    let bits = payload(2, 1);
    for _ in 0..3 {
        match client
            .request(&ClientRequest::new(42, D as u32, &bits))
            .expect("request")
        {
            ServerReply::Bits { .. } => {}
            ServerReply::Rejected(err) => panic!("unexpected rejection: {err:?}"),
        }
    }
    let metrics = client.metrics().expect("metrics");
    // Service counters come from ServiceStatsSnapshot::fields(), so every
    // stable field name appears.
    let snapshot = handle.service().stats().snapshot();
    for (name, _) in snapshot.fields() {
        assert!(
            metrics.contains(&format!("norm_service_{name} ")),
            "missing norm_service_{name} in:\n{metrics}"
        );
    }
    assert!(metrics.contains("norm_service_requests 3"), "{metrics}");
    assert!(
        metrics.contains("norm_tenant_requests{tenant=\"42\"} 3"),
        "{metrics}"
    );
    assert!(
        metrics.contains("norm_tenant_method_requests{tenant=\"42\",method=\"norm\"} 3"),
        "{metrics}"
    );
    assert!(
        metrics.contains("norm_tenant_method_requests{tenant=\"42\",method=\"whiten\"} 0"),
        "{metrics}"
    );
    assert!(
        metrics.contains("norm_tenant_completed{tenant=\"42\"} 3"),
        "{metrics}"
    );
    assert!(
        metrics.contains("norm_tenant_rows{tenant=\"42\"} 6"),
        "{metrics}"
    );
    assert!(
        metrics.contains("norm_server_active_connections 1"),
        "{metrics}"
    );
    handle.shutdown();
}

/// Whitening over the wire: the whiten flag routes the payload through
/// the service's whitening engine — bit-identical to a direct in-process
/// whiten submit of the same group — and the per-method tenant counters
/// split whitening from normalization traffic in the metrics export.
#[test]
fn whiten_over_the_wire_is_bit_identical_and_counted_per_method() {
    let served = service_config(MethodSpec::iterl2(5), 2)
        .build()
        .expect("valid");
    let reference = service_config(MethodSpec::iterl2(5), 2)
        .build()
        .expect("valid");
    let handle = serve(
        served,
        Admission::open(),
        ServerOptions::default(),
        Some("127.0.0.1:0"),
        None,
    )
    .expect("server starts");
    let mut client = NormClient::connect_tcp(handle.tcp_addr().expect("tcp")).expect("connect");

    let group = payload(6, 11);
    let expect = reference
        .submit(NormRequest::whiten_group(&group))
        .expect("direct whiten submit");
    for _ in 0..2 {
        match client
            .request(&ClientRequest::new(42, D as u32, &group).whiten_group())
            .expect("whiten request")
        {
            ServerReply::Bits { rows, bits, .. } => {
                assert_eq!(rows as usize, 6);
                assert_eq!(
                    bits,
                    expect.bits(),
                    "wire whitening diverged from direct execution"
                );
            }
            ServerReply::Rejected(err) => panic!("unexpected rejection: {err:?}"),
        }
    }
    // One normalization request from the same tenant, for contrast in the
    // per-method split.
    let row = payload(1, 3);
    match client
        .request(&ClientRequest::new(42, D as u32, &row))
        .expect("norm request")
    {
        ServerReply::Bits { .. } => {}
        ServerReply::Rejected(err) => panic!("unexpected rejection: {err:?}"),
    }
    // A ragged whiten group (not a whole number of rows) is a shape error
    // frame, and the connection stays usable.
    let ragged = vec![1.0f32.to_bits(); D + 1];
    match client
        .request(&ClientRequest::new(42, D as u32, &ragged).whiten_group())
        .expect("ragged whiten request")
    {
        ServerReply::Rejected(err) => assert_eq!(err.code, ErrorCode::ShapeMismatch, "{err:?}"),
        ServerReply::Bits { .. } => panic!("ragged whiten group must not execute"),
    }

    let metrics = client.metrics().expect("metrics");
    assert!(
        metrics.contains("norm_tenant_method_requests{tenant=\"42\",method=\"whiten\"} 3"),
        "{metrics}"
    );
    assert!(
        metrics.contains("norm_tenant_method_requests{tenant=\"42\",method=\"norm\"} 1"),
        "{metrics}"
    );
    // The service-level whiten counters flow through the same snapshot
    // bridge as every other field (only admitted requests execute).
    assert!(
        metrics.contains("norm_service_whiten_requests 2"),
        "{metrics}"
    );
    assert!(metrics.contains("norm_service_whiten_rows 12"), "{metrics}");
    handle.shutdown();
}

/// Shutdown must return even with uncooperative peers attached: one
/// parked mid-frame (a partial frame then silence), one idle. The reader
/// abandons the partial frame after a bounded grace — a stalled peer
/// cannot hold [`ServerHandle::shutdown`] (and thus `Drop`) hostage.
#[test]
fn shutdown_is_not_hostage_to_stalled_peers() {
    use std::io::Write;

    let served = service_config(MethodSpec::iterl2(5), 1)
        .build()
        .expect("valid");
    let handle = serve(
        served,
        Admission::open(),
        ServerOptions::default(),
        Some("127.0.0.1:0"),
        None,
    )
    .expect("server starts");
    let addr = handle.tcp_addr().expect("tcp");

    // A length prefix promising 16 bytes, then only 2 of them — the
    // server's reader is parked mid-frame when shutdown arrives.
    let mut midframe = std::net::TcpStream::connect(addr).expect("connect");
    midframe
        .write_all(&[0, 0, 0, 16, 1, 2])
        .expect("partial frame");
    midframe.flush().expect("flush");
    // An accepted connection that never sends anything at all.
    let idle = std::net::TcpStream::connect(addr).expect("connect");

    // Let the accept loop pick both up and park their readers.
    std::thread::sleep(Duration::from_millis(100));

    let begin = Instant::now();
    handle.shutdown();
    assert!(
        begin.elapsed() < Duration::from_secs(5),
        "shutdown must not hang on stalled peers (took {:?})",
        begin.elapsed()
    );
    drop((midframe, idle));
}

/// Raw garbage on the wire gets one `bad-request` error frame back, then
/// the connection closes — a malformed client cannot wedge the server,
/// and a well-formed connection opened afterwards still works.
#[test]
fn malformed_frames_get_an_error_frame_then_close() {
    use std::io::{Read, Write};

    let served = service_config(MethodSpec::iterl2(5), 1)
        .build()
        .expect("valid");
    let handle = serve(
        served,
        Admission::open(),
        ServerOptions::default(),
        Some("127.0.0.1:0"),
        None,
    )
    .expect("server starts");
    let addr = handle.tcp_addr().expect("tcp");

    let mut raw = std::net::TcpStream::connect(addr).expect("connect");
    // A length-prefixed body that is pure garbage (wrong magic).
    let body = [0xDEu8, 0xAD, 0xBE, 0xEF, 1, 2, 3, 4];
    let mut frame = Vec::new();
    frame.extend_from_slice(&(body.len() as u32).to_be_bytes());
    frame.extend_from_slice(&body);
    raw.write_all(&frame).expect("write garbage");
    raw.flush().expect("flush");

    // The server answers with exactly one error frame, then EOF.
    let mut reply = Vec::new();
    raw.set_read_timeout(Some(Duration::from_secs(10)))
        .expect("timeout");
    raw.read_to_end(&mut reply).expect("read until close");
    let mut cursor: &[u8] = &reply;
    let parsed = normserver::protocol::read_frame(&mut cursor)
        .expect("reply parses")
        .expect("one frame before close");
    match parsed {
        normserver::protocol::Frame::Error(err) => {
            assert_eq!(err.code, ErrorCode::BadRequest, "{err:?}");
            assert_eq!(err.request_id, 0, "no id is known for garbage");
        }
        other => panic!("expected an error frame, got {other:?}"),
    }
    assert!(
        normserver::protocol::read_frame(&mut cursor)
            .expect("clean EOF after the error frame")
            .is_none(),
        "connection closed after the error frame"
    );

    // The server is still healthy for the next client.
    let mut client = NormClient::connect_tcp(addr).expect("connect after garbage");
    let bits = payload(1, 2);
    match client
        .request(&ClientRequest::new(1, D as u32, &bits))
        .expect("request")
    {
        ServerReply::Bits { .. } => {}
        ServerReply::Rejected(err) => panic!("unexpected rejection: {err:?}"),
    }
    handle.shutdown();
}

/// A shape-mismatched payload (d on the wire ≠ served d) is answered with
/// a `shape-mismatch` error frame and the connection stays usable.
#[test]
fn shape_mismatch_is_an_error_frame_not_a_disconnect() {
    let served = service_config(MethodSpec::iterl2(5), 1)
        .build()
        .expect("valid");
    let handle = serve(
        served,
        Admission::open(),
        ServerOptions::default(),
        Some("127.0.0.1:0"),
        None,
    )
    .expect("server starts");
    let mut client = NormClient::connect_tcp(handle.tcp_addr().expect("tcp")).expect("connect");

    // Wrong d: the frame is well-formed, the shape is not.
    let wrong = vec![1.0f32.to_bits(); 8];
    match client
        .request(&ClientRequest::new(1, 8, &wrong))
        .expect("request")
    {
        ServerReply::Rejected(err) => {
            assert_eq!(err.code, ErrorCode::ShapeMismatch, "{err:?}")
        }
        ServerReply::Bits { .. } => panic!("shape mismatch must not normalize"),
    }
    // Same connection, correct shape: served normally.
    let bits = payload(1, 3);
    match client
        .request(&ClientRequest::new(1, D as u32, &bits))
        .expect("request")
    {
        ServerReply::Bits { .. } => {}
        ServerReply::Rejected(err) => panic!("unexpected rejection: {err:?}"),
    }
    handle.shutdown();
}
