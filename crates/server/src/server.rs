//! The accept/connection machinery that fronts a
//! [`NormService`] with sockets.
//!
//! Thread shape: one accept thread per listener (TCP, Unix socket, or
//! both on one server), and **two** threads per connection —
//!
//! * the *reader* parses frames, runs shape checks and per-tenant
//!   admission, and drives admitted requests through
//!   [`submit_async`](iterl2norm::NormService::submit_async). A request
//!   whose shard is idle runs inline on the reader itself, straight from
//!   the decoded payload into a pooled reply, and its ticket is already
//!   complete — no driver hand-off. A request whose shard is busy queues
//!   for the shard's driver, so a single connection can still pipeline
//!   many in-flight tickets without waiting for earlier responses;
//! * the *writer* collects those tickets in **completion order** through
//!   a [`TicketSet`] — so a finished response is harvested the moment it
//!   is delivered, never parked behind a slower earlier ticket — and a
//!   reorder buffer puts frames back on the wire in **submission
//!   order**. Each reply is encoded from the served response's bits into
//!   one reused per-connection buffer, reserved to the frame's exact
//!   size, after which the response's buffer returns to its shard pool.
//!   The channel bound is the per-connection pipelining window: a client
//!   that floods faster than responses drain blocks in the reader, which
//!   is exactly the flow control a byte stream wants.
//!
//! Rejections are explicit error frames, never dropped bytes: shape
//! mismatches, over-quota tenants, a full shard queue and a shut-down
//! service each map to their own [`ErrorCode`]. On one core none of this
//! buys parallel execution — it buys *pipelining* and honest admission
//! behavior, which is what the loopback tests pin down.
//!
//! Shutdown is cooperative first, forceful second: readers poll the
//! shutdown flag on a short socket read timeout and check it on *every*
//! tick (a mid-frame partial read is preserved across polls and gets a
//! bounded grace to complete, then the frame is abandoned), writers
//! drain their queues behind a socket write timeout, and
//! [`ServerHandle::shutdown`] joins everything — after a short drain
//! grace it force-closes the sockets of connections still running, so a
//! peer parked mid-frame or refusing to read can never hang shutdown.

use std::collections::{BTreeMap, HashMap, HashSet};
use std::io::{self, BufWriter, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{Receiver, SyncSender};
use std::sync::{mpsc, Arc, Mutex, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use iterl2norm::{
    NormError, NormRequest, NormResponse, NormService, NormTicket, Priority, TicketSet,
};

use crate::admission::{Admission, Decision};
use crate::metrics::{MetricsRegistry, RejectCause, RequestMethod, TenantCounters};
use crate::protocol::{
    decode_body, encode_frame_into, encode_response_into, ErrorCode, ErrorFrame, Frame, FrameError,
    RequestFrame, WireError, MAX_FRAME_BYTES,
};

/// How often a parked connection reader wakes to re-check the shutdown
/// flag (the socket read timeout).
const READ_POLL: Duration = Duration::from_millis(50);

/// How long an idle accept loop sleeps between polls.
const ACCEPT_POLL: Duration = Duration::from_millis(5);

/// How many extra read-timeout ticks a mid-frame read waits after
/// observing shutdown before abandoning the partial frame — long enough
/// for a live peer to finish a frame it already started sending, short
/// enough that a stalled peer cannot hold a reader thread hostage.
const SHUTDOWN_MIDFRAME_GRACE_TICKS: u32 = 4;

/// How long [`ServerHandle::shutdown`] lets connections drain
/// cooperatively before force-closing the sockets of any still running.
const SHUTDOWN_DRAIN_GRACE: Duration = Duration::from_millis(500);

/// Socket write timeout: a peer that accepts no bytes for this long
/// while responses are queued is treated as dead — the writer marks the
/// socket dead and keeps draining tickets without it.
const WRITE_STALL: Duration = Duration::from_secs(5);

/// Tunables for [`serve`].
#[derive(Debug, Clone)]
pub struct ServerOptions {
    /// The per-connection pipelining window: how many submitted-but-not-
    /// yet-written responses may be in flight before the connection's
    /// reader blocks. Bounds per-connection memory; the service's
    /// queue-depth bound still applies underneath.
    pub max_inflight_per_connection: usize,
}

impl Default for ServerOptions {
    fn default() -> Self {
        ServerOptions {
            max_inflight_per_connection: 64,
        }
    }
}

/// A force-close switch for one connection's socket: invoking it shuts
/// the socket down both ways, unblocking any read or write parked on an
/// uncooperative peer.
type KillSwitch = Box<dyn Fn() + Send>;

/// State shared by every thread the server spawns.
struct Shared {
    service: NormService,
    admission: Admission,
    metrics: MetricsRegistry,
    options: ServerOptions,
    shutdown: AtomicBool,
    /// Connection thread handles, joined at shutdown. Finished entries
    /// are reaped opportunistically on each accept, so a long-running
    /// server serving short-lived connections does not grow this without
    /// bound.
    connections: Mutex<Vec<JoinHandle<()>>>,
    /// Kill switches for the connections still running, keyed by a
    /// per-connection id. Each connection unregisters itself as its last
    /// act — the switch holds a clone of the socket, so keeping it past
    /// the connection's exit would hold the peer's EOF hostage. Whatever
    /// is still registered when shutdown's drain grace expires is
    /// exactly the set of stalled connections to force-close.
    kills: Mutex<std::collections::BTreeMap<u64, KillSwitch>>,
    next_connection_id: std::sync::atomic::AtomicU64,
}

impl Shared {
    fn lock_connections(&self) -> std::sync::MutexGuard<'_, Vec<JoinHandle<()>>> {
        self.connections
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
    }

    fn lock_kills(&self) -> std::sync::MutexGuard<'_, std::collections::BTreeMap<u64, KillSwitch>> {
        self.kills.lock().unwrap_or_else(PoisonError::into_inner)
    }

    fn metrics_text(&self) -> String {
        self.metrics.render(&self.service.stats().snapshot())
    }
}

/// A running server: the listeners' addresses, the shared service, and
/// the shutdown/join switch. Dropping the handle shuts the server down.
pub struct ServerHandle {
    shared: Arc<Shared>,
    tcp_addr: Option<SocketAddr>,
    unix_path: Option<PathBuf>,
    accept_threads: Mutex<Vec<JoinHandle<()>>>,
}

impl std::fmt::Debug for ServerHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ServerHandle")
            .field("tcp_addr", &self.tcp_addr)
            .field("unix_path", &self.unix_path)
            .finish_non_exhaustive()
    }
}

impl ServerHandle {
    /// The bound TCP address, when a TCP listener was requested — with an
    /// ephemeral port (`:0`) this is where the real port lives.
    pub fn tcp_addr(&self) -> Option<SocketAddr> {
        self.tcp_addr
    }

    /// The Unix socket path, when a Unix listener was requested.
    pub fn unix_path(&self) -> Option<&Path> {
        self.unix_path.as_deref()
    }

    /// The service behind the wire — for direct in-process submits
    /// (bit-identity probes) and stats reads.
    pub fn service(&self) -> &NormService {
        &self.shared.service
    }

    /// The server's metrics registry (per-tenant counters, gauges).
    pub fn metrics(&self) -> &MetricsRegistry {
        &self.shared.metrics
    }

    /// The full plaintext metrics export — the same text a
    /// [`Frame::MetricsRequest`] gets over the wire.
    pub fn metrics_text(&self) -> String {
        self.shared.metrics_text()
    }

    /// Stop accepting, drain in-flight work, join every thread, and (for
    /// a Unix listener) unlink the socket file. Idempotent; also runs on
    /// drop. Connections mid-request finish their accepted work — the
    /// readers stop feeding, the writers drain — but a stalled peer (one
    /// parked mid-frame, or refusing to read its responses) only gets
    /// a short drain grace before its socket is force-closed, so
    /// shutdown always returns.
    pub fn shutdown(&self) {
        self.shared.shutdown.store(true, Ordering::SeqCst);
        let accept: Vec<_> = {
            let mut threads = self
                .accept_threads
                .lock()
                .unwrap_or_else(PoisonError::into_inner);
            threads.drain(..).collect()
        };
        for handle in accept {
            let _ = handle.join();
        }
        // Cooperative phase: readers observe the flag within a poll tick
        // (plus the bounded mid-frame grace) and writers flush what is
        // already queued. Poll instead of joining so a blocked thread
        // cannot stall this loop past the grace deadline.
        let deadline = Instant::now() + SHUTDOWN_DRAIN_GRACE;
        loop {
            let all_finished = self
                .shared
                .lock_connections()
                .iter()
                .all(|handle| handle.is_finished());
            if all_finished || Instant::now() >= deadline {
                break;
            }
            std::thread::sleep(ACCEPT_POLL);
        }
        // Forceful phase: close the sockets of connections still running
        // (exactly the kill switches still registered) — blocked reads
        // and writes error out, the threads unwind through their normal
        // exit paths, and the joins below return.
        for kill in self.shared.lock_kills().values() {
            kill();
        }
        let connections: Vec<_> = self.shared.lock_connections().drain(..).collect();
        for handle in connections {
            let _ = handle.join();
        }
        #[cfg(unix)]
        if let Some(path) = &self.unix_path {
            let _ = std::fs::remove_file(path);
        }
    }

    /// Block until the server shuts down (a foreground `serve` process's
    /// main thread). Joins the accept threads, which run until the
    /// shutdown flag is set from another thread or the process dies.
    pub fn wait(&self) {
        let accept: Vec<_> = {
            let mut threads = self
                .accept_threads
                .lock()
                .unwrap_or_else(PoisonError::into_inner);
            threads.drain(..).collect()
        };
        for handle in accept {
            let _ = handle.join();
        }
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Start a server over `service` with the given admission table. At
/// least one listener is required: `tcp` is a bind address
/// (`"127.0.0.1:0"` for an ephemeral port), `unix` a socket path. Both
/// at once serve the same service and share the same admission state.
///
/// # Errors
///
/// Bind failures, plus [`io::ErrorKind::InvalidInput`] when no listener
/// was requested (or a Unix listener was requested off-unix).
pub fn serve(
    service: NormService,
    admission: Admission,
    options: ServerOptions,
    tcp: Option<&str>,
    unix: Option<&Path>,
) -> io::Result<ServerHandle> {
    if tcp.is_none() && unix.is_none() {
        return Err(io::Error::new(
            io::ErrorKind::InvalidInput,
            "server needs at least one listener (tcp address or unix path)",
        ));
    }
    let shared = Arc::new(Shared {
        service,
        admission,
        metrics: MetricsRegistry::new(),
        options,
        shutdown: AtomicBool::new(false),
        connections: Mutex::new(Vec::new()),
        kills: Mutex::new(std::collections::BTreeMap::new()),
        next_connection_id: std::sync::atomic::AtomicU64::new(0),
    });
    let mut accept_threads = Vec::new();
    let mut tcp_addr = None;
    if let Some(addr) = tcp {
        let listener = TcpListener::bind(addr)?;
        listener.set_nonblocking(true)?;
        tcp_addr = Some(listener.local_addr()?);
        let shared = Arc::clone(&shared);
        accept_threads.push(std::thread::spawn(move || {
            tcp_accept_loop(shared, listener)
        }));
    }
    let mut unix_path = None;
    if let Some(path) = unix {
        #[cfg(unix)]
        {
            let listener = std::os::unix::net::UnixListener::bind(path)?;
            listener.set_nonblocking(true)?;
            unix_path = Some(path.to_path_buf());
            let shared = Arc::clone(&shared);
            accept_threads.push(std::thread::spawn(move || {
                unix_accept_loop(shared, listener)
            }));
        }
        #[cfg(not(unix))]
        {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                format!(
                    "unix sockets are not available on this platform: {}",
                    path.display()
                ),
            ));
        }
    }
    Ok(ServerHandle {
        shared,
        tcp_addr,
        unix_path,
        accept_threads: Mutex::new(accept_threads),
    })
}

fn tcp_accept_loop(shared: Arc<Shared>, listener: TcpListener) {
    while !shared.shutdown.load(Ordering::SeqCst) {
        match listener.accept() {
            Ok((stream, _peer)) => {
                if let Err(_e) = spawn_tcp_connection(&shared, stream) {
                    // A failed clone/configure drops just this socket.
                }
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => std::thread::sleep(ACCEPT_POLL),
            Err(_) => std::thread::sleep(ACCEPT_POLL),
        }
    }
}

fn spawn_tcp_connection(shared: &Arc<Shared>, stream: TcpStream) -> io::Result<()> {
    stream.set_nonblocking(false)?;
    let _ = stream.set_nodelay(true);
    stream.set_write_timeout(Some(WRITE_STALL))?;
    let reader = stream.try_clone()?;
    reader.set_read_timeout(Some(READ_POLL))?;
    let kill = stream.try_clone()?;
    spawn_connection(
        shared,
        reader,
        stream,
        Box::new(move || {
            let _ = kill.shutdown(std::net::Shutdown::Both);
        }),
    );
    Ok(())
}

#[cfg(unix)]
fn unix_accept_loop(shared: Arc<Shared>, listener: std::os::unix::net::UnixListener) {
    while !shared.shutdown.load(Ordering::SeqCst) {
        match listener.accept() {
            Ok((stream, _peer)) => {
                let _ = spawn_unix_connection(&shared, stream);
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => std::thread::sleep(ACCEPT_POLL),
            Err(_) => std::thread::sleep(ACCEPT_POLL),
        }
    }
}

#[cfg(unix)]
fn spawn_unix_connection(
    shared: &Arc<Shared>,
    stream: std::os::unix::net::UnixStream,
) -> io::Result<()> {
    stream.set_nonblocking(false)?;
    stream.set_write_timeout(Some(WRITE_STALL))?;
    let reader = stream.try_clone()?;
    reader.set_read_timeout(Some(READ_POLL))?;
    let kill = stream.try_clone()?;
    spawn_connection(
        shared,
        reader,
        stream,
        Box::new(move || {
            let _ = kill.shutdown(std::net::Shutdown::Both);
        }),
    );
    Ok(())
}

/// What the reader hands the writer, in submission order.
enum WriteItem {
    /// A frame ready to go (metrics responses, rejection errors).
    Frame(Frame),
    /// An in-flight ticket: the writer waits it out, then writes the
    /// response (or the execution error) under the request's id.
    Ticket {
        request_id: u64,
        counters: Arc<TenantCounters>,
        ticket: NormTicket,
    },
}

/// Wire up one accepted connection: a bounded in-order channel, a writer
/// thread draining it, a reader thread feeding it. `kill` force-closes
/// the transport (shutdown's last resort against a stalled peer); it is
/// registered for the connection's lifetime and unregistered — dropping
/// its socket clone — as the connection's last act.
fn spawn_connection<R, W>(shared: &Arc<Shared>, reader: R, writer: W, kill: KillSwitch)
where
    R: Read + Send + 'static,
    W: Write + Send + 'static,
{
    shared
        .metrics
        .connections_total
        .fetch_add(1, Ordering::Relaxed);
    shared
        .metrics
        .active_connections
        .fetch_add(1, Ordering::Relaxed);
    let connection_id = shared
        .next_connection_id
        .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
    shared.lock_kills().insert(connection_id, kill);
    let (tx, rx) = mpsc::sync_channel(shared.options.max_inflight_per_connection.max(1));
    let writer_handle = std::thread::spawn(move || {
        let mut writer = BufWriter::new(writer);
        connection_writer(&mut writer, rx);
    });
    let reader_shared = Arc::clone(shared);
    let handle = std::thread::spawn(move || {
        let mut reader = reader;
        connection_reader(&reader_shared, &mut reader, tx);
        // Dropping `tx` (done by connection_reader returning) lets the
        // writer drain its remaining in-order items and exit.
        drop(reader);
        let _ = writer_handle.join();
        // Both socket halves are gone; dropping the kill switch releases
        // the last clone, so the peer sees EOF now, not at shutdown.
        reader_shared.lock_kills().remove(&connection_id);
        reader_shared
            .metrics
            .active_connections
            .fetch_sub(1, Ordering::Relaxed);
    });
    let mut connections = shared.lock_connections();
    // Reap connections that already exited — their threads are done, so
    // the joins are free — before tracking the new one.
    let mut i = 0;
    while i < connections.len() {
        if connections[i].is_finished() {
            let _ = connections.swap_remove(i).join();
        } else {
            i += 1;
        }
    }
    connections.push(handle);
}

/// The reader half: frames in, tickets (or immediate rejections) out.
fn connection_reader<R: Read>(shared: &Shared, reader: &mut R, tx: SyncSender<WriteItem>) {
    loop {
        if shared.shutdown.load(Ordering::SeqCst) {
            return;
        }
        match read_frame_polling(reader, &shared.shutdown) {
            Ok(None) => return,
            Ok(Some(frame)) => {
                if !handle_frame(shared, frame, &tx) {
                    return;
                }
            }
            Err(WireError::Malformed(err)) => {
                // The stream's framing is gone — answer once, then close.
                let _ = tx.send(WriteItem::Frame(Frame::Error(ErrorFrame {
                    request_id: 0,
                    code: ErrorCode::BadRequest,
                    message: err.to_string(),
                })));
                return;
            }
            Err(WireError::Io(_)) => return,
        }
    }
}

/// Dispatch one parsed frame. Returns `false` when the connection should
/// close (a send failing means the writer died; a client sending
/// server-only frames is a protocol violation).
fn handle_frame(shared: &Shared, frame: Frame, tx: &SyncSender<WriteItem>) -> bool {
    match frame {
        Frame::Request(request) => handle_request(shared, request, tx),
        Frame::MetricsRequest => tx
            .send(WriteItem::Frame(Frame::MetricsResponse(
                shared.metrics_text(),
            )))
            .is_ok(),
        Frame::Response(_) | Frame::Error(_) | Frame::MetricsResponse(_) => {
            let _ = tx.send(WriteItem::Frame(Frame::Error(ErrorFrame {
                request_id: 0,
                code: ErrorCode::BadRequest,
                message: "clients may only send request and metrics-request frames".into(),
            })));
            false
        }
    }
}

/// Shape check → admission → `submit_async`, with every refusal mapped
/// to an explicit error frame and a per-tenant counter.
fn handle_request(shared: &Shared, request: RequestFrame, tx: &SyncSender<WriteItem>) -> bool {
    let counters = shared.metrics.tenant(request.tenant);
    counters.requests.fetch_add(1, Ordering::Relaxed);
    counters.record_method(if request.whiten {
        RequestMethod::Whiten
    } else {
        RequestMethod::Norm
    });
    let d = shared.service.d();
    if request.d as usize != d {
        counters.reject(RejectCause::Shape);
        return send_error(
            tx,
            request.request_id,
            ErrorCode::ShapeMismatch,
            format!("request d = {} but this service serves d = {d}", request.d),
        );
    }
    if request.bits.is_empty() || !request.bits.len().is_multiple_of(d) {
        counters.reject(RejectCause::Shape);
        return send_error(
            tx,
            request.request_id,
            ErrorCode::ShapeMismatch,
            format!(
                "payload of {} elements is not a positive whole number of d = {d} rows",
                request.bits.len()
            ),
        );
    }
    let priority = match shared.admission.admit(request.tenant) {
        Decision::RejectQuota => {
            counters.reject(RejectCause::Quota);
            return send_error(
                tx,
                request.request_id,
                ErrorCode::OverQuota,
                format!("tenant {} is over its admission quota", request.tenant),
            );
        }
        // The configured class is an entitlement cap: the wire flag
        // *requests* high priority and is honored only when the tenant's
        // spec grants it. Unknown tenants are capped at normal, so a
        // fresh tenant id can never self-promote past every configured
        // tenant or into the reserved queue-overflow region.
        Decision::Admit(Priority::High) => request.priority,
        Decision::Admit(Priority::Normal) => Priority::Normal,
    };
    let mut norm_request = if request.whiten {
        NormRequest::whiten_group(&request.bits)
    } else {
        NormRequest::bits(&request.bits)
    }
    .with_priority(priority);
    if let Some(key) = request.key {
        norm_request = norm_request.with_key(key);
    }
    match shared.service.submit_async(norm_request) {
        Ok(ticket) => tx
            .send(WriteItem::Ticket {
                request_id: request.request_id,
                counters,
                ticket,
            })
            .is_ok(),
        Err(err) => {
            let (code, cause) = classify(&err);
            counters.reject(cause);
            send_error(tx, request.request_id, code, err.to_string())
        }
    }
}

fn send_error(
    tx: &SyncSender<WriteItem>,
    request_id: u64,
    code: ErrorCode,
    message: String,
) -> bool {
    tx.send(WriteItem::Frame(Frame::Error(ErrorFrame {
        request_id,
        code,
        message,
    })))
    .is_ok()
}

/// Map a service refusal onto its wire code and metrics cause.
fn classify(err: &NormError) -> (ErrorCode, RejectCause) {
    match err {
        NormError::QueueFull { .. } => (ErrorCode::QueueFull, RejectCause::QueueFull),
        NormError::ServiceShutdown => (ErrorCode::ServiceShutdown, RejectCause::Shutdown),
        NormError::EmptyRequest
        | NormError::BatchLengthMismatch { .. }
        | NormError::GroupShapeMismatch { .. }
        | NormError::InputLengthMismatch { .. } => (ErrorCode::ShapeMismatch, RejectCause::Shape),
        _ => (ErrorCode::Internal, RejectCause::Other),
    }
}

/// Identity of an in-flight ticket inside the writer's [`TicketSet`]:
/// its wire sequence (for reordering) and response bookkeeping.
struct InFlight {
    seq: u64,
    request_id: u64,
    counters: Arc<TenantCounters>,
}

/// A finished item parked in the writer's reorder buffer until its wire
/// turn: a ready frame, or a served response whose bits are encoded
/// straight from the service's reply buffer when its turn comes.
enum Finished {
    Frame(Frame),
    Response {
        request_id: u64,
        response: NormResponse,
    },
}

impl Finished {
    /// Encode this item's wire form into the connection's reused buffer.
    fn encode_into(&self, wire: &mut Vec<u8>) {
        match self {
            Finished::Frame(frame) => encode_frame_into(frame, wire),
            Finished::Response {
                request_id,
                response,
            } => encode_response_into(*request_id, response.rows() as u32, response.bits(), wire),
        }
    }
}

/// The writer half, waker-native: every arriving item gets a wire
/// sequence number; tickets go into a [`TicketSet`] and are harvested in
/// **completion order** with [`TicketSet::wait_any`] — a finished
/// response is collected the moment its ticket's waker fires (at once
/// for a ticket that ran inline), never parked behind a
/// slower earlier ticket — while a reorder buffer holds finished frames
/// until their turn so the wire still sees **submission order**.
///
/// The loop blocks on exactly one thing at a time, chosen by what the
/// next wire slot needs: flush it if it is already finished, wait the
/// set if it is an in-flight ticket, otherwise receive the next item.
/// Exits when the channel disconnects (reader done) and the set drains;
/// if the socket dies first (client gone), remaining tickets still
/// drain so their buffers return to the shard pools, they just have
/// nowhere to go. Every frame is encoded into one per-connection buffer,
/// reserved to the frame's exact size and reused for the next.
fn connection_writer<W: Write>(writer: &mut W, rx: Receiver<WriteItem>) {
    let mut socket_dead = false;
    let mut set = TicketSet::new();
    // TicketSet slot -> identity, and which wire sequences are in it.
    let mut in_flight: HashMap<usize, InFlight> = HashMap::new();
    let mut in_flight_seqs: HashSet<u64> = HashSet::new();
    // Finished items parked until their wire turn.
    let mut ready: BTreeMap<u64, Finished> = BTreeMap::new();
    let mut wire = Vec::new();
    let mut next_seq: u64 = 0;
    let mut next_write: u64 = 0;
    let mut disconnected = false;
    loop {
        // Put every finished item that is up next on the wire.
        while let Some(item) = ready.remove(&next_write) {
            next_write += 1;
            if socket_dead {
                continue;
            }
            item.encode_into(&mut wire);
            // A served response's buffer goes back to its shard pool now.
            drop(item);
            if writer
                .write_all(&wire)
                .and_then(|_| writer.flush())
                .is_err()
            {
                // Keep draining tickets (see above), stop writing.
                socket_dead = true;
            }
        }
        // The next wire slot is an in-flight ticket: harvest completions
        // until it lands (one finished out of turn waits, with its reply
        // buffer, in the reorder buffer).
        if in_flight_seqs.contains(&next_write) || (disconnected && !set.is_empty()) {
            let (slot, outcome) = set
                .wait_any()
                .expect("the set holds every in-flight ticket");
            let InFlight {
                seq,
                request_id,
                counters,
            } = in_flight.remove(&slot).expect("every slot was registered");
            in_flight_seqs.remove(&seq);
            ready.insert(seq, finished_frame(request_id, &counters, outcome));
            continue;
        }
        if disconnected {
            // Channel closed, set drained, reorder buffer flushed: done.
            debug_assert!(ready.is_empty() && in_flight.is_empty());
            return;
        }
        match rx.recv() {
            Ok(WriteItem::Frame(frame)) => {
                ready.insert(next_seq, Finished::Frame(frame));
                next_seq += 1;
            }
            Ok(WriteItem::Ticket {
                request_id,
                counters,
                ticket,
            }) => {
                let slot = set.insert(ticket);
                in_flight.insert(
                    slot,
                    InFlight {
                        seq: next_seq,
                        request_id,
                        counters,
                    },
                );
                in_flight_seqs.insert(next_seq);
                next_seq += 1;
            }
            Err(_) => disconnected = true,
        }
    }
}

/// Turn a harvested ticket outcome into its wire item, counting it.
fn finished_frame(
    request_id: u64,
    counters: &TenantCounters,
    outcome: Result<NormResponse, NormError>,
) -> Finished {
    match outcome {
        Ok(response) => {
            counters.completed.fetch_add(1, Ordering::Relaxed);
            counters
                .rows
                .fetch_add(response.rows() as u64, Ordering::Relaxed);
            Finished::Response {
                request_id,
                response,
            }
        }
        Err(err) => {
            let (code, cause) = classify(&err);
            counters.reject(cause);
            Finished::Frame(Frame::Error(ErrorFrame {
                request_id,
                code,
                message: err.to_string(),
            }))
        }
    }
}

/// [`crate::protocol::read_frame`] with shutdown polling: the socket has
/// a read timeout, and every timeout tick re-checks the flag. Partial
/// reads are preserved across ticks, so a frame arriving slowly is never
/// corrupted — the loop resumes exactly where the bytes stopped.
fn read_frame_polling(
    reader: &mut impl Read,
    shutdown: &AtomicBool,
) -> Result<Option<Frame>, WireError> {
    let mut prefix = [0u8; 4];
    if !fill_polling(reader, shutdown, &mut prefix, true)? {
        return Ok(None);
    }
    let len = u32::from_be_bytes(prefix) as usize;
    if len > MAX_FRAME_BYTES {
        return Err(FrameError::Oversized {
            len,
            cap: MAX_FRAME_BYTES,
        }
        .into());
    }
    let mut body = vec![0u8; len];
    if !fill_polling(reader, shutdown, &mut body, false)? {
        return Ok(None);
    }
    decode_body(&body).map(Some).map_err(WireError::from)
}

/// Fill `buf` completely, tolerating read-timeout polls. Returns
/// `Ok(false)` for a clean stop: end of stream before the first byte
/// (when `eof_ok_at_start`), shutdown observed while no byte of `buf`
/// has arrived yet, or shutdown observed mid-buffer once the grace of
/// [`SHUTDOWN_MIDFRAME_GRACE_TICKS`] idle ticks runs out — an in-flight
/// frame from a live peer gets a moment to complete, a stalled peer
/// cannot pin the reader past the grace.
fn fill_polling(
    reader: &mut impl Read,
    shutdown: &AtomicBool,
    buf: &mut [u8],
    eof_ok_at_start: bool,
) -> Result<bool, WireError> {
    let mut filled = 0usize;
    let mut shutdown_ticks = 0u32;
    while filled < buf.len() {
        match reader.read(&mut buf[filled..]) {
            Ok(0) if filled == 0 && eof_ok_at_start => return Ok(false),
            Ok(0) => {
                return Err(FrameError::Truncated {
                    needed: buf.len(),
                    got: filled,
                }
                .into())
            }
            Ok(n) => filled += n,
            Err(e)
                if e.kind() == io::ErrorKind::WouldBlock || e.kind() == io::ErrorKind::TimedOut =>
            {
                if shutdown.load(Ordering::SeqCst) {
                    if filled == 0 {
                        return Ok(false);
                    }
                    shutdown_ticks += 1;
                    if shutdown_ticks > SHUTDOWN_MIDFRAME_GRACE_TICKS {
                        return Ok(false);
                    }
                }
            }
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(e.into()),
        }
    }
    Ok(true)
}
