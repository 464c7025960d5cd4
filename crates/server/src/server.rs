//! The threaded TCP server: one accept loop, one thread per connection,
//! all multiplexed over one shared [`Cohana`] catalog (and therefore one
//! shared chunk-column cache).
//!
//! Concurrency model — thread-per-connection on purpose: the engine's own
//! parallelism lives *inside* a query (chunk-parallel workers), so the
//! serving layer only needs enough threads to keep admitted queries moving,
//! and [`Admission`] caps how many of those decode at once.
//!
//! An execution folds each chunk's batch into the statement's
//! [`BatchMerger`](cohana_core::BatchMerger) as the stream yields it — the
//! fold `QueryStream::collect` does in process — and sends the merged
//! result once the stream completes: one BATCH frame (more only past
//! [`MAX_FRAME`](proto::MAX_FRAME)), then STATS, so each `(cohort, age)`
//! cell crosses the wire once. Before each fold the connection is polled:
//! a CANCEL or a disconnect drops the `QueryStream`, which stops chunk
//! decode at the next chunk boundary. Backpressure is the TCP send buffer,
//! and it applies only to the final frames: the scan never waits on the
//! client, and the admission permit is released before the result is
//! written, so a slow client blocks only its own connection thread — other
//! tenants' queries never wait on it.

use crate::admission::{Admission, AdmissionStats, AdmitError, Permit};
use crate::protocol::{self as proto, PreparedInfo};
use crate::registry::{TenantRegistry, TenantStats};
use cohana_core::{Cohana, EngineError, QueryStats, Statement};
use cohana_sql::parse_cohort_query;
use std::collections::HashMap;
use std::io::{self, Read};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// How the server is bound and gated.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Listen address (`127.0.0.1:0` picks a free port).
    pub addr: String,
    /// Queries allowed to execute concurrently.
    pub admission_cap: usize,
    /// Queries allowed to wait for a slot before new ones are refused.
    pub queue_bound: usize,
    /// Free-text banner sent in the HELLO response.
    pub banner: String,
    /// How long [`Server::shutdown`] waits for in-flight connections to
    /// drain before force-closing their sockets.
    pub drain_timeout: Duration,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            addr: "127.0.0.1:0".into(),
            admission_cap: 4,
            queue_bound: 64,
            banner: "cohana-serve".into(),
            drain_timeout: Duration::from_secs(10),
        }
    }
}

/// State shared by the accept loop and every connection thread.
struct Shared {
    engine: Arc<Cohana>,
    admission: Arc<Admission>,
    tenants: TenantRegistry,
    shutdown: AtomicBool,
    banner: String,
}

struct ConnSlot {
    handle: JoinHandle<()>,
    /// A clone of the connection's stream, so shutdown can force-close it
    /// (unblocking a reader or a backpressured writer) past the drain
    /// deadline.
    stream: TcpStream,
}

/// A running server. Dropping it (or calling [`Server::shutdown`]) stops
/// accepting, drains in-flight queries, and joins every thread.
pub struct Server {
    shared: Arc<Shared>,
    local_addr: SocketAddr,
    accept: Option<JoinHandle<()>>,
    conns: Arc<Mutex<Vec<ConnSlot>>>,
    drain_timeout: Duration,
}

impl Server {
    /// Bind and start serving `engine` in background threads.
    pub fn start(engine: Arc<Cohana>, config: ServerConfig) -> io::Result<Server> {
        let listener = TcpListener::bind(&config.addr)?;
        listener.set_nonblocking(true)?;
        let local_addr = listener.local_addr()?;
        let shared = Arc::new(Shared {
            engine,
            admission: Arc::new(Admission::new(config.admission_cap, config.queue_bound)),
            tenants: TenantRegistry::new(),
            shutdown: AtomicBool::new(false),
            banner: config.banner,
        });
        let conns: Arc<Mutex<Vec<ConnSlot>>> = Arc::new(Mutex::new(Vec::new()));
        let accept = {
            let shared = shared.clone();
            let conns = conns.clone();
            std::thread::spawn(move || accept_loop(listener, shared, conns))
        };
        Ok(Server {
            shared,
            local_addr,
            accept: Some(accept),
            conns,
            drain_timeout: config.drain_timeout,
        })
    }

    /// The bound address (with the actual port when `:0` was requested).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// Current admission counters and high-water marks.
    pub fn admission_stats(&self) -> AdmissionStats {
        self.shared.admission.stats()
    }

    /// One tenant's cumulative accounting.
    pub fn tenant_stats(&self, tenant: &str) -> TenantStats {
        self.shared.tenants.snapshot(tenant)
    }

    /// Graceful shutdown: stop accepting connections and admitting queries,
    /// let in-flight queries stream to completion, then join every
    /// connection thread. Connections still alive after the drain timeout
    /// get their sockets force-closed (which unblocks any reader or
    /// backpressured writer) and are then joined.
    pub fn shutdown(&mut self) {
        self.shared.shutdown.store(true, Ordering::SeqCst);
        self.shared.admission.shutdown();
        if let Some(handle) = self.accept.take() {
            let _ = handle.join();
        }
        let deadline = Instant::now() + self.drain_timeout;
        loop {
            let mut conns = self.conns.lock().expect("conn registry poisoned");
            conns.retain(|slot| !slot.handle.is_finished());
            if conns.is_empty() {
                return;
            }
            if Instant::now() >= deadline {
                // Force-close the stragglers' sockets, then join for real.
                let stragglers: Vec<ConnSlot> = conns.drain(..).collect();
                drop(conns);
                for slot in &stragglers {
                    let _ = slot.stream.shutdown(std::net::Shutdown::Both);
                }
                for slot in stragglers {
                    let _ = slot.handle.join();
                }
                return;
            }
            drop(conns);
            std::thread::sleep(Duration::from_millis(5));
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.shutdown();
    }
}

fn accept_loop(listener: TcpListener, shared: Arc<Shared>, conns: Arc<Mutex<Vec<ConnSlot>>>) {
    loop {
        if shared.shutdown.load(Ordering::SeqCst) {
            return;
        }
        match listener.accept() {
            Ok((mut stream, _peer)) => {
                let _ = stream.set_nodelay(true);
                // The per-frame read timeout is the shutdown poll interval.
                let _ = stream.set_read_timeout(Some(Duration::from_millis(50)));
                let clone = match stream.try_clone() {
                    Ok(c) => c,
                    Err(_) => continue,
                };
                let shared = shared.clone();
                let handle = std::thread::spawn(move || {
                    serve_conn(shared, &mut stream);
                    // The registry holds a clone of this stream, so merely
                    // dropping ours would leave the socket open (no FIN);
                    // shut the underlying fd down explicitly.
                    let _ = stream.shutdown(std::net::Shutdown::Both);
                });
                let mut conns = conns.lock().expect("conn registry poisoned");
                conns.retain(|slot| !slot.handle.is_finished());
                conns.push(ConnSlot { handle, stream: clone });
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(5));
            }
            Err(_) => std::thread::sleep(Duration::from_millis(5)),
        }
    }
}

/// What the connection reader saw.
enum Event {
    Frame(u8, Vec<u8>),
    /// Peer went away (clean EOF or connection error).
    Disconnect,
    /// Peer announced a payload over [`proto::MAX_FRAME`].
    TooLarge,
    /// Server is shutting down and the connection is idle between frames.
    ShutdownIdle,
}

fn is_timeout(e: &io::Error) -> bool {
    matches!(e.kind(), io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut)
}

/// Read one frame, polling the shutdown flag while idle *between* frames.
/// A frame whose header has started is always read to completion (the
/// drain-deadline force-close breaks truly stuck peers).
fn next_event(stream: &mut TcpStream, shutdown: &AtomicBool) -> Event {
    let mut header = [0u8; 5];
    let mut pos = 0;
    while pos < header.len() {
        match stream.read(&mut header[pos..]) {
            Ok(0) => return Event::Disconnect,
            Ok(n) => pos += n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e) if is_timeout(&e) => {
                if pos == 0 && shutdown.load(Ordering::SeqCst) {
                    return Event::ShutdownIdle;
                }
            }
            Err(_) => return Event::Disconnect,
        }
    }
    let len = u32::from_le_bytes(header[..4].try_into().unwrap());
    if len > proto::MAX_FRAME {
        return Event::TooLarge;
    }
    let mut payload = vec![0u8; len as usize];
    let mut pos = 0;
    while pos < payload.len() {
        match stream.read(&mut payload[pos..]) {
            Ok(0) => return Event::Disconnect,
            Ok(n) => pos += n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted || is_timeout(&e) => continue,
            Err(_) => return Event::Disconnect,
        }
    }
    Event::Frame(header[4], payload)
}

/// Mid-stream poll for a client frame between BATCH writes, without
/// blocking the stream when the client sent nothing.
enum CancelPoll {
    Quiet,
    Cancelled,
    Disconnected,
    ProtocolViolation,
}

fn poll_cancel(stream: &mut TcpStream) -> CancelPoll {
    if stream.set_nonblocking(true).is_err() {
        return CancelPoll::Disconnected;
    }
    let mut header = [0u8; 5];
    let first = stream.read(&mut header);
    if stream.set_nonblocking(false).is_err() {
        return CancelPoll::Disconnected;
    }
    let mut pos = match first {
        Ok(0) => return CancelPoll::Disconnected,
        Ok(n) => n,
        Err(e) if is_timeout(&e) => return CancelPoll::Quiet,
        Err(e) if e.kind() == io::ErrorKind::Interrupted => 0,
        Err(_) => return CancelPoll::Disconnected,
    };
    // The client committed to a frame: finish reading it (blocking, with
    // the standing read timeout retried).
    while pos < header.len() {
        match stream.read(&mut header[pos..]) {
            Ok(0) => return CancelPoll::Disconnected,
            Ok(n) => pos += n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted || is_timeout(&e) => continue,
            Err(_) => return CancelPoll::Disconnected,
        }
    }
    let len = u32::from_le_bytes(header[..4].try_into().unwrap());
    if len > proto::MAX_FRAME {
        return CancelPoll::ProtocolViolation;
    }
    let mut payload = vec![0u8; len as usize];
    let mut pos = 0;
    while pos < payload.len() {
        match stream.read(&mut payload[pos..]) {
            Ok(0) => return CancelPoll::Disconnected,
            Ok(n) => pos += n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted || is_timeout(&e) => continue,
            Err(_) => return CancelPoll::Disconnected,
        }
    }
    // CANCEL is the only frame a client may send mid-stream.
    if header[4] == proto::FRAME_CANCEL {
        CancelPoll::Cancelled
    } else {
        CancelPoll::ProtocolViolation
    }
}

fn send_error(stream: &mut TcpStream, code: u16, message: &str) -> io::Result<()> {
    proto::write_frame(stream, proto::FRAME_ERROR, &proto::encode_error(code, message))
}

fn send_engine_error(stream: &mut TcpStream, e: &EngineError) -> io::Result<()> {
    send_error(stream, proto::engine_error_code(e), &e.to_string())
}

/// Per-field difference of two cumulative snapshots — this execution's
/// share of the statement's lifetime counters. Exact because the statement
/// is connection-local and the connection runs one query at a time.
fn stats_delta(after: &QueryStats, before: &QueryStats) -> QueryStats {
    QueryStats {
        chunks_total: after.chunks_total - before.chunks_total,
        chunks_pruned: after.chunks_pruned - before.chunks_pruned,
        chunks_scanned: after.chunks_scanned - before.chunks_scanned,
        rows_scanned: after.rows_scanned - before.rows_scanned,
        chunks_decoded: after.chunks_decoded - before.chunks_decoded,
        columns_decoded: after.columns_decoded - before.columns_decoded,
        bytes_read: after.bytes_read - before.bytes_read,
        bytes_decompressed: after.bytes_decompressed - before.bytes_decompressed,
        cache_evictions: after.cache_evictions - before.cache_evictions,
        batches: after.batches - before.batches,
        morsels_executed: after.morsels_executed - before.morsels_executed,
        worker_busy_ns: after.worker_busy_ns - before.worker_busy_ns,
        wall_time: after.wall_time - before.wall_time,
    }
}

fn serve_conn(shared: Arc<Shared>, stream: &mut TcpStream) {
    // Handshake: HELLO must come first.
    let tenant = match next_event(stream, &shared.shutdown) {
        Event::Frame(proto::FRAME_HELLO, payload) => match proto::decode_hello(&payload) {
            Ok((version, _)) if version != proto::PROTOCOL_VERSION => {
                let _ = send_error(
                    stream,
                    proto::ERR_PROTOCOL,
                    &format!("protocol version {version} != {}", proto::PROTOCOL_VERSION),
                );
                return;
            }
            Ok((_, tenant)) => tenant,
            Err(_) => {
                let _ = send_error(stream, proto::ERR_PROTOCOL, "malformed HELLO");
                return;
            }
        },
        Event::Frame(..) => {
            let _ = send_error(stream, proto::ERR_PROTOCOL, "expected HELLO first");
            return;
        }
        Event::TooLarge => {
            let _ = send_error(stream, proto::ERR_TOO_LARGE, "oversized HELLO");
            return;
        }
        Event::ShutdownIdle => {
            let _ = send_error(stream, proto::ERR_SHUTTING_DOWN, "server shutting down");
            return;
        }
        Event::Disconnect => return,
    };
    let default_table = shared.engine.default_table_name().unwrap_or_default();
    if proto::write_frame(
        stream,
        proto::FRAME_HELLO,
        &proto::encode_hello_ok(&shared.banner, &default_table),
    )
    .is_err()
    {
        return;
    }

    let session = shared.engine.session();
    let mut statements: HashMap<u64, Statement> = HashMap::new();
    let mut next_stmt_id: u64 = 1;
    // Every BATCH frame of this connection is encoded into this one buffer.
    let mut frame_buf = Vec::new();

    loop {
        match next_event(stream, &shared.shutdown) {
            Event::Frame(proto::FRAME_PREPARE, payload) => {
                let sql = match proto::decode_prepare(&payload) {
                    Ok(sql) => sql,
                    Err(_) => {
                        let _ = send_error(stream, proto::ERR_PROTOCOL, "malformed PREPARE");
                        return;
                    }
                };
                // Parse SQL server-side, then prepare through the typed
                // session API so engine failures keep their variant (the
                // SQL crate's combined path stringifies them).
                let schema = match session.schema() {
                    Ok(s) => s,
                    Err(e) => {
                        if send_engine_error(stream, &e).is_err() {
                            return;
                        }
                        continue;
                    }
                };
                let query = match parse_cohort_query(&sql, &schema) {
                    Ok(q) => q,
                    Err(e) => {
                        if send_error(stream, proto::ERR_SQL, &e.to_string()).is_err() {
                            return;
                        }
                        continue;
                    }
                };
                let stmt = match session.prepare(&query) {
                    Ok(s) => s,
                    Err(e) => {
                        if send_engine_error(stream, &e).is_err() {
                            return;
                        }
                        continue;
                    }
                };
                let info = PreparedInfo {
                    stmt_id: next_stmt_id,
                    cohort_attrs: query.cohort_by.iter().map(|c| c.to_string()).collect(),
                    agg_names: query.aggregates.iter().map(|a| a.header()).collect(),
                    explain: stmt.explain(),
                };
                next_stmt_id += 1;
                let reply = proto::encode_prepared(&info);
                statements.insert(info.stmt_id, stmt);
                if proto::write_frame(stream, proto::FRAME_PREPARE, &reply).is_err() {
                    return;
                }
            }
            Event::Frame(proto::FRAME_EXECUTE, payload) => {
                let stmt_id = match proto::decode_execute(&payload) {
                    Ok(id) => id,
                    Err(_) => {
                        let _ = send_error(stream, proto::ERR_PROTOCOL, "malformed EXECUTE");
                        return;
                    }
                };
                let Some(stmt) = statements.get(&stmt_id) else {
                    if send_error(
                        stream,
                        proto::ERR_UNKNOWN_STATEMENT,
                        &format!("unknown statement id {stmt_id}"),
                    )
                    .is_err()
                    {
                        return;
                    }
                    continue;
                };
                let permit = match shared.admission.admit() {
                    Ok(p) => p,
                    Err(AdmitError::QueueFull) => {
                        if send_error(stream, proto::ERR_QUEUE_FULL, "admission queue full")
                            .is_err()
                        {
                            return;
                        }
                        continue;
                    }
                    Err(AdmitError::ShuttingDown) => {
                        if send_error(stream, proto::ERR_SHUTTING_DOWN, "server shutting down")
                            .is_err()
                        {
                            return;
                        }
                        continue;
                    }
                };
                let keep_going = run_query(&shared, stream, &tenant, stmt, permit, &mut frame_buf);
                if !keep_going {
                    return;
                }
            }
            Event::Frame(proto::FRAME_STATS, payload) => {
                if !payload.is_empty() {
                    let _ = send_error(stream, proto::ERR_PROTOCOL, "malformed STATS");
                    return;
                }
                let tenant_stats = shared.tenants.snapshot(&tenant);
                let reply = proto::encode_server_stats(&proto::ServerStats {
                    queries: tenant_stats.queries,
                    stats: tenant_stats.stats,
                    admission: shared.admission.stats(),
                });
                if proto::write_frame(stream, proto::FRAME_STATS, &reply).is_err() {
                    return;
                }
            }
            // A CANCEL arriving between queries raced a stream that already
            // ended; it is not an error and gets no reply.
            Event::Frame(proto::FRAME_CANCEL, _) => {}
            Event::Frame(ty, _) => {
                let _ =
                    send_error(stream, proto::ERR_PROTOCOL, &format!("unexpected frame type {ty}"));
                return;
            }
            Event::TooLarge => {
                let _ = send_error(stream, proto::ERR_TOO_LARGE, "frame exceeds limit");
                return;
            }
            Event::ShutdownIdle => {
                let _ = send_error(stream, proto::ERR_SHUTTING_DOWN, "server shutting down");
                return;
            }
            Event::Disconnect => return,
        }
    }
}

/// Run one admitted execution: fold each batch into the statement's merger
/// as the stream yields it, polling for CANCEL or a disconnect before each
/// fold, then send the merged result as BATCH frames and the STATS
/// terminator. Returns `false` when the connection must close (disconnect
/// or protocol violation).
fn run_query(
    shared: &Shared,
    stream: &mut TcpStream,
    tenant: &str,
    stmt: &Statement,
    permit: Permit,
    frame_buf: &mut Vec<u8>,
) -> bool {
    enum Outcome {
        Completed,
        Cancelled,
        Disconnected,
        ProtocolViolation,
        Failed,
    }
    let before = stmt.cumulative_stats();
    let mut outcome = Outcome::Completed;
    let mut merged = stmt.merger();
    {
        let mut qstream = stmt.stream();
        for batch in &mut qstream {
            match poll_cancel(stream) {
                CancelPoll::Quiet => {}
                CancelPoll::Cancelled => {
                    outcome = Outcome::Cancelled;
                    break;
                }
                CancelPoll::Disconnected => {
                    outcome = Outcome::Disconnected;
                    break;
                }
                CancelPoll::ProtocolViolation => {
                    outcome = Outcome::ProtocolViolation;
                    break;
                }
            }
            match batch {
                Ok(b) => merged.absorb(&b),
                Err(e) => {
                    if send_engine_error(stream, &e).is_err() {
                        outcome = Outcome::Disconnected;
                    } else {
                        outcome = Outcome::Failed;
                    }
                    break;
                }
            }
        }
        // Dropping the stream here cancels any remaining chunk decode and
        // folds this execution's stats into the statement's lifetime
        // counters (joining parallel workers first, so the delta below is
        // complete).
    }
    let exec_stats = stats_delta(&stmt.cumulative_stats(), &before);
    shared.tenants.record(tenant, &exec_stats);
    let queue_wait = permit.queue_wait();
    drop(permit);
    match outcome {
        Outcome::Completed => {
            match proto::write_batch_frames(
                stream,
                frame_buf,
                &merged.wire_batch(),
                proto::MAX_FRAME,
            ) {
                Ok(_) => {}
                Err(e) if e.kind() == io::ErrorKind::InvalidInput => {
                    let message = "a result cohort exceeds the frame limit";
                    return send_error(stream, proto::ERR_TOO_LARGE, message).is_ok();
                }
                Err(_) => return false,
            }
            proto::write_frame(
                stream,
                proto::FRAME_STATS,
                &proto::encode_exec_stats(&proto::ExecStats { stats: exec_stats, queue_wait }),
            )
            .is_ok()
        }
        Outcome::Cancelled => send_error(stream, proto::ERR_CANCELLED, "query cancelled").is_ok(),
        Outcome::Failed => true,
        Outcome::Disconnected => false,
        Outcome::ProtocolViolation => {
            let _ = send_error(stream, proto::ERR_PROTOCOL, "unexpected frame during stream");
            false
        }
    }
}
