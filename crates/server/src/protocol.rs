//! The length-prefixed binary protocol `cohana-serve` speaks.
//!
//! Every frame is `u32 payload length (LE) | u8 frame type | payload`;
//! payloads use the little-endian codec of [`cohana_core::wire`]. A peer
//! that sends a payload longer than [`MAX_FRAME`] is refused with
//! [`ERR_TOO_LARGE`] and disconnected; a frame that fails to decode is a
//! protocol violation ([`ERR_PROTOCOL`]) that closes only that connection.
//! See `docs/PROTOCOL.md` for the full exchange rules.

use cohana_core::wire::{decode_query_stats, encode_query_stats};
use cohana_core::{EngineError, QueryStats, WireBatch};
use cohana_storage::{Reader, Writer};
use std::io::{self, Read, Write};
use std::ops::Range;
use std::time::Duration;

/// Protocol version sent (and required to match) in the HELLO handshake.
pub const PROTOCOL_VERSION: u32 = 2;

/// Largest accepted frame payload (64 MiB).
pub const MAX_FRAME: u32 = 64 << 20;

/// Client → server greeting; must be the first frame on a connection.
pub const FRAME_HELLO: u8 = 1;
/// Client → server: parse + plan a SQL cohort query. Response carries the
/// statement id and the result headers.
pub const FRAME_PREPARE: u8 = 2;
/// Client → server: execute a prepared statement. Once the scan completes
/// the server sends the result's BATCH frame(s), then one STATS frame.
pub const FRAME_EXECUTE: u8 = 3;
/// Server → client: an execution's merged result, one [`WireBatch`] — or
/// a run of its cohorts, when the whole would exceed [`MAX_FRAME`] (see
/// [`write_batch_frames`]).
pub const FRAME_BATCH: u8 = 4;
/// Stats. As the EXECUTE terminator (server → client) the payload is
/// [`encode_exec_stats`]; as a standalone request/response pair the request
/// payload is empty and the response is [`encode_server_stats`].
pub const FRAME_STATS: u8 = 5;
/// Server → client: a typed error (stable numeric code + human message).
pub const FRAME_ERROR: u8 = 6;
/// Client → server, only during an EXECUTE stream: stop the query. The
/// server abandons the stream and answers ERROR [`ERR_CANCELLED`].
pub const FRAME_CANCEL: u8 = 7;

// Engine error codes (1:1 with `EngineError` variants) — stable: clients
// match on these numbers, never on rendered messages.
/// [`EngineError::UnknownAttribute`]
pub const ERR_UNKNOWN_ATTRIBUTE: u16 = 1;
/// [`EngineError::UnknownTable`]
pub const ERR_UNKNOWN_TABLE: u16 = 2;
/// [`EngineError::TypeError`]
pub const ERR_TYPE: u16 = 3;
/// [`EngineError::InvalidQuery`]
pub const ERR_INVALID_QUERY: u16 = 4;
/// [`EngineError::Storage`]
pub const ERR_STORAGE: u16 = 5;
/// [`EngineError::Corrupt`]
pub const ERR_CORRUPT: u16 = 6;
/// [`EngineError::Activity`]
pub const ERR_ACTIVITY: u16 = 7;
/// [`EngineError::Unsupported`]
pub const ERR_UNSUPPORTED: u16 = 8;

// Protocol/server error codes.
/// Malformed frame or out-of-order exchange; the connection is closed.
pub const ERR_PROTOCOL: u16 = 100;
/// A client's frame payload exceeds [`MAX_FRAME`] (the connection is
/// closed), or one cohort of a result does (the query fails, the connection
/// stays usable).
pub const ERR_TOO_LARGE: u16 = 101;
/// EXECUTE named a statement id this connection never prepared.
pub const ERR_UNKNOWN_STATEMENT: u16 = 102;
/// The query was cancelled by a CANCEL frame.
pub const ERR_CANCELLED: u16 = 103;
/// The server is shutting down and accepts no new queries.
pub const ERR_SHUTTING_DOWN: u16 = 104;
/// The admission wait queue is full; retry later.
pub const ERR_QUEUE_FULL: u16 = 105;
/// The SQL text failed to lex, parse, or translate.
pub const ERR_SQL: u16 = 106;

/// The stable wire code of a typed [`EngineError`].
pub fn engine_error_code(e: &EngineError) -> u16 {
    match e {
        EngineError::UnknownAttribute(_) => ERR_UNKNOWN_ATTRIBUTE,
        EngineError::UnknownTable(_) => ERR_UNKNOWN_TABLE,
        EngineError::TypeError(_) => ERR_TYPE,
        EngineError::InvalidQuery(_) => ERR_INVALID_QUERY,
        EngineError::Storage(_) => ERR_STORAGE,
        EngineError::Corrupt(_) => ERR_CORRUPT,
        EngineError::Activity(_) => ERR_ACTIVITY,
        EngineError::Unsupported(_) => ERR_UNSUPPORTED,
    }
}

/// Bytes of the frame header: payload length and frame type.
const HEADER_LEN: usize = 5;

/// Write one frame (header + payload) and flush.
pub fn write_frame(w: &mut impl Write, frame_type: u8, payload: &[u8]) -> io::Result<()> {
    let mut buf = Vec::with_capacity(HEADER_LEN + payload.len());
    write_frame_with(w, frame_type, &mut buf, |out| out.extend_from_slice(payload))
}

/// Write one frame whose payload `fill` appends to `buf`, and flush. `buf`
/// is scratch the caller keeps across frames; header and payload leave it in
/// **one** write, so a `TCP_NODELAY` socket sends no 5-byte header segment
/// ahead of the payload. A payload over [`MAX_FRAME`], which the peer would
/// refuse, is not sent: the call fails with [`io::ErrorKind::InvalidInput`].
pub fn write_frame_with(
    w: &mut impl Write,
    frame_type: u8,
    buf: &mut Vec<u8>,
    fill: impl FnOnce(&mut Vec<u8>),
) -> io::Result<()> {
    if try_write_frame(w, frame_type, buf, MAX_FRAME, fill)? {
        Ok(())
    } else {
        Err(too_large())
    }
}

fn too_large() -> io::Error {
    io::Error::new(io::ErrorKind::InvalidInput, "frame payload over the frame limit")
}

/// [`write_frame_with`] against a limit of `max_frame` payload bytes:
/// `false`, with nothing written, when the payload is over it.
fn try_write_frame(
    w: &mut impl Write,
    frame_type: u8,
    buf: &mut Vec<u8>,
    max_frame: u32,
    fill: impl FnOnce(&mut Vec<u8>),
) -> io::Result<bool> {
    buf.clear();
    buf.resize(HEADER_LEN, 0);
    fill(buf);
    let len = match u32::try_from(buf.len() - HEADER_LEN) {
        Ok(len) if len <= max_frame => len,
        _ => return Ok(false),
    };
    // Once the length is known the header is written after the payload,
    // then moved into the slot kept for it in front.
    let end = buf.len();
    buf.u32(len);
    buf.u8(frame_type);
    buf.copy_within(end.., 0);
    buf.truncate(end);
    w.write_all(buf)?;
    w.flush()?;
    Ok(true)
}

/// Write `batch` as BATCH frames of at most `max_frame` payload bytes each
/// (the server passes [`MAX_FRAME`]) and return how many were sent: one
/// frame when the whole batch fits, else its cohorts halved until every
/// consecutive run fits. Each frame is a self-contained batch of a disjoint
/// run of cohorts, in ascending key order, so a client merges them like any
/// batches; the first states the batch's counts and the rest state 0 rows
/// and morsels. A batch with no cohorts sends nothing. A single cohort
/// whose cells alone are over the limit fails the call with
/// [`io::ErrorKind::InvalidInput`] after the runs before it were sent.
pub fn write_batch_frames(
    w: &mut impl Write,
    buf: &mut Vec<u8>,
    batch: &WireBatch,
    max_frame: u32,
) -> io::Result<usize> {
    fn run(
        w: &mut impl Write,
        buf: &mut Vec<u8>,
        batch: &WireBatch,
        cohorts: Range<usize>,
        max_frame: u32,
    ) -> io::Result<usize> {
        if try_write_frame(w, FRAME_BATCH, buf, max_frame, |out| {
            batch.encode_cohorts_into(cohorts.clone(), out)
        })? {
            return Ok(1);
        }
        if cohorts.len() < 2 {
            return Err(too_large());
        }
        let mid = cohorts.start + cohorts.len() / 2;
        Ok(run(w, buf, batch, cohorts.start..mid, max_frame)?
            + run(w, buf, batch, mid..cohorts.end, max_frame)?)
    }
    match batch.num_cohorts() {
        0 => Ok(0),
        n => run(w, buf, batch, 0..n, max_frame),
    }
}

/// Outcome of a blocking frame read.
#[derive(Debug)]
pub enum ReadFrame {
    /// A complete frame.
    Frame(u8, Vec<u8>),
    /// Clean EOF at a frame boundary.
    Eof,
    /// The peer announced a payload longer than [`MAX_FRAME`].
    TooLarge(u32),
}

/// Read one frame, blocking. EOF before the first header byte is a clean
/// [`ReadFrame::Eof`]; EOF mid-frame is an [`io::Error`].
pub fn read_frame(r: &mut impl Read, max_frame: u32) -> io::Result<ReadFrame> {
    let mut header = [0u8; 5];
    let mut pos = 0;
    while pos < header.len() {
        match r.read(&mut header[pos..]) {
            Ok(0) if pos == 0 => return Ok(ReadFrame::Eof),
            Ok(0) => return Err(io::ErrorKind::UnexpectedEof.into()),
            Ok(n) => pos += n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(e),
        }
    }
    let len = u32::from_le_bytes(header[..4].try_into().unwrap());
    if len > max_frame {
        return Ok(ReadFrame::TooLarge(len));
    }
    let mut payload = vec![0u8; len as usize];
    r.read_exact(&mut payload)?;
    Ok(ReadFrame::Frame(header[4], payload))
}

/// HELLO request payload.
pub fn encode_hello(tenant: &str) -> Vec<u8> {
    let mut w = Vec::new();
    w.u32(PROTOCOL_VERSION);
    w.str(tenant);
    w
}

/// Parse a HELLO request: `(version, tenant)`.
pub fn decode_hello(payload: &[u8]) -> Result<(u32, String), EngineError> {
    let mut r = Reader::new(payload);
    let version = r.u32()?;
    let tenant = r.str()?.to_string();
    r.finish()?;
    Ok((version, tenant))
}

/// HELLO response payload.
pub fn encode_hello_ok(banner: &str, default_table: &str) -> Vec<u8> {
    let mut w = Vec::new();
    w.u32(PROTOCOL_VERSION);
    w.str(banner);
    w.str(default_table);
    w
}

/// Parse a HELLO response: `(version, banner, default_table)`.
pub fn decode_hello_ok(payload: &[u8]) -> Result<(u32, String, String), EngineError> {
    let mut r = Reader::new(payload);
    let version = r.u32()?;
    let banner = r.str()?.to_string();
    let table = r.str()?.to_string();
    r.finish()?;
    Ok((version, banner, table))
}

/// PREPARE request payload.
pub fn encode_prepare(sql: &str) -> Vec<u8> {
    let mut w = Vec::new();
    w.str(sql);
    w
}

/// Parse a PREPARE request: the SQL text.
pub fn decode_prepare(payload: &[u8]) -> Result<String, EngineError> {
    let mut r = Reader::new(payload);
    let sql = r.str()?.to_string();
    r.finish()?;
    Ok(sql)
}

/// What PREPARE returns: enough to execute remotely and to assemble the
/// report client-side without the table's metadata.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PreparedInfo {
    /// Server-assigned statement id, scoped to this connection.
    pub stmt_id: u64,
    /// Header names of the cohort attributes.
    pub cohort_attrs: Vec<String>,
    /// Header names of the aggregates.
    pub agg_names: Vec<String>,
    /// The server's EXPLAIN rendering of the plan.
    pub explain: String,
}

/// PREPARE response payload.
pub fn encode_prepared(info: &PreparedInfo) -> Vec<u8> {
    let mut w = Vec::new();
    w.u64(info.stmt_id);
    w.u16(info.cohort_attrs.len() as u16);
    for a in &info.cohort_attrs {
        w.str(a);
    }
    w.u16(info.agg_names.len() as u16);
    for a in &info.agg_names {
        w.str(a);
    }
    w.str(&info.explain);
    w
}

/// Parse a PREPARE response.
pub fn decode_prepared(payload: &[u8]) -> Result<PreparedInfo, EngineError> {
    let mut r = Reader::new(payload);
    let stmt_id = r.u64()?;
    // Each name is at least its 4-byte length prefix.
    let n = r.u16()?;
    let mut cohort_attrs = Vec::with_capacity(r.count(n.into(), 4)?);
    for _ in 0..n {
        cohort_attrs.push(r.str()?.to_string());
    }
    let n = r.u16()?;
    let mut agg_names = Vec::with_capacity(r.count(n.into(), 4)?);
    for _ in 0..n {
        agg_names.push(r.str()?.to_string());
    }
    let explain = r.str()?.to_string();
    r.finish()?;
    Ok(PreparedInfo { stmt_id, cohort_attrs, agg_names, explain })
}

/// EXECUTE request payload.
pub fn encode_execute(stmt_id: u64) -> Vec<u8> {
    let mut w = Vec::new();
    w.u64(stmt_id);
    w
}

/// Parse an EXECUTE request: the statement id.
pub fn decode_execute(payload: &[u8]) -> Result<u64, EngineError> {
    let mut r = Reader::new(payload);
    let id = r.u64()?;
    r.finish()?;
    Ok(id)
}

/// ERROR payload.
pub fn encode_error(code: u16, message: &str) -> Vec<u8> {
    let mut w = Vec::new();
    w.u16(code);
    w.str(message);
    w
}

/// Parse an ERROR payload: `(code, message)`.
pub fn decode_error(payload: &[u8]) -> Result<(u16, String), EngineError> {
    let mut r = Reader::new(payload);
    let code = r.u16()?;
    let message = r.str()?.to_string();
    r.finish()?;
    Ok((code, message))
}

/// The STATS frame terminating one EXECUTE stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ExecStats {
    /// What this execution cost on the server.
    pub stats: QueryStats,
    /// How long the query waited in the admission queue before running.
    pub queue_wait: Duration,
}

/// EXECUTE-terminator STATS payload.
pub fn encode_exec_stats(s: &ExecStats) -> Vec<u8> {
    let mut w = Vec::new();
    encode_query_stats(&mut w, &s.stats);
    w.u64(s.queue_wait.as_nanos() as u64);
    w
}

/// Parse an EXECUTE-terminator STATS payload.
pub fn decode_exec_stats(payload: &[u8]) -> Result<ExecStats, EngineError> {
    let mut r = Reader::new(payload);
    let stats = decode_query_stats(&mut r)?;
    let queue_wait = Duration::from_nanos(r.u64()?);
    r.finish()?;
    Ok(ExecStats { stats, queue_wait })
}

/// A standalone STATS response: this tenant's cumulative accounting plus a
/// snapshot of the server's admission state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServerStats {
    /// Queries this tenant has executed (across all its connections).
    pub queries: u64,
    /// Sum of this tenant's per-query [`QueryStats`].
    pub stats: QueryStats,
    /// Admission-control snapshot (server-wide, not per tenant).
    pub admission: crate::admission::AdmissionStats,
}

/// Standalone STATS response payload.
pub fn encode_server_stats(s: &ServerStats) -> Vec<u8> {
    let mut w = Vec::new();
    w.u64(s.queries);
    encode_query_stats(&mut w, &s.stats);
    let a = &s.admission;
    w.u64(a.cap as u64);
    w.u64(a.active as u64);
    w.u64(a.peak_active as u64);
    w.u64(a.queued as u64);
    w.u64(a.max_queue_depth as u64);
    w.u64(a.admitted_total);
    w.u64(a.rejected_total);
    w.u64(a.total_queue_wait.as_nanos() as u64);
    w
}

/// Parse a standalone STATS response payload.
pub fn decode_server_stats(payload: &[u8]) -> Result<ServerStats, EngineError> {
    let mut r = Reader::new(payload);
    let queries = r.u64()?;
    let stats = decode_query_stats(&mut r)?;
    let admission = crate::admission::AdmissionStats {
        cap: r.u64()? as usize,
        active: r.u64()? as usize,
        peak_active: r.u64()? as usize,
        queued: r.u64()? as usize,
        max_queue_depth: r.u64()? as usize,
        admitted_total: r.u64()?,
        rejected_total: r.u64()?,
        total_queue_wait: Duration::from_nanos(r.u64()?),
    };
    r.finish()?;
    Ok(ServerStats { queries, stats, admission })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn frame_roundtrip_over_a_buffer() {
        let mut buf = Vec::new();
        write_frame(&mut buf, FRAME_PREPARE, &encode_prepare("SELECT 1")).unwrap();
        write_frame(&mut buf, FRAME_CANCEL, &[]).unwrap();
        let mut r = io::Cursor::new(buf);
        match read_frame(&mut r, MAX_FRAME).unwrap() {
            ReadFrame::Frame(ty, payload) => {
                assert_eq!(ty, FRAME_PREPARE);
                assert_eq!(decode_prepare(&payload).unwrap(), "SELECT 1");
            }
            other => panic!("unexpected {other:?}"),
        }
        match read_frame(&mut r, MAX_FRAME).unwrap() {
            ReadFrame::Frame(ty, payload) => {
                assert_eq!(ty, FRAME_CANCEL);
                assert!(payload.is_empty());
            }
            other => panic!("unexpected {other:?}"),
        }
        assert!(matches!(read_frame(&mut r, MAX_FRAME).unwrap(), ReadFrame::Eof));
    }

    #[test]
    fn a_frame_is_one_write() {
        /// Accepts everything it is handed and counts the calls.
        struct Counting {
            writes: usize,
            bytes: Vec<u8>,
        }
        impl Write for Counting {
            fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
                self.writes += 1;
                self.bytes.extend_from_slice(buf);
                Ok(buf.len())
            }
            fn flush(&mut self) -> io::Result<()> {
                Ok(())
            }
        }
        let mut w = Counting { writes: 0, bytes: Vec::new() };
        write_frame(&mut w, FRAME_BATCH, &[7; 100_000]).unwrap();
        assert_eq!(w.writes, 1, "header and payload must leave in one write");
        let mut scratch = vec![0xee; 9]; // stale bytes from an earlier frame
        write_frame_with(&mut w, FRAME_ERROR, &mut scratch, |out| out.push(1)).unwrap();
        assert_eq!(w.writes, 2);
        let mut r = io::Cursor::new(w.bytes);
        for (ty, len) in [(FRAME_BATCH, 100_000), (FRAME_ERROR, 1)] {
            match read_frame(&mut r, MAX_FRAME).unwrap() {
                ReadFrame::Frame(t, payload) => assert_eq!((t, payload.len()), (ty, len)),
                other => panic!("unexpected {other:?}"),
            }
        }
    }

    /// A QW-shaped statement over a table of several chunks, its report,
    /// and its batches merged as the server merges them.
    fn merged_qw() -> (cohana_core::CohortReport, WireBatch) {
        use cohana_activity::{generate, GeneratorConfig};
        use cohana_core::{AggFunc, CohortQuery, PlannerOptions, Statement};
        use cohana_storage::{CompressedTable, CompressionOptions};
        let table = generate(&GeneratorConfig::small());
        let source =
            CompressedTable::build(&table, CompressionOptions::with_chunk_size(4096)).unwrap();
        let query = CohortQuery::builder("launch")
            .cohort_by(["country", "city", "role"])
            .aggregate(AggFunc::user_count())
            .aggregate(AggFunc::sum("gold"))
            .build()
            .unwrap();
        let stmt = Statement::over(Arc::new(source), &query, PlannerOptions::default(), 1).unwrap();
        let mut merged = stmt.merger();
        for batch in stmt.stream() {
            merged.absorb(&batch.unwrap());
        }
        (stmt.execute().unwrap(), merged.wire_batch())
    }

    #[test]
    fn a_result_over_the_frame_limit_is_split_into_runs_of_cohorts() {
        let (want, wire) = merged_qw();
        let whole = wire.encode().len() as u32;
        assert!(wire.num_cohorts() > 50, "{} cohorts", wire.num_cohorts());
        for limit in [whole, whole - 1, whole / 7, 600] {
            let (mut out, mut buf) = (Vec::new(), Vec::new());
            let sent = write_batch_frames(&mut out, &mut buf, &wire, limit).unwrap();
            let mut asm = cohana_core::ReportAssembler::new(
                want.cohort_attrs.clone(),
                want.agg_names.clone(),
            );
            let (mut frames, mut keys, mut rows) = (0, Vec::new(), 0);
            let mut r = io::Cursor::new(out);
            loop {
                match read_frame(&mut r, limit).unwrap() {
                    ReadFrame::Frame(FRAME_BATCH, payload) => {
                        let batch = WireBatch::decode(&payload).unwrap();
                        frames += 1;
                        rows += batch.rows_scanned();
                        keys.extend(batch.cohorts().map(|c| c.key.to_vec()));
                        asm.push(&batch).unwrap();
                    }
                    ReadFrame::Eof => break,
                    other => panic!("limit {limit}: unexpected {other:?}"),
                }
            }
            assert_eq!(frames, sent);
            assert_eq!(sent == 1, limit == whole, "limit {limit}: {sent} frames");
            // Consecutive, disjoint runs in ascending key order, summing to
            // the whole batch.
            assert!(keys.windows(2).all(|w| w[0] < w[1]), "limit {limit}");
            assert_eq!(keys.len(), wire.num_cohorts());
            assert_eq!(rows, wire.rows_scanned());
            assert_eq!(asm.finish(), want, "limit {limit}: reassembled report diverged");
        }
        // A cohort too large for any frame fails the call; nothing
        // misleading is sent for it.
        let (mut out, mut buf) = (Vec::new(), Vec::new());
        let err = write_batch_frames(&mut out, &mut buf, &wire, 8).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidInput);
        assert!(out.is_empty());
    }

    #[test]
    fn oversized_frames_are_reported_not_read() {
        let mut buf = Vec::new();
        buf.extend_from_slice(&(MAX_FRAME + 1).to_le_bytes());
        buf.push(FRAME_HELLO);
        let mut r = io::Cursor::new(buf);
        assert!(matches!(
            read_frame(&mut r, MAX_FRAME).unwrap(),
            ReadFrame::TooLarge(n) if n == MAX_FRAME + 1
        ));
    }

    #[test]
    fn payload_codecs_roundtrip() {
        let (v, t) = decode_hello(&encode_hello("analytics")).unwrap();
        assert_eq!((v, t.as_str()), (PROTOCOL_VERSION, "analytics"));

        let info = PreparedInfo {
            stmt_id: 42,
            cohort_attrs: vec!["country".into()],
            agg_names: vec!["Sum(gold)".into(), "UserCount()".into()],
            explain: "plan\n".into(),
        };
        assert_eq!(decode_prepared(&encode_prepared(&info)).unwrap(), info);

        assert_eq!(decode_execute(&encode_execute(7)).unwrap(), 7);

        let (code, msg) = decode_error(&encode_error(ERR_QUEUE_FULL, "full")).unwrap();
        assert_eq!((code, msg.as_str()), (ERR_QUEUE_FULL, "full"));

        let exec = ExecStats {
            stats: QueryStats { chunks_total: 3, ..QueryStats::default() },
            queue_wait: Duration::from_micros(21),
        };
        assert_eq!(decode_exec_stats(&encode_exec_stats(&exec)).unwrap(), exec);
    }

    /// The HELLO, PREPARE and STATS payloads, written by hand from
    /// `docs/PROTOCOL.md`: little-endian fixed-width fields, strings as
    /// `u32 length | UTF-8`.
    #[test]
    fn payload_bytes_are_pinned() {
        fn str(out: &mut Vec<u8>, s: &str) {
            out.extend_from_slice(&(s.len() as u32).to_le_bytes());
            out.extend_from_slice(s.as_bytes());
        }
        let mut hello = 2u32.to_le_bytes().to_vec();
        str(&mut hello, "analytics");
        assert_eq!(encode_hello("analytics"), hello);
        let mut hello_ok = 2u32.to_le_bytes().to_vec();
        str(&mut hello_ok, "cohana 0.2");
        str(&mut hello_ok, "main");
        assert_eq!(encode_hello_ok("cohana 0.2", "main"), hello_ok);

        let mut prepare = Vec::new();
        str(&mut prepare, "SELECT 1");
        assert_eq!(encode_prepare("SELECT 1"), prepare);
        let mut prepared = 42u64.to_le_bytes().to_vec();
        prepared.extend_from_slice(&1u16.to_le_bytes());
        str(&mut prepared, "country");
        prepared.extend_from_slice(&2u16.to_le_bytes());
        str(&mut prepared, "Sum(gold)");
        str(&mut prepared, "UserCount()");
        str(&mut prepared, "plan\n");
        let info = PreparedInfo {
            stmt_id: 42,
            cohort_attrs: vec!["country".into()],
            agg_names: vec!["Sum(gold)".into(), "UserCount()".into()],
            explain: "plan\n".into(),
        };
        assert_eq!(encode_prepared(&info), prepared);

        // `QueryStats` is 13 × u64, in the documented field order.
        let stats = QueryStats {
            chunks_total: 1,
            chunks_pruned: 2,
            chunks_scanned: 3,
            rows_scanned: 4,
            chunks_decoded: 5,
            columns_decoded: 6,
            bytes_read: 7,
            bytes_decompressed: 8,
            cache_evictions: 9,
            batches: 10,
            morsels_executed: 11,
            worker_busy_ns: 12,
            wall_time: Duration::from_nanos(13),
        };
        let words = |ws: &[u64]| -> Vec<u8> { ws.iter().flat_map(|w| w.to_le_bytes()).collect() };
        let query_stats = words(&(1..=13).collect::<Vec<u64>>());
        let exec = ExecStats { stats, queue_wait: Duration::from_nanos(14) };
        assert_eq!(encode_exec_stats(&exec), [query_stats.clone(), words(&[14])].concat());
        let server = ServerStats {
            queries: 99,
            stats,
            admission: crate::admission::AdmissionStats {
                cap: 20,
                active: 21,
                peak_active: 22,
                queued: 23,
                max_queue_depth: 24,
                admitted_total: 25,
                rejected_total: 26,
                total_queue_wait: Duration::from_nanos(27),
            },
        };
        let admission = words(&(20..=27).collect::<Vec<u64>>());
        assert_eq!(encode_server_stats(&server), [words(&[99]), query_stats, admission].concat());
    }

    #[test]
    fn engine_errors_have_stable_codes() {
        assert_eq!(engine_error_code(&EngineError::UnknownAttribute("x".into())), 1);
        assert_eq!(engine_error_code(&EngineError::UnknownTable("x".into())), 2);
        assert_eq!(engine_error_code(&EngineError::TypeError("x".into())), 3);
        assert_eq!(engine_error_code(&EngineError::InvalidQuery("x".into())), 4);
        assert_eq!(engine_error_code(&EngineError::Storage("x".into())), 5);
        assert_eq!(engine_error_code(&EngineError::Corrupt("x".into())), 6);
        assert_eq!(engine_error_code(&EngineError::Activity("x".into())), 7);
        assert_eq!(engine_error_code(&EngineError::Unsupported("x".into())), 8);
    }

    #[test]
    fn malformed_payloads_error_cleanly() {
        assert!(decode_hello(&[1, 2]).is_err());
        assert!(decode_prepared(&[0xff; 3]).is_err());
        assert!(decode_error(&[]).is_err());
        let mut good = encode_hello("t");
        good.push(0);
        assert!(decode_hello(&good).is_err(), "trailing bytes must be rejected");
    }
}
