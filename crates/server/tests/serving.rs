//! End-to-end serving tests: concurrent remote clients must be
//! bit-identical to in-process execution, an execution must send each
//! `(cohort, age)` cell once, the admission cap must provably never be
//! exceeded, a client disconnect must stop chunk decode mid-query (observed
//! through the source's decode counters), graceful shutdown must drain
//! in-flight queries while refusing new work, and malformed frames must
//! close only the offending connection.

use cohana_activity::{generate, GeneratorConfig, Timestamp, Value};
use cohana_core::{paper, AggFunc, Cohana, CohortQuery, CohortReport, EngineOptions};
use cohana_server::protocol as proto;
use cohana_server::{Client, Server, ServerConfig};
use cohana_storage::{persist, ChunkSource, CompressedTable, CompressionOptions};
use std::io::{Read, Write};
use std::net::TcpStream;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

#[path = "../../core/tests/common/mod.rs"]
mod common;

/// Q1–Q8, then the wide-key queries (2- and 3-attribute cohort keys mixing
/// string, integer and binned-time parts).
fn paper_queries() -> Vec<(String, CohortQuery)> {
    let d1 = Timestamp::parse("2013-05-21").unwrap().secs();
    let d2 = Timestamp::parse("2013-05-27").unwrap().secs();
    let mut queries = vec![
        ("q1".into(), paper::q1()),
        ("q2".into(), paper::q2()),
        ("q3".into(), paper::q3()),
        ("q4".into(), paper::q4()),
        ("q5".into(), paper::q5(d1, d2)),
        ("q6".into(), paper::q6(d1, d2)),
        ("q7".into(), paper::q7(7)),
        ("q8".into(), paper::q8(7)),
    ];
    queries.extend(common::wide_key_queries());
    queries
}

/// An engine over a freshly generated in-memory table (its `session`
/// attribute spanning negative values).
fn resident_engine(users: usize, chunk_rows: usize) -> Arc<Cohana> {
    resident_engine_at(users, chunk_rows, 1)
}

/// [`resident_engine`] running queries at `parallelism`.
fn resident_engine_at(users: usize, chunk_rows: usize, parallelism: usize) -> Arc<Cohana> {
    let table = common::with_signed_sessions(&generate(&GeneratorConfig::new(users)));
    let compressed =
        CompressedTable::build(&table, CompressionOptions::with_chunk_size(chunk_rows)).unwrap();
    let engine = Cohana::new(EngineOptions { parallelism, ..EngineOptions::default() });
    engine.register("GameActions", compressed);
    Arc::new(engine)
}

fn temp_file(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("cohana-serving-test");
    std::fs::create_dir_all(&dir).unwrap();
    dir.join(name)
}

/// An engine over 400 users in 64-row chunks, written to the file `name`
/// and opened lazily with a zero cache budget: every chunk a query touches
/// is a real decode, so the source's counters are a live view of decode
/// progress, and the scan is long enough (hundreds of chunks) to act on
/// mid-query. Returns the engine, its source and the file to remove.
fn file_engine(name: &str) -> (Arc<Cohana>, Arc<dyn ChunkSource>, PathBuf) {
    let table = generate(&GeneratorConfig::new(400));
    let compressed =
        CompressedTable::build(&table, CompressionOptions::with_chunk_size(64)).unwrap();
    let path = temp_file(name);
    persist::write_file(&compressed, &path).unwrap();
    let engine = Cohana::new(EngineOptions::default());
    engine.open(&path).cache_bytes(0).open().unwrap();
    let source = engine.source("GameActions").unwrap();
    (Arc::new(engine), source, path)
}

/// Wait until `source` has decoded more than `decoded` chunks: the query
/// just executed is scanning (or has finished).
fn await_decode(source: &dyn ChunkSource, decoded: usize) {
    let deadline = Instant::now() + Duration::from_secs(60);
    while source.io_stats().chunks_decoded == decoded {
        assert!(Instant::now() < deadline, "the query never started decoding");
        std::thread::yield_now();
    }
}

fn start(engine: Arc<Cohana>, cap: usize, queue: usize) -> Server {
    Server::start(
        engine,
        ServerConfig { admission_cap: cap, queue_bound: queue, ..ServerConfig::default() },
    )
    .expect("server binds")
}

#[test]
fn concurrent_clients_are_bit_identical_to_in_process() {
    let engine = resident_engine(60, 256);
    let expected: Vec<(String, String, CohortReport)> = {
        let session = engine.session();
        paper_queries()
            .into_iter()
            .map(|(name, q)| {
                let report = session.prepare(&q).unwrap().execute().unwrap();
                (name, q.to_sql(), report)
            })
            .collect()
    };
    let mut server = start(engine, 4, 64);
    let addr = server.local_addr();

    let expected = Arc::new(expected);
    let per_client = expected.len() as u64;
    let handles: Vec<_> = (0..8)
        .map(|i| {
            let expected = expected.clone();
            std::thread::spawn(move || {
                let mut client =
                    Client::connect(addr, &format!("tenant-{}", i % 3)).expect("connects");
                // Each client covers every query, starting at a different
                // offset so the mix overlaps across clients.
                for k in 0..expected.len() {
                    let (name, sql, want) = &expected[(i + k) % expected.len()];
                    let got = client.query(sql).expect("remote query runs");
                    assert_eq!(&got, want, "client {i} query {name} diverged");
                    assert!(
                        got.stats.expect("remote report carries server stats").chunks_scanned > 0,
                        "client {i} query {name} reported no work"
                    );
                }
            })
        })
        .collect();
    for h in handles {
        h.join().expect("client thread succeeds");
    }

    let stats = server.admission_stats();
    assert_eq!(stats.admitted_total, 8 * per_client, "every query of 8 clients admitted");
    assert!(stats.peak_active <= 4, "cap 4 exceeded: peak {}", stats.peak_active);
    assert_eq!(stats.active, 0);

    // Tenant accounting: the three tenants' totals partition all
    // executions (clients map onto tenants round-robin: 3 + 3 + 2 clients).
    assert_eq!(server.tenant_stats("tenant-0").queries, 3 * per_client);
    assert_eq!(server.tenant_stats("tenant-1").queries, 3 * per_client);
    assert_eq!(server.tenant_stats("tenant-2").queries, 2 * per_client);
    server.shutdown();
}

#[test]
fn admission_cap_is_never_exceeded_under_4x_load() {
    let engine = resident_engine(60, 256);
    let cap = 2;
    let mut server = start(engine, cap, 64);
    let addr = server.local_addr();

    let sql = Arc::new(paper::q1().to_sql());
    let handles: Vec<_> = (0..4 * cap)
        .map(|i| {
            let sql = sql.clone();
            std::thread::spawn(move || {
                let mut client = Client::connect(addr, &format!("t{i}")).expect("connects");
                for _ in 0..3 {
                    client.query(&sql).expect("query under contention runs");
                }
            })
        })
        .collect();
    for h in handles {
        h.join().expect("client thread succeeds");
    }

    // Server-side accounting is the authority: peak concurrency is tracked
    // under the admission lock, so this is a proof, not a sample.
    let stats = server.admission_stats();
    assert!(stats.peak_active <= cap, "cap {cap} exceeded: peak {}", stats.peak_active);
    assert_eq!(stats.admitted_total, (4 * cap * 3) as u64);
    assert_eq!(stats.rejected_total, 0, "queue bound 64 should absorb 8 waiters");
    server.shutdown();
}

#[test]
fn disconnect_mid_stream_stops_chunk_decode() {
    let (engine, source, path) = file_engine("disconnect.cohana");
    let mut server = start(engine, 4, 64);
    let addr = server.local_addr();
    let sql = paper::q1().to_sql();

    // Baseline: a fully drained run decodes every chunk.
    let before = source.io_stats();
    let mut client = Client::connect(addr, "baseline").unwrap();
    client.query(&sql).unwrap();
    drop(client);
    let full_decodes = source.io_stats().chunks_decoded - before.chunks_decoded;
    assert!(full_decodes >= 20, "need a long stream, got {full_decodes} chunk decodes");

    // Now vanish as soon as the scan is under way.
    let before = source.io_stats();
    {
        let mut client = Client::connect(addr, "quitter").unwrap();
        let prepared = client.prepare(&sql).unwrap();
        let _stream = client.execute(&prepared).unwrap();
        await_decode(source.as_ref(), before.chunks_decoded);
        // Dropping stream + client closes the socket mid-stream: that IS
        // the cancellation signal.
    }

    // The decode counters must stop advancing...
    let mut stable = source.io_stats().chunks_decoded;
    let stopped_at = loop {
        std::thread::sleep(Duration::from_millis(100));
        let now = source.io_stats().chunks_decoded;
        if now == stable {
            break now;
        }
        stable = now;
    };
    // ...and strictly before the full count: the server noticed the
    // disconnect and dropped the query stream mid-decode.
    let partial_decodes = stopped_at - before.chunks_decoded;
    assert!(
        partial_decodes < full_decodes,
        "disconnect did not cancel decode: {partial_decodes} of {full_decodes} chunks"
    );

    server.shutdown();
    std::fs::remove_file(&path).ok();
}

#[test]
fn cancel_frame_stops_query_and_keeps_connection_usable() {
    let (engine, source, path) = file_engine("cancel.cohana");
    let mut server = start(engine, 4, 64);
    let mut client = Client::connect(server.local_addr(), "canceller").unwrap();
    let sql = paper::q1().to_sql();

    let prepared = client.prepare(&sql).unwrap();
    let before = source.io_stats();
    let stream = client.execute(&prepared).unwrap();
    await_decode(source.as_ref(), before.chunks_decoded);
    // Whether the server confirms the cancel or the query won the race,
    // the connection must come back in sync.
    let _cancelled = stream.cancel().expect("cancel exchange completes");
    let report = client.query(&sql).expect("connection survives a cancel");
    assert!(report.num_rows() > 0);
    server.shutdown();
    std::fs::remove_file(&path).ok();
}

#[test]
fn graceful_shutdown_drains_in_flight_and_refuses_new() {
    let (engine, source, path) = file_engine("shutdown.cohana");
    let mut server = start(engine, 4, 64);
    let addr = server.local_addr();
    let sql = paper::q1().to_sql();

    let mut client = Client::connect(addr, "drainer").unwrap();
    let expected = client.query(&sql).unwrap();

    let prepared = client.prepare(&sql).unwrap();
    let before = source.io_stats();
    let mut stream = client.execute(&prepared).unwrap();
    await_decode(source.as_ref(), before.chunks_decoded);

    // Shut down while the query is mid-scan.
    let shutdown = std::thread::spawn(move || {
        server.shutdown();
        server
    });
    std::thread::sleep(Duration::from_millis(150));

    // New connections are refused while (and after) draining: the listener
    // is gone, so the connect itself fails.
    assert!(
        Client::connect(addr, "latecomer").is_err(),
        "server accepted a connection during shutdown"
    );

    // The in-flight query drains to completion, read slowly, and still
    // matches.
    let mut batches = Vec::new();
    loop {
        std::thread::sleep(Duration::from_millis(20));
        match stream.next_batch().unwrap() {
            Some(b) => batches.push(b),
            None => break,
        }
    }
    let stats = stream.stats().expect("drained stream ends with its STATS terminator");
    assert!(stats.stats.chunks_scanned > 0);
    let mut asm = cohana_core::ReportAssembler::new(
        prepared.cohort_attrs().to_vec(),
        prepared.agg_names().to_vec(),
    );
    for b in &batches {
        asm.push(b).unwrap();
    }
    assert_eq!(asm.finish(), expected, "drained stream diverged from pre-shutdown run");

    let server = shutdown.join().expect("shutdown completes");
    drop(server);
    std::fs::remove_file(&path).ok();
}

/// What one remote execution sent: `(frames, cells summed over them, every
/// frame's cohort keys in arrival order, rows_scanned summed, the
/// assembled report with its stats)`.
fn execute_counting(
    client: &mut Client,
    sql: &str,
) -> (usize, usize, Vec<Vec<Value>>, u64, CohortReport) {
    let prepared = client.prepare(sql).unwrap();
    let mut asm = cohana_core::ReportAssembler::new(
        prepared.cohort_attrs().to_vec(),
        prepared.agg_names().to_vec(),
    );
    let mut stream = client.execute(&prepared).unwrap();
    let (mut frames, mut cells, mut keys, mut rows) = (0, 0, Vec::new(), 0);
    while let Some(batch) = stream.next_batch().unwrap() {
        frames += 1;
        cells += batch.num_cells();
        rows += batch.rows_scanned();
        keys.extend(batch.cohorts().map(|c| c.key.to_vec()));
        asm.push(&batch).unwrap();
    }
    let stats = stream.stats().expect("a completed execution ends with STATS").stats;
    let mut report = asm.finish();
    report.stats = Some(stats);
    (frames, cells, keys, rows, report)
}

#[test]
fn an_execution_sends_each_cell_once() {
    // QW of the repo benchmark: a three-attribute key, hundreds of cells
    // spread over every chunk.
    let qw = CohortQuery::builder("launch")
        .cohort_by(["country", "city", "role"])
        .aggregate(AggFunc::user_count())
        .aggregate(AggFunc::sum("gold"))
        .build()
        .unwrap();
    let pruned = CohortQuery::builder("no-such-action")
        .cohort_by(["country"])
        .aggregate(AggFunc::count())
        .build()
        .unwrap();
    for parallelism in [1, 2] {
        let engine = resident_engine_at(400, 2048, parallelism);
        let (want, want_pruned) = {
            let session = engine.session();
            let run = |q: &CohortQuery| session.prepare(q).unwrap().execute().unwrap();
            (run(&qw), run(&pruned))
        };
        let mut server = start(engine, 2, 8);
        let mut client = Client::connect(server.local_addr(), "counter").unwrap();

        let (frames, cells, keys, rows, got) = execute_counting(&mut client, &qw.to_sql());
        let stats = got.stats.unwrap();
        assert!(stats.chunks_scanned >= 10, "p{parallelism}: {} chunks", stats.chunks_scanned);
        assert_eq!(got, want, "p{parallelism}: the served report diverged");
        assert!(want.num_rows() > 500, "p{parallelism}: {} rows", want.num_rows());
        assert_eq!(frames, 1, "p{parallelism}: the merged result fits one frame");
        assert_eq!(cells, got.num_rows(), "p{parallelism}: a cell crossed the wire twice");
        assert!(keys.windows(2).all(|w| w[0] < w[1]), "p{parallelism}: frames share a cohort");
        assert_eq!(keys.len(), got.cohort_sizes.len());
        assert_eq!(rows, stats.rows_scanned, "p{parallelism}: rows_scanned of the frames");

        let (frames, cells, _, _, got) = execute_counting(&mut client, &pruned.to_sql());
        let stats = got.stats.unwrap();
        assert_eq!((stats.chunks_pruned, stats.chunks_scanned), (stats.chunks_total, 0));
        assert_eq!((frames, cells), (0, 0), "p{parallelism}: a pruned query sent cells");
        assert!(got.is_empty() && got.cohort_sizes.is_empty());
        assert_eq!(got, want_pruned);
        server.shutdown();
    }
}

#[test]
fn typed_error_codes_over_the_wire() {
    let engine = resident_engine(60, 256);
    let mut server = start(engine, 1, 4);
    let addr = server.local_addr();
    let mut client = Client::connect(addr, "errors").unwrap();

    // SQL that does not parse: ERR_SQL, connection stays usable.
    let err = client.prepare("SELECT FROM WHERE").unwrap_err();
    assert_eq!(err.remote_code(), Some(proto::ERR_SQL), "{err}");

    // Unknown attribute: the engine's typed variant, by code, not by
    // message matching.
    let err = client
        .prepare(
            "SELECT no_such_column, COHORTSIZE, AGE, UserCount() \
             FROM GameActions BIRTH FROM action = \"launch\" COHORT BY no_such_column",
        )
        .unwrap_err();
    assert_eq!(err.remote_code(), Some(proto::ERR_UNKNOWN_ATTRIBUTE), "{err}");

    // The connection survived both errors.
    let report = client.query(&paper::q1().to_sql()).unwrap();
    assert!(report.num_rows() > 0);

    // EXECUTE of a statement id this connection never prepared.
    let mut raw = TcpStream::connect(addr).unwrap();
    proto::write_frame(&mut raw, proto::FRAME_HELLO, &proto::encode_hello("raw")).unwrap();
    match proto::read_frame(&mut raw, proto::MAX_FRAME).unwrap() {
        proto::ReadFrame::Frame(proto::FRAME_HELLO, _) => {}
        other => panic!("handshake failed: {other:?}"),
    }
    proto::write_frame(&mut raw, proto::FRAME_EXECUTE, &proto::encode_execute(999)).unwrap();
    match proto::read_frame(&mut raw, proto::MAX_FRAME).unwrap() {
        proto::ReadFrame::Frame(proto::FRAME_ERROR, payload) => {
            let (code, _) = proto::decode_error(&payload).unwrap();
            assert_eq!(code, proto::ERR_UNKNOWN_STATEMENT);
        }
        other => panic!("expected ERROR frame, got {other:?}"),
    }

    server.shutdown();
}

#[test]
fn malformed_and_oversized_frames_close_only_that_connection() {
    let engine = resident_engine(60, 256);
    let mut server = start(engine, 2, 8);
    let addr = server.local_addr();

    // A well-behaved client shares the server with the abusers throughout.
    let mut good = Client::connect(addr, "good").unwrap();
    let sql = paper::q1().to_sql();

    // Garbage before HELLO: ERROR 100, then the connection is closed.
    let mut raw = TcpStream::connect(addr).unwrap();
    proto::write_frame(&mut raw, 42, b"nonsense").unwrap();
    match proto::read_frame(&mut raw, proto::MAX_FRAME).unwrap() {
        proto::ReadFrame::Frame(proto::FRAME_ERROR, payload) => {
            let (code, _) = proto::decode_error(&payload).unwrap();
            assert_eq!(code, proto::ERR_PROTOCOL);
        }
        other => panic!("expected ERROR frame, got {other:?}"),
    }
    let mut rest = Vec::new();
    raw.read_to_end(&mut rest).unwrap();
    assert!(rest.is_empty(), "server kept the connection open after a protocol violation");

    // An oversized frame header: ERR_TOO_LARGE without reading the body.
    let mut raw = TcpStream::connect(addr).unwrap();
    let mut header = Vec::new();
    header.extend_from_slice(&(proto::MAX_FRAME + 1).to_le_bytes());
    header.push(proto::FRAME_HELLO);
    raw.write_all(&header).unwrap();
    match proto::read_frame(&mut raw, proto::MAX_FRAME).unwrap() {
        proto::ReadFrame::Frame(proto::FRAME_ERROR, payload) => {
            let (code, _) = proto::decode_error(&payload).unwrap();
            assert_eq!(code, proto::ERR_TOO_LARGE);
        }
        other => panic!("expected ERROR frame, got {other:?}"),
    }

    // A HELLO whose payload is truncated garbage.
    let mut raw = TcpStream::connect(addr).unwrap();
    proto::write_frame(&mut raw, proto::FRAME_HELLO, &[1, 2]).unwrap();
    match proto::read_frame(&mut raw, proto::MAX_FRAME).unwrap() {
        proto::ReadFrame::Frame(proto::FRAME_ERROR, payload) => {
            let (code, _) = proto::decode_error(&payload).unwrap();
            assert_eq!(code, proto::ERR_PROTOCOL);
        }
        other => panic!("expected ERROR frame, got {other:?}"),
    }

    // A well-formed HELLO from a version-1 client (whose BATCH layout this
    // server no longer speaks): refused up front, not served garbage later.
    let mut raw = TcpStream::connect(addr).unwrap();
    let mut v1_hello = 1u32.to_le_bytes().to_vec();
    v1_hello.extend_from_slice(&proto::encode_hello("old-client")[4..]);
    proto::write_frame(&mut raw, proto::FRAME_HELLO, &v1_hello).unwrap();
    match proto::read_frame(&mut raw, proto::MAX_FRAME).unwrap() {
        proto::ReadFrame::Frame(proto::FRAME_ERROR, payload) => {
            let (code, message) = proto::decode_error(&payload).unwrap();
            assert_eq!(code, proto::ERR_PROTOCOL, "{message}");
        }
        other => panic!("expected ERROR frame, got {other:?}"),
    }
    let mut rest = Vec::new();
    raw.read_to_end(&mut rest).unwrap();
    assert!(rest.is_empty(), "server kept a version-1 connection open");

    // The abuse never panicked the server or hurt the good connection.
    let report = good.query(&sql).unwrap();
    assert!(report.num_rows() > 0);
    server.shutdown();
}
