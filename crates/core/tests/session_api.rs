//! Integration tests for the Session/Statement/QueryStream surface over
//! file-backed storage: early termination must actually save I/O, prepared
//! statements must be re-executable with monotone cumulative stats, and the
//! streaming path must behave under parallelism — including dropping a
//! parallel stream mid-flight.

use cohana_activity::{generate, GeneratorConfig};
use cohana_core::{paper, Cohana, EngineOptions, PlannerOptions, QueryStats, Statement};
use cohana_storage::{
    persist, ChunkIndexEntry, ChunkRef, ChunkSource, CompressedTable, CompressionOptions,
    FileSource, TableMeta,
};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::Arc;

fn temp_file(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("cohana-session-api-test");
    std::fs::create_dir_all(&dir).unwrap();
    dir.join(name)
}

/// A v3 file with several chunks, freshly written.
fn v3_file(name: &str) -> PathBuf {
    let table = generate(&GeneratorConfig::small());
    let memory = CompressedTable::build(&table, CompressionOptions::with_chunk_size(256)).unwrap();
    assert!(memory.chunks().len() >= 3, "need several chunks for early termination");
    let path = temp_file(name);
    persist::write_file(&memory, &path).unwrap();
    path
}

/// The early-termination acceptance test: a consumer that stops pulling
/// after the first batch decodes strictly fewer chunk-columns than a full
/// `collect()` — unpulled chunks are never read from disk.
#[test]
fn dropping_stream_after_first_batch_decodes_fewer_columns() {
    let path = v3_file("early-term.cohana");
    let query = paper::q1();

    // Full execution on a cold source: the baseline column-decode count.
    let full_src = Arc::new(FileSource::open(&path).unwrap());
    let full_stmt =
        Statement::over(full_src.clone(), &query, PlannerOptions::default(), 1).unwrap();
    let report = full_stmt.stream().collect().unwrap();
    assert!(report.num_rows() > 0);
    let full_columns = full_src.io_stats().columns_decoded;
    let full_chunks = full_src.io_stats().chunks_decoded;
    assert!(full_chunks >= 3, "Q1 touches every chunk");

    // Early termination on an equally cold source: one batch, then drop.
    let early_src = Arc::new(FileSource::open(&path).unwrap());
    let early_stmt =
        Statement::over(early_src.clone(), &query, PlannerOptions::default(), 1).unwrap();
    {
        let mut stream = early_stmt.stream();
        let first = stream.next().expect("at least one batch").unwrap();
        assert!(first.num_users() > 0);
    } // stream dropped here
    let early_columns = early_src.io_stats().columns_decoded;
    assert!(
        early_columns < full_columns,
        "early termination decoded {early_columns} columns, full run {full_columns} — \
         dropping the stream did not stop chunk decode"
    );
    assert_eq!(early_src.io_stats().chunks_decoded, 1, "exactly the pulled chunk was decoded");

    // The aborted execution still accounted its (smaller) work.
    let stats = early_stmt.cumulative_stats();
    assert_eq!(stats.chunks_scanned, 1);
    assert_eq!(stats.columns_decoded, early_columns);
    std::fs::remove_file(&path).ok();
}

/// Prepared-statement re-execution: the same `Statement` executed twice
/// yields identical reports, and its cumulative stats grow monotonically
/// (second warm run decodes less — cache hits — but never regresses any
/// counter).
#[test]
fn prepared_statement_reexecution_identical_reports_monotone_stats() {
    let path = v3_file("re-exec.cohana");
    let src = Arc::new(FileSource::open(&path).unwrap());
    let stmt = Statement::over(src, &paper::q3(), PlannerOptions::default(), 1).unwrap();

    let first = stmt.execute().unwrap();
    let after_first = stmt.cumulative_stats();
    let second = stmt.execute().unwrap();
    let after_second = stmt.cumulative_stats();

    assert_eq!(first, second, "re-execution must be deterministic");
    assert_eq!(stmt.executions(), 2);
    assert!(after_second.dominates(&after_first), "cumulative stats must be monotone");
    assert_eq!(after_second.chunks_scanned, 2 * after_first.chunks_scanned);
    // The warm second run was served from the segment cache: no new reads.
    let s1 = first.stats.unwrap();
    let s2 = second.stats.unwrap();
    assert!(s1.bytes_read > 0, "cold run reads from disk");
    assert_eq!(s2.bytes_read, 0, "warm run is served from cache");
    assert_eq!(s1.chunks_scanned, s2.chunks_scanned);
    std::fs::remove_file(&path).ok();
}

/// Streaming through worker threads: batches arrive in arbitrary order but
/// merge to the serial result, and dropping the stream mid-flight neither
/// hangs nor poisons the statement.
#[test]
fn parallel_stream_matches_serial_and_survives_early_drop() {
    let path = v3_file("parallel-stream.cohana");
    let src = Arc::new(FileSource::open(&path).unwrap());
    let query = paper::q1();

    let serial = Statement::over(src.clone(), &query, PlannerOptions::default(), 1).unwrap();
    let parallel = Statement::over(src.clone(), &query, PlannerOptions::default(), 4).unwrap();
    let expect = serial.execute().unwrap();

    // Streamed parallel batches, merged by hand.
    let mut stream = parallel.stream();
    let mut batches = Vec::new();
    for b in &mut stream {
        batches.push(b.unwrap());
    }
    drop(stream);
    let merged = parallel.report_from_batches(batches).unwrap();
    assert_eq!(expect, merged);

    // Drop a parallel stream after one batch: workers must stop, and the
    // statement must remain usable.
    {
        let mut stream = parallel.stream();
        let _ = stream.next().expect("one batch").unwrap();
    }
    let again = parallel.execute().unwrap();
    assert_eq!(expect, again);
    std::fs::remove_file(&path).ok();
}

/// A resident table whose chunk 2 panics when fetched.
struct PanicsOnChunk2(CompressedTable);

impl ChunkSource for PanicsOnChunk2 {
    fn table_meta(&self) -> &TableMeta {
        self.0.table_meta()
    }

    fn num_chunks(&self) -> usize {
        self.0.chunks().len()
    }

    fn index_entry(&self, idx: usize) -> &ChunkIndexEntry {
        &self.0.index_entries()[idx]
    }

    fn chunk(&self, idx: usize) -> cohana_storage::Result<ChunkRef<'_>> {
        assert_ne!(idx, 2, "chunk 2 is poisoned");
        ChunkSource::chunk(&self.0, idx)
    }
}

/// A panic while running one chunk reaches the caller at every
/// parallelism: a worker thread's panic must not end the stream early and
/// hand back a report that silently lacks that chunk.
#[test]
fn a_panicking_chunk_reaches_the_caller_at_every_parallelism() {
    let table = generate(&GeneratorConfig::small());
    let memory = CompressedTable::build(&table, CompressionOptions::with_chunk_size(256)).unwrap();
    assert!(memory.chunks().len() > 3);
    let source = Arc::new(PanicsOnChunk2(memory));
    for parallelism in [1, 4] {
        let stmt =
            Statement::over(source.clone(), &paper::q1(), PlannerOptions::default(), parallelism)
                .unwrap();
        let outcome = catch_unwind(AssertUnwindSafe(|| stmt.execute()));
        let payload = match outcome {
            Ok(report) => {
                panic!("p={parallelism}: returned {:?} past a panic", report.map(|r| r.stats))
            }
            Err(payload) => payload,
        };
        let message = payload.downcast_ref::<String>().map(String::as_str).unwrap_or_default();
        assert!(message.contains("chunk 2 is poisoned"), "p={parallelism}: {message:?}");
        assert_eq!(stmt.executions(), 1, "p={parallelism}: the execution is still recorded");
    }
}

/// Sessions on one shared engine: per-session parallelism and table
/// overrides are isolated, and a session pins its statement's source even
/// if the catalog changes afterwards.
#[test]
fn sessions_isolate_overrides_on_a_shared_engine() {
    let table = generate(&GeneratorConfig::small());
    let memory = CompressedTable::build(&table, CompressionOptions::with_chunk_size(256)).unwrap();
    let path = temp_file("session-engine.cohana");
    persist::write_file(&memory, &path).unwrap();

    let engine = Cohana::new(EngineOptions::default());
    engine.register("resident", memory);
    engine.open(&path).name("lazy").open().unwrap();

    let q = paper::q1();
    let fast = engine.session().with_parallelism(4).on_table("lazy");
    let slow = engine.session(); // default table = first registered
    assert_eq!(slow.table_name().unwrap(), "resident");
    assert_eq!(fast.table_name().unwrap(), "lazy");

    let a = fast.execute(&q).unwrap();
    let b = slow.execute(&q).unwrap();
    assert_eq!(a, b, "same data through different tables and parallelism");

    // Stats reflect each session's own source: the lazy session decoded
    // chunks, the resident one did not.
    assert!(a.stats.unwrap().chunks_decoded > 0);
    assert_eq!(b.stats.unwrap().chunks_decoded, 0);

    // A prepared statement keeps executing after its name is dropped from
    // the catalog view it came from (the source is pinned).
    let stmt = fast.prepare(&q).unwrap();
    engine.register("lazy", CompressedTable::build(&table, CompressionOptions::default()).unwrap());
    let c = stmt.execute().unwrap();
    assert_eq!(a, c);
    std::fs::remove_file(&path).ok();
}

/// `QueryStats` line up across the engine facade, session, and statement
/// paths, and absorb/dominates behave as the cumulative-stats contract
/// promises.
#[test]
fn stats_surface_is_consistent() {
    let table = generate(&GeneratorConfig::small());
    let engine =
        Cohana::from_activity_table(&table, CompressionOptions::with_chunk_size(256)).unwrap();
    let q = paper::q1();

    let via_engine = engine.execute(&q).unwrap().stats.unwrap();
    let via_session = engine.session().execute(&q).unwrap().stats.unwrap();
    assert_eq!(via_engine.chunks_total, via_session.chunks_total);
    assert_eq!(via_engine.chunks_scanned, via_session.chunks_scanned);
    assert_eq!(via_engine.batches, via_session.batches);

    let mut cumulative = QueryStats::default();
    cumulative.absorb(&via_engine);
    cumulative.absorb(&via_session);
    assert!(cumulative.dominates(&via_engine));
    assert_eq!(cumulative.chunks_scanned, 2 * via_engine.chunks_scanned);
}
