//! Engine-level incremental-ingest tests: a table built by N-batch
//! `Cohana::ingest` (optionally followed by `compact`) must answer Q1–Q8
//! identically to the same table built once, across parallelism levels, and
//! prepared statements must keep snapshot semantics across ingest/compact.

use cohana_activity::{
    generate, ActivityTable, GeneratorConfig, TableBuilder, TimeBin, Timestamp, Value,
};
use cohana_core::engine::DEFAULT_TABLE;
use cohana_core::naive::naive_execute;
use cohana_core::{paper, Cohana, CohortQuery, CohortReport, EngineError, EngineOptions};
use cohana_storage::{persist, CompressedTable, CompressionOptions, FileSource, StorageError};
use std::path::PathBuf;

#[path = "../../storage/tests/fixtures/mod.rs"]
mod fixtures;

const CHUNK: usize = 256;

fn temp_path(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("cohana-ingest-test");
    std::fs::create_dir_all(&dir).unwrap();
    dir.join(name)
}

fn base_table() -> ActivityTable {
    generate(&GeneratorConfig::small())
}

/// Contiguous time slices: later batches revisit users of earlier ones, the
/// worst case for append (forces chunk rewrites).
fn split_by_time(table: &ActivityTable, k: usize) -> Vec<ActivityTable> {
    let tidx = table.schema().time_idx();
    let mut order: Vec<usize> = (0..table.num_rows()).collect();
    order.sort_by_key(|&r| table.rows()[r].get(tidx).as_int().unwrap());
    let per = table.num_rows().div_ceil(k);
    order
        .chunks(per)
        .map(|rows| {
            let mut b = TableBuilder::new(table.schema().clone());
            for &r in rows {
                b.push(table.rows()[r].values().to_vec()).unwrap();
            }
            b.finish().unwrap()
        })
        .collect()
}

/// The paper's eight benchmark queries, with the birth-range bounds derived
/// from the dataset window.
fn q1_to_q8(table: &ActivityTable) -> Vec<CohortQuery> {
    let tidx = table.schema().time_idx();
    let start = table.int_range(tidx).map(|(lo, _)| lo).unwrap_or(0);
    let day = TimeBin::Day.bin_start(Timestamp(start)).secs();
    let (d1, d2) = (day + 86_400, day + 7 * 86_400);
    vec![
        paper::q1(),
        paper::q2(),
        paper::q3(),
        paper::q4(),
        paper::q5(d1, d2),
        paper::q6(d1, d2),
        paper::q7(7),
        paper::q8(7),
    ]
}

/// Execute every query at the given parallelism against an engine's default
/// table.
fn run_all(engine: &Cohana, queries: &[CohortQuery], parallelism: usize) -> Vec<CohortReport> {
    let session = engine.session().with_parallelism(parallelism);
    queries.iter().map(|q| session.execute(q).expect("query executes")).collect()
}

/// Build an engine over a file assembled by K `ingest` calls.
fn engine_by_ingest(name: &str, batches: &[ActivityTable]) -> (Cohana, PathBuf) {
    let path = temp_path(name);
    let first =
        CompressedTable::build(&batches[0], CompressionOptions::with_chunk_size(CHUNK)).unwrap();
    persist::write_file(&first, &path).unwrap();
    let engine = Cohana::new(EngineOptions::default());
    let handle = engine.open(&path).open().unwrap();
    for batch in &batches[1..] {
        let stats = handle.ingest(batch).unwrap();
        assert_eq!(stats.rows_appended, batch.num_rows());
    }
    drop(handle);
    (engine, path)
}

#[test]
fn n_batch_ingest_matches_build_once_across_queries_and_parallelism() {
    let table = base_table();
    let queries = q1_to_q8(&table);

    // Build-once reference over a file source, like the ingested engine.
    let once_path = temp_path("build-once.cohana");
    let once = CompressedTable::build(&table, CompressionOptions::with_chunk_size(CHUNK)).unwrap();
    persist::write_file(&once, &once_path).unwrap();
    let reference = Cohana::new(EngineOptions::default());
    reference.open(&once_path).open().unwrap();

    let batches = split_by_time(&table, 3);
    let (ingested, path) = engine_by_ingest("three-batches.cohana", &batches);

    for parallelism in [1, 4] {
        let expect = run_all(&reference, &queries, parallelism);
        let got = run_all(&ingested, &queries, parallelism);
        assert_eq!(expect, got, "ingested reports diverge at parallelism {parallelism}");

        // Compaction must not change a single answer either.
        let cstats = ingested.table("GameActions").unwrap().compact().unwrap();
        assert_eq!(cstats.rows, table.num_rows());
        let compacted = run_all(&ingested, &queries, parallelism);
        assert_eq!(expect, compacted, "compacted reports diverge at parallelism {parallelism}");
    }

    // Compaction through the engine restores the exact build-once v4 image:
    // same header version, same bytes, codec selection included.
    let compacted_bytes = std::fs::read(&path).unwrap();
    assert_eq!(&compacted_bytes[4..8], &4u32.to_le_bytes(), "compacted file is not v4");
    assert_eq!(
        compacted_bytes,
        std::fs::read(&once_path).unwrap(),
        "engine compact of an ingested v4 file diverges from the build-once image"
    );

    std::fs::remove_file(&path).ok();
    std::fs::remove_file(&once_path).ok();
}

#[test]
fn ingest_into_memory_table_matches_build_once() {
    let table = base_table();
    let queries = q1_to_q8(&table);
    let batches = split_by_time(&table, 3);

    let reference =
        Cohana::from_activity_table(&table, CompressionOptions::with_chunk_size(CHUNK)).unwrap();
    let engine =
        Cohana::from_activity_table(&batches[0], CompressionOptions::with_chunk_size(CHUNK))
            .unwrap();
    for batch in &batches[1..] {
        engine.table("GameActions").unwrap().ingest(batch).unwrap();
    }
    assert_eq!(run_all(&reference, &queries, 1), run_all(&engine, &queries, 1));
    // A memory compact is a rebuild; answers are unchanged.
    engine.table("GameActions").unwrap().compact().unwrap();
    assert_eq!(run_all(&reference, &queries, 1), run_all(&engine, &queries, 1));
}

#[test]
fn ingested_file_reopens_identically() {
    let table = base_table();
    let queries = q1_to_q8(&table);
    let batches = split_by_time(&table, 4);
    let (ingested, path) = engine_by_ingest("reopen.cohana", &batches);
    let before = run_all(&ingested, &queries, 1);

    // A fresh process opening the appended file sees the same answers, both
    // lazily and eagerly.
    let lazy = Cohana::new(EngineOptions::default());
    lazy.open(&path).open().unwrap();
    assert_eq!(before, run_all(&lazy, &queries, 1));
    let eager = Cohana::new(EngineOptions::default());
    eager.open(&path).resident(true).open().unwrap();
    assert_eq!(before, run_all(&eager, &queries, 1));
    std::fs::remove_file(&path).ok();
}

#[test]
fn prepared_statements_keep_snapshot_semantics_across_ingest() {
    let table = base_table();
    let batches = split_by_time(&table, 2);
    let (engine, path) = {
        let path = temp_path("snapshot-stmt.cohana");
        let first = CompressedTable::build(&batches[0], CompressionOptions::with_chunk_size(CHUNK))
            .unwrap();
        persist::write_file(&first, &path).unwrap();
        let engine = Cohana::new(EngineOptions::default());
        engine.open(&path).open().unwrap();
        (engine, path)
    };

    let session = engine.session();
    let q1 = paper::q1();
    let stmt = session.prepare(&q1).unwrap();
    let before = stmt.execute().unwrap();

    engine.table("GameActions").unwrap().ingest(&batches[1]).unwrap();

    // The old statement pins the pre-ingest source: same answer, then and
    // now — even after the file is compacted underneath it.
    assert_eq!(stmt.execute().unwrap(), before);
    engine.table("GameActions").unwrap().compact().unwrap();
    assert_eq!(stmt.execute().unwrap(), before);

    // A statement prepared after the ingest sees the grown table: every
    // user launches, so total cohort size equals the user count.
    let fresh = session.prepare(&q1).unwrap().execute().unwrap();
    let total: u64 = fresh.cohort_sizes.values().sum();
    assert_eq!(total as usize, table.num_users());
    assert!(fresh.cohort_sizes.values().sum::<u64>() > before.cohort_sizes.values().sum::<u64>());
    std::fs::remove_file(&path).ok();
}

#[test]
fn concurrent_ingests_serialize_and_lose_nothing() {
    // The engine's write lock must serialize racing ingests: every batch
    // lands exactly once, on both the file-backed and the resident path.
    let table = base_table();
    let batches = split_by_time(&table, 5);
    let queries = q1_to_q8(&table);

    let (engine, path) = {
        let path = temp_path("concurrent.cohana");
        let first = CompressedTable::build(&batches[0], CompressionOptions::with_chunk_size(CHUNK))
            .unwrap();
        persist::write_file(&first, &path).unwrap();
        let engine = Cohana::new(EngineOptions::default());
        engine.open(&path).open().unwrap();
        (engine, path)
    };
    std::thread::scope(|s| {
        for batch in &batches[1..] {
            s.spawn(|| engine.table("GameActions").unwrap().ingest(batch).unwrap());
        }
    });
    let reference =
        Cohana::from_activity_table(&table, CompressionOptions::with_chunk_size(CHUNK)).unwrap();
    assert_eq!(run_all(&reference, &queries, 1), run_all(&engine, &queries, 1));

    let memory =
        Cohana::from_activity_table(&batches[0], CompressionOptions::with_chunk_size(CHUNK))
            .unwrap();
    std::thread::scope(|s| {
        for batch in &batches[1..] {
            s.spawn(|| memory.table("GameActions").unwrap().ingest(batch).unwrap());
        }
    });
    assert_eq!(run_all(&reference, &queries, 1), run_all(&memory, &queries, 1));
    std::fs::remove_file(&path).ok();
}

#[test]
fn ingest_rejects_generic_sources_and_unknown_tables() {
    let table = base_table();
    let engine =
        Cohana::from_activity_table(&table, CompressionOptions::with_chunk_size(CHUNK)).unwrap();
    let compressed =
        CompressedTable::build(&table, CompressionOptions::with_chunk_size(CHUNK)).unwrap();
    engine.register_source("generic", std::sync::Arc::new(compressed));

    let batch = split_by_time(&table, 2).remove(1);
    let generic = engine.table("generic").unwrap();
    assert!(matches!(generic.ingest(&batch).unwrap_err(), EngineError::Unsupported(_)));
    assert!(matches!(generic.compact().unwrap_err(), EngineError::Unsupported(_)));
    assert!(matches!(engine.table("nope").unwrap_err(), EngineError::UnknownTable(_)));
}

#[test]
fn ingest_of_v1_file_is_cleanly_rejected() {
    // A v1 or v2 file never becomes a table to ingest into: the engine
    // refuses to open it, with the migration hint, and leaves it as it was.
    for (name, bytes) in [("v1", fixtures::V1), ("v2", fixtures::V2)] {
        let path = temp_path(&format!("{name}-ingest.cohana"));
        std::fs::write(&path, bytes).unwrap();
        let engine = Cohana::new(EngineOptions::default());
        match engine.open(&path).open().map(drop) {
            Err(EngineError::Storage(msg)) => {
                assert!(msg.contains("re-save"), "{name}: no migration hint: {msg}")
            }
            other => panic!("{name}: expected Storage(Unsupported), got {other:?}"),
        }
        assert_eq!(std::fs::read(&path).unwrap(), bytes, "{name}: file changed");
        std::fs::remove_file(&path).ok();
    }
}

#[test]
fn v1_and_v2_files_are_refused_by_every_entry_point() {
    // Every way into a file judges its header first: a v1 or v2 image is
    // refused as unsupported, naming the last build that reads it and the
    // way to migrate, and the file is left as it was.
    let batch = split_by_time(&base_table(), 2).remove(1);
    let refused = |what: String, msg: &str| {
        assert!(msg.contains("5b41903") && msg.contains("re-save"), "{what}: {msg}");
    };
    let images = [("v1", fixtures::V1), ("v2", fixtures::V2), ("v1-empty", fixtures::V1_EMPTY)];
    for (name, bytes) in images {
        let path = temp_path(&format!("refused-{name}.cohana"));
        std::fs::write(&path, bytes).unwrap();
        let outcomes: [(&str, Result<(), StorageError>); 6] = [
            ("from_bytes", persist::from_bytes(bytes).map(drop)),
            ("read_file", persist::read_file(&path).map(drop)),
            ("FileSource::open", FileSource::open(&path).map(drop)),
            ("append", persist::append(&path, &batch).map(drop)),
            ("compact", persist::compact(&path).map(drop)),
            ("inspect", persist::inspect(&path).map(drop)),
        ];
        for (what, outcome) in outcomes {
            match outcome {
                Err(StorageError::Unsupported(msg)) => refused(format!("{name} {what}"), &msg),
                other => panic!("{name} {what}: expected Unsupported, got {other:?}"),
            }
        }
        match Cohana::new(EngineOptions::default()).open(&path).open().map(drop) {
            Err(EngineError::Storage(msg)) if msg.starts_with("unsupported operation") => {
                refused(format!("{name} Cohana::open"), &msg)
            }
            other => panic!("{name} Cohana::open: expected Storage(Unsupported), got {other:?}"),
        }
        assert_eq!(std::fs::read(&path).unwrap(), bytes, "{name}: file changed");
        std::fs::remove_file(&path).ok();
    }
}

#[test]
fn ingest_into_a_v3_file_migrates_it_and_answers_like_naive() {
    // The golden v3 image opened as a one-file table, then a batch of the
    // same users' activity one observation window later: the ingest turns
    // the file into v4 and every answer matches the naive interpreter over
    // the fixture's own rows plus the batch.
    let rows = persist::from_bytes(fixtures::V3).unwrap().decompress().unwrap();
    let tidx = rows.schema().time_idx();
    let (lo, hi) = rows.int_range(tidx).unwrap();
    let mut later = TableBuilder::new(rows.schema().clone());
    let mut all = TableBuilder::new(rows.schema().clone());
    for row in rows.rows() {
        let mut values = row.values().to_vec();
        all.push(values.clone()).unwrap();
        values[tidx] = Value::int(values[tidx].as_int().unwrap() + (hi - lo + 1));
        later.push(values.clone()).unwrap();
        all.push(values).unwrap();
    }
    let (later, all) = (later.finish().unwrap(), all.finish().unwrap());

    let path = temp_path("v3-ingest.cohana");
    std::fs::write(&path, fixtures::V3).unwrap();
    let engine = Cohana::new(EngineOptions::default());
    let handle = engine.open(&path).open().unwrap();
    let stats = handle.ingest(&later).unwrap();
    assert_eq!(stats.rows_appended, later.num_rows());
    assert_eq!(&std::fs::read(&path).unwrap()[4..8], &4u32.to_le_bytes(), "still v3");

    let queries = q1_to_q8(&all);
    for parallelism in [1, 4] {
        for (query, got) in queries.iter().zip(run_all(&engine, &queries, parallelism)) {
            let expect = naive_execute(&all, query).expect("naive reference evaluates");
            assert_eq!(got.rows, expect.rows, "{query:?} p={parallelism}");
            assert_eq!(got.cohort_sizes, expect.cohort_sizes, "{query:?} p={parallelism}");
        }
    }
    std::fs::remove_file(&path).ok();
}

/// Column segments one execution of `query` decodes on the engine's default
/// table right now.
fn columns_decoded(engine: &Cohana, query: &CohortQuery) -> usize {
    let report = engine.session().execute(query).expect("query executes");
    report.stats.expect("engine executions carry stats").columns_decoded
}

#[test]
fn a_snapshot_published_by_ingest_or_compact_starts_warm() {
    let table = base_table();
    let batches = split_by_time(&table, 3);
    let q3 = paper::q3();
    let path = temp_path("warm-publish.cohana");
    let first =
        CompressedTable::build(&batches[0], CompressionOptions::with_chunk_size(CHUNK)).unwrap();
    persist::write_file(&first, &path).unwrap();

    let engine = Cohana::new(EngineOptions::default());
    let handle = engine.open(&path).open().unwrap();
    assert!(columns_decoded(&engine, &q3) > 0, "a plain open starts cold");

    // Every user returns in a later time slice: the ingest rewrites every
    // chunk, and the snapshot it publishes holds them all already.
    let stats = handle.ingest(&batches[1]).unwrap();
    assert_eq!(stats.chunks_rewritten, stats.chunks_before);
    assert_eq!(columns_decoded(&engine, &q3), 0, "first query after ingest decoded columns");
    let io = handle.source().unwrap().io_stats();
    assert!(io.cache_resident_bytes > 0 && io.cache_resident_bytes <= io.cache_budget_bytes);

    handle.compact().unwrap();
    assert_eq!(columns_decoded(&engine, &q3), 0, "first query after compact decoded columns");

    // With no budget nothing is retained, and queries decode as ever.
    let cold = Cohana::new(EngineOptions::default());
    let handle = cold.open(&path).cache_bytes(0).open().unwrap();
    handle.ingest(&batches[2]).unwrap();
    assert_eq!(handle.source().unwrap().io_stats().cache_resident_bytes, 0);
    assert!(columns_decoded(&cold, &q3) > 0);
    std::fs::remove_file(&path).ok();
}

#[test]
fn an_empty_batch_publishes_nothing_and_keeps_the_cache_warm() {
    let table = base_table();
    let empty = TableBuilder::new(table.schema().clone()).finish().unwrap();
    let q3 = paper::q3();
    let path = temp_path("empty-batch.cohana");
    let built = CompressedTable::build(&table, CompressionOptions::with_chunk_size(CHUNK)).unwrap();
    persist::write_file(&built, &path).unwrap();
    let resident = Cohana::new(EngineOptions::default());
    resident.register(DEFAULT_TABLE, built);

    let engine = Cohana::new(EngineOptions::default());
    let handle = engine.open(&path).open().unwrap();
    assert!(columns_decoded(&engine, &q3) > 0);
    for (engine, handle) in [(&engine, handle), (&resident, resident.default_table().unwrap())] {
        let before = handle.source().unwrap();
        let stats = handle.ingest(&empty).unwrap();
        assert_eq!((stats.rows_appended, stats.chunks_rewritten, stats.bytes_appended), (0, 0, 0));
        assert_eq!(stats.chunks_before, stats.chunks_after);
        let after = handle.source().unwrap();
        assert!(std::ptr::addr_eq(std::sync::Arc::as_ptr(&before), std::sync::Arc::as_ptr(&after)));
        assert_eq!(columns_decoded(engine, &q3), 0, "an empty ingest dropped the cache");
    }
    std::fs::remove_file(&path).ok();
}
