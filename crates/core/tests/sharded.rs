//! Sharded-table integration tests: a table partitioned by user-id range
//! into many shard files must be **observationally identical** to the same
//! data in one file — Q1–Q8 and the wide-key queries of `common`, across
//! parallelism levels, through K-batch
//! parallel ingest, background compaction racing the ingest, user deletion,
//! and prepared-statement snapshots. A single file is a one-shard table, so
//! the lifecycle tests run over both [`Shape`]s.

use cohana_activity::{generate, ActivityTable, GeneratorConfig, TableBuilder, TimeBin, Timestamp};
use cohana_core::naive::naive_execute;
use cohana_core::{
    paper, Cohana, CohortQuery, CohortReport, EngineError, EngineOptions, MaintenanceConfig,
    OpenOptions,
};
use cohana_storage::{
    persist, shard, ChunkSource, CompressedTable, CompressionOptions, FileSource,
};
use std::path::{Path, PathBuf};
use std::time::Duration;

mod common;

const CHUNK: usize = 256;

/// The two shapes of a file-backed table.
#[derive(Debug, Clone, Copy)]
enum Shape {
    /// One file: a one-shard table.
    File,
    /// A directory of four range shards.
    Shards,
}

const SHAPES: [Shape; 2] = [Shape::File, Shape::Shards];

impl Shape {
    /// Where the table lives inside its test directory.
    fn path(self, dir: &Path) -> PathBuf {
        match self {
            Shape::File => dir.join("table.cohana"),
            Shape::Shards => dir.to_path_buf(),
        }
    }

    /// A builder that creates a table of this shape in `dir`.
    fn create<'e>(self, engine: &'e Cohana, dir: &Path) -> OpenOptions<'e> {
        std::fs::create_dir_all(dir).unwrap();
        let options = engine.open(self.path(dir)).chunk_size(CHUNK);
        match self {
            Shape::File => options,
            Shape::Shards => options.shards(4),
        }
    }

    fn num_shards(self) -> usize {
        match self {
            Shape::File => 1,
            Shape::Shards => 4,
        }
    }
}

fn temp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("cohana-sharded-test").join(name);
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(dir.parent().unwrap()).unwrap();
    dir
}

fn temp_file(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("cohana-sharded-test");
    std::fs::create_dir_all(&dir).unwrap();
    dir.join(name)
}

fn base_table() -> ActivityTable {
    common::with_signed_sessions(&generate(&GeneratorConfig::small()))
}

/// Contiguous time slices: later batches revisit users of earlier ones, the
/// worst case for append (forces chunk rewrites → dead bytes).
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
/// from the dataset window, then the wide-key queries.
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
    .into_iter()
    .chain(common::wide_key_queries().into_iter().map(|(_, q)| q))
    .collect()
}

fn run_all(engine: &Cohana, queries: &[CohortQuery], parallelism: usize) -> Vec<CohortReport> {
    let session = engine.session().with_parallelism(parallelism);
    queries.iter().map(|q| session.execute(q).expect("query executes")).collect()
}

/// A build-once single-file reference engine over the same rows.
fn single_file_reference(table: &ActivityTable, name: &str) -> (Cohana, PathBuf) {
    let path = temp_file(name);
    let once = CompressedTable::build(table, CompressionOptions::with_chunk_size(CHUNK)).unwrap();
    persist::write_file(&once, &path).unwrap();
    let engine = Cohana::new(EngineOptions::default());
    engine.open(&path).open().unwrap();
    (engine, path)
}

#[test]
fn sharded_answers_match_single_file_over_q1_q8() {
    let table = base_table();
    let queries = q1_to_q8(&table);
    let (reference, ref_path) = single_file_reference(&table, "differential-ref.cohana");

    let dir = temp_dir("differential");
    let engine = Cohana::new(EngineOptions::default());
    let handle = engine.open(&dir).shards(5).chunk_size(CHUNK).create_from(&table).unwrap();
    assert!(handle.sharded_table().is_some());
    assert!(handle.num_shards() > 1, "small() has plenty of users; want a real split");

    for parallelism in [1, 4] {
        let expect = run_all(&reference, &queries, parallelism);
        let got = run_all(&engine, &queries, parallelism);
        assert_eq!(expect, got, "sharded reports diverge at parallelism {parallelism}");
        // ... and both equal the executable spec.
        for (query, got) in queries.iter().zip(&got) {
            let spec = naive_execute(&table, query).expect("naive reference evaluates");
            assert_eq!(spec.rows, got.rows, "sharded vs naive p={parallelism}: {query}");
            assert_eq!(spec.cohort_sizes, got.cohort_sizes, "sizes p={parallelism}: {query}");
        }
    }

    // prepare_on: an explicit handle through a configured session gives the
    // same answer as the engine's default path.
    let session = engine.session().with_parallelism(2);
    let stmt = session.prepare_on(&handle, &queries[0]).unwrap();
    assert_eq!(stmt.execute().unwrap(), run_all(&reference, &queries[..1], 2)[0]);

    // A handle from another engine is rejected.
    let err = reference.session().prepare_on(&handle, &queries[0]).unwrap_err();
    assert!(matches!(err, EngineError::Unsupported(_)));

    std::fs::remove_file(&ref_path).ok();
    std::fs::remove_dir_all(&dir).ok();
}

/// The users of `table` whose id ends in an even (`odd == 0`) or odd
/// (`odd == 1`) digit.
fn users_by_parity(table: &ActivityTable, odd: u8) -> ActivityTable {
    let uidx = table.schema().user_idx();
    let mut b = TableBuilder::new(table.schema().clone());
    for t in table.rows() {
        if t.get(uidx).as_str().unwrap().bytes().last().unwrap() % 2 == odd {
            b.push(t.values().to_vec()).unwrap();
        }
    }
    b.finish().unwrap()
}

#[test]
fn epoch_remaps_under_shard_overlays_match_build_once() {
    // `hostile_counts`' image recipe over four shards: the users with an
    // even last digit, then the odd ones appended. No chunk is rewritten,
    // and the new ids sort in between the old ones, so every shard's old
    // chunks keep an epoch whose user remap is not the identity — and the
    // shard's own dictionary is a strict subset of the table's union, so
    // its overlay is not the identity either. A segment of such a chunk
    // needs both remaps, in that order.
    let table = base_table();
    let uidx = table.schema().user_idx();
    let queries = q1_to_q8(&table);
    let reference =
        Cohana::from_activity_table(&table, CompressionOptions::with_chunk_size(CHUNK)).unwrap();

    let dir = temp_dir("epoch-overlay");
    let engine = Cohana::new(EngineOptions::default());
    let handle =
        Shape::Shards.create(&engine, &dir).create_from(&users_by_parity(&table, 0)).unwrap();
    assert_eq!(handle.num_shards(), 4);
    let manifest = shard::read_manifest(&dir).unwrap();
    let users = |i: usize| -> Vec<String> {
        let src = FileSource::open(&manifest.shard_path(&dir, i)).unwrap();
        src.table_meta().global_dict(uidx).unwrap().values().iter().map(|v| v.to_string()).collect()
    };
    let before: Vec<Vec<String>> = (0..4).map(users).collect();
    let stats = handle.ingest(&users_by_parity(&table, 1)).unwrap();
    assert_eq!(stats.chunks_rewritten, 0, "every old chunk survives in its epoch");
    for (i, old) in before.iter().enumerate() {
        let new = users(i);
        assert!(
            old.iter().zip(&new).any(|(a, b)| a != b),
            "shard {i}: the append left the old user gids in place (identity epoch remap)"
        );
        assert!(new.len() < table.num_users(), "shard {i}: overlay is the identity");
    }

    // The ingesting engine serves a snapshot seeded with the appended
    // chunks; the reopened ones decode everything, one at cache 0.
    let reopened = |cache: Option<usize>| {
        let engine = Cohana::new(EngineOptions::default());
        let options = engine.open(&dir);
        match cache {
            Some(bytes) => options.cache_bytes(bytes).open(),
            None => options.open(),
        }
        .unwrap();
        engine
    };
    for (name, engine) in
        [("seeded", engine), ("cache 0", reopened(Some(0))), ("default cache", reopened(None))]
    {
        for parallelism in [1, 4] {
            assert_eq!(
                run_all(&reference, &queries, parallelism),
                run_all(&engine, &queries, parallelism),
                "{name} epoch ∘ overlay table diverges at parallelism {parallelism}"
            );
        }
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn k_batch_sharded_ingest_matches_build_once() {
    let table = base_table();
    let queries = q1_to_q8(&table);
    let batches = split_by_time(&table, 4);
    let (reference, ref_path) = single_file_reference(&table, "kbatch-ref.cohana");

    for shape in SHAPES {
        // Without background maintenance: create from the first batch,
        // ingest the rest (each append fans out across shards in parallel).
        let dir = temp_dir(&format!("kbatch-{shape:?}"));
        let engine = Cohana::new(EngineOptions::default());
        let handle = shape.create(&engine, &dir).create_from(&batches[0]).unwrap();
        for batch in &batches[1..] {
            let stats = handle.ingest(batch).unwrap();
            assert_eq!(stats.rows_appended, batch.num_rows());
        }
        for parallelism in [1, 4] {
            let expect = run_all(&reference, &queries, parallelism);
            assert_eq!(
                expect,
                run_all(&engine, &queries, parallelism),
                "K-batch {shape:?} ingest diverges at parallelism {parallelism}"
            );
            // Per-shard compaction must not change an answer.
            handle.compact().unwrap();
            assert_eq!(
                expect,
                run_all(&engine, &queries, parallelism),
                "compacted {shape:?} table diverges at parallelism {parallelism}"
            );
        }
        std::fs::remove_dir_all(&dir).ok();

        // With background compaction racing the ingest: an aggressive
        // threshold and a short interval make the maintenance thread rewrite
        // shards while batches keep arriving; answers must still match.
        let dir = temp_dir(&format!("kbatch-racing-{shape:?}"));
        let engine = Cohana::new(EngineOptions::default());
        let config = MaintenanceConfig {
            auto_compact: true,
            dead_ratio: 0.01,
            interval: Duration::from_millis(5),
        };
        let handle =
            shape.create(&engine, &dir).maintenance(config).create_from(&batches[0]).unwrap();
        for batch in &batches[1..] {
            handle.ingest(batch).unwrap();
            // Give the racing thread a chance to actually interleave.
            std::thread::sleep(Duration::from_millis(10));
        }
        for parallelism in [1, 4] {
            assert_eq!(
                run_all(&reference, &queries, parallelism),
                run_all(&engine, &queries, parallelism),
                "{shape:?} ingest racing background compaction diverges at parallelism \
                 {parallelism}"
            );
        }
        std::fs::remove_dir_all(&dir).ok();
    }
    std::fs::remove_file(&ref_path).ok();
}

#[test]
fn background_compaction_fires_without_breaking_prepared_snapshots() {
    let table = base_table();
    let batches = split_by_time(&table, 2);

    let dir = temp_dir("auto-compact");
    let engine = Cohana::new(EngineOptions::default());
    let config = MaintenanceConfig {
        auto_compact: true,
        dead_ratio: 0.02,
        interval: Duration::from_millis(5),
    };
    let handle = engine
        .open(&dir)
        .shards(3)
        .chunk_size(CHUNK)
        .maintenance(config)
        .create_from(&batches[0])
        .unwrap();

    // Pin a statement to the pre-ingest snapshot.
    let q1 = paper::q1();
    let stmt = engine.session().prepare(&q1).unwrap();
    let before = stmt.execute().unwrap();

    // Time-sliced batch 1 revisits batch 0's users: the appends rewrite
    // their chunks, leaving dead bytes well past the 2% threshold.
    handle.ingest(&batches[1]).unwrap();

    // The ingest poked the maintenance thread; wait for it to compact.
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    loop {
        let m = handle.maintenance_stats().unwrap();
        if m.auto_compactions > 0 {
            break;
        }
        assert!(
            std::time::Instant::now() < deadline,
            "background maintenance never compacted: {m:?}, space {:?}",
            handle.space_stats().unwrap()
        );
        std::thread::sleep(Duration::from_millis(10));
    }
    let m = handle.maintenance_stats().unwrap();
    assert!(m.reclaimed_bytes > 0, "compactions reclaimed nothing: {m:?}");

    // The in-flight statement still answers from its pre-ingest snapshot —
    // the compaction rewrote the files via temp + rename underneath it.
    assert_eq!(stmt.execute().unwrap(), before, "snapshot broken by background compaction");

    // A statement prepared now sees all the data.
    let fresh = engine.session().prepare(&q1).unwrap().execute().unwrap();
    let total: u64 = fresh.cohort_sizes.values().sum();
    assert_eq!(total as usize, table.num_users());

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn delete_users_is_equivalent_to_never_having_ingested_them() {
    let table = base_table();
    let queries = q1_to_q8(&table);
    let user_idx = table.schema().user_idx();

    // Pick every 7th user to erase.
    let users: Vec<String> = table
        .user_blocks()
        .map(|b| table.rows()[b.start].get(user_idx).as_str().unwrap().to_string())
        .collect();
    let doomed: Vec<&str> = users.iter().step_by(7).map(|s| s.as_str()).collect();
    assert!(!doomed.is_empty());

    // Reference: the same table built without the deleted users at all.
    let doomed_set: std::collections::HashSet<&str> = doomed.iter().copied().collect();
    let mut b = TableBuilder::new(table.schema().clone());
    for row in table.rows() {
        if !doomed_set.contains(row.get(user_idx).as_str().unwrap()) {
            b.push(row.values().to_vec()).unwrap();
        }
    }
    let filtered = b.finish().unwrap();
    let reference =
        Cohana::from_activity_table(&filtered, CompressionOptions::with_chunk_size(CHUNK)).unwrap();

    for shape in SHAPES {
        let dir = temp_dir(&format!("delete-{shape:?}"));
        let engine = Cohana::new(EngineOptions::default());
        let handle = shape.create(&engine, &dir).create_from(&table).unwrap();

        // Pin a statement to the pre-delete snapshot.
        let stmt = engine.session().prepare(&queries[0]).unwrap();
        let before = stmt.execute().unwrap();

        let stats = handle.delete_users(&doomed).unwrap();
        assert_eq!(stats.users_deleted, doomed.len());
        assert!(stats.rows_deleted > 0);
        assert!(stats.shards_rewritten > 0);

        for parallelism in [1, 4] {
            assert_eq!(
                run_all(&reference, &queries, parallelism),
                run_all(&engine, &queries, parallelism),
                "post-delete {shape:?} reports diverge at parallelism {parallelism}"
            );
        }

        // The pre-delete statement still sees the deleted users (snapshot),
        // and its cohort totals exceed the post-delete totals.
        assert_eq!(stmt.execute().unwrap(), before);
        let after = engine.session().prepare(&queries[0]).unwrap().execute().unwrap();
        let total_before: u64 = before.cohort_sizes.values().sum();
        let total_after: u64 = after.cohort_sizes.values().sum();
        assert_eq!(total_after as usize, table.num_users() - doomed.len());
        assert!(total_before > total_after);

        std::fs::remove_dir_all(&dir).ok();
    }
}

#[test]
fn deleting_from_a_flat_file_leaves_nothing_beside_it() {
    // A one-file table records no tombstones: its one rewrite is atomic, so
    // delete (and maintenance) leave the directory holding just the file.
    let table = base_table();
    let user_idx = table.schema().user_idx();
    let doomed: Vec<&str> = table
        .user_blocks()
        .step_by(5)
        .map(|b| table.rows()[b.start].get(user_idx).as_str().unwrap())
        .collect();
    let dir = temp_dir("delete-flat-leftovers");
    let engine = Cohana::new(EngineOptions::default());
    let handle = Shape::File.create(&engine, &dir).create_from(&table).unwrap();
    assert_eq!(handle.delete_users(&doomed).unwrap().users_deleted, doomed.len());
    assert_eq!(handle.maintenance_pass().unwrap().passes, 1);
    assert_eq!(handle.maintenance_stats().unwrap().passes, 1);

    let names: Vec<String> = std::fs::read_dir(&dir)
        .unwrap()
        .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
        .collect();
    assert_eq!(names, ["table.cohana"], "a flat-file delete left files beside the table");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn sharded_table_reopens_after_restart() {
    // A "process restart": drop the engine, reopen the directory, and get
    // identical answers (the manifest plus shard files are the whole state).
    let table = base_table();
    let queries = q1_to_q8(&table);
    for shape in SHAPES {
        let dir = temp_dir(&format!("reopen-{shape:?}"));
        let before = {
            let engine = Cohana::new(EngineOptions::default());
            shape.create(&engine, &dir).create_from(&table).unwrap();
            run_all(&engine, &queries, 1)
        };

        let engine = Cohana::new(EngineOptions::default());
        let handle = engine.open(shape.path(&dir)).open().unwrap();
        assert_eq!(handle.num_shards(), shape.num_shards());
        assert_eq!(before, run_all(&engine, &queries, 1));

        // Space stats expose one entry per shard for operators.
        let space = handle.space_stats().unwrap();
        assert_eq!(space.len(), handle.num_shards());
        assert!(space.iter().all(|s| s.file_bytes > 0));

        std::fs::remove_dir_all(&dir).ok();
    }
}

#[test]
fn sharded_snapshots_start_warm_and_an_empty_batch_swaps_nothing() {
    let table = base_table();
    let batches = split_by_time(&table, 3);
    let q3 = paper::q3();
    let columns_decoded = |engine: &Cohana| {
        let report = engine.session().execute(&q3).expect("query executes");
        report.stats.expect("engine executions carry stats").columns_decoded
    };

    for shape in SHAPES {
        let dir = temp_dir(&format!("warm-publish-{shape:?}"));
        let engine = Cohana::new(EngineOptions::default());
        let handle = shape.create(&engine, &dir).create_from(&batches[0]).unwrap();
        assert!(columns_decoded(&engine) > 0, "a plain open starts cold");

        // Every user returns in a later time slice: each shard's append
        // rewrites all its chunks, and the published snapshot holds them,
        // passed through the shard's overlay into the unified dictionaries.
        let stats = handle.ingest(&batches[1]).unwrap();
        assert_eq!(stats.chunks_rewritten, stats.chunks_before);
        assert_eq!(columns_decoded(&engine), 0, "first query after ingest decoded columns");

        // An empty batch reaches no shard: same snapshot, same warm cache,
        // all stats zero.
        let before = handle.sharded_table().unwrap().source();
        let empty = TableBuilder::new(table.schema().clone()).finish().unwrap();
        assert_eq!(handle.ingest(&empty).unwrap(), cohana_storage::AppendStats::default());
        assert!(std::sync::Arc::ptr_eq(&before, &handle.sharded_table().unwrap().source()));
        assert_eq!(columns_decoded(&engine), 0, "an empty ingest dropped the cache");

        handle.ingest(&batches[2]).unwrap();
        handle.compact().unwrap();
        assert_eq!(columns_decoded(&engine), 0, "first query after compact decoded columns");
        let expect =
            Cohana::from_activity_table(&table, CompressionOptions::with_chunk_size(CHUNK))
                .unwrap()
                .execute(&q3)
                .unwrap();
        assert_eq!(engine.execute(&q3).unwrap(), expect, "a warm snapshot answers like build-once");
        std::fs::remove_dir_all(&dir).ok();

        // With no budget nothing is retained.
        let dir = temp_dir(&format!("warm-publish-no-budget-{shape:?}"));
        let cold = Cohana::new(EngineOptions::default());
        let handle = shape.create(&cold, &dir).cache_bytes(0).create_from(&batches[0]).unwrap();
        handle.ingest(&batches[1]).unwrap();
        assert_eq!(handle.source().unwrap().io_stats().cache_resident_bytes, 0);
        assert!(columns_decoded(&cold) > 0);
        std::fs::remove_dir_all(&dir).ok();
    }
}
