//! The on-disk version matrix: the paper's benchmark queries Q1–Q8 and the
//! wide-key queries of `common` (2- and 3-attribute cohort keys mixing
//! string, integer and binned-time parts, over every aggregate) must
//! produce identical reports over every supported format and access path —
//! v3 (lazy, per-column fetch) and v4 (eager, and lazy per-column fetch
//! through the per-blob codec layer) — at parallelism 1 and 4, through
//! *both* execution shapes of the session API: the eager
//! [`Statement::execute`] and the streaming [`Statement::stream`] with its
//! per-chunk batches merged by hand. The v3 file is the golden image of
//! `cohana-storage`'s `tests/fixtures/`, which nothing writes any more; the
//! v4 file is written from what it decodes to. (v1 and v2 files are refused
//! on open; `ingest.rs` checks every entry point.) Plus the two headline
//! properties of the column-addressable layout:
//!
//! * **projection pushdown**: a query decodes strictly fewer columns than
//!   `arity × chunks_touched`, because unprojected columns are never read;
//! * **bounded cache**: under an arbitrarily small byte budget, resident
//!   cache bytes never exceed the budget while results stay identical to
//!   the eager path.

use cohana_activity::{generate, GeneratorConfig, Timestamp};
use cohana_core::naive::naive_execute;
use cohana_core::{paper, CohortQuery, CohortReport, PlannerOptions, Statement};
use cohana_storage::{persist, ChunkSource, CompressedTable, CompressionOptions, FileSource};
use std::path::PathBuf;
use std::sync::Arc;

mod common;
#[path = "../../storage/tests/fixtures/mod.rs"]
mod fixtures;

fn temp_file(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("cohana-version-matrix-test");
    std::fs::create_dir_all(&dir).unwrap();
    dir.join(name)
}

/// Q1–Q8, then the wide-key queries.
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

fn prepare(source: Arc<dyn ChunkSource>, query: &CohortQuery, parallelism: usize) -> Statement {
    Statement::over(source, query, PlannerOptions::default(), parallelism).expect("query plans")
}

/// Execute a statement by pulling its stream batch by batch and merging the
/// batches manually — the streaming consumer's path. Must agree exactly with
/// the eager [`Statement::execute`].
fn execute_via_stream(stmt: &Statement) -> CohortReport {
    let mut stream = stmt.stream();
    let mut batches = Vec::new();
    for batch in &mut stream {
        batches.push(batch.expect("batch executes"));
    }
    let stats = stream.stats();
    assert_eq!(stats.batches, batches.len());
    assert_eq!(stats.chunks_scanned + stats.chunks_pruned, stats.chunks_total);
    drop(stream);
    stmt.report_from_batches(batches).expect("batches merge")
}

#[test]
fn q1_to_q8_identical_across_v3_v4_eager_and_streamed() {
    // The reference is the fixture's own rows (its table can never be
    // written again, so nothing may assume a generator still produces it).
    let memory = Arc::new(persist::from_bytes(fixtures::V3).unwrap());
    let table = memory.decompress().unwrap();
    assert!(memory.chunks().len() > 1, "need multiple chunks to be meaningful");

    let v3_path = temp_file("matrix-v3.cohana");
    let v4_path = temp_file("matrix-v4.cohana");
    std::fs::write(&v3_path, fixtures::V3).unwrap();
    persist::write_file(&memory, &v4_path).unwrap();

    // v4 loaded eagerly: every blob decoded through its codec up front.
    let v4_eager = Arc::new(persist::read_file(&v4_path).unwrap());
    // v3: lazy open with per-column fetches.
    let v3_lazy = Arc::new(FileSource::open(&v3_path).unwrap());
    // v4: lazy open with per-column fetches through the codec layer.
    let v4_lazy = Arc::new(FileSource::open(&v4_path).unwrap());

    for (name, query) in paper_queries() {
        // The executable spec: the naive interpreter over the uncompressed
        // table. Every storage format, access path, and parallelism level of
        // the vectorized executor must reproduce it exactly.
        let reference = naive_execute(&table, &query).expect("naive reference evaluates");
        if name.starts_with('w') {
            // The wide-key inputs are only worth their name if they produce
            // many cohorts, some keyed by a negative integer where the key
            // has an integer part.
            let keys = || reference.cohort_sizes.keys().flatten();
            assert!(reference.cohort_sizes.len() > 12 && !reference.rows.is_empty(), "{name}");
            let signed = keys().any(|v| v.as_int().is_some_and(|i| i < 0));
            assert!(signed || matches!(name.as_str(), "wt" | "ws"), "{name}");
        }
        for parallelism in [1, 4] {
            let expect = prepare(memory.clone(), &query, parallelism).execute().unwrap();
            assert_eq!(expect.rows, reference.rows, "{name} resident vs naive p={parallelism}");
            assert_eq!(
                expect.cohort_sizes, reference.cohort_sizes,
                "{name} resident sizes vs naive p={parallelism}"
            );
            // §4.4 ablation: hashing the cohort key instead of direct-
            // indexing it changes no answer.
            let hashed = PlannerOptions { array_aggregation: false, ..PlannerOptions::default() };
            let ablated = Statement::over(memory.clone(), &query, hashed, parallelism)
                .expect("query plans")
                .execute()
                .unwrap();
            assert_eq!(ablated, expect, "{name} hashed interner p={parallelism}");
            for (vname, source) in [
                ("v4 eager", Arc::clone(&v4_eager) as Arc<dyn ChunkSource>),
                ("v3", Arc::clone(&v3_lazy) as Arc<dyn ChunkSource>),
                ("v4", Arc::clone(&v4_lazy) as Arc<dyn ChunkSource>),
            ] {
                let stmt = prepare(source, &query, parallelism);
                let eager = stmt.execute().unwrap();
                let streamed = execute_via_stream(&stmt);
                assert_eq!(reference.rows, eager.rows, "{name} {vname} vs naive p={parallelism}");
                assert_eq!(
                    reference.cohort_sizes, eager.cohort_sizes,
                    "{name} {vname} sizes vs naive p={parallelism}"
                );
                assert_eq!(eager, streamed, "{name} {vname} streamed p={parallelism}");
                // Two executions ran through the statement; its cumulative
                // stats saw both.
                assert_eq!(stmt.executions(), 2, "{name} {vname}");
                // The executor attributes the rows its passes covered:
                // never more than the table, and exactly the table when
                // nothing can skip a chunk — no metadata pruning fired and
                // no birth predicate exists for per-chunk specialization
                // to fold away (a folded chunk reports 0 rows scanned).
                let stats = eager.stats.expect("stats attached");
                assert!(
                    stats.rows_scanned as usize <= table.num_rows(),
                    "{name} {vname} rows_scanned over-counts p={parallelism}"
                );
                if stats.chunks_pruned == 0 && query.birth_predicate.is_none() {
                    assert_eq!(
                        stats.rows_scanned as usize,
                        table.num_rows(),
                        "{name} {vname} rows_scanned p={parallelism}"
                    );
                    // Every scanned chunk ran at least one morsel, and the
                    // chunks' run time was counted.
                    assert!(
                        stats.morsels_executed >= stats.chunks_scanned as u64,
                        "{name} {vname} p={parallelism}: {} morsels over {} chunks",
                        stats.morsels_executed,
                        stats.chunks_scanned
                    );
                    assert!(
                        stats.worker_busy_ns > 0,
                        "{name} {vname} p={parallelism}: busy time untracked"
                    );
                }
            }
        }
    }
    // Both lazy sources decoded individual columns. Raw-blob sources report
    // decompressed bytes equal to bytes read; a v4 source's decoded bytes
    // are never less than its disk bytes.
    let (v3_io, v4_io) = (v3_lazy.io_stats(), v4_lazy.io_stats());
    assert!(v3_io.columns_decoded > 0);
    assert!(v4_io.columns_decoded > 0);
    assert_eq!(v3_io.bytes_decompressed, v3_io.bytes_read);
    assert!(v4_io.bytes_decompressed >= v4_io.bytes_read);
    for p in [v3_path, v4_path] {
        std::fs::remove_file(&p).ok();
    }
}

/// The acceptance-criterion decode-counting test: a selective projected
/// query against a v3 file decodes strictly fewer *columns* than
/// `arity × chunks_touched`, and its per-query stats agree with the
/// source's lifetime counters.
#[test]
fn projected_query_decodes_fewer_columns_than_arity_times_chunks() {
    let table = generate(&GeneratorConfig::small());
    let memory =
        Arc::new(CompressedTable::build(&table, CompressionOptions::with_chunk_size(256)).unwrap());
    let arity = memory.schema().arity();
    let path = temp_file("projection-count.cohana");
    persist::write_file(&memory, &path).unwrap();

    // Q1 projects user, time, action, country — half of the 8-attribute
    // game schema.
    let query = paper::q1();
    let lazy = Arc::new(FileSource::open(&path).unwrap());
    let stmt = prepare(lazy.clone(), &query, 1);
    assert!(stmt.plan().projected_idxs.len() < arity, "Q1 must be a selective projection");

    let expect = prepare(memory, &query, 1).execute().unwrap();
    let got = stmt.execute().unwrap();
    assert_eq!(expect.rows, got.rows);

    let io = lazy.io_stats();
    let chunks_touched = io.chunks_decoded;
    assert!(chunks_touched > 0, "Q1 touches every chunk");
    assert!(io.columns_decoded > 0);
    assert!(
        io.columns_decoded < arity * chunks_touched,
        "decoded {} columns over {chunks_touched} chunks of arity {arity} — projection pushdown \
         never fired",
        io.columns_decoded,
    );
    // Exactly the projected non-user columns decode: nothing else.
    let non_user_projected = stmt.plan().projected_idxs.len() - 1;
    assert_eq!(io.columns_decoded, non_user_projected * chunks_touched);

    // The per-query stats attributed to this execution match the lifetime
    // counters (the query was alone on a cold source).
    let stats = got.stats.expect("executor attaches stats");
    assert_eq!(stats.chunks_decoded, io.chunks_decoded);
    assert_eq!(stats.columns_decoded, io.columns_decoded);
    assert_eq!(stats.bytes_read, io.bytes_read);
    std::fs::remove_file(&path).ok();
}

/// The acceptance-criterion cache test: resident bytes never exceed the
/// configured budget while Q1–Q8 results stay identical to the eager path.
#[test]
fn bounded_cache_stays_within_budget_with_identical_results() {
    let table = generate(&GeneratorConfig::small());
    let memory =
        Arc::new(CompressedTable::build(&table, CompressionOptions::with_chunk_size(256)).unwrap());
    let path = temp_file("budget.cohana");
    persist::write_file(&memory, &path).unwrap();

    // A budget far below the table's compressed size forces eviction.
    let budget = 4 * 1024;
    let lazy = Arc::new(FileSource::open_with_budget(&path, budget).unwrap());
    assert_eq!(lazy.io_stats().cache_budget_bytes, budget);

    for (name, query) in paper_queries() {
        for parallelism in [1, 4] {
            let expect = prepare(memory.clone(), &query, parallelism).execute().unwrap();
            let got = prepare(lazy.clone(), &query, parallelism).execute().unwrap();
            assert_eq!(expect.rows, got.rows, "{name} p={parallelism}");
            assert_eq!(expect.cohort_sizes, got.cohort_sizes, "{name} p={parallelism}");
            let resident = lazy.io_stats().cache_resident_bytes;
            assert!(resident <= budget, "{name}: resident {resident} exceeds budget {budget}");
        }
    }
    assert!(lazy.io_stats().cache_evictions > 0, "a tiny budget must evict");
    std::fs::remove_file(&path).ok();
}

/// Skewed data (one whale user ≈ half the table, never split by chunking)
/// leaves one chunk far heavier than the rest; chunk-parallel workers must
/// still reproduce the naive reference exactly, at every parallelism. That
/// any morsel tiling of a chunk folds alike is `exec`'s unit test.
#[test]
fn skewed_whale_chunk_identical_across_parallelism() {
    let table = generate(&GeneratorConfig::skewed(60));
    let source =
        Arc::new(CompressedTable::build(&table, CompressionOptions::with_chunk_size(256)).unwrap());
    let whale_chunk =
        source.chunks().iter().map(|c| c.num_rows()).max().expect("chunks exist") as f64;
    assert!(
        whale_chunk / table.num_rows() as f64 >= 0.4,
        "the whale chunk must dominate the table"
    );

    for (name, query) in paper_queries() {
        let reference = naive_execute(&table, &query).expect("naive reference evaluates");
        for parallelism in [1, 4] {
            let got = prepare(source.clone(), &query, parallelism).execute().unwrap();
            assert_eq!(reference.rows, got.rows, "{name} p={parallelism}");
            assert_eq!(reference.cohort_sizes, got.cohort_sizes, "{name} sizes p={parallelism}");
        }
    }
}

/// Early termination under parallel workers: dropping a parallel stream
/// after one batch stops workers at their next **chunk** boundary, the
/// query records what ran, and nothing hangs — even when many chunks are
/// still unclaimed.
#[test]
fn early_drop_under_parallel_workers_stops_at_chunk_boundary() {
    let table = generate(&GeneratorConfig::small());
    let source =
        Arc::new(CompressedTable::build(&table, CompressionOptions::with_chunk_size(256)).unwrap());
    assert!(source.chunks().len() > 2, "need chunks left over after the first batch");

    let stmt = prepare(source, &paper::q1(), 4);
    let first_morsels;
    {
        let mut stream = stmt.stream();
        let first = stream.next().expect("at least one batch").expect("batch executes");
        first_morsels = first.morsels();
        assert!(first_morsels >= 1);
    } // drop: disconnects the channel, workers cancel at a chunk boundary
    let cum = stmt.cumulative_stats();
    assert_eq!(stmt.executions(), 1);
    assert!(cum.chunks_scanned >= 1, "the pulled batch was recorded");
    assert!(cum.morsels_executed >= first_morsels, "morsel accounting survived the early drop");
}

/// Cohort-clustered arrival makes chunk time-bounds disjoint, so a birth
/// date-range query on a v3 file skips whole chunks — no RLE decode, no
/// column decode, no bytes read for them — and the per-query stats say so:
/// `chunks_pruned > 0` and `chunks_decoded < chunks_total`.
#[test]
fn cohort_clustered_data_prunes_chunks_and_bytes() {
    const DAY: i64 = 86_400;
    let cfg = GeneratorConfig::cohort_clustered(120);
    let table = generate(&cfg);
    let memory =
        Arc::new(CompressedTable::build(&table, CompressionOptions::with_chunk_size(256)).unwrap());
    assert!(memory.chunks().len() >= 4, "need several chunks");
    // The arrival mode really does produce disjoint chunk time-bounds.
    let first = &memory.index_entries()[0];
    let last = memory.index_entries().last().unwrap();
    assert!(
        first.time_max < last.time_min,
        "first chunk [{}, {}] overlaps last [{}, {}]",
        first.time_min,
        first.time_max,
        last.time_min,
        last.time_max
    );

    let path = temp_file("clustered.cohana");
    persist::write_file(&memory, &path).unwrap();
    let lazy = Arc::new(FileSource::open(&path).unwrap());

    // Births during the first five days: only the earliest chunks qualify.
    let start = cfg.start.secs();
    let query = paper::q5(start, start + 5 * DAY);
    let expect = prepare(memory, &query, 1).execute().unwrap();
    let got = prepare(lazy.clone(), &query, 1).execute().unwrap();
    assert_eq!(expect.rows, got.rows);
    assert!(!got.rows.is_empty(), "the early cohorts must qualify");
    let decoded = lazy.io_stats().chunks_decoded;
    assert!(
        decoded < lazy.num_chunks(),
        "decoded {decoded} of {} chunks — time pruning never fired",
        lazy.num_chunks()
    );

    // The acceptance criterion, straight off the per-query stats.
    let stats = got.stats.expect("executor attaches stats");
    assert!(stats.chunks_pruned > 0, "pruning must show in QueryStats");
    assert!(
        stats.chunks_decoded < stats.chunks_total,
        "stats: decoded {} of {} chunks",
        stats.chunks_decoded,
        stats.chunks_total
    );
    assert_eq!(stats.chunks_scanned, stats.chunks_total - stats.chunks_pruned);

    // Bytes read stay below the full payload: pruned chunks cost zero I/O.
    let file_len = std::fs::metadata(&path).unwrap().len();
    let read = lazy.io_stats().bytes_read;
    assert!(read < file_len, "read {read} of {file_len} file bytes");
    std::fs::remove_file(&path).ok();
}
