//! Differential tests for the storage-backed execution paths: the paper's
//! benchmark queries Q1–Q8 must produce identical reports whether the table
//! is fully resident in memory, eagerly loaded from a persisted file, or
//! served by the lazy file-backed `ChunkSource` — at parallelism 1 and 4.
//! Plus the headline properties of the footer-indexed formats: selective
//! queries on a lazy source decode strictly fewer chunks than the table
//! contains, and projected queries on a cold v4 file fewer columns and bytes
//! than it holds. (The v3/v4 version matrix lives in `version_matrix.rs`.)

use cohana_activity::{generate, GeneratorConfig, Schema, TableBuilder, Timestamp, Value};
use cohana_core::engine::DEFAULT_TABLE;
use cohana_core::{paper, PlannerOptions, Statement};
use cohana_core::{Cohana, CohortQuery, EngineOptions};
use cohana_storage::{persist, ChunkSource, CompressedTable, CompressionOptions, FileSource};
use std::path::PathBuf;
use std::sync::Arc;

/// Execute one query over any source through the session-layer Statement.
fn run(
    source: Arc<dyn ChunkSource>,
    query: &CohortQuery,
    options: PlannerOptions,
    parallelism: usize,
) -> cohana_core::CohortReport {
    Statement::over(source, query, options, parallelism)
        .expect("query plans")
        .execute()
        .expect("query executes")
}

fn temp_file(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("cohana-lazy-storage-test");
    std::fs::create_dir_all(&dir).unwrap();
    dir.join(name)
}

fn paper_queries() -> Vec<(String, CohortQuery)> {
    let d1 = Timestamp::parse("2013-05-21").unwrap().secs();
    let d2 = Timestamp::parse("2013-05-27").unwrap().secs();
    vec![
        ("q1".into(), paper::q1()),
        ("q2".into(), paper::q2()),
        ("q3".into(), paper::q3()),
        ("q4".into(), paper::q4()),
        ("q5".into(), paper::q5(d1, d2)),
        ("q6".into(), paper::q6(d1, d2)),
        ("q7".into(), paper::q7(7)),
        ("q8".into(), paper::q8(7)),
    ]
}

#[test]
fn q1_to_q8_identical_across_memory_eager_and_lazy_sources() {
    let table = generate(&GeneratorConfig::small());
    let memory = CompressedTable::build(&table, CompressionOptions::with_chunk_size(256)).unwrap();
    assert!(memory.chunks().len() > 1, "need multiple chunks to be meaningful");

    let path = temp_file("differential.cohana");
    persist::write_file(&memory, &path).unwrap();
    let memory = Arc::new(memory);
    let eager = Arc::new(persist::read_file(&path).unwrap());
    let lazy = Arc::new(FileSource::open(&path).unwrap());

    for (name, query) in paper_queries() {
        for parallelism in [1, 4] {
            let expect = run(memory.clone(), &query, PlannerOptions::default(), parallelism);
            let from_eager = run(eager.clone(), &query, PlannerOptions::default(), parallelism);
            let from_lazy = run(lazy.clone(), &query, PlannerOptions::default(), parallelism);
            assert_eq!(expect.rows, from_eager.rows, "{name} eager p={parallelism}");
            assert_eq!(expect.rows, from_lazy.rows, "{name} lazy p={parallelism}");
            assert_eq!(
                expect.cohort_sizes, from_eager.cohort_sizes,
                "{name} eager sizes p={parallelism}"
            );
            assert_eq!(
                expect.cohort_sizes, from_lazy.cohort_sizes,
                "{name} lazy sizes p={parallelism}"
            );
        }
    }
    std::fs::remove_file(&path).ok();
}

#[test]
fn engine_open_file_matches_in_memory_engine() {
    let table = generate(&GeneratorConfig::small());
    let memory = CompressedTable::build(&table, CompressionOptions::with_chunk_size(256)).unwrap();
    let path = temp_file("engine.cohana");
    persist::write_file(&memory, &path).unwrap();

    for parallelism in [1, 4] {
        let options = EngineOptions { parallelism, ..Default::default() };
        let resident = Cohana::new(options);
        resident.register(DEFAULT_TABLE, memory.clone());
        let lazy_engine = Cohana::new(options);
        lazy_engine.open(&path).open().unwrap();
        assert_eq!(lazy_engine.schema_of("GameActions"), Some(memory.schema().clone()));

        for (name, query) in paper_queries() {
            let a = resident.execute(&query).unwrap();
            let b = lazy_engine.execute(&query).unwrap();
            assert_eq!(a.rows, b.rows, "{name} p={parallelism}");
        }
    }
    std::fs::remove_file(&path).ok();
}

/// Each of Q1–Q8 on its own cold `FileSource` over a v4 file with chunks
/// large enough for the codecs to pay: projection pushdown decodes fewer
/// column segments than `arity × chunks`, the query reads fewer bytes than
/// the file holds, and the blobs it reads decode to at least as many bytes
/// as they occupy. Counters only, no clock.
#[test]
fn projection_saves_columns_and_bytes_on_a_cold_v4_file() {
    let table = generate(&GeneratorConfig::new(200));
    let memory =
        CompressedTable::build(&table, CompressionOptions::with_chunk_size(16 * 1024)).unwrap();
    let arity = memory.schema().arity();
    let path = temp_file("projection-savings.cohana");
    persist::write_file(&memory, &path).unwrap();
    let file_bytes = std::fs::metadata(&path).unwrap().len();

    for (name, query) in paper_queries() {
        let lazy = Arc::new(FileSource::open(&path).unwrap());
        run(lazy.clone(), &query, PlannerOptions::default(), 1);
        let io = lazy.io_stats();
        assert!(
            io.columns_decoded < arity * lazy.num_chunks(),
            "{name}: decoded {} columns of {arity} × {} chunks — projection pushdown never fired",
            io.columns_decoded,
            lazy.num_chunks()
        );
        assert!(io.bytes_read < file_bytes, "{name}: read {} of {file_bytes} bytes", io.bytes_read);
        assert!(
            io.bytes_read <= io.bytes_decompressed,
            "{name}: decoded {} bytes from {} read",
            io.bytes_decompressed,
            io.bytes_read
        );
    }
    std::fs::remove_file(&path).ok();
}

/// A handcrafted activity table whose users fall into two populations with
/// disjoint activity windows and different action vocabularies, so chunk
/// pruning provably fires:
///
/// * users `e00..e05` ("early"): launch + shop during days 0–4;
/// * users `l06..l11` ("late"): launch + fight during days 20–24 — never
///   a single `shop`.
///
/// User ids sort `e* < l*`, and chunking follows user order, so with a small
/// chunk size the early and late populations land in different chunks.
fn two_population_table() -> cohana_activity::ActivityTable {
    const DAY: i64 = 86_400;
    let mut b = TableBuilder::new(Schema::game_actions());
    let mut push = |user: &str, day: i64, action: &str, gold: i64| {
        b.push(vec![
            Value::str(user),
            Value::int(day * DAY + 3_600),
            Value::str(action),
            Value::str("China"),
            Value::str("Beijing"),
            Value::str("dwarf"),
            Value::int(10),
            Value::int(gold),
        ])
        .unwrap();
    };
    for u in 0..6 {
        let user = format!("e{u:02}");
        push(&user, 0, "launch", 0);
        for day in 1..5 {
            push(&user, day, "shop", 25);
        }
    }
    for u in 6..12 {
        let user = format!("l{u:02}");
        push(&user, 20, "launch", 0);
        for day in 21..25 {
            push(&user, day, "fight", 5);
        }
    }
    b.finish().unwrap()
}

#[test]
fn time_selective_query_decodes_strictly_fewer_chunks() {
    const DAY: i64 = 86_400;
    let table = two_population_table();
    // 15 tuples per chunk → at least one pure-early and one pure-late chunk.
    let memory = CompressedTable::build(&table, CompressionOptions::with_chunk_size(15)).unwrap();
    assert!(memory.chunks().len() >= 2);

    let path = temp_file("selective-time.cohana");
    persist::write_file(&memory, &path).unwrap();
    let lazy = Arc::new(FileSource::open(&path).unwrap());
    assert_eq!(lazy.io_stats().chunks_decoded, 0, "open must not touch chunk data");

    // Q2-style: Q1 plus a birth date range covering only the early
    // population (paper::q5 is exactly that sweep query).
    let query = paper::q5(0, 5 * DAY);
    let expect = run(Arc::new(memory), &query, PlannerOptions::default(), 1);
    let got = run(lazy.clone(), &query, PlannerOptions::default(), 1);

    assert_eq!(expect.rows, got.rows);
    assert_eq!(expect.cohort_sizes, got.cohort_sizes);
    assert!(!got.rows.is_empty(), "the early population must qualify");
    let decoded = lazy.io_stats().chunks_decoded;
    assert!(
        decoded < lazy.num_chunks(),
        "decoded {decoded} of {} chunks — time pruning never fired",
        lazy.num_chunks()
    );
    assert!(decoded > 0, "some chunk must have been decoded");
    std::fs::remove_file(&path).ok();
}

#[test]
fn birth_action_pruning_skips_chunks_without_the_action() {
    let table = two_population_table();
    let memory = CompressedTable::build(&table, CompressionOptions::with_chunk_size(15)).unwrap();
    let path = temp_file("selective-action.cohana");
    persist::write_file(&memory, &path).unwrap();
    let lazy = Arc::new(FileSource::open(&path).unwrap());

    // Birth action `shop` exists only in the early chunks; the late chunks'
    // action dictionaries prove they can be skipped without I/O.
    let query = paper::q3();
    let expect = run(Arc::new(memory), &query, PlannerOptions::default(), 1);
    let got = run(lazy.clone(), &query, PlannerOptions::default(), 1);

    assert_eq!(expect.rows, got.rows);
    let decoded = lazy.io_stats().chunks_decoded;
    assert!(
        decoded < lazy.num_chunks(),
        "decoded {decoded} of {} chunks — action-dictionary pruning never fired",
        lazy.num_chunks()
    );
    std::fs::remove_file(&path).ok();
}

#[test]
fn disabled_pruning_still_correct_on_lazy_source() {
    let table = two_population_table();
    let memory = CompressedTable::build(&table, CompressionOptions::with_chunk_size(15)).unwrap();
    let path = temp_file("no-prune.cohana");
    persist::write_file(&memory, &path).unwrap();
    let lazy = Arc::new(FileSource::open(&path).unwrap());

    let options = PlannerOptions { prune_chunks: false, ..Default::default() };
    let query = paper::q3();
    let expect = run(Arc::new(memory), &query, options, 1);
    let got = run(lazy.clone(), &query, options, 1);
    assert_eq!(expect.rows, got.rows);
    // Without pruning every chunk is materialized.
    assert_eq!(lazy.io_stats().chunks_decoded, lazy.num_chunks());
    std::fs::remove_file(&path).ok();
}
