//! End-to-end integration tests spanning every crate: generate → CSV →
//! compress → persist → reload → SQL → execute → compare against the
//! reference evaluator and the relational baselines.

use cohana::engine::naive::naive_execute;
use cohana::engine::{paper, EngineOptions};
use cohana::prelude::*;
use cohana::sql::SessionSqlExt;
use cohana::storage::persist;
use cohana_relational::{ColEngine, RowEngine};

#[test]
fn full_pipeline_csv_persist_sql() {
    let table = generate(&GeneratorConfig::new(120));

    // CSV round trip (the ingest path for the paper's 3.6 GB csv dataset).
    let mut csv = Vec::new();
    cohana::activity::csv::write_csv(&table, &mut csv).unwrap();
    let reloaded = cohana::activity::csv::read_csv(table.schema().clone(), &csv[..]).unwrap();
    assert_eq!(reloaded.rows(), table.rows());

    // Compress, persist to disk, read back.
    let compressed =
        CompressedTable::build(&reloaded, CompressionOptions::with_chunk_size(2048)).unwrap();
    let dir = std::env::temp_dir().join("cohana-e2e");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("game.cohana");
    persist::write_file(&compressed, &path).unwrap();

    let engine = Cohana::new(EngineOptions::default());
    engine.open(&path).resident(true).open().unwrap();
    std::fs::remove_file(&path).ok();

    // Query through the SQL front end; verify against the reference.
    let report = engine
        .session()
        .query(
            "SELECT country, CohortSize, Age, UserCount() \
             FROM GameActions BIRTH FROM action = \"launch\" COHORT BY country",
        )
        .unwrap();
    let want = naive_execute(&table, &paper::q1()).unwrap();
    assert_eq!(report.rows, want.rows);
}

#[test]
fn all_five_schemes_agree_on_all_benchmark_queries() {
    let table = generate(&GeneratorConfig::new(100));
    let engine =
        Cohana::from_activity_table(&table, CompressionOptions::with_chunk_size(1024)).unwrap();
    let mut col = ColEngine::load(&table);
    let mut row = RowEngine::load(&table);
    for action in ["launch", "shop"] {
        col.create_mv(action);
        row.create_mv(action);
    }
    for q in [paper::q1(), paper::q2(), paper::q3(), paper::q4(), paper::q7(7), paper::q8(5)] {
        let reference = naive_execute(&table, &q).unwrap();
        let results = [
            ("cohana", engine.execute(&q).unwrap()),
            ("col-mv", col.execute_mv(&q).unwrap()),
            ("col-sql", col.execute_sql(&q).unwrap()),
            ("row-mv", row.execute_mv(&q).unwrap()),
            ("row-sql", row.execute_sql(&q).unwrap()),
        ];
        for (scheme, got) in &results {
            assert_eq!(got.rows.len(), reference.rows.len(), "{scheme} on {q}");
            for (a, b) in got.rows.iter().zip(reference.rows.iter()) {
                assert_eq!(a.cohort, b.cohort, "{scheme}");
                assert_eq!(a.age, b.age, "{scheme}");
                assert_eq!(a.size, b.size, "{scheme}");
                for (x, y) in a.measures.iter().zip(b.measures.iter()) {
                    assert!(x.approx_eq(y), "{scheme}: {x:?} vs {y:?}");
                }
            }
        }
    }
}

#[test]
fn scaling_preserves_per_cohort_structure() {
    // Scale-2 data = two copies of the user population, so cohort sizes and
    // counts double while averages stay identical.
    let base = generate(&GeneratorConfig::new(80));
    let scaled = scale_table(&base, 2);
    let e1 = Cohana::from_activity_table(&base, CompressionOptions::default()).unwrap();
    let e2 = Cohana::from_activity_table(&scaled, CompressionOptions::default()).unwrap();

    let r1 = e1.execute(&paper::q1()).unwrap();
    let r2 = e2.execute(&paper::q1()).unwrap();
    assert_eq!(r1.rows.len(), r2.rows.len());
    for (a, b) in r1.rows.iter().zip(r2.rows.iter()) {
        assert_eq!(a.cohort, b.cohort);
        assert_eq!(a.size * 2, b.size);
        assert_eq!(a.measures[0].as_i64().unwrap() * 2, b.measures[0].as_i64().unwrap());
    }

    let a1 = e1.execute(&paper::q3()).unwrap();
    let a2 = e2.execute(&paper::q3()).unwrap();
    for (a, b) in a1.rows.iter().zip(a2.rows.iter()) {
        assert!(a.measures[0].approx_eq(&b.measures[0]), "averages invariant under scaling");
    }
}

#[test]
fn mixed_query_consumes_cohort_result() {
    let table = generate(&GeneratorConfig::new(120));
    let engine = Cohana::from_activity_table(&table, CompressionOptions::default()).unwrap();
    let res = engine
        .session()
        .query_mixed(
            "WITH cohorts AS ( \
               SELECT country, COHORTSIZE, AGE, Sum(gold) AS spent \
               FROM GameActions \
               AGE ACTIVITIES IN action = \"shop\" \
               BIRTH FROM action = \"launch\" \
               COHORT BY country ) \
             SELECT country, AGE, spent FROM cohorts \
             WHERE AGE <= 3 ORDER BY spent DESC LIMIT 4",
        )
        .unwrap();
    assert!(res.num_rows() <= 4);
    for row in &res.rows {
        assert!(row[1].parse::<i64>().unwrap() <= 3);
    }
}

#[test]
fn explain_shows_pushed_down_plan() {
    let table = generate(&GeneratorConfig::new(60));
    let engine = Cohana::from_activity_table(&table, CompressionOptions::default()).unwrap();
    let text = engine.explain(&paper::q4()).unwrap();
    let b = text.find("σb").expect("birth selection in plan");
    let g = text.find("σg").expect("age selection in plan");
    assert!(g < b, "birth selection must be pushed below age selection:\n{text}");
}

#[test]
fn storage_compresses_well_below_csv() {
    let table = generate(&GeneratorConfig::new(200));
    let mut csv = Vec::new();
    cohana::activity::csv::write_csv(&table, &mut csv).unwrap();
    let compressed = CompressedTable::build(&table, CompressionOptions::default()).unwrap();
    let stats = cohana::storage::StorageStats::of(&compressed);
    // The paper compresses a 3.6 GB CSV into a fraction of its size; demand
    // at least 4x here.
    assert!(
        stats.total_bytes() * 4 < csv.len(),
        "compressed {} vs csv {}",
        stats.total_bytes(),
        csv.len()
    );
}
