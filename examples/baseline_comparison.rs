//! A miniature Figure 11: run Q1 and Q3 on all five evaluation schemes,
//! check they agree, and print the timings.
//!
//! ```sh
//! cargo run --release --example baseline_comparison
//! ```

use cohana::engine::paper;
use cohana::prelude::*;
use cohana_relational::{ColEngine, RowEngine};
use std::time::Instant;

fn main() {
    let table = generate(&GeneratorConfig::new(500));
    println!("dataset: {} tuples, {} users\n", table.num_rows(), table.num_users());

    // Prepare all five schemes.
    let engine =
        Cohana::from_activity_table(&table, CompressionOptions::with_chunk_size(16 * 1024))
            .expect("compress");
    let mut col = ColEngine::load(&table);
    let mut row = RowEngine::load(&table);
    for action in ["launch", "shop"] {
        col.create_mv(action);
        row.create_mv(action);
    }

    println!(
        "{:<4} {:>12} {:>12} {:>12} {:>12} {:>12}",
        "", "COHANA", "MONET-M", "MONET-S", "PG-M", "PG-S"
    );
    let session = engine.session();
    for (name, q) in [("Q1", paper::q1()), ("Q3", paper::q3())] {
        let time = |f: &mut dyn FnMut() -> CohortReport| {
            let _ = f(); // warm-up
            let start = Instant::now();
            let out = f();
            (out, start.elapsed())
        };
        // COHANA prepares once and re-executes the statement.
        let stmt = session.prepare(&q).expect("plans");
        let (a, t_cohana) = time(&mut || stmt.execute().unwrap());
        let (b, t_colm) = time(&mut || col.execute_mv(&q).unwrap());
        let (c, t_cols) = time(&mut || col.execute_sql(&q).unwrap());
        let (d, t_rowm) = time(&mut || row.execute_mv(&q).unwrap());
        let (e, t_rows) = time(&mut || row.execute_sql(&q).unwrap());

        // All five schemes must agree row for row.
        for (other, scheme) in [(&b, "MONET-M"), (&c, "MONET-S"), (&d, "PG-M"), (&e, "PG-S")] {
            assert_eq!(a.rows.len(), other.rows.len(), "{name}: {scheme} row count");
            for (x, y) in a.rows.iter().zip(other.rows.iter()) {
                assert_eq!(x.cohort, y.cohort);
                assert_eq!(x.age, y.age);
                assert!(
                    x.measures.iter().zip(y.measures.iter()).all(|(m, n)| m.approx_eq(n)),
                    "{name}: {scheme} measures differ"
                );
            }
        }

        println!(
            "{:<4} {:>10.2?} {:>10.2?} {:>10.2?} {:>10.2?} {:>10.2?}",
            name, t_cohana, t_colm, t_cols, t_rowm, t_rows
        );
    }
    println!("\nall five schemes returned identical reports ✓");
}
