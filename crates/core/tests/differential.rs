//! Differential tests: the optimized COHANA executor must produce exactly
//! the results of the naive reference evaluator (the executable spec of
//! Definitions 1–6) for every benchmark query, under every combination of
//! optimizer flags, chunk sizes, and parallelism.

use cohana_activity::{generate, GeneratorConfig, Timestamp};
use cohana_core::engine::DEFAULT_TABLE;
use cohana_core::naive::naive_execute;
use cohana_core::paper;
use cohana_core::{
    AggFunc, Cohana, CohortQuery, CohortReport, EngineOptions, Expr, PlannerOptions, Statement,
};
use cohana_storage::{CompressedTable, CompressionOptions};
use std::sync::Arc;

fn dataset() -> cohana_activity::ActivityTable {
    generate(&GeneratorConfig::new(150))
}

fn assert_reports_equal(optimized: &CohortReport, reference: &CohortReport, what: &str) {
    assert_eq!(
        optimized.rows.len(),
        reference.rows.len(),
        "{what}: row count mismatch\noptimized:\n{optimized}\nreference:\n{reference}"
    );
    for (a, b) in optimized.rows.iter().zip(reference.rows.iter()) {
        assert_eq!(a.cohort, b.cohort, "{what}: cohort mismatch");
        assert_eq!(a.age, b.age, "{what}: age mismatch for cohort {:?}", a.cohort);
        assert_eq!(a.size, b.size, "{what}: size mismatch for cohort {:?}", a.cohort);
        assert_eq!(a.measures.len(), b.measures.len());
        for (x, y) in a.measures.iter().zip(b.measures.iter()) {
            assert!(
                x.approx_eq(y),
                "{what}: measure mismatch at cohort {:?} age {}: {x:?} vs {y:?}",
                a.cohort,
                a.age
            );
        }
    }
    assert_eq!(optimized.cohort_sizes, reference.cohort_sizes, "{what}: cohort sizes");
}

fn check_query(query: &CohortQuery, what: &str) {
    check_on(&dataset(), &[64, 1024, 1 << 20], query, what);
}

/// The executor ≡ the reference on `table`, at every chunk size, under
/// every plan, serially and on four workers. Returns the reference report.
fn check_on(
    table: &cohana_activity::ActivityTable,
    chunk_sizes: &[usize],
    query: &CohortQuery,
    what: &str,
) -> CohortReport {
    let reference = naive_execute(table, query).expect("naive evaluation succeeds");
    for &chunk_size in chunk_sizes {
        let compressed = Arc::new(
            CompressedTable::build(table, CompressionOptions::with_chunk_size(chunk_size))
                .expect("compression succeeds"),
        );
        for options in [
            PlannerOptions::default(),
            PlannerOptions::naive(),
            PlannerOptions { push_down_birth_selection: false, ..Default::default() },
            PlannerOptions { skip_unqualified_users: false, ..Default::default() },
            PlannerOptions { prune_chunks: false, ..Default::default() },
            PlannerOptions { array_aggregation: false, ..Default::default() },
        ] {
            for parallelism in [1usize, 4] {
                let stmt = Statement::over(compressed.clone(), query, options, parallelism)
                    .expect("planning succeeds");
                let got = stmt.execute().expect("execution succeeds");
                assert_reports_equal(
                    &got,
                    &reference,
                    &format!("{what} (chunk={chunk_size}, {options:?}, par={parallelism})"),
                );
            }
        }
    }
    reference
}

#[test]
fn q1_matches_reference() {
    check_query(&paper::q1(), "Q1");
}

#[test]
fn q2_matches_reference() {
    check_query(&paper::q2(), "Q2");
}

#[test]
fn q3_matches_reference() {
    check_query(&paper::q3(), "Q3");
}

#[test]
fn q4_matches_reference() {
    check_query(&paper::q4(), "Q4");
}

#[test]
fn q5_matches_reference() {
    let d1 = Timestamp::parse("2013-05-19").unwrap().secs();
    let d2 = Timestamp::parse("2013-05-30").unwrap().secs();
    check_query(&paper::q5(d1, d2), "Q5");
}

#[test]
fn q6_matches_reference() {
    let d1 = Timestamp::parse("2013-05-19").unwrap().secs();
    let d2 = Timestamp::parse("2013-06-05").unwrap().secs();
    check_query(&paper::q6(d1, d2), "Q6");
}

#[test]
fn q7_matches_reference() {
    check_query(&paper::q7(7), "Q7");
}

#[test]
fn q8_matches_reference() {
    check_query(&paper::q8(5), "Q8");
}

#[test]
fn example1_matches_reference() {
    check_query(&paper::example1(), "Example1");
}

#[test]
fn weekly_time_cohorts_match_reference() {
    check_query(&paper::shopping_trend(), "shopping-trend");
}

#[test]
fn shop_birth_action_matches_reference() {
    // Births defined by a non-first action exercise pre-birth tuple
    // exclusion (negative ages).
    let q = CohortQuery::builder("shop")
        .cohort_by(["country"])
        .aggregate(AggFunc::sum("gold"))
        .aggregate(AggFunc::count())
        .aggregate(AggFunc::user_count())
        .build()
        .unwrap();
    check_query(&q, "shop-birth");
}

#[test]
fn achievement_birth_action_matches_reference() {
    let q = CohortQuery::builder("achievement")
        .cohort_by(["role"])
        .aggregate(AggFunc::min("session"))
        .aggregate(AggFunc::max("session"))
        .build()
        .unwrap();
    check_query(&q, "achievement-birth");
}

#[test]
fn multi_attribute_cohorts_match_reference() {
    let q = CohortQuery::builder("launch")
        .cohort_by(["country", "role"])
        .aggregate(AggFunc::count())
        .build()
        .unwrap();
    check_query(&q, "multi-attr");
}

#[test]
fn birth_role_filter_matches_reference() {
    // Paper's Q4-style birth role predicate alone.
    let q = CohortQuery::builder("launch")
        .birth_where(Expr::attr("role").eq(Expr::lit_str("dwarf")))
        .cohort_by(["country"])
        .aggregate(AggFunc::user_count())
        .build()
        .unwrap();
    check_query(&q, "birth-role");
}

#[test]
fn birth_country_of_age_tuples_matches_reference() {
    // σg with Birth() reference and inequality.
    let q = CohortQuery::builder("launch")
        .age_where(Expr::attr("country").ne(Expr::birth("country")).not())
        .cohort_by(["country"])
        .aggregate(AggFunc::count())
        .build()
        .unwrap();
    check_query(&q, "birth-ref-not");
}

#[test]
fn disjunctive_age_predicate_matches_reference() {
    let q = CohortQuery::builder("launch")
        .age_where(
            Expr::attr("action")
                .eq(Expr::lit_str("shop"))
                .or(Expr::attr("action").eq(Expr::lit_str("fight"))),
        )
        .cohort_by(["country"])
        .aggregate(AggFunc::count())
        .build()
        .unwrap();
    check_query(&q, "disjunction");
}

#[test]
fn string_ordering_predicate_matches_reference() {
    // Ordering on a dictionary column with a literal absent from the dict.
    let q = CohortQuery::builder("launch")
        .age_where(Expr::attr("action").lt(Expr::lit_str("m")))
        .cohort_by(["country"])
        .aggregate(AggFunc::count())
        .build()
        .unwrap();
    check_query(&q, "string-ordering");
}

#[test]
fn empty_result_for_unknown_birth_action() {
    let table = dataset();
    let q = CohortQuery::builder("no-such-action")
        .cohort_by(["country"])
        .aggregate(AggFunc::count())
        .build()
        .unwrap();
    let engine = Cohana::from_activity_table(&table, CompressionOptions::default()).unwrap();
    let report = engine.execute(&q).unwrap();
    assert!(report.is_empty());
    assert!(report.cohort_sizes.is_empty());
    let reference = naive_execute(&table, &q).unwrap();
    assert!(reference.is_empty());
}

#[test]
fn monthly_age_bins_match_reference() {
    let q = CohortQuery::builder("launch")
        .age_where(Expr::attr("action").eq(Expr::lit_str("shop")))
        .cohort_by(["country"])
        .age_bin(cohana_activity::TimeBin::Month)
        .aggregate(AggFunc::avg("gold"))
        .build()
        .unwrap();
    check_query(&q, "monthly-bins");
}

#[test]
fn int_in_list_and_between_on_measures_match_reference() {
    // Integer IN lists and BETWEEN on a measure column (not just time).
    let q = CohortQuery::builder("launch")
        .age_where(
            Expr::attr("session")
                .in_list([
                    cohana_activity::Value::Int(5),
                    cohana_activity::Value::Int(10),
                    cohana_activity::Value::Int(15),
                ])
                .or(Expr::attr("gold").between_int(40, 90)),
        )
        .cohort_by(["country"])
        .aggregate(AggFunc::count())
        .aggregate(AggFunc::sum("gold"))
        .build()
        .unwrap();
    check_query(&q, "int-inlist-between");
}

#[test]
fn ge_le_on_strings_match_reference() {
    // Ordering comparisons on dictionary columns (>=, <=) with present and
    // absent literals.
    for lit in ["shop", "m", "a", "zzz"] {
        let q = CohortQuery::builder("launch")
            .age_where(Expr::attr("action").ge(Expr::lit_str(lit)))
            .cohort_by(["country"])
            .aggregate(AggFunc::count())
            .build()
            .unwrap();
        check_query(&q, &format!("string-ge-{lit}"));
        let q2 = CohortQuery::builder("launch")
            .age_where(Expr::attr("action").le(Expr::lit_str(lit)))
            .cohort_by(["country"])
            .aggregate(AggFunc::count())
            .build()
            .unwrap();
        check_query(&q2, &format!("string-le-{lit}"));
    }
}

#[test]
fn birth_measure_reference_matches_reference() {
    // Birth() over a measure attribute: spend more than at birth.
    let q = CohortQuery::builder("shop")
        .age_where(
            Expr::attr("action")
                .eq(Expr::lit_str("shop"))
                .and(Expr::attr("gold").gt(Expr::birth("gold"))),
        )
        .cohort_by(["country"])
        .aggregate(AggFunc::count())
        .build()
        .unwrap();
    check_query(&q, "birth-measure");
}

#[test]
fn empty_in_list_yields_empty_age_rows() {
    let table = dataset();
    let q = CohortQuery::builder("launch")
        .age_where(Expr::attr("country").in_list(Vec::<cohana_activity::Value>::new()))
        .cohort_by(["country"])
        .aggregate(AggFunc::count())
        .build()
        .unwrap();
    let compressed = CompressedTable::build(&table, CompressionOptions::default()).unwrap();
    let got = Statement::over(Arc::new(compressed), &q, PlannerOptions::default(), 1)
        .unwrap()
        .execute()
        .unwrap();
    assert!(got.rows.is_empty());
    // Cohort sizes survive: users still qualify via the (absent) birth
    // predicate even though no age tuple passes.
    assert!(!got.cohort_sizes.is_empty());
    let reference = naive_execute(&table, &q).unwrap();
    assert_eq!(got.cohort_sizes, reference.cohort_sizes);
}

#[test]
fn engine_facade_equals_direct_execution() {
    let table = dataset();
    let q = paper::q3();
    let engine = Cohana::new(EngineOptions::default());
    engine.register(
        DEFAULT_TABLE,
        CompressedTable::build(&table, CompressionOptions::with_chunk_size(512)).unwrap(),
    );
    let via_engine = engine.execute(&q).unwrap();
    let reference = naive_execute(&table, &q).unwrap();
    assert_reports_equal(&via_engine, &reference, "facade");
}

// ---------------------------------------------------------------------------
// Edges of the per-user kernel (range → selection → runs)

const DAY: i64 = 86_400;
const E18: i64 = 1_000_000_000_000_000_000;

/// Four users, one country each, built around the places the kernel cuts a
/// user block:
///
/// * `ann` (Chile) launches at `t0` with a `fight` (sorts before the birth
///   row) and a `shop` (sorts after it) on the same timestamp — both age 0 —
///   then shops six times on day 1 with gold alternating −3e18 / +4e18, so
///   the running sum changes sign at every tuple, the column minimum is
///   negative and the raw offsets from it sum past `u64::MAX`; one more
///   shop on day 3.
/// * `bob` (Ghana) shops, then launches: under a `launch` birth the birth
///   tuple is his last row.
/// * `cy` (Nepal) has a single tuple.
/// * `dee` (Peru) launches and then only fights: exactly one day later (the
///   last second of age 1) and one and two seconds after that (age 2).
fn edge_table() -> cohana_activity::ActivityTable {
    let mut b = cohana_activity::TableBuilder::new(cohana_activity::Schema::game_actions());
    let t0 = 10 * DAY + 1_000;
    let mut push = |user: &str, time: i64, action: &str, country: &str, gold: i64| {
        let row: [cohana_activity::Value; 8] = [
            user.into(),
            time.into(),
            action.into(),
            country.into(),
            "city".into(),
            "dwarf".into(),
            1.into(),
            gold.into(),
        ];
        b.push(row.to_vec()).unwrap();
    };
    for action in ["fight", "launch", "shop"] {
        push("ann", t0, action, "Chile", 1_000);
    }
    for i in 0..6 {
        push("ann", t0 + 3_600 + i, "shop", "Chile", if i % 2 == 0 { -3 * E18 } else { 4 * E18 });
    }
    push("ann", t0 + 2 * DAY + 5, "shop", "Chile", 11);
    push("bob", t0 - DAY, "shop", "Ghana", 5);
    push("bob", t0, "launch", "Ghana", 6);
    push("cy", t0 + 7, "launch", "Nepal", 7);
    push("dee", t0, "launch", "Peru", 8);
    push("dee", t0 + DAY, "fight", "Peru", 9);
    push("dee", t0 + DAY + 1, "fight", "Peru", 10);
    push("dee", t0 + DAY + 2, "fight", "Peru", 12);
    b.finish().unwrap()
}

fn edge_query(birth: &str, age: Option<Expr>) -> CohortQuery {
    let mut b = CohortQuery::builder(birth).cohort_by(["country"]);
    if let Some(p) = age {
        b = b.age_where(p);
    }
    for agg in [
        AggFunc::sum("gold"),
        AggFunc::avg("gold"),
        AggFunc::min("gold"),
        AggFunc::max("gold"),
        AggFunc::count(),
        AggFunc::user_count(),
    ] {
        b = b.aggregate(agg);
    }
    b.build().unwrap()
}

/// `(cohort, age, Sum, Min, Max, Count, UserCount)` of every report row.
fn edge_rows(report: &CohortReport) -> Vec<(String, i64, i64, i64, i64, i64, i64)> {
    let int = |v: &cohana_core::AggValue| v.as_i64().expect("integer measure");
    report
        .rows
        .iter()
        .map(|r| {
            let m = &r.measures;
            let cohort = r.cohort[0].as_str().unwrap().to_string();
            (cohort, r.age, int(&m[0]), int(&m[2]), int(&m[3]), int(&m[4]), int(&m[5]))
        })
        .collect()
}

#[test]
fn same_timestamp_tuples_after_the_birth_row_have_age_zero() {
    // Chunk size 1 closes a chunk at every user boundary; 1 << 20 keeps the
    // negative-minimum gold column of `ann` in one chunk with the others.
    let reference = check_on(&edge_table(), &[1, 1 << 20], &edge_query("launch", None), "edges");
    // ann's same-timestamp shop (gold 1 000) is in no cell; day 1 sums
    // 3 × (−3e18 + 4e18); bob (birth is his last row) and cy (one tuple)
    // have a size and no row; dee's last two fights share one (user, age) run.
    assert_eq!(
        edge_rows(&reference),
        vec![
            ("Chile".to_string(), 1, 3 * E18, -3 * E18, 4 * E18, 6, 1),
            ("Chile".to_string(), 3, 11, 11, 11, 1, 1),
            ("Peru".to_string(), 1, 9, 9, 9, 1, 1),
            ("Peru".to_string(), 2, 22, 10, 12, 2, 1),
        ]
    );
    assert_eq!(reference.cohort_sizes.values().sum::<u64>(), 4);
}

#[test]
fn tuples_at_or_before_a_later_birth_row_are_excluded() {
    // Under a `shop` birth ann's birth row is the third tuple of its
    // timestamp and bob's is his first row, with a launch after it.
    let reference = check_on(&edge_table(), &[1, 1 << 20], &edge_query("shop", None), "shop birth");
    assert_eq!(
        edge_rows(&reference),
        vec![
            ("Chile".to_string(), 1, 3 * E18, -3 * E18, 4 * E18, 6, 1),
            ("Chile".to_string(), 3, 11, 11, 11, 1, 1),
            ("Ghana".to_string(), 1, 6, 6, 6, 1, 1),
        ]
    );
}

#[test]
fn a_user_with_every_tuple_masked_out_counts_in_size_only() {
    let shop = Expr::attr("action").eq(Expr::lit_str("shop"));
    let reference =
        check_on(&edge_table(), &[1, 1 << 20], &edge_query("launch", Some(shop)), "mask");
    // dee never shops: Peru has a size and no cell.
    assert!(edge_rows(&reference).iter().all(|r| r.0 == "Chile"));
    assert_eq!(reference.cohort_sizes[&vec![cohana_activity::Value::str("Peru")]], 1);
}

#[test]
fn age_bounds_select_row_ranges() {
    let table = edge_table();
    let age = |e: Expr| edge_query("launch", Some(e));
    // `AGE < 1` is an empty range: sizes only.
    let empty = check_on(&table, &[1, 1 << 20], &age(Expr::age().lt(Expr::lit_int(1))), "AGE < 1");
    assert!(empty.rows.is_empty());
    assert_eq!(empty.cohort_sizes.values().sum::<u64>(), 4);
    // A bound cuts between two tuples one second apart.
    let first_day = check_on(&table, &[1, 1 << 20], &age(Expr::age().le(Expr::lit_int(1))), "<= 1");
    assert_eq!(
        edge_rows(&first_day).iter().map(|r| (r.1, r.5)).collect::<Vec<_>>(),
        [(1, 6), (1, 1)]
    );
    // Bounds on both sides, alone and beside a residual conjunct.
    let day_two_on =
        check_on(&table, &[1, 1 << 20], &age(Expr::age().ge(Expr::lit_int(2))), ">= 2");
    assert_eq!(edge_rows(&day_two_on).iter().map(|r| r.1).collect::<Vec<_>>(), [3, 2]);
    let only_day_one = Expr::age().between_int(1, 1).and(Expr::attr("gold").lt(Expr::lit_int(0)));
    let negative = check_on(&table, &[1, 1 << 20], &age(only_day_one), "day 1, gold < 0");
    assert_eq!(
        edge_rows(&negative),
        vec![("Chile".to_string(), 1, -9 * E18, -3 * E18, -3 * E18, 3, 1)]
    );
}
