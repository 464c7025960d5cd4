//! Property-based differential testing: random activity tables and random
//! cohort queries must produce identical results from the optimized COHANA
//! executor, the naive reference evaluator, and both relational baselines —
//! and the executor's per-chunk batches must survive the wire codec intact
//! and assemble to the same report in any arrival order.

use cohana::engine::naive::naive_execute;
use cohana::engine::{
    plan_query, AggFunc, CohortAttr, CohortQuery, CohortReport, Expr, PlannerOptions,
    ReportAssembler, Statement, WireBatch,
};
use cohana::prelude::*;
use cohana_activity::{Schema, TableBuilder};
use cohana_relational::{ColEngine, RowEngine};
use proptest::prelude::*;
use std::sync::Arc;

const ACTIONS: [&str; 4] = ["launch", "shop", "fight", "quest"];
const COUNTRIES: [&str; 3] = ["China", "Australia", "Japan"];
const ROLES: [&str; 3] = ["dwarf", "wizard", "bandit"];

/// A randomly generated activity tuple (pre-sort).
#[derive(Debug, Clone)]
struct RawTuple {
    user: u8,
    time: i64,
    action: usize,
    country: usize,
    role: usize,
    gold: i64,
}

fn raw_tuple() -> impl Strategy<Value = RawTuple> {
    (
        0u8..12,
        0i64..(40 * 86_400),
        0usize..ACTIONS.len(),
        0usize..COUNTRIES.len(),
        0usize..ROLES.len(),
        0i64..200,
    )
        .prop_map(|(user, time, action, country, role, gold)| RawTuple {
            user,
            time,
            action,
            country,
            role,
            gold,
        })
}

fn build_table(tuples: Vec<RawTuple>) -> ActivityTable {
    let mut b = TableBuilder::new(Schema::game_actions());
    let mut seen = std::collections::HashSet::new();
    for t in tuples {
        // Enforce the (user, time, action) primary key by dropping dups.
        if !seen.insert((t.user, t.time, t.action)) {
            continue;
        }
        b.push(vec![
            Value::from(format!("u{:02}", t.user)),
            Value::int(t.time),
            Value::str(ACTIONS[t.action]),
            Value::str(COUNTRIES[t.country]),
            Value::str("city"),
            Value::str(ROLES[t.role]),
            Value::int(1),
            Value::int(t.gold),
        ])
        .unwrap();
    }
    b.finish().unwrap()
}

/// `AGE <op> g`, with the literal on either side.
fn age_cmp(op: usize, g: i64, literal_first: bool) -> Expr {
    let (a, b) = if literal_first {
        (Expr::lit_int(g), Expr::age())
    } else {
        (Expr::age(), Expr::lit_int(g))
    };
    match op {
        0 => a.eq(b),
        1 => a.ne(b),
        2 => a.lt(b),
        3 => a.le(b),
        4 => a.gt(b),
        _ => a.ge(b),
    }
}

/// Age selections that constrain `AGE`: every operator in both operand
/// orders, `BETWEEN`, pairs of bounds (contradictory when `lo >= hi`),
/// bounds at or below 0 and past the 40 days the data spans, and shapes the
/// executor cannot turn into a row range (`NOT`, `OR`) or must combine with
/// one (an attribute and a `Birth()` conjunct beside the bound).
fn age_selection() -> impl Strategy<Value = Expr> {
    let shop = || Expr::attr("action").eq(Expr::lit_str("shop"));
    prop_oneof![
        (0usize..6, -2i64..60, prop::bool::ANY).prop_map(|(op, g, f)| age_cmp(op, g, f)),
        (-2i64..60, -2i64..60).prop_map(|(lo, hi)| Expr::age().between_int(lo, hi)),
        (-2i64..45, -2i64..45).prop_map(|(lo, hi)| age_cmp(4, lo, false).and(age_cmp(4, hi, true))),
        (-2i64..60).prop_map(|g| age_cmp(2, g, false).not()),
        (-2i64..60).prop_map(move |g| age_cmp(2, g, false).or(shop())),
        (2usize..6, 0i64..45, prop::sample::select(ACTIONS.to_vec())).prop_map(
            |(op, g, action)| {
                Expr::attr("action")
                    .eq(Expr::lit_str(action))
                    .and(age_cmp(op, g, false))
                    .and(Expr::attr("country").eq(Expr::birth("country")))
            }
        ),
    ]
}

/// Aggregate lists: each function alone, QW's pair, two aggregates sharing
/// one column, and all six together.
fn aggregates() -> impl Strategy<Value = Vec<AggFunc>> {
    let (sum, avg) = (AggFunc::sum("gold"), AggFunc::avg("gold"));
    let (min, max) = (AggFunc::min("gold"), AggFunc::max("gold"));
    let (count, users) = (AggFunc::count(), AggFunc::user_count());
    prop::sample::select(vec![
        vec![sum.clone()],
        vec![avg.clone()],
        vec![count.clone()],
        vec![users.clone()],
        vec![min.clone()],
        vec![max.clone()],
        vec![users.clone(), sum.clone()],
        vec![min.clone(), max.clone()],
        vec![sum, avg, min, max, count, users],
    ])
}

/// A random query over the generated schema.
fn query_strategy() -> impl Strategy<Value = CohortQuery> {
    let birth_action = prop::sample::select(ACTIONS.to_vec());
    let birth_pred = prop_oneof![
        Just(None),
        prop::sample::select(ROLES.to_vec())
            .prop_map(|r| Some(Expr::attr("role").eq(Expr::lit_str(r)))),
        (0i64..30)
            .prop_map(|d| Some(Expr::attr("time").between_int(d * 86_400, (d + 10) * 86_400))),
    ];
    let age_pred = prop_oneof![
        Just(None),
        prop::sample::select(ACTIONS.to_vec())
            .prop_map(|a| Some(Expr::attr("action").eq(Expr::lit_str(a)))),
        age_selection().prop_map(Some),
        Just(Some(Expr::attr("country").eq(Expr::birth("country")))),
    ];
    let cohort_attr = prop::sample::select(vec!["country", "role"]);
    (birth_action, birth_pred, age_pred, cohort_attr, aggregates()).prop_map(
        |(action, bp, ap, cohort, aggs)| {
            let mut b = CohortQuery::builder(action).cohort_by([cohort]);
            if let Some(p) = bp {
                b = b.birth_where(p);
            }
            if let Some(p) = ap {
                b = b.age_where(p);
            }
            for agg in aggs {
                b = b.aggregate(agg);
            }
            b.build().expect("generated queries are valid")
        },
    )
}

/// Every plan the executor can run a query under: all optimizations, none,
/// and each one switched off alone.
fn planner_options() -> [PlannerOptions; 6] {
    [
        PlannerOptions::default(),
        PlannerOptions::naive(),
        PlannerOptions { push_down_birth_selection: false, ..Default::default() },
        PlannerOptions { skip_unqualified_users: false, ..Default::default() },
        PlannerOptions { prune_chunks: false, ..Default::default() },
        PlannerOptions { array_aggregation: false, ..Default::default() },
    ]
}

fn assert_same_report(got: &CohortReport, reference: &CohortReport, what: &str) {
    assert_eq!(got.rows.len(), reference.rows.len(), "{what}");
    for (a, b) in got.rows.iter().zip(reference.rows.iter()) {
        assert_eq!((&a.cohort, a.age, a.size), (&b.cohort, b.age, b.size), "{what}");
        for (x, y) in a.measures.iter().zip(b.measures.iter()) {
            assert!(x.approx_eq(y), "{x:?} vs {y:?} at age {} on {what}", a.age);
        }
    }
    assert_eq!(&got.cohort_sizes, &reference.cohort_sizes, "{what}");
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: if cfg!(debug_assertions) { 48 } else { 384 },
        ..ProptestConfig::default()
    })]

    #[test]
    fn cohana_matches_reference_on_random_data(
        tuples in proptest::collection::vec(raw_tuple(), 0..150),
        query in query_strategy(),
        chunk_size in prop::sample::select(vec![8usize, 64, 4096]),
    ) {
        let table = build_table(tuples);
        let reference = naive_execute(&table, &query).unwrap();
        let compressed = CompressedTable::build(
            &table,
            CompressionOptions::with_chunk_size(chunk_size),
        ).unwrap();
        let plan = plan_query(&query, table.schema(), PlannerOptions::default()).unwrap();
        let got = Statement::with_plan(Arc::new(compressed), plan, 1).unwrap().execute().unwrap();
        assert_same_report(&got, &reference, &query.to_string());
    }

    /// The age selection always constrains `AGE`: the executor's row-range,
    /// selection-vector and per-run fold must answer like the reference
    /// serially and on four workers, under every plan.
    #[test]
    fn age_selections_match_reference_under_every_plan(
        tuples in proptest::collection::vec(raw_tuple(), 0..150),
        query in query_strategy(),
        selection in age_selection(),
        chunk_size in prop::sample::select(vec![8usize, 64, 4096]),
    ) {
        let mut query = query;
        query.age_predicate = Some(selection);
        let table = build_table(tuples);
        let reference = naive_execute(&table, &query).unwrap();
        let compressed = Arc::new(
            CompressedTable::build(&table, CompressionOptions::with_chunk_size(chunk_size)).unwrap(),
        );
        for options in planner_options() {
            for parallelism in [1usize, 4] {
                let got = Statement::over(compressed.clone(), &query, options, parallelism)
                    .unwrap()
                    .execute()
                    .unwrap();
                let what = format!("{query} ({options:?}, parallelism {parallelism})");
                assert_same_report(&got, &reference, &what);
            }
        }
    }

    #[test]
    fn wire_batches_roundtrip_and_assemble_in_any_order(
        tuples in proptest::collection::vec(raw_tuple(), 0..150),
        query in query_strategy(),
        key_width in 1usize..4,
        arrival in proptest::collection::vec(0u32..1000, 16..17),
        chunk_size in prop::sample::select(vec![8usize, 64]),
    ) {
        // Widen the cohort key with a binned-time and an integer part, and
        // cover the aggregates `query_strategy` leaves out.
        let mut query = query;
        query.cohort_by.extend(
            [CohortAttr::TimeBin(TimeBin::Week), CohortAttr::Attr("gold".into())]
                .into_iter()
                .take(key_width - 1),
        );
        query.aggregates.extend([AggFunc::min("gold"), AggFunc::max("gold")]);

        let table = build_table(tuples);
        let compressed = CompressedTable::build(
            &table,
            CompressionOptions::with_chunk_size(chunk_size),
        ).unwrap();
        let stmt =
            Statement::over(Arc::new(compressed), &query, PlannerOptions::default(), 1).unwrap();
        let expect = stmt.execute().unwrap();

        let mut batches = Vec::new();
        for batch in stmt.stream() {
            let wire = stmt.wire_batch(&batch.unwrap());
            let decoded = WireBatch::decode(&wire.encode()).unwrap();
            prop_assert_eq!(&decoded, &wire, "decode(encode(b)) != b on {}", query);
            batches.push(decoded);
        }
        // `arrival` ranks the batches: any permutation can come up.
        let mut order: Vec<usize> = (0..batches.len()).collect();
        order.sort_by_key(|&i| arrival[i % arrival.len()]);
        let mut asm = ReportAssembler::new(
            query.cohort_by.iter().map(|c| c.to_string()).collect(),
            query.aggregates.iter().map(|a| a.header()).collect(),
        );
        for i in order {
            asm.push(&batches[i]).unwrap();
        }
        prop_assert_eq!(asm.finish(), expect, "assembled report diverged on {}", query);
    }

    #[test]
    fn baselines_match_reference_on_random_data(
        tuples in proptest::collection::vec(raw_tuple(), 0..120),
        query in query_strategy(),
    ) {
        let table = build_table(tuples);
        let reference = naive_execute(&table, &query).unwrap();

        let mut row = RowEngine::load(&table);
        let row_sql = row.execute_sql(&query).unwrap();
        row.create_mv(&query.birth_action);
        let row_mv = row.execute_mv(&query).unwrap();

        let mut col = ColEngine::load(&table);
        let col_sql = col.execute_sql(&query).unwrap();
        col.create_mv(&query.birth_action);
        let col_mv = col.execute_mv(&query).unwrap();

        for (scheme, got) in [("row-sql", &row_sql), ("row-mv", &row_mv),
                              ("col-sql", &col_sql), ("col-mv", &col_mv)] {
            prop_assert_eq!(got.rows.len(), reference.rows.len(), "{} on {}", scheme, query);
            for (a, b) in got.rows.iter().zip(reference.rows.iter()) {
                prop_assert_eq!(&a.cohort, &b.cohort, "{}", scheme);
                prop_assert_eq!(a.age, b.age, "{}", scheme);
                prop_assert_eq!(a.size, b.size, "{}", scheme);
                for (x, y) in a.measures.iter().zip(b.measures.iter()) {
                    prop_assert!(x.approx_eq(y), "{}: {:?} vs {:?}", scheme, x, y);
                }
            }
        }
    }

    #[test]
    fn compression_roundtrips_random_tables(
        tuples in proptest::collection::vec(raw_tuple(), 0..150),
        chunk_size in prop::sample::select(vec![4usize, 32, 1024]),
    ) {
        let table = build_table(tuples);
        let compressed = CompressedTable::build(
            &table,
            CompressionOptions::with_chunk_size(chunk_size),
        ).unwrap();
        let back = compressed.decompress().unwrap();
        prop_assert_eq!(back.rows(), table.rows());

        // Persistence roundtrip too.
        let bytes = cohana::storage::persist::to_bytes(&compressed);
        let re = cohana::storage::persist::from_bytes(&bytes).unwrap();
        let re_table = re.decompress().unwrap();
        prop_assert_eq!(re_table.rows(), table.rows());
    }
}
