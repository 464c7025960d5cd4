//! Property-based differential testing: random activity tables and random
//! cohort queries must produce identical results from the optimized COHANA
//! executor, the naive reference evaluator, and both relational baselines —
//! and the executor's per-chunk batches must survive the wire codec intact
//! and assemble to the same report in any arrival order.

use cohana::engine::naive::naive_execute;
use cohana::engine::{
    plan_query, AggFunc, CohortAttr, CohortQuery, Expr, PlannerOptions, ReportAssembler, Statement,
    WireBatch,
};
use cohana::prelude::*;
use cohana::relational::{ColEngine, RowEngine};
use cohana_activity::{Schema, TableBuilder};
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
        (1i64..15).prop_map(|g| Some(Expr::age().lt(Expr::lit_int(g)))),
        Just(Some(Expr::attr("country").eq(Expr::birth("country")))),
    ];
    let cohort_attr = prop::sample::select(vec!["country", "role"]);
    let agg = prop::sample::select(vec![0usize, 1, 2, 3]);
    (birth_action, birth_pred, age_pred, cohort_attr, agg).prop_map(
        |(action, bp, ap, cohort, agg)| {
            let mut b = CohortQuery::builder(action).cohort_by([cohort]);
            if let Some(p) = bp {
                b = b.birth_where(p);
            }
            if let Some(p) = ap {
                b = b.age_where(p);
            }
            let agg = match agg {
                0 => AggFunc::sum("gold"),
                1 => AggFunc::avg("gold"),
                2 => AggFunc::count(),
                _ => AggFunc::user_count(),
            };
            b.aggregate(agg).build().expect("generated queries are valid")
        },
    )
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 48, ..ProptestConfig::default() })]

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

        prop_assert_eq!(got.rows.len(), reference.rows.len(), "query {}", query);
        for (a, b) in got.rows.iter().zip(reference.rows.iter()) {
            prop_assert_eq!(&a.cohort, &b.cohort);
            prop_assert_eq!(a.age, b.age);
            prop_assert_eq!(a.size, b.size);
            for (x, y) in a.measures.iter().zip(b.measures.iter()) {
                prop_assert!(x.approx_eq(y), "{:?} vs {:?} on {}", x, y, query);
            }
        }
        prop_assert_eq!(&got.cohort_sizes, &reference.cohort_sizes);
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
