//! Inputs the differential harnesses share (`version_matrix.rs`,
//! `sharded.rs`, and `cohana-server`'s `serving.rs`): cohort keys of two and
//! three attributes mixing string, integer and binned-time parts, over every
//! aggregate function, on a table whose integer dimension goes negative.

use cohana_activity::{ActivityTable, TableBuilder, TimeBin, Value};
use cohana_core::{AggFunc, CohortQuery, Expr};

/// `table` with its `session` column folded into `-3..=3`: an integer cohort
/// attribute of few distinct values, half of them negative. (The golden v3
/// image holds such a table, so `version_matrix.rs` reads it instead.)
#[allow(dead_code)]
pub fn with_signed_sessions(table: &ActivityTable) -> ActivityTable {
    let sidx = table.schema().index_of("session").expect("game schema");
    let mut b = TableBuilder::with_capacity(table.schema().clone(), table.num_rows());
    for row in table.rows() {
        let mut values = row.values().to_vec();
        values[sidx] = Value::int(values[sidx].as_int().expect("session is an int") % 7 - 3);
        b.push(values).expect("row stays valid");
    }
    b.finish().expect("key order is untouched")
}

/// Wide-key queries: `Str × Int`, `Str × TimeBin × Int`, `TimeBin × Str` and
/// `Str × Str × Str` keys covering `Sum/Avg/Count`, `Min/Max/UserCount` and
/// a birth + age selection between them. The all-string key is the
/// benchmark's QW, which the executor interns through a direct-indexed LUT
/// over the chunk codes wherever the chunk has at least as many rows as key
/// combinations.
pub fn wide_key_queries() -> Vec<(String, CohortQuery)> {
    let w2 = CohortQuery::builder("launch")
        .cohort_by(["country", "session"])
        .aggregate(AggFunc::sum("gold"))
        .aggregate(AggFunc::avg("gold"))
        .aggregate(AggFunc::count());
    let w3 = CohortQuery::builder("launch")
        .cohort_by(["role"])
        .cohort_by_time(TimeBin::Week)
        .cohort_by(["session"])
        .aggregate(AggFunc::min("gold"))
        .aggregate(AggFunc::max("gold"))
        .aggregate(AggFunc::user_count());
    let wt = CohortQuery::builder("shop")
        .birth_where(Expr::attr("session").lt(Expr::lit_int(2)))
        .age_where(Expr::attr("action").eq(Expr::lit_str("shop")))
        .cohort_by_time(TimeBin::Day)
        .cohort_by(["country"])
        .aggregate(AggFunc::user_count())
        .aggregate(AggFunc::sum("session"));
    let ws = CohortQuery::builder("launch")
        .cohort_by(["country", "city", "role"])
        .aggregate(AggFunc::user_count())
        .aggregate(AggFunc::sum("gold"));
    [("w2", w2), ("w3", w3), ("wt", wt), ("ws", ws)]
        .into_iter()
        .map(|(name, q)| (name.to_string(), q.build().expect("wide-key query is valid")))
        .collect()
}
