//! Aggregate functions for cohort aggregation (`fA` of γᶜ).
//!
//! Besides the standard SQL aggregates the paper's §4.5 adds `UserCount()`,
//! a distinct-user count per `(cohort, age)` that exploits the storage
//! property that each user's tuples live in exactly one chunk: counting per
//! chunk and summing the per-chunk counts is exact, with no cross-chunk
//! distinct set needed.

use crate::error::EngineError;
use std::fmt;

/// An aggregate function over a measure attribute (or over users, for
/// `UserCount`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AggFunc {
    /// `Sum(attr)`
    Sum(String),
    /// `Avg(attr)`
    Avg(String),
    /// `Min(attr)`
    Min(String),
    /// `Max(attr)`
    Max(String),
    /// `Count()` — number of qualifying age activity tuples.
    Count,
    /// `UserCount()` — distinct users with at least one qualifying age
    /// activity tuple at the given age (§4.5).
    UserCount,
}

impl AggFunc {
    /// `Sum(attr)`
    pub fn sum(attr: impl Into<String>) -> Self {
        AggFunc::Sum(attr.into())
    }

    /// `Avg(attr)`
    pub fn avg(attr: impl Into<String>) -> Self {
        AggFunc::Avg(attr.into())
    }

    /// `Min(attr)`
    pub fn min(attr: impl Into<String>) -> Self {
        AggFunc::Min(attr.into())
    }

    /// `Max(attr)`
    pub fn max(attr: impl Into<String>) -> Self {
        AggFunc::Max(attr.into())
    }

    /// `Count()`
    pub fn count() -> Self {
        AggFunc::Count
    }

    /// `UserCount()`
    pub fn user_count() -> Self {
        AggFunc::UserCount
    }

    /// The measure attribute the aggregate reads, if any.
    pub fn attr(&self) -> Option<&str> {
        match self {
            AggFunc::Sum(a) | AggFunc::Avg(a) | AggFunc::Min(a) | AggFunc::Max(a) => Some(a),
            AggFunc::Count | AggFunc::UserCount => None,
        }
    }

    /// Whether this aggregate is updated once per `(user, age)` rather than
    /// once per tuple.
    pub fn per_user(&self) -> bool {
        matches!(self, AggFunc::UserCount)
    }

    /// Fresh accumulator state.
    pub fn init(&self) -> AggState {
        match self {
            AggFunc::Sum(_) => AggState::Sum(0),
            AggFunc::Avg(_) => AggState::Avg { sum: 0, count: 0 },
            AggFunc::Min(_) => AggState::Min(None),
            AggFunc::Max(_) => AggState::Max(None),
            AggFunc::Count => AggState::Count(0),
            AggFunc::UserCount => AggState::UserCount(0),
        }
    }

    /// Column header for reports, matching the paper's SELECT list style.
    pub fn header(&self) -> String {
        match self {
            AggFunc::Sum(a) => format!("Sum({a})"),
            AggFunc::Avg(a) => format!("Avg({a})"),
            AggFunc::Min(a) => format!("Min({a})"),
            AggFunc::Max(a) => format!("Max({a})"),
            AggFunc::Count => "Count()".to_string(),
            AggFunc::UserCount => "UserCount()".to_string(),
        }
    }
}

impl fmt::Display for AggFunc {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.header())
    }
}

/// Accumulator state of one aggregate in one `(cohort, age)` bucket.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AggState {
    /// Running sum.
    Sum(i64),
    /// Running sum and count for averages.
    Avg {
        /// Sum of values.
        sum: i64,
        /// Number of values.
        count: u64,
    },
    /// Running minimum.
    Min(Option<i64>),
    /// Running maximum.
    Max(Option<i64>),
    /// Tuple count.
    Count(u64),
    /// Distinct-user count.
    UserCount(u64),
}

impl AggState {
    /// Fold in one measure value (per qualifying tuple). For `UserCount`
    /// use [`AggState::update_user`] instead.
    #[inline]
    pub fn update(&mut self, v: i64) {
        match self {
            AggState::Sum(s) => *s += v,
            AggState::Avg { sum, count } => {
                *sum += v;
                *count += 1;
            }
            AggState::Min(m) => *m = Some(m.map_or(v, |cur| cur.min(v))),
            AggState::Max(m) => *m = Some(m.map_or(v, |cur| cur.max(v))),
            AggState::Count(c) => *c += 1,
            AggState::UserCount(_) => unreachable!("UserCount updates once per user"),
        }
    }

    /// Fold in one distinct user (per `(user, age)` pair).
    #[inline]
    pub fn update_user(&mut self) {
        match self {
            AggState::UserCount(c) => *c += 1,
            _ => unreachable!("update_user only applies to UserCount"),
        }
    }

    /// Fold in one `(user, age)` run — a user's qualifying tuples of one
    /// age — in a single step, so the executor matches the state's kind once
    /// per run instead of once per tuple. `raw` holds the run's measure
    /// values as offsets from `base` (empty for aggregates that read no
    /// attribute) and `sum` their wrapping total `Σ (base + raw[i])`, which
    /// the caller has from a prefix sum; wrapping addition is associative,
    /// so the state ends bit-identical to `len` calls of
    /// [`AggState::update`].
    #[inline]
    pub fn fold_run(&mut self, len: u64, sum: i64, raw: &[u64], base: i64) {
        let value = |r: &u64| base.wrapping_add(*r as i64);
        match self {
            AggState::Sum(s) => *s = s.wrapping_add(sum),
            AggState::Avg { sum: s, count } => {
                *s = s.wrapping_add(sum);
                *count += len;
            }
            AggState::Min(m) => *m = raw.iter().map(value).chain(*m).min(),
            AggState::Max(m) => *m = raw.iter().map(value).chain(*m).max(),
            AggState::Count(c) => *c += len,
            AggState::UserCount(c) => *c += 1,
        }
    }

    /// Merge a partial state from another chunk. Correct for `UserCount`
    /// because a user's tuples are confined to a single chunk.
    pub fn merge(&mut self, other: &AggState) -> Result<(), EngineError> {
        match (self, other) {
            (AggState::Sum(a), AggState::Sum(b)) => *a += b,
            (AggState::Avg { sum, count }, AggState::Avg { sum: s2, count: c2 }) => {
                *sum += s2;
                *count += c2;
            }
            (AggState::Min(a), AggState::Min(b)) => {
                *a = match (*a, *b) {
                    (Some(x), Some(y)) => Some(x.min(y)),
                    (x, y) => x.or(y),
                }
            }
            (AggState::Max(a), AggState::Max(b)) => {
                *a = match (*a, *b) {
                    (Some(x), Some(y)) => Some(x.max(y)),
                    (x, y) => x.or(y),
                }
            }
            (AggState::Count(a), AggState::Count(b)) => *a += b,
            (AggState::UserCount(a), AggState::UserCount(b)) => *a += b,
            (a, b) => {
                return Err(EngineError::TypeError(format!(
                    "cannot merge aggregate states {a:?} and {b:?}"
                )))
            }
        }
        Ok(())
    }

    /// Produce the final reported value.
    pub fn finalize(&self) -> AggValue {
        match self {
            AggState::Sum(s) => AggValue::Int(*s),
            AggState::Avg { sum, count } => {
                if *count == 0 {
                    AggValue::Null
                } else {
                    AggValue::Float(*sum as f64 / *count as f64)
                }
            }
            AggState::Min(m) => m.map_or(AggValue::Null, AggValue::Int),
            AggState::Max(m) => m.map_or(AggValue::Null, AggValue::Int),
            AggState::Count(c) => AggValue::Int(*c as i64),
            AggState::UserCount(c) => AggValue::Int(*c as i64),
        }
    }
}

/// A finalized aggregate value.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum AggValue {
    /// Exact integer result.
    Int(i64),
    /// Fractional result (averages).
    Float(f64),
    /// No qualifying tuples.
    Null,
}

impl AggValue {
    /// Numeric view (NULL is `None`).
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            AggValue::Int(v) => Some(*v as f64),
            AggValue::Float(v) => Some(*v),
            AggValue::Null => None,
        }
    }

    /// Exact integer view.
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            AggValue::Int(v) => Some(*v),
            AggValue::Float(v) => Some(v.round() as i64),
            AggValue::Null => None,
        }
    }

    /// Approximate equality for differential tests (float tolerance 1e-9
    /// relative).
    pub fn approx_eq(&self, other: &AggValue) -> bool {
        match (self, other) {
            (AggValue::Null, AggValue::Null) => true,
            (a, b) => match (a.as_f64(), b.as_f64()) {
                (Some(x), Some(y)) => {
                    let scale = x.abs().max(y.abs()).max(1.0);
                    (x - y).abs() <= 1e-9 * scale
                }
                _ => false,
            },
        }
    }
}

impl fmt::Display for AggValue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AggValue::Int(v) => write!(f, "{v}"),
            AggValue::Float(v) => write!(f, "{v:.2}"),
            AggValue::Null => write!(f, "NULL"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sum_update_merge_finalize() {
        let f = AggFunc::sum("gold");
        let mut a = f.init();
        a.update(10);
        a.update(5);
        let mut b = f.init();
        b.update(7);
        a.merge(&b).unwrap();
        assert_eq!(a.finalize(), AggValue::Int(22));
    }

    #[test]
    fn avg_finalize() {
        let mut s = AggFunc::avg("gold").init();
        s.update(10);
        s.update(20);
        s.update(33);
        assert_eq!(s.finalize(), AggValue::Float(21.0));
        assert_eq!(AggFunc::avg("gold").init().finalize(), AggValue::Null);
    }

    #[test]
    fn min_max_with_empty_partials() {
        let f = AggFunc::min("gold");
        let mut a = f.init();
        let b = f.init();
        a.merge(&b).unwrap();
        assert_eq!(a.finalize(), AggValue::Null);
        a.update(5);
        a.update(-2);
        assert_eq!(a.finalize(), AggValue::Int(-2));

        let mut m = AggFunc::max("gold").init();
        m.update(5);
        let mut m2 = AggFunc::max("gold").init();
        m2.update(9);
        m.merge(&m2).unwrap();
        assert_eq!(m.finalize(), AggValue::Int(9));
    }

    #[test]
    fn user_count_updates_per_user() {
        let mut s = AggFunc::user_count().init();
        s.update_user();
        s.update_user();
        assert_eq!(s.finalize(), AggValue::Int(2));
        assert!(AggFunc::user_count().per_user());
        assert!(!AggFunc::count().per_user());
    }

    /// One `fold_run` ≡ `update` per tuple (`update_user` once), for every
    /// kind of state, a negative base, raw offsets past `i64::MAX` and a
    /// raw total that wraps `u64`.
    #[test]
    fn fold_run_matches_tuple_by_tuple_updates() {
        let base = -3_000_000_000_000_000_000i64;
        let raw = [0u64, 7_000_000_000_000_000_000, 0, 7_000_000_000_000_000_000, 0, u64::MAX / 2];
        let values: Vec<i64> = raw.iter().map(|&r| base.wrapping_add(r as i64)).collect();
        let sum = values.iter().fold(0i64, |s, v| s.wrapping_add(*v));
        for f in [
            AggFunc::sum("g"),
            AggFunc::avg("g"),
            AggFunc::min("g"),
            AggFunc::max("g"),
            AggFunc::count(),
            AggFunc::user_count(),
        ] {
            // Start from a state that already holds a tuple.
            let mut by_run = f.init();
            let mut by_tuple = f.init();
            for s in [&mut by_run, &mut by_tuple] {
                if f.per_user() {
                    s.update_user();
                } else {
                    s.update(5);
                }
            }
            by_run.fold_run(raw.len() as u64, sum, &raw, base);
            if f.per_user() {
                by_tuple.update_user();
            } else {
                // `update` adds without wrapping; the running total here
                // stays inside `i64` even though the raw offsets do not.
                values.iter().for_each(|&v| by_tuple.update(v));
            }
            assert_eq!(by_run, by_tuple, "{f}");
        }
        // Aggregates over no attribute get an empty run of the same length.
        let mut count = AggFunc::count().init();
        count.fold_run(4, 0, &[], 0);
        assert_eq!(count.finalize(), AggValue::Int(4));
    }

    #[test]
    fn merge_type_mismatch_errors() {
        let mut a = AggFunc::sum("gold").init();
        let b = AggFunc::count().init();
        assert!(a.merge(&b).is_err());
    }

    #[test]
    fn approx_eq() {
        assert!(AggValue::Int(3).approx_eq(&AggValue::Float(3.0)));
        assert!(AggValue::Float(1.0 / 3.0).approx_eq(&AggValue::Float(0.3333333333333333)));
        assert!(!AggValue::Int(3).approx_eq(&AggValue::Null));
        assert!(AggValue::Null.approx_eq(&AggValue::Null));
    }

    #[test]
    fn headers() {
        assert_eq!(AggFunc::sum("gold").header(), "Sum(gold)");
        assert_eq!(AggFunc::user_count().header(), "UserCount()");
        assert_eq!(AggFunc::avg("gold").attr(), Some("gold"));
        assert_eq!(AggFunc::count().attr(), None);
    }
}
