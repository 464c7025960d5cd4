//! Aggregate functions for cohort aggregation (`fA` of γᶜ).
//!
//! Besides the standard SQL aggregates the paper's §4.5 adds `UserCount()`,
//! a distinct-user count per `(cohort, age)` that exploits the storage
//! property that each user's tuples live in exactly one chunk: counting per
//! chunk and summing the per-chunk counts is exact, with no cross-chunk
//! distinct set needed.

use std::fmt;
use std::ops::Range;

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

/// Accumulator state of one aggregate in one `(cohort, age)` bucket — the
/// scalar view of one cell of a state column, and the state the reference
/// evaluators fold tuple by tuple. Sums and counts wrap, in every build.
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
            AggState::Sum(s) => *s = s.wrapping_add(v),
            AggState::Avg { sum, count } => {
                *sum = sum.wrapping_add(v);
                *count = count.wrapping_add(1);
            }
            AggState::Min(m) => *m = Some(m.map_or(v, |cur| cur.min(v))),
            AggState::Max(m) => *m = Some(m.map_or(v, |cur| cur.max(v))),
            AggState::Count(c) => *c = c.wrapping_add(1),
            AggState::UserCount(_) => unreachable!("UserCount updates once per user"),
        }
    }

    /// Fold in one distinct user (per `(user, age)` pair).
    #[inline]
    pub fn update_user(&mut self) {
        match self {
            AggState::UserCount(c) => *c = c.wrapping_add(1),
            _ => unreachable!("update_user only applies to UserCount"),
        }
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

/// What an aggregate's cells hold. The discriminants are the BATCH frame's
/// state tags (`docs/PROTOCOL.md`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Kind {
    Sum = 0,
    Avg = 1,
    Min = 2,
    Max = 3,
    Count = 4,
    UserCount = 5,
}

impl Kind {
    pub(crate) fn of(func: &AggFunc) -> Kind {
        match func {
            AggFunc::Sum(_) => Kind::Sum,
            AggFunc::Avg(_) => Kind::Avg,
            AggFunc::Min(_) => Kind::Min,
            AggFunc::Max(_) => Kind::Max,
            AggFunc::Count => Kind::Count,
            AggFunc::UserCount => Kind::UserCount,
        }
    }

    pub(crate) fn from_tag(tag: u8) -> Option<Kind> {
        [Kind::Sum, Kind::Avg, Kind::Min, Kind::Max, Kind::Count, Kind::UserCount]
            .get(usize::from(tag))
            .copied()
    }

    fn has_vals(self) -> bool {
        !matches!(self, Kind::Count | Kind::UserCount)
    }

    fn has_counts(self) -> bool {
        self != Kind::Sum
    }

    /// What a cell without a value holds in `vals`: the identity of the
    /// fold, so folding and merging need no presence test.
    fn identity(self) -> i64 {
        match self {
            Kind::Min => i64::MAX,
            Kind::Max => i64::MIN,
            _ => 0,
        }
    }
}

/// The measure values of one user's selected tuples as a fold reads them:
/// raw offsets from `base`, and their wrapping prefix sums (`psum[i]` is the
/// total of `raw[..i]`). Empty for aggregates that read no attribute.
#[derive(Default)]
pub(crate) struct RunValues<'a> {
    pub(crate) raw: &'a [u64],
    pub(crate) psum: &'a [u64],
    pub(crate) base: i64,
}

impl RunValues<'_> {
    /// `Σ (base + raw[i])` over `a..b`, wrapping like the tuple-by-tuple sum.
    #[inline]
    fn sum(&self, a: usize, b: usize) -> i64 {
        let raw = self.psum[b].wrapping_sub(self.psum[a]);
        (self.base as u64).wrapping_mul((b - a) as u64).wrapping_add(raw) as i64
    }

    /// The value of the smallest (`pick` = `min`) or largest raw offset of
    /// `a..b`: `base + raw` is exact for a chunk's values, so raw offsets
    /// order as the values do.
    #[inline]
    fn extreme(&self, a: usize, b: usize, pick: fn(u64, u64) -> u64) -> i64 {
        self.base
            .wrapping_add(self.raw[a + 1..b].iter().fold(self.raw[a], |m, &r| pick(m, r)) as i64)
    }
}

/// Where [`StateCol::merge_from`] merges a column's cells to.
#[derive(Clone, Copy)]
pub(crate) enum Dest<'a> {
    /// Cell `i` into cell `pos[i]`, for every cell.
    Cells(&'a [usize]),
    /// Cells `from..from + len` into cells `to..to + len`, for every
    /// `(from, to, len)`.
    Blocks(&'a [(usize, usize, usize)]),
}

/// One aggregate's states, one per cell — the layout the executor folds
/// into and merges, a BATCH frame carries and a client merges.
///
/// `vals` holds `Sum`, the sum of `Avg` and the extreme of `Min`/`Max`;
/// `counts` holds `Count`, `UserCount`, the count of `Avg` and the presence
/// (0 or 1) of `Min`/`Max`, whose absent cells hold the identity in `vals`
/// — so `Some(i64::MAX)` stays distinct from `None` and no step tests
/// presence. A kind with no use for one of the two keeps it empty. Sums and
/// counts wrap.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct StateCol {
    kind: Kind,
    vals: Vec<i64>,
    counts: Vec<u64>,
}

impl StateCol {
    pub(crate) fn new(kind: Kind) -> StateCol {
        StateCol { kind, vals: Vec::new(), counts: Vec::new() }
    }

    pub(crate) fn kind(&self) -> Kind {
        self.kind
    }

    /// Pad to `n` cells without a value.
    pub(crate) fn resize(&mut self, n: usize) {
        if self.kind.has_vals() {
            self.vals.resize(n, self.kind.identity());
        }
        if self.kind.has_counts() {
            self.counts.resize(n, 0);
        }
    }

    /// Copy `cells` to the end, then pad to `n` cells: how a block of cells
    /// moves when it outgrows its place.
    pub(crate) fn relocate(&mut self, cells: Range<usize>, n: usize) {
        if self.kind.has_vals() {
            self.vals.extend_from_within(cells.clone());
        }
        if self.kind.has_counts() {
            self.counts.extend_from_within(cells);
        }
        self.resize(n);
    }

    /// The cells at `idx`, in that order.
    pub(crate) fn gather(&self, idx: &[usize]) -> StateCol {
        fn pick<T: Copy>(used: bool, part: &[T], idx: &[usize]) -> Vec<T> {
            if used {
                idx.iter().map(|&i| part[i]).collect()
            } else {
                Vec::new()
            }
        }
        StateCol {
            kind: self.kind,
            vals: pick(self.kind.has_vals(), &self.vals, idx),
            counts: pick(self.kind.has_counts(), &self.counts, idx),
        }
    }

    /// Merge `src`'s cells (of the same kind) into this column's, at `dest`.
    pub(crate) fn merge_from(&mut self, src: &StateCol, dest: Dest<'_>) {
        debug_assert_eq!(self.kind, src.kind);
        fn merge<T: Copy>(dst: &mut [T], src: &[T], dest: Dest<'_>, f: impl Fn(T, T) -> T) {
            match dest {
                Dest::Cells(pos) => pos.iter().zip(src).for_each(|(&p, &v)| dst[p] = f(dst[p], v)),
                Dest::Blocks(moves) if !src.is_empty() => {
                    for &(from, to, len) in moves {
                        let cells = dst[to..to + len].iter_mut().zip(&src[from..from + len]);
                        cells.for_each(|(d, &v)| *d = f(*d, v));
                    }
                }
                Dest::Blocks(_) => {}
            }
        }
        match self.kind {
            Kind::Min => merge(&mut self.vals, &src.vals, dest, i64::min),
            Kind::Max => merge(&mut self.vals, &src.vals, dest, i64::max),
            _ => merge(&mut self.vals, &src.vals, dest, i64::wrapping_add),
        }
        match self.kind {
            Kind::Min | Kind::Max => merge(&mut self.counts, &src.counts, dest, |a, b| a | b),
            _ => merge(&mut self.counts, &src.counts, dest, u64::wrapping_add),
        }
    }

    /// Fold one user's `(user, age)` runs: run `r` is the selected tuples
    /// `starts[r]..starts[r + 1]` and lands in cell `cells[r]`. The kind is
    /// matched once, outside the loop over runs.
    pub(crate) fn fold_runs(&mut self, cells: &[usize], starts: &[u32], values: &RunValues<'_>) {
        let runs =
            || cells.iter().zip(starts.windows(2)).map(|(&c, w)| (c, w[0] as usize, w[1] as usize));
        let (vals, counts) = (&mut self.vals, &mut self.counts);
        match self.kind {
            Kind::Count => {
                runs().for_each(|(c, a, b)| counts[c] = counts[c].wrapping_add((b - a) as u64))
            }
            Kind::UserCount => runs().for_each(|(c, ..)| counts[c] = counts[c].wrapping_add(1)),
            Kind::Sum => {
                runs().for_each(|(c, a, b)| vals[c] = vals[c].wrapping_add(values.sum(a, b)))
            }
            Kind::Avg => runs().for_each(|(c, a, b)| {
                vals[c] = vals[c].wrapping_add(values.sum(a, b));
                counts[c] = counts[c].wrapping_add((b - a) as u64);
            }),
            Kind::Min => runs().for_each(|(c, a, b)| {
                vals[c] = vals[c].min(values.extreme(a, b, u64::min));
                counts[c] = 1;
            }),
            Kind::Max => runs().for_each(|(c, a, b)| {
                vals[c] = vals[c].max(values.extreme(a, b, u64::max));
                counts[c] = 1;
            }),
        }
    }

    /// The raw columns: `vals` and `counts` as described above.
    pub(crate) fn parts(&self) -> (&[i64], &[u64]) {
        (&self.vals, &self.counts)
    }

    /// Cell `i` as a scalar state.
    pub(crate) fn get(&self, i: usize) -> AggState {
        let present = |c: u64| (c != 0).then(|| self.vals[i]);
        match self.kind {
            Kind::Sum => AggState::Sum(self.vals[i]),
            Kind::Avg => AggState::Avg { sum: self.vals[i], count: self.counts[i] },
            Kind::Min => AggState::Min(present(self.counts[i])),
            Kind::Max => AggState::Max(present(self.counts[i])),
            Kind::Count => AggState::Count(self.counts[i]),
            Kind::UserCount => AggState::UserCount(self.counts[i]),
        }
    }

    /// Append one cell; `state` must be of this column's kind.
    pub(crate) fn push(&mut self, state: AggState) {
        let (val, count) = match state {
            AggState::Sum(v) => (Some(v), None),
            AggState::Avg { sum, count } => (Some(sum), Some(count)),
            AggState::Min(m) | AggState::Max(m) => {
                (Some(m.unwrap_or(self.kind.identity())), Some(m.is_some() as u64))
            }
            AggState::Count(c) | AggState::UserCount(c) => (None, Some(c)),
        };
        debug_assert_eq!(
            (val.is_some(), count.is_some()),
            (self.kind.has_vals(), self.kind.has_counts())
        );
        self.vals.extend(val);
        self.counts.extend(count);
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

    /// `a` and `b` merged as one-cell columns of `kind`.
    fn merged(kind: Kind, a: AggState, b: AggState) -> AggState {
        let col = |s| {
            let mut col = StateCol::new(kind);
            col.push(s);
            col
        };
        let mut into = col(a);
        into.merge_from(&col(b), Dest::Cells(&[0]));
        into.get(0)
    }

    #[test]
    fn sum_update_merge_finalize() {
        let f = AggFunc::sum("gold");
        let mut a = f.init();
        a.update(10);
        a.update(5);
        let mut b = f.init();
        b.update(7);
        assert_eq!(merged(Kind::Sum, a, b).finalize(), AggValue::Int(22));
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
        let mut a = merged(Kind::Min, f.init(), f.init());
        assert_eq!(a.finalize(), AggValue::Null);
        a.update(5);
        a.update(-2);
        assert_eq!(merged(Kind::Min, f.init(), a).finalize(), AggValue::Int(-2));

        let mut m = AggFunc::max("gold").init();
        m.update(5);
        let mut m2 = AggFunc::max("gold").init();
        m2.update(9);
        assert_eq!(merged(Kind::Max, m, m2).finalize(), AggValue::Int(9));
        // Present at the identity is not absent.
        assert_eq!(merged(Kind::Max, AggState::Max(Some(i64::MIN)), m2), AggState::Max(Some(9)));
        let top = AggState::Min(Some(i64::MAX));
        assert_eq!(merged(Kind::Min, top, f.init()), top);
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

    fn all_funcs() -> [AggFunc; 6] {
        [
            AggFunc::sum("g"),
            AggFunc::avg("g"),
            AggFunc::min("g"),
            AggFunc::max("g"),
            AggFunc::count(),
            AggFunc::user_count(),
        ]
    }

    /// Folding runs into a column ≡ `update` per tuple (`update_user` once
    /// per run), for every kind, a negative base, raw offsets past
    /// `i64::MAX` and totals that wrap both `u64` and `i64`.
    #[test]
    fn fold_run_matches_tuple_by_tuple_updates() {
        let base = -3_000_000_000_000_000_000i64;
        let raw = [0u64, 7_000_000_000_000_000_000, 0, 7_000_000_000_000_000_000, 0, u64::MAX / 2];
        let mut psum = vec![0u64];
        for r in raw {
            psum.push(psum.last().unwrap().wrapping_add(r));
        }
        let values = RunValues { raw: &raw, psum: &psum, base };
        // Three runs: cell 1 gets tuples 0..2 and 4..6, cell 0 tuples 2..4.
        let (cells, starts) = ([1, 0, 1], [0u32, 2, 4, 6]);
        for f in all_funcs() {
            let mut col = StateCol::new(Kind::of(&f));
            col.resize(2);
            let mut by_tuple = [f.init(), f.init()];
            for (&cell, w) in cells.iter().zip(starts.windows(2)) {
                col.fold_runs(&[cell], w, &values);
                for &r in &raw[w[0] as usize..w[1] as usize] {
                    if !f.per_user() {
                        by_tuple[cell].update(base.wrapping_add(r as i64));
                    }
                }
                if f.per_user() {
                    by_tuple[cell].update_user();
                }
            }
            assert_eq!([col.get(0), col.get(1)], by_tuple, "{f}, run by run");
            // All three runs in one call fold the same.
            let mut once = StateCol::new(Kind::of(&f));
            once.resize(2);
            once.fold_runs(&cells, &starts, &values);
            assert_eq!(once, col, "{f}, one call");
        }
        // Aggregates over no attribute fold runs of the same lengths.
        let mut count = StateCol::new(Kind::Count);
        count.resize(1);
        count.fold_runs(&[0, 0], &[0, 3, 4], &RunValues::default());
        assert_eq!(count.get(0).finalize(), AggValue::Int(4));
    }

    /// Merging columns ≡ folding every value into one state: cell `i` of a
    /// column merged into cell `pos[i]` of another ends as if the tuples of
    /// both had been updated in, including empty `Min`/`Max` cells and sums
    /// that wrap.
    #[test]
    fn column_merge_matches_tuple_by_tuple_updates() {
        let values: [&[i64]; 3] = [&[], &[i64::MAX, 1], &[-7]];
        let pos = [2, 1, 1];
        for f in all_funcs() {
            let fill = |cells: &[&[i64]]| {
                let mut s = f.init();
                for &v in cells.iter().copied().flatten() {
                    if f.per_user() {
                        s.update_user()
                    } else {
                        s.update(v)
                    }
                }
                s
            };
            let mut col = StateCol::new(Kind::of(&f));
            values.iter().for_each(|v| col.push(fill(&[v])));
            col.merge_from(&col.clone(), Dest::Cells(&pos));
            let want =
                [fill(&[values[0]]), fill(&[values[1], values[1], values[2]]), fill(&[values[2]])];
            assert_eq!([col.get(0), col.get(1), col.get(2)], want, "{f}");
        }
        assert_eq!(
            merged(Kind::Sum, AggState::Sum(i64::MAX), AggState::Sum(1)),
            AggState::Sum(i64::MIN)
        );
    }

    #[test]
    fn merge_type_mismatch_errors() {
        use crate::cells::tests::table;
        use cohana_activity::Value;
        let one =
            |kind, state| table(1, &[kind], &[(vec![Value::Int(1)], 1, vec![(1, vec![state])])]);
        let mut sum = one(Kind::Sum, AggState::Sum(1));
        let err = sum.absorb(&one(Kind::Count, AggState::Count(1)));
        assert!(matches!(err, Err(crate::error::EngineError::Corrupt(_))));
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
