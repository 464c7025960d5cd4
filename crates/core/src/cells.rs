//! The flat, compacted form of a partial result: what a BATCH frame carries
//! and a client merges.
//!
//! A partial cohort aggregation is a set of cohorts, each with a size and a
//! run of `(age, one state per aggregate)` cells. [`CohortTable`] stores it
//! flat, by dense cohort id: decoded keys (`arity` values each) and sizes
//! are vectors by id, cohort `i`'s cells are `ends[i - 1]..ends[i]` of one
//! ascending `ages` vector, and the states are the executor's own typed
//! [`StateCol`]s, one per aggregate, indexed by cell — only the cells that
//! received a tuple, so an absent cell is simply absent (a different answer
//! from `Sum(0)`). The executor compacts its accumulator into this layout,
//! cohorts in key order, for a [`WireBatch`](crate::WireBatch); the client's
//! [`ReportAssembler`](crate::wire::ReportAssembler) merges batches in it.
//!
//! A table becomes a merge target lazily: its `key → id` map is built the
//! first time another table is merged in, then one probe per incoming
//! *cohort* pairs the two, the ages of each pair merge into a plan (where
//! every cell of either side lands), and each state column is merged by that
//! plan in one typed pass. When every incoming cell lands on a cell the
//! target already has, the columns merge in place. Ages from the wire are
//! unbounded, so unlike the executor's age-indexed blocks, memory here is
//! proportional to the cells present, which is what lets a client fold in
//! batches it did not produce.

use crate::agg::{Dest, StateCol};
use crate::error::EngineError;
use crate::report::{CohortReport, ReportRow};
use cohana_activity::Value;
use std::collections::{BTreeMap, HashMap};
use std::ops::Range;

/// A partial (or merged) cohort aggregation with decoded keys, in the flat
/// layout of the module docs.
#[derive(Debug, Clone)]
pub(crate) struct CohortTable {
    /// Values per cohort key.
    arity: usize,
    /// Cohort keys by id, `arity` parts each.
    keys: Vec<Value>,
    /// Qualified users per cohort id.
    sizes: Vec<u64>,
    /// Where each cohort's cells end (they start where the previous
    /// cohort's end).
    ends: Vec<usize>,
    /// Each cohort's ages, strictly ascending.
    ages: Vec<i64>,
    /// One column per aggregate, indexed by cell.
    cols: Vec<StateCol>,
    /// `key → id` for the cohorts indexed so far; built when the table is
    /// first merged into.
    ids: HashMap<Vec<Value>, u32>,
}

impl Default for CohortTable {
    fn default() -> Self {
        CohortTable::from_parts(0, Vec::new(), Vec::new(), Vec::new(), Vec::new(), Vec::new())
    }
}

/// Equality of the cohorts, not of the lookup map built beside them.
impl PartialEq for CohortTable {
    fn eq(&self, other: &Self) -> bool {
        (self.arity, &self.keys, &self.sizes, &self.ends, &self.ages, &self.cols)
            == (other.arity, &other.keys, &other.sizes, &other.ends, &other.ages, &other.cols)
    }
}

impl CohortTable {
    pub(crate) fn from_parts(
        arity: usize,
        keys: Vec<Value>,
        sizes: Vec<u64>,
        ends: Vec<usize>,
        ages: Vec<i64>,
        cols: Vec<StateCol>,
    ) -> Self {
        debug_assert_eq!((keys.len(), ends.len()), (sizes.len() * arity, sizes.len()));
        CohortTable { arity, keys, sizes, ends, ages, cols, ids: HashMap::new() }
    }

    /// Cohorts with at least one qualified user.
    pub(crate) fn num_cohorts(&self) -> usize {
        self.sizes.len()
    }

    /// Total `(cohort, age)` cells across all cohorts.
    pub(crate) fn num_cells(&self) -> usize {
        self.ages.len()
    }

    pub(crate) fn arity(&self) -> usize {
        self.arity
    }

    /// One column per aggregate, indexed by cell.
    pub(crate) fn cols(&self) -> &[StateCol] {
        &self.cols
    }

    /// Cohort `i`'s key, size and cells.
    pub(crate) fn cohort(&self, i: usize) -> (&[Value], u64, Range<usize>) {
        let cells = i.checked_sub(1).map_or(0, |p| self.ends[p])..self.ends[i];
        (&self.keys[i * self.arity..(i + 1) * self.arity], self.sizes[i], cells)
    }

    /// Each cell's age.
    pub(crate) fn ages(&self) -> &[i64] {
        &self.ages
    }

    /// Fold `other` in: sizes add, cells at the same age merge state by
    /// state, cells at new ages are inserted in order. One hash probe per
    /// cohort of `other`, however many cells it has.
    pub(crate) fn absorb(&mut self, other: &CohortTable) -> Result<(), EngineError> {
        if other.sizes.is_empty() {
            return Ok(());
        }
        if self.sizes.is_empty() {
            *self = other.clone();
            return Ok(());
        }
        if self.arity != other.arity
            || !self.cols.iter().map(StateCol::kind).eq(other.cols.iter().map(StateCol::kind))
        {
            return Err(EngineError::Corrupt("batches disagree on key arity or aggregates".into()));
        }
        for id in self.ids.len()..self.sizes.len() {
            self.ids.insert(self.cohort(id).0.to_vec(), id as u32);
        }
        let found: Vec<Option<u32>> =
            (0..other.sizes.len()).map(|j| self.ids.get(other.cohort(j).0).copied()).collect();
        if found.iter().zip(&other.sizes).any(|(id, &size)| {
            id.is_some_and(|id| self.sizes[id as usize].checked_add(size).is_none())
        }) {
            return Err(EngineError::Corrupt("a cohort size overflows u64".into()));
        }

        // Pair every cohort with its partner in `other`; new cohorts get the
        // next ids and no cells of their own.
        let own = self.sizes.len();
        let mut partner = vec![usize::MAX; own];
        for (j, id) in found.into_iter().enumerate() {
            match id {
                Some(id) => {
                    partner[id as usize] = j;
                    self.sizes[id as usize] += other.sizes[j];
                }
                None => {
                    let id = self.sizes.len() as u32;
                    let key = other.cohort(j).0;
                    self.ids.insert(key.to_vec(), id);
                    self.keys.extend_from_slice(key);
                    self.sizes.push(other.sizes[j]);
                    partner.push(j);
                }
            }
        }

        // The plan: where each cell of either side lands.
        let mut ages = Vec::with_capacity(self.ages.len() + other.ages.len());
        let mut ends = Vec::with_capacity(self.sizes.len());
        let mut apos = vec![0; self.ages.len()];
        let mut bpos = vec![0; other.ages.len()];
        let end = self.ages.len();
        for (id, &j) in partner.iter().enumerate() {
            let a = if id < own { self.cohort(id).2 } else { end..end };
            let b = if j == usize::MAX { 0..0 } else { other.cohort(j).2 };
            let (apos, bpos) = (&mut apos[a.clone()], &mut bpos[b.clone()]);
            merge_ages(&self.ages[a], &other.ages[b], &mut ages, apos, bpos);
            ends.push(ages.len());
        }
        self.ends = ends;
        if ages.len() == self.ages.len() {
            // No new cell: `apos` is the identity, merge in place.
            for (col, src) in self.cols.iter_mut().zip(&other.cols) {
                col.merge_from(src, Dest::Cells(&bpos));
            }
            return Ok(());
        }
        for (col, src) in self.cols.iter_mut().zip(&other.cols) {
            let mut merged = StateCol::new(col.kind());
            merged.resize(ages.len());
            merged.merge_from(col, Dest::Cells(&apos));
            merged.merge_from(src, Dest::Cells(&bpos));
            *col = merged;
        }
        self.ages = ages;
        Ok(())
    }
}

/// Merge one cohort's ascending ages `a` and `b` onto `out`, noting where
/// each of their cells lands in `apos` / `bpos` (as long as `a` / `b`). Two
/// pointers; each step stores both positions and advances the side (or both
/// sides, on equal ages) holding the smaller age, so a position is
/// overwritten until its cell is taken and nothing branches on the ages. A
/// run meeting an empty one is adopted whole by the tails.
fn merge_ages(a: &[i64], b: &[i64], out: &mut Vec<i64>, apos: &mut [usize], bpos: &mut [usize]) {
    let (mut i, mut j) = (0, 0);
    while i < a.len() && j < b.len() {
        let (x, y) = (a[i], b[j]);
        apos[i] = out.len();
        bpos[j] = out.len();
        out.push(x.min(y));
        i += usize::from(x <= y);
        j += usize::from(y <= x);
    }
    for (p, &x) in apos[i..].iter_mut().zip(&a[i..]) {
        *p = out.len();
        out.push(x);
    }
    for (p, &y) in bpos[j..].iter_mut().zip(&b[j..]) {
        *p = out.len();
        out.push(y);
    }
}

/// The final report of `cohorts`, `(decoded key, size, id)` in any order:
/// sorted by key, cohort `id`'s rows are the `(age, cell)` pairs of
/// `cells(id)` (ages ascending), each measure finalized from `cols`. A
/// cohort whose users produced no cells contributes only its size
/// (Definition 6 has no `(cohort, age)` bucket for it); a cohort nobody
/// reported a size for keeps its rows, at size 0, and stays out of
/// `cohort_sizes`.
pub(crate) fn build_report<I: Iterator<Item = (i64, usize)>>(
    cohort_attrs: Vec<String>,
    agg_names: Vec<String>,
    mut cohorts: Vec<(Vec<Value>, u64, usize)>,
    cols: &[StateCol],
    cells: impl Fn(usize) -> I,
) -> CohortReport {
    cohorts.sort_by(|a, b| a.0.cmp(&b.0));
    let (mut rows, mut cohort_sizes) = (Vec::new(), BTreeMap::new());
    for (cohort, size, id) in cohorts {
        for (age, cell) in cells(id) {
            let measures = cols.iter().map(|col| col.get(cell).finalize()).collect();
            rows.push(ReportRow { cohort: cohort.clone(), size, age, measures });
        }
        if size > 0 {
            cohort_sizes.insert(cohort, size);
        }
    }
    CohortReport { cohort_attrs, agg_names, rows, cohort_sizes, stats: None }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::agg::{AggState, Kind};

    /// A cohort as `(key, size, [(age, one state per aggregate)])`.
    pub(crate) type Cohort = (Vec<Value>, u64, Vec<(i64, Vec<AggState>)>);

    /// A table of `cohorts`, in the order given, one column per kind.
    pub(crate) fn table(arity: usize, kinds: &[Kind], cohorts: &[Cohort]) -> CohortTable {
        let cols = kinds.iter().map(|&k| StateCol::new(k)).collect();
        let mut t = CohortTable { arity, cols, ..CohortTable::default() };
        for (key, size, cells) in cohorts {
            t.keys.extend_from_slice(key);
            t.sizes.push(*size);
            for (age, states) in cells {
                t.ages.push(*age);
                t.cols.iter_mut().zip(states).for_each(|(col, &s)| col.push(s));
            }
            t.ends.push(t.ages.len());
        }
        t
    }

    /// One cohort of `(age, v)` cells holding `[Sum(v), Min(Some(v))]`.
    fn one(key: &[i64], size: u64, cells: &[(i64, i64)]) -> CohortTable {
        let cells = cells.iter().map(|&(a, v)| (a, vec![AggState::Sum(v), AggState::Min(Some(v))]));
        let key: Vec<Value> = key.iter().map(|&k| Value::Int(k)).collect();
        table(key.len(), &[Kind::Sum, Kind::Min], &[(key, size, cells.collect())])
    }

    /// The cells of the cohort keyed `key`, as `(age, states)`.
    fn cells_of(t: &CohortTable, key: &[i64]) -> Vec<(i64, Vec<AggState>)> {
        let key: Vec<Value> = key.iter().map(|&k| Value::Int(k)).collect();
        let i = (0..t.num_cohorts()).find(|&i| t.cohort(i).0 == key.as_slice()).unwrap();
        t.cohort(i).2.map(|c| (t.ages[c], t.cols.iter().map(|col| col.get(c)).collect())).collect()
    }

    #[test]
    fn runs_merge_by_age_and_keep_absent_cells_absent() {
        let mut table = CohortTable::default();
        for part in [
            one(&[42], 2, &[(1, 5), (3, 7)]),
            one(&[42], 2, &[(2, 0), (3, -2), (9, 4)]),
            one(&[42], 2, &[(1, 1)]),
            one(&[7], 1, &[]),
        ] {
            table.absorb(&part).unwrap();
        }
        assert_eq!(
            (table.num_cohorts(), table.num_cells(), table.sizes.iter().sum::<u64>()),
            (2, 4, 7)
        );
        // Age 2 holds Sum(0) — present, unlike ages 4..8.
        let merged = cells_of(&table, &[42]);
        let want = [(1, 6, 1), (2, 0, 0), (3, 5, -2), (9, 4, 4)]
            .map(|(age, s, m)| (age, vec![AggState::Sum(s), AggState::Min(Some(m))]));
        assert_eq!(merged, want);
        assert!(cells_of(&table, &[7]).is_empty());
    }

    #[test]
    fn merge_is_order_independent_and_rejects_arity_mismatch() {
        let parts = [
            one(&[1, 2], 1, &[(1, 5), (4, 1)]),
            one(&[1, 2], 1, &[(2, 2)]),
            one(&[1, 2], 1, &[(1, 1), (2, 3), (4, -9)]),
            one(&[3, 4], 1, &[(8, 8)]),
        ];
        let fold = |order: &[usize]| {
            let mut t = CohortTable::default();
            for &i in order {
                t.absorb(&parts[i]).unwrap();
            }
            (cells_of(&t, &[1, 2]), cells_of(&t, &[3, 4]), t.sizes.iter().sum::<u64>())
        };
        assert_eq!(fold(&[0, 1, 2, 3]), fold(&[2, 0, 3, 1]));
        assert_eq!(fold(&[0, 1, 2, 3]), fold(&[3, 1, 2, 0]));

        let sum = |states: Vec<AggState>| {
            let kinds: Vec<Kind> = states
                .iter()
                .map(|s| if matches!(s, AggState::Sum(_)) { Kind::Sum } else { Kind::Count })
                .collect();
            table(1, &kinds, &[(vec![Value::Int(1)], 1, vec![(1, states)])])
        };
        let mut t = sum(vec![AggState::Sum(1)]);
        let err = t.absorb(&sum(vec![AggState::Sum(1), AggState::Count(1)]));
        assert!(matches!(err, Err(EngineError::Corrupt(_))));
        // A size past `u64::MAX` is refused, and nothing is merged.
        let mut t = table(1, &[Kind::Sum], &[(vec![Value::Int(1)], u64::MAX, vec![])]);
        let before = t.clone();
        let err = t.absorb(&table(1, &[Kind::Sum], &[(vec![Value::Int(1)], 1, vec![])]));
        assert!(matches!(err, Err(EngineError::Corrupt(_))));
        assert_eq!(t, before);
    }

    #[test]
    fn report_sorts_cohorts_and_reports_size_zero_for_unsized_cells() {
        let cell = |age, v| (age, vec![AggState::Sum(v), AggState::Min(Some(v))]);
        let table = table(
            1,
            &[Kind::Sum, Kind::Min],
            &[
                (vec![Value::Int(9)], 0, vec![cell(2, 1)]),
                (vec![Value::str("x")], 3, vec![cell(1, 3), cell(5, 4)]),
                (vec![Value::Int(-1)], 2, vec![]),
            ],
        );
        let cohorts = (0..3).map(|i| (table.cohort(i).0.to_vec(), table.sizes[i], i)).collect();
        let report = build_report(
            vec!["k".into()],
            vec!["s".into(), "m".into()],
            cohorts,
            &table.cols,
            |i| table.cohort(i).2.map(|c| (table.ages[c], c)),
        );
        let rows: Vec<_> =
            report.rows.iter().map(|r| (r.cohort[0].clone(), r.age, r.size)).collect();
        // `Value` orders strings before integers.
        assert_eq!(
            rows,
            vec![(Value::str("x"), 1, 3), (Value::str("x"), 5, 3), (Value::Int(9), 2, 0)]
        );
        assert_eq!(
            report.rows[1].measures,
            [AggState::Sum(4), AggState::Min(Some(4))].map(|s| s.finalize())
        );
        assert_eq!(report.cohort_sizes.len(), 2);
        assert_eq!(report.cohort_sizes[&vec![Value::Int(-1)]], 2);
    }
}
