//! The flat, cohort-interned partial result every layer shares.
//!
//! A partial cohort aggregation is a set of cohorts, each with a size and a
//! run of `(age, one state per aggregate)` cells. [`CohortTable`] stores it
//! interned: a cohort key is hashed **once** to a dense id, sizes are a flat
//! vector by id, and each cohort's cells are an [`AgeRun`] — ascending ages
//! beside a row-major state array, so an absent cell is simply absent (it is
//! a different answer from `Sum(0)`). The executor's per-chunk result
//! (`CohortTable<u64>`, keys still encoded), the client's
//! [`ReportAssembler`](crate::wire::ReportAssembler) (`CohortTable<Value>`)
//! and the wire batch between them all hold this one layout, so merging is
//! the same code on both sides of the socket: one probe per *cohort*, then a
//! linear pass over two sorted runs. Memory is proportional to the cells
//! actually present, which is what lets a client fold in batches it did not
//! produce.

use crate::agg::AggState;
use crate::error::EngineError;
use crate::report::{CohortReport, ReportRow};
use cohana_activity::Value;
use std::cmp::Ordering;
use std::collections::{BTreeMap, HashMap};
use std::hash::Hash;

/// One cohort's cells: strictly ascending `ages`, and `states` holding
/// `ages.len() × n_aggs` states, cell after cell.
#[derive(Debug, Clone, Default, PartialEq)]
pub(crate) struct AgeRun {
    pub(crate) ages: Vec<i64>,
    pub(crate) states: Vec<AggState>,
}

impl AgeRun {
    /// Fold another run of the same cohort in: cells at the same age merge
    /// state by state, cells at new ages are inserted in order. `scratch` is
    /// the merge target of the general case, swapped in afterwards so a
    /// table allocates for it once.
    fn merge(
        &mut self,
        ages: &[i64],
        states: &[AggState],
        scratch: &mut AgeRun,
    ) -> Result<(), EngineError> {
        if ages.is_empty() {
            return Ok(());
        }
        if self.ages.is_empty() {
            // First sight of this cohort's cells: adopt them whole.
            self.ages.extend_from_slice(ages);
            self.states.extend_from_slice(states);
            return Ok(());
        }
        let n = states.len() / ages.len();
        if self.states.len() != self.ages.len() * n {
            return Err(EngineError::Corrupt(format!(
                "aggregate arity mismatch across batches: {} vs {n}",
                self.states.len() / self.ages.len()
            )));
        }
        if self.ages == ages {
            for (a, b) in self.states.iter_mut().zip(states) {
                a.merge(b)?;
            }
            return Ok(());
        }
        scratch.ages.clear();
        scratch.states.clear();
        let (mut i, mut j) = (0, 0);
        while i < self.ages.len() && j < ages.len() {
            match self.ages[i].cmp(&ages[j]) {
                Ordering::Less => {
                    scratch.push(self.ages[i], &self.states[i * n..(i + 1) * n]);
                    i += 1;
                }
                Ordering::Greater => {
                    scratch.push(ages[j], &states[j * n..(j + 1) * n]);
                    j += 1;
                }
                Ordering::Equal => {
                    scratch.push(ages[j], &self.states[i * n..(i + 1) * n]);
                    let at = scratch.states.len() - n;
                    for (a, b) in scratch.states[at..].iter_mut().zip(&states[j * n..]) {
                        a.merge(b)?;
                    }
                    i += 1;
                    j += 1;
                }
            }
        }
        scratch.ages.extend_from_slice(&self.ages[i..]);
        scratch.states.extend_from_slice(&self.states[i * n..]);
        scratch.ages.extend_from_slice(&ages[j..]);
        scratch.states.extend_from_slice(&states[j * n..]);
        std::mem::swap(self, scratch);
        Ok(())
    }

    fn push(&mut self, age: i64, states: &[AggState]) {
        self.ages.push(age);
        self.states.extend_from_slice(states);
    }
}

/// A partial (or fully merged) cohort aggregation over keys of `K` parts:
/// `u64` while keys are still dictionary-encoded inside the executor,
/// [`Value`] once decoded for a remote consumer.
#[derive(Debug)]
pub(crate) struct CohortTable<K> {
    ids: HashMap<Vec<K>, u32>,
    /// Qualified users per cohort id.
    sizes: Vec<u64>,
    /// Cells per cohort id.
    runs: Vec<AgeRun>,
    scratch: AgeRun,
}

impl<K> Default for CohortTable<K> {
    fn default() -> Self {
        CohortTable {
            ids: HashMap::new(),
            sizes: Vec::new(),
            runs: Vec::new(),
            scratch: AgeRun::default(),
        }
    }
}

impl<K: Hash + Eq + Clone> CohortTable<K> {
    /// Fold one cohort's contribution in: sizes add, cells merge. One hash
    /// probe, however many cells the cohort has.
    pub(crate) fn absorb(
        &mut self,
        key: &[K],
        size: u64,
        ages: &[i64],
        states: &[AggState],
    ) -> Result<(), EngineError> {
        let id = match self.ids.get(key) {
            Some(&id) => id as usize,
            None => {
                let id = self.sizes.len();
                self.ids.insert(key.to_vec(), id as u32);
                self.sizes.push(0);
                self.runs.push(AgeRun::default());
                id
            }
        };
        self.sizes[id] += size;
        self.runs[id].merge(ages, states, &mut self.scratch)
    }

    /// Fold a whole table in (additive: chunking never splits a user).
    pub(crate) fn merge(&mut self, other: CohortTable<K>) -> Result<(), EngineError> {
        if self.ids.is_empty() {
            *self = other;
            return Ok(());
        }
        for (key, size, run) in other.cohorts() {
            self.absorb(key, size, &run.ages, &run.states)?;
        }
        Ok(())
    }

    /// Every cohort as `(key, size, cells)`, in no particular order.
    pub(crate) fn cohorts(&self) -> impl Iterator<Item = (&[K], u64, &AgeRun)> {
        self.ids
            .iter()
            .map(|(key, &id)| (key.as_slice(), self.sizes[id as usize], &self.runs[id as usize]))
    }

    /// Cohorts with at least one qualified user.
    pub(crate) fn num_cohorts(&self) -> usize {
        self.sizes.len()
    }

    /// Total `(cohort, age)` cells across all cohorts.
    pub(crate) fn num_cells(&self) -> usize {
        self.runs.iter().map(|r| r.ages.len()).sum()
    }

    /// Qualified users summed over cohorts.
    pub(crate) fn num_users(&self) -> u64 {
        self.sizes.iter().sum()
    }
}

/// Turn decoded cohorts into the final report: cohorts sorted by key (a few
/// hundred comparisons), each cohort's rows emitted in its run's age order.
/// A cohort whose users produced no cells contributes only its size
/// (Definition 6 has no `(cohort, age)` bucket for it); a cohort nobody
/// reported a size for keeps its rows, at size 0, and stays out of
/// `cohort_sizes`.
pub(crate) fn build_report(
    cohort_attrs: Vec<String>,
    agg_names: Vec<String>,
    mut cohorts: Vec<(Vec<Value>, u64, &AgeRun)>,
) -> CohortReport {
    cohorts.sort_by(|a, b| a.0.cmp(&b.0));
    let mut rows = Vec::with_capacity(cohorts.iter().map(|c| c.2.ages.len()).sum());
    let mut cohort_sizes = BTreeMap::new();
    for (cohort, size, run) in cohorts {
        let n = run.states.len() / run.ages.len().max(1);
        for (i, &age) in run.ages.iter().enumerate() {
            rows.push(ReportRow {
                cohort: cohort.clone(),
                size,
                age,
                measures: run.states[i * n..(i + 1) * n].iter().map(AggState::finalize).collect(),
            });
        }
        if size > 0 {
            cohort_sizes.insert(cohort, size);
        }
    }
    CohortReport { cohort_attrs, agg_names, rows, cohort_sizes, stats: None }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(cells: &[(i64, i64)]) -> AgeRun {
        AgeRun {
            ages: cells.iter().map(|c| c.0).collect(),
            states: cells
                .iter()
                .flat_map(|c| [AggState::Sum(c.1), AggState::Min(Some(c.1))])
                .collect(),
        }
    }

    #[test]
    fn runs_merge_by_age_and_keep_absent_cells_absent() {
        let mut table = CohortTable::<u64>::default();
        let (a, b, c) = (run(&[(1, 5), (3, 7)]), run(&[(2, 0), (3, -2), (9, 4)]), run(&[(1, 1)]));
        for r in [&a, &b, &c] {
            table.absorb(&[42], 2, &r.ages, &r.states).unwrap();
        }
        table.absorb(&[7], 1, &[], &[]).unwrap();
        assert_eq!((table.num_cohorts(), table.num_cells(), table.num_users()), (2, 4, 7));
        let merged = table.cohorts().find(|c| c.0 == [42]).unwrap().2;
        // Age 2 holds Sum(0) — present, unlike ages 4..8.
        assert_eq!(*merged, {
            let mut want = run(&[(1, 6), (2, 0), (3, 5), (9, 4)]);
            want.states[1] = AggState::Min(Some(1));
            want.states[5] = AggState::Min(Some(-2));
            want
        });
    }

    #[test]
    fn merge_is_order_independent_and_rejects_arity_mismatch() {
        let parts = [run(&[(1, 5), (4, 1)]), run(&[(2, 2)]), run(&[(1, 1), (2, 3), (4, -9)])];
        let fold = |order: &[usize]| {
            let mut t = CohortTable::<u64>::default();
            for &i in order {
                let mut one = CohortTable::<u64>::default();
                one.absorb(&[1, 2], 1, &parts[i].ages, &parts[i].states).unwrap();
                t.merge(one).unwrap();
            }
            let merged = t.cohorts().next().unwrap().2.clone();
            merged
        };
        assert_eq!(fold(&[0, 1, 2]), fold(&[2, 0, 1]));
        assert_eq!(fold(&[0, 1, 2]), fold(&[1, 2, 0]));

        let mut t = CohortTable::<u64>::default();
        t.absorb(&[1], 1, &[1], &[AggState::Sum(1)]).unwrap();
        let err = t.absorb(&[1], 1, &[2], &[AggState::Sum(1), AggState::Count(1)]);
        assert!(matches!(err, Err(EngineError::Corrupt(_))));
    }

    #[test]
    fn report_sorts_cohorts_and_reports_size_zero_for_unsized_cells() {
        let (a, b) = (run(&[(2, 1)]), run(&[(1, 3), (5, 4)]));
        let report = build_report(
            vec!["k".into()],
            vec!["s".into(), "m".into()],
            vec![
                (vec![Value::Int(9)], 0, &a),
                (vec![Value::str("x")], 3, &b),
                (vec![Value::Int(-1)], 2, &AgeRun::default()),
            ],
        );
        let rows: Vec<_> =
            report.rows.iter().map(|r| (r.cohort[0].clone(), r.age, r.size)).collect();
        // `Value` orders strings before integers.
        assert_eq!(
            rows,
            vec![(Value::str("x"), 1, 3), (Value::str("x"), 5, 3), (Value::Int(9), 2, 0)]
        );
        assert_eq!(report.cohort_sizes.len(), 2);
        assert_eq!(report.cohort_sizes[&vec![Value::Int(-1)]], 2);
    }
}
