//! `compare DIR_A DIR_B`: hold two sets of untraced result files against
//! each other, one row per workload × end-to-end metric, by the rule every
//! later performance claim has to pass.
//!
//! A is the base (the parent commit), B the candidate. Runs are paired by
//! seed order. A metric is
//! - `unresolved` when either side's quartile spread exceeds its bound, so
//!   nothing can be said either way;
//! - `regressed` when B's median is worse than A's by more than the bound;
//! - `improved` when B wins at least nine tenths of the pairs (ties count
//!   for neither side) and the medians differ by more than A's own
//!   quartile spread;
//! - `unchanged` otherwise.

use crate::api::Result;
use crate::json::Json;
use crate::metrics::{Better, MetricDef, END_TO_END};
use crate::stats::quartiles;
use crate::workloads::Workload;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Improved,
    Unchanged,
    Regressed,
    Unresolved,
}

impl Verdict {
    fn as_str(self) -> &'static str {
        match self {
            Verdict::Improved => "improved",
            Verdict::Unchanged => "unchanged",
            Verdict::Regressed => "regressed",
            Verdict::Unresolved => "unresolved",
        }
    }
}

pub struct Report {
    pub table: String,
    /// No row is `regressed` or `unresolved` and no run of either set
    /// failed an operation.
    pub all_unchanged_or_improved: bool,
}

pub fn verdict(a: &[f64], b: &[f64], def: &MetricDef) -> Verdict {
    let (a_q1, a_med, a_q3) = quartiles(a);
    let (b_q1, b_med, b_q3) = quartiles(b);
    let spread = |q1: f64, med: f64, q3: f64| (q3 - q1) / med.abs().max(f64::MIN_POSITIVE);
    if spread(a_q1, a_med, a_q3) > def.bound || spread(b_q1, b_med, b_q3) > def.bound {
        return Verdict::Unresolved;
    }
    // Positive when B is worse.
    let worse_by = match def.better {
        Better::Lower => (b_med - a_med) / a_med.abs().max(f64::MIN_POSITIVE),
        Better::Higher => (a_med - b_med) / a_med.abs().max(f64::MIN_POSITIVE),
    };
    if worse_by > def.bound {
        return Verdict::Regressed;
    }
    let b_wins = a
        .iter()
        .zip(b)
        .filter(|(a, b)| match def.better {
            Better::Lower => b < a,
            Better::Higher => b > a,
        })
        .count();
    let pairs = a.len().min(b.len());
    if worse_by < 0.0 && b_wins * 10 >= pairs * 9 && (b_med - a_med).abs() > a_q3 - a_q1 {
        Verdict::Improved
    } else {
        Verdict::Unchanged
    }
}

/// Per workload and metric, the values of one set in seed order; plus the
/// operations the set's runs failed.
type Set = BTreeMap<(usize, String), Vec<f64>>;

fn load_set(dir: &Path) -> Result<(Set, u64)> {
    let mut by_seed: BTreeMap<(usize, String), BTreeMap<u64, f64>> = BTreeMap::new();
    let mut failed = 0;
    for entry in std::fs::read_dir(dir)? {
        let path = entry?.path();
        if path.extension().is_none_or(|e| e != "json") {
            continue;
        }
        let doc = Json::parse(&std::fs::read_to_string(&path)?)
            .map_err(|e| format!("{}: {e}", path.display()))?;
        if doc.get("trace").and_then(Json::as_f64) != Some(0.0) {
            continue;
        }
        let field = |key: &str| doc.get(key).ok_or(format!("{}: no {key}", path.display()));
        let name = field("workload")?.as_str().unwrap_or_default();
        let Some(workload) = Workload::ALL.iter().position(|w| w.name() == name) else {
            return Err(format!("{}: unknown workload {name}", path.display()).into());
        };
        let seed = field("seed")?.as_f64().unwrap_or(0.0) as u64;
        failed += field("failed")?.as_f64().unwrap_or(0.0) as u64;
        for (metric, body) in field("metrics")?.as_obj().unwrap_or_default() {
            if let Some(value) = body.get("value").and_then(Json::as_f64) {
                by_seed.entry((workload, metric.clone())).or_default().insert(seed, value);
            }
        }
    }
    let set = by_seed.into_iter().map(|(k, v)| (k, v.into_values().collect())).collect();
    Ok((set, failed))
}

pub fn compare(dir_a: &Path, dir_b: &Path) -> Result<Report> {
    let ((a, a_failed), (b, b_failed)) = (load_set(dir_a)?, load_set(dir_b)?);
    let mut table = String::new();
    writeln!(
        table,
        "{:<15} {:<19} {:>4} {:>12} {:>12} {:>12} {:>12} {:>8} {:>6}  verdict",
        "workload",
        "metric",
        "runs",
        "A median",
        "A q1..q3",
        "B median",
        "B q1..q3",
        "B/A",
        "bound"
    )?;
    let mut ok = a_failed == 0 && b_failed == 0;
    let mut rows = 0;
    for (w, workload) in Workload::ALL.iter().enumerate() {
        for def in END_TO_END {
            let key = (w, def.name.to_string());
            let (Some(va), Some(vb)) = (a.get(&key), b.get(&key)) else { continue };
            let (a_q1, a_med, a_q3) = quartiles(va);
            let (b_q1, b_med, b_q3) = quartiles(vb);
            let v = verdict(va, vb, def);
            ok &= matches!(v, Verdict::Improved | Verdict::Unchanged);
            rows += 1;
            writeln!(
                table,
                "{:<15} {:<19} {:>4} {:>12.4} {:>12} {:>12.4} {:>12} {:>8.4} {:>6}  {}",
                workload.name(),
                def.name,
                va.len().min(vb.len()),
                a_med,
                format!("{:.4}", a_q3 - a_q1),
                b_med,
                format!("{:.4}", b_q3 - b_q1),
                b_med / a_med,
                def.bound,
                v.as_str()
            )?;
        }
    }
    writeln!(
        table,
        "B/A is B's median over A's (base: A's median); q1..q3 is the quartile spread in the \
         metric's unit. failed operations: A {a_failed}, B {b_failed}"
    )?;
    if rows == 0 {
        return Err("the two directories share no untraced result".into());
    }
    Ok(Report { table, all_unchanged_or_improved: ok })
}

#[cfg(test)]
mod tests {
    use super::*;

    const LATENCY: MetricDef =
        MetricDef { name: "latency_ms", unit: "ms", better: Better::Lower, bound: 0.10 };
    const RATE: MetricDef =
        MetricDef { name: "rate", unit: "1/s", better: Better::Higher, bound: 0.10 };

    fn around(center: f64, step: f64) -> Vec<f64> {
        (0..10).map(|i| center + step * (i as f64 - 4.5)).collect()
    }

    #[test]
    fn verdicts_follow_the_rule() {
        let q1 = &LATENCY;
        let base = around(100.0, 0.1);
        assert_eq!(verdict(&base, &base, q1), Verdict::Unchanged);
        // 5 % slower: inside the bound.
        assert_eq!(verdict(&base, &around(105.0, 0.1), q1), Verdict::Unchanged);
        assert_eq!(verdict(&base, &around(115.0, 0.1), q1), Verdict::Regressed);
        // Every pair won and the gap dwarfs A's spread.
        assert_eq!(verdict(&base, &around(90.0, 0.1), q1), Verdict::Improved);
        // A gap inside A's own quartile spread is not a win.
        let wide = around(100.0, 1.0);
        assert_eq!(verdict(&wide, &around(99.0, 1.0), q1), Verdict::Unchanged);
        // Spread beyond the bound on either side: nothing can be said.
        assert_eq!(verdict(&around(100.0, 5.0), &base, q1), Verdict::Unresolved);
        assert_eq!(verdict(&base, &around(100.0, 5.0), q1), Verdict::Unresolved);

        let rate = &RATE;
        assert_eq!(verdict(&base, &around(115.0, 0.1), rate), Verdict::Improved);
        assert_eq!(verdict(&base, &around(85.0, 0.1), rate), Verdict::Regressed);
    }

    #[test]
    fn a_win_needs_nine_tenths_of_the_pairs() {
        let q1 = &LATENCY;
        let a = vec![100.0; 10];
        let mut b = vec![95.0; 10];
        assert_eq!(verdict(&a, &b, q1), Verdict::Improved);
        b[0] = 100.5;
        assert_eq!(verdict(&a, &b, q1), Verdict::Improved);
        b[1] = 100.5;
        assert_eq!(verdict(&a, &b, q1), Verdict::Unchanged);
    }
}
