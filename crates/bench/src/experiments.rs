//! The experiments regenerating the paper's tables and figures.
//!
//! Each function returns an [`ExperimentResult`] whose rows mirror the data
//! series of the corresponding paper artifact. Absolute numbers depend on
//! hardware and the synthetic dataset size; the comparisons and trends are
//! the reproduction target (see EXPERIMENTS.md).

use crate::datasets::DatasetCache;
use crate::report::ExperimentResult;
use crate::timing::{fmt_secs, time_avg};
use cohana_activity::{ActivityTable, TimeBin, Timestamp, SECONDS_PER_DAY};
use cohana_core::{paper, CohortQuery, PlannerOptions, Statement};
use cohana_relational::{ColEngine, RowEngine};
use cohana_storage::{CompressedTable, CompressionOptions, StorageStats};
use std::sync::Arc;
use std::time::Duration;

/// Average execution time of a cohort query on COHANA: prepare the
/// statement once, execute it `runs` times.
fn time_cohana(
    table: &Arc<CompressedTable>,
    query: &CohortQuery,
    runs: usize,
    options: PlannerOptions,
) -> Duration {
    let stmt =
        Statement::over(table.clone(), query, options, 1).expect("benchmark queries prepare");
    time_avg(runs, || stmt.execute().expect("benchmark queries execute"))
}

/// The four §5.2 benchmark queries.
fn q1_to_q4() -> Vec<(&'static str, CohortQuery)> {
    vec![("Q1", paper::q1()), ("Q2", paper::q2()), ("Q3", paper::q3()), ("Q4", paper::q4())]
}

// ------------------------------------------------------------------ Table 2

/// Table 2: the plain-SQL weekly shopping trend (query `Qs` of §1) — the
/// OLAP-style aggregate the paper contrasts with cohort analysis.
pub fn table2(cache: &mut DatasetCache) -> ExperimentResult {
    let table = cache.base();
    let schema = table.schema();
    let (tidx, aidx) = (schema.time_idx(), schema.action_idx());
    let gidx = schema.index_of("gold").expect("gold measure");
    let mut weeks: std::collections::BTreeMap<i64, (i64, u64)> = std::collections::BTreeMap::new();
    for row in table.rows() {
        if row.get(aidx).as_str() == Some("shop") {
            let t = row.get(tidx).as_int().expect("time");
            let week = TimeBin::Week.bin_start(Timestamp(t)).secs();
            let e = weeks.entry(week).or_insert((0, 0));
            e.0 += row.get(gidx).as_int().expect("gold");
            e.1 += 1;
        }
    }
    let mut out = ExperimentResult::new(
        "table2",
        "plain GROUP BY weekly avg gold (query Qs) — aging and social change conflated",
        vec!["week".into(), "avgSpent".into()],
    );
    for (week, (sum, count)) in weeks {
        out.push_row(vec![
            Timestamp(week).render_date(),
            format!("{:.1}", sum as f64 / count as f64),
        ]);
    }
    out
}

// ------------------------------------------------------------------ Table 3

/// Table 3 / Figure 1: weekly launch cohorts × weekly age, average gold
/// spent shopping — the cohort matrix that separates aging from social
/// change.
pub fn table3(cache: &mut DatasetCache) -> ExperimentResult {
    let compressed = cache.compressed(1, 256 * 1024);
    let q = paper::shopping_trend();
    let report = Statement::over(compressed, &q, PlannerOptions::default(), 1)
        .expect("shopping trend plans")
        .execute()
        .unwrap();

    let ages: Vec<i64> = {
        let mut a: Vec<i64> = report.rows.iter().map(|r| r.age).collect();
        a.sort_unstable();
        a.dedup();
        a
    };
    let mut headers = vec!["cohort".to_string(), "size".to_string()];
    headers.extend(ages.iter().map(|a| format!("age{a}")));
    let mut out = ExperimentResult::new(
        "table3",
        "weekly launch cohorts, Avg(gold) on shopping by age week (Table 3 / Figure 1)",
        headers,
    );
    for cohort in report.cohorts() {
        let size = report.cohort_sizes.get(cohort).copied().unwrap_or(0);
        let mut row = vec![cohort[0].to_string(), size.to_string()];
        for age in &ages {
            row.push(match report.find(cohort, *age) {
                Some(r) => {
                    r.measures[0].as_f64().map(|v| format!("{v:.0}")).unwrap_or_else(|| "-".into())
                }
                None => "-".into(),
            });
        }
        out.push_row(row);
    }
    out
}

// ------------------------------------------------------------------ Fig 6

/// Figure 6: COHANA's Q1–Q4 latency under varying chunk size and scale.
pub fn fig6(cache: &mut DatasetCache) -> ExperimentResult {
    let config = cache.config().clone();
    let mut out = ExperimentResult::new(
        "fig6",
        "COHANA query time (s) vs chunk size and scale (Figure 6)",
        vec!["query".into(), "chunk".into(), "scale".into(), "seconds".into()],
    );
    for (name, q) in q1_to_q4() {
        for &chunk in &config.chunk_sizes {
            for &scale in &config.scales {
                let table = cache.compressed(scale, chunk);
                let d = time_cohana(&table, &q, config.runs, PlannerOptions::default());
                out.push_row(vec![name.into(), chunk_label(chunk), scale.to_string(), fmt_secs(d)]);
            }
        }
    }
    out
}

fn chunk_label(chunk: usize) -> String {
    if chunk.is_multiple_of(1024) {
        let k = chunk / 1024;
        if k.is_multiple_of(1024) {
            format!("{}M", k / 1024)
        } else {
            format!("{k}K")
        }
    } else {
        chunk.to_string()
    }
}

// ------------------------------------------------------------------ Fig 7

/// Figure 7: storage footprint vs chunk size and scale.
pub fn fig7(cache: &mut DatasetCache) -> ExperimentResult {
    let config = cache.config().clone();
    let mut out = ExperimentResult::new(
        "fig7",
        "compressed size (MB) vs chunk size and scale (Figure 7)",
        vec!["chunk".into(), "scale".into(), "MB".into(), "bytes/tuple".into()],
    );
    for &chunk in &config.chunk_sizes {
        for &scale in &config.scales {
            let table = cache.compressed(scale, chunk);
            let stats = StorageStats::of(&table);
            out.push_row(vec![
                chunk_label(chunk),
                scale.to_string(),
                format!("{:.2}", stats.total_bytes() as f64 / (1024.0 * 1024.0)),
                format!("{:.2}", stats.bytes_per_tuple()),
            ]);
        }
    }
    out
}

// ------------------------------------------------------------------ Fig 8

/// Figure 8: effect of birth-selection selectivity. Q5/Q6 with `d1` fixed
/// to the first day and `d2` swept across the window, normalized by the
/// unfiltered Q1/Q3 time, alongside the birth CDF.
pub fn fig8(cache: &mut DatasetCache) -> ExperimentResult {
    let runs = cache.config().runs;
    let table = cache.base();
    // Several chunks so user skipping has structure to work with.
    let compressed = cache.compressed(1, 16 * 1024);

    let start = dataset_start(&table);
    let num_days = 38i64;
    let q1_time = time_cohana(&compressed, &paper::q1(), runs, PlannerOptions::default());
    let q3_time = time_cohana(&compressed, &paper::q3(), runs, PlannerOptions::default());

    // Birth CDF (launch births; the paper notes shop births distribute
    // similarly).
    let births = birth_days(&table, start);

    let mut out = ExperimentResult::new(
        "fig8",
        "birth-selection effect: normalized Q5/Q6 time and birth CDF vs d2 (Figure 8)",
        vec!["day".into(), "birthCDF".into(), "Q5/Q1".into(), "Q6/Q3".into()],
    );
    for day in (1..=num_days).step_by(2) {
        let d1 = start;
        let d2 = start + day * SECONDS_PER_DAY;
        let t5 = time_cohana(&compressed, &paper::q5(d1, d2), runs, PlannerOptions::default());
        let t6 = time_cohana(&compressed, &paper::q6(d1, d2), runs, PlannerOptions::default());
        let cdf = births.iter().filter(|&&b| b <= day).count() as f64 / births.len() as f64;
        out.push_row(vec![
            day.to_string(),
            format!("{cdf:.3}"),
            format!("{:.3}", t5.as_secs_f64() / q1_time.as_secs_f64()),
            format!("{:.3}", t6.as_secs_f64() / q3_time.as_secs_f64()),
        ]);
    }
    out
}

fn dataset_start(table: &ActivityTable) -> i64 {
    let tidx = table.schema().time_idx();
    let min = table.int_range(tidx).map(|(lo, _)| lo).unwrap_or(0);
    TimeBin::Day.bin_start(Timestamp(min)).secs()
}

fn birth_days(table: &ActivityTable, start: i64) -> Vec<i64> {
    let tidx = table.schema().time_idx();
    table
        .user_blocks()
        .map(|b| {
            let t = table.rows()[b.start].get(tidx).as_int().expect("time");
            (t - start) / SECONDS_PER_DAY
        })
        .collect()
}

// ------------------------------------------------------------------ Fig 9

/// Figure 9: effect of age-selection selectivity. Q7/Q8 with `g` swept from
/// 1 to 14 days, normalized by Q1/Q3.
pub fn fig9(cache: &mut DatasetCache) -> ExperimentResult {
    let runs = cache.config().runs;
    let compressed = cache.compressed(1, 16 * 1024);
    let q1_time = time_cohana(&compressed, &paper::q1(), runs, PlannerOptions::default());
    let q3_time = time_cohana(&compressed, &paper::q3(), runs, PlannerOptions::default());

    let mut out = ExperimentResult::new(
        "fig9",
        "age-selection effect: normalized Q7/Q8 time vs age bound g (Figure 9)",
        vec!["g".into(), "Q7/Q1".into(), "Q8/Q3".into()],
    );
    for g in 1..=14 {
        let t7 = time_cohana(&compressed, &paper::q7(g), runs, PlannerOptions::default());
        let t8 = time_cohana(&compressed, &paper::q8(g), runs, PlannerOptions::default());
        out.push_row(vec![
            g.to_string(),
            format!("{:.3}", t7.as_secs_f64() / q1_time.as_secs_f64()),
            format!("{:.3}", t8.as_secs_f64() / q3_time.as_secs_f64()),
        ]);
    }
    out
}

// ------------------------------------------------------------------ Fig 10

/// Figure 10: time to generate (and write out) the launch materialized view
/// on the row and columnar engines vs COHANA's time to compress (and write
/// out) the activity table. The paper's `CREATE TABLE AS` persists the
/// ~double-width uncompressed view; COHANA persists the compressed table —
/// both sides include their serialization, so the asymmetry in bytes
/// written is part of the measurement, as in the paper.
pub fn fig10(cache: &mut DatasetCache) -> ExperimentResult {
    let config = cache.config().clone();
    let mut out = ExperimentResult::new(
        "fig10",
        "MV generation+write vs COHANA compression+write, seconds by scale (Figure 10); \
         MV/compressed sizes in MB",
        vec![
            "scale".into(),
            "COHANA".into(),
            "MONET".into(),
            "PG".into(),
            "cohanaMB".into(),
            "mvMB".into(),
        ],
    );
    for &scale in &config.scales {
        let table = cache.at_scale(scale);
        let (cohana_bytes, compress_t) = crate::timing::time_once(|| {
            let c = CompressedTable::build(&table, CompressionOptions::default()).unwrap();
            cohana_storage::persist::to_bytes(&c).len()
        });

        let mut col = ColEngine::load(&table);
        let (mv_bytes, col_t) = crate::timing::time_once(|| {
            col.create_mv("launch");
            col.serialize_mv("launch").expect("view exists").len()
        });

        let mut row = RowEngine::load(&table);
        let (_, row_t) = crate::timing::time_once(|| {
            row.create_mv("launch");
            row.serialize_mv("launch").expect("view exists").len()
        });

        out.push_row(vec![
            scale.to_string(),
            fmt_secs(compress_t),
            fmt_secs(col_t),
            fmt_secs(row_t),
            format!("{:.2}", cohana_bytes as f64 / (1024.0 * 1024.0)),
            format!("{:.2}", mv_bytes as f64 / (1024.0 * 1024.0)),
        ]);
    }
    out
}

// ------------------------------------------------------------------ Fig 11

/// Figure 11: Q1–Q4 across the five evaluation schemes (COHANA, MONET-M,
/// MONET-S, PG-M, PG-S) by scale.
pub fn fig11(cache: &mut DatasetCache) -> ExperimentResult {
    let config = cache.config().clone();
    let mut out = ExperimentResult::new(
        "fig11",
        "query time (s): COHANA vs MonetDB/Postgres stand-ins, SQL and MV approaches (Figure 11)",
        vec![
            "query".into(),
            "scale".into(),
            "COHANA".into(),
            "MONET-M".into(),
            "MONET-S".into(),
            "PG-M".into(),
            "PG-S".into(),
        ],
    );
    for &scale in &config.scales {
        let table = cache.at_scale(scale);
        let compressed = cache.compressed(scale, 256 * 1024);
        let mut col = ColEngine::load(&table);
        let mut row = RowEngine::load(&table);
        for action in ["launch", "shop"] {
            col.create_mv(action);
            row.create_mv(action);
        }
        for (name, q) in q1_to_q4() {
            let cohana = time_cohana(&compressed, &q, config.runs, PlannerOptions::default());
            let monet_m = time_avg(config.runs, || col.execute_mv(&q).unwrap());
            let monet_s = time_avg(config.runs, || col.execute_sql(&q).unwrap());
            let pg_m = time_avg(config.runs, || row.execute_mv(&q).unwrap());
            let pg_s = time_avg(config.runs, || row.execute_sql(&q).unwrap());
            out.push_row(vec![
                name.into(),
                scale.to_string(),
                fmt_secs(cohana),
                fmt_secs(monet_m),
                fmt_secs(monet_s),
                fmt_secs(pg_m),
                fmt_secs(pg_s),
            ]);
        }
    }
    out
}

// ------------------------------------------------------------------ Ablation

/// Ablation of COHANA's individual optimizations (DESIGN.md D1–D4):
/// Q1–Q4 with each planner flag disabled in turn, plus the fully naive
/// configuration.
pub fn ablation(cache: &mut DatasetCache) -> ExperimentResult {
    let config = cache.config().clone();
    // The smallest configured scale keeps the six-variant sweep fast.
    let scale = config.scales.iter().copied().min().unwrap_or(1).max(1);
    let compressed = cache.compressed(scale, 16 * 1024);
    let variants: Vec<(&str, PlannerOptions)> = vec![
        ("full", PlannerOptions::default()),
        ("no-pushdown", PlannerOptions { push_down_birth_selection: false, ..Default::default() }),
        ("no-skip", PlannerOptions { skip_unqualified_users: false, ..Default::default() }),
        ("no-prune", PlannerOptions { prune_chunks: false, ..Default::default() }),
        ("no-array", PlannerOptions { array_aggregation: false, ..Default::default() }),
        ("naive", PlannerOptions::naive()),
    ];
    let mut headers = vec!["query".to_string()];
    headers.extend(variants.iter().map(|(n, _)| n.to_string()));
    let mut out = ExperimentResult::new(
        "ablation",
        "COHANA optimizations toggled off, time in seconds (DESIGN.md D1–D4)",
        headers,
    );
    for (name, q) in q1_to_q4() {
        let mut row = vec![name.to_string()];
        for (_, opts) in &variants {
            row.push(fmt_secs(time_cohana(&compressed, &q, config.runs, *opts)));
        }
        out.push_row(row);
    }
    out
}

// ------------------------------------------------------------------ Parallel

/// Extension experiment (not in the paper): chunk-parallel execution
/// speedup. Chunks never split users, so COHANA parallelizes across chunks
/// with a trivial merge; this measures Q1/Q3 under 1–8 worker threads.
pub fn parallel(cache: &mut DatasetCache) -> ExperimentResult {
    let config = cache.config().clone();
    let scale = config.scales.iter().copied().max().unwrap_or(1);
    let compressed = cache.compressed(scale, 16 * 1024);
    let mut out = ExperimentResult::new(
        "parallel",
        format!(
            "chunk-parallel execution at scale {scale} ({} chunks): seconds by worker count",
            compressed.chunks().len()
        ),
        vec!["query".into(), "1".into(), "2".into(), "4".into(), "8".into()],
    );
    for (name, q) in [("Q1", paper::q1()), ("Q3", paper::q3())] {
        let mut row = vec![name.to_string()];
        for workers in [1usize, 2, 4, 8] {
            let stmt = Statement::over(compressed.clone(), &q, PlannerOptions::default(), workers)
                .expect("plans");
            let d = time_avg(config.runs, || stmt.execute().expect("executes"));
            row.push(fmt_secs(d));
        }
        out.push_row(row);
    }
    out
}

/// Run every experiment in paper order.
pub fn all(cache: &mut DatasetCache) -> Vec<ExperimentResult> {
    vec![
        table2(cache),
        table3(cache),
        fig6(cache),
        fig7(cache),
        fig8(cache),
        fig9(cache),
        fig10(cache),
        fig11(cache),
        ablation(cache),
        parallel(cache),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::datasets::BenchConfig;

    fn quick_cache() -> DatasetCache {
        DatasetCache::new(BenchConfig::quick())
    }

    #[test]
    fn table2_has_weeks() {
        let r = table2(&mut quick_cache());
        assert!(!r.rows.is_empty());
        assert!(r.rows.len() <= 7); // 38 days ≈ 6 weeks
    }

    #[test]
    fn table3_matrix_shape() {
        let r = table3(&mut quick_cache());
        assert!(!r.rows.is_empty());
        assert!(r.headers.len() >= 3); // cohort, size, >=1 age
    }

    #[test]
    fn fig7_rows_cover_sweep() {
        let mut cache = quick_cache();
        let r = fig7(&mut cache);
        let cfg = cache.config();
        assert_eq!(r.rows.len(), cfg.chunk_sizes.len() * cfg.scales.len());
    }

    #[test]
    fn fig9_rows_cover_sweep() {
        let r = fig9(&mut quick_cache());
        assert_eq!(r.rows.len(), 14);
        // The shape itself (work grows with `g`, below Q1/Q3) is pinned by
        // tuple counts, not clocks: `cohana_core`'s
        // `age_bounds_decode_in_proportion_to_the_ages_selected`.
        for row in &r.rows {
            assert!(row[1].parse::<f64>().unwrap() > 0.0);
        }
    }

    #[test]
    fn ablation_has_all_variants() {
        let r = ablation(&mut quick_cache());
        assert_eq!(r.headers.len(), 7);
        assert_eq!(r.rows.len(), 4);
    }
}
