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
use cohana_storage::{
    persist, ChunkSource, Codec, CompressedTable, CompressionOptions, FileSource, StorageStats,
};
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

// ------------------------------------------------------------------ Lazy IO

/// Extension experiment (not in the paper): what the column-addressable
/// lazy path actually reads. Q1–Q8 each run against a cold `FileSource`
/// over a v4 file of the scale-1 dataset, reporting chunks touched, columns
/// decoded, and bytes read vs. the file size — the observable effect of
/// §4.2 pruning plus projection pushdown plus the v4 per-blob codecs, with
/// a bounded-budget pass recording cache evictions and a note comparing
/// the v4 image against its raw v3 equivalent.
pub fn lazy_io(cache: &mut DatasetCache) -> ExperimentResult {
    let compressed = cache.compressed(1, 16 * 1024);
    let dir = std::env::temp_dir().join("cohana-bench-lazy-io");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("lazy-io.cohana");
    persist::write_file(&compressed, &path).expect("write v4 file");
    let file_len = std::fs::metadata(&path).expect("stat v4 file").len();
    let v3_len = persist::to_bytes_v3(&compressed).len() as u64;
    let arity = compressed.schema().arity();

    let start = dataset_start(&cache.base());
    let (d1, d2) = (start + SECONDS_PER_DAY, start + 7 * SECONDS_PER_DAY);
    let queries: Vec<(&str, CohortQuery)> = vec![
        ("Q1", paper::q1()),
        ("Q2", paper::q2()),
        ("Q3", paper::q3()),
        ("Q4", paper::q4()),
        ("Q5", paper::q5(d1, d2)),
        ("Q6", paper::q6(d1, d2)),
        ("Q7", paper::q7(7)),
        ("Q8", paper::q8(7)),
    ];

    let mut out = ExperimentResult::new(
        "lazy-io",
        "v4 lazy path I/O per query: chunks touched, columns decoded, disk bytes vs decoded bytes",
        vec![
            "query".into(),
            "chunks".into(),
            "chunksTotal".into(),
            "columns".into(),
            "columnsMax".into(),
            "bytesRead".into(),
            "bytesDecoded".into(),
            "fileBytes".into(),
        ],
    );
    for (name, q) in &queries {
        let src = Arc::new(FileSource::open(&path).expect("open v4 file"));
        let stmt = Statement::over(src.clone(), q, PlannerOptions::default(), 1).expect("plans");
        stmt.execute().expect("query executes");
        let io = src.io_stats();
        out.push_row(vec![
            name.to_string(),
            io.chunks_decoded.to_string(),
            src.num_chunks().to_string(),
            io.columns_decoded.to_string(),
            (arity * src.num_chunks()).to_string(),
            io.bytes_read.to_string(),
            io.bytes_decompressed.to_string(),
            file_len.to_string(),
        ]);
    }

    // Bounded-budget pass: all eight queries through one small shared
    // cache; the eviction counter shows the budget doing its job.
    let budget = (file_len as usize / 8).max(1);
    let src = Arc::new(FileSource::open_with_budget(&path, budget).expect("open v3 file"));
    for (_, q) in &queries {
        Statement::over(src.clone(), q, PlannerOptions::default(), 1)
            .expect("plans")
            .execute()
            .expect("query executes");
    }
    let io = src.io_stats();
    out.push_note(format!(
        "bounded pass: budget {budget} bytes, resident {} bytes, {} evictions over Q1-Q8",
        io.cache_resident_bytes, io.cache_evictions
    ));
    let info = persist::inspect(&path).expect("inspect v4 file");
    out.push_note(format!(
        "v4 codecs: payload {} -> {} bytes ({:.2}x), file {v3_len} -> {file_len} bytes as v3 -> v4",
        info.uncompressed_bytes(),
        info.compressed_bytes(),
        info.ratio()
    ));
    let best = info
        .columns
        .iter()
        .max_by(|a, b| a.ratio().total_cmp(&b.ratio()))
        .expect("schema has columns");
    out.push_note(format!(
        "best-compressed column: {} at {:.2}x ({} -> {} bytes)",
        best.name,
        best.ratio(),
        best.uncompressed_bytes,
        best.compressed_bytes
    ));
    // Single-pass (cold) decode rate per codec, the input to the
    // storage-speed crossover recorded in docs/PERF.md: below roughly
    // `bytes_saved / extra_decode_time` of storage bandwidth, v4's
    // smaller reads beat v3 outright. With the interleaved-rANS decoders
    // that crossover re-measures at ~140 MB/s (was ~100 MB/s
    // single-state); `benches/decode.rs` holds the warm best-of rates.
    let decode: Vec<String> = info
        .codecs
        .iter()
        .enumerate()
        .filter(|(_, s)| s.blobs > 0 && s.decode_nanos > 0)
        .map(|(tag, s)| {
            let name = Codec::from_tag(tag as u8).expect("inspect codec tag").name();
            format!("{name} {:.0} MB/s over {} blobs", s.decode_mbps(), s.blobs)
        })
        .collect();
    out.push_note(format!("cold decode rates: {}", decode.join(", ")));
    std::fs::remove_file(&path).ok();
    out
}

// ------------------------------------------------------------------ Ingest

/// Extension experiment (not in the paper): the incremental-ingest write
/// path. The cohort-clustered dataset (births ramp with user id — the
/// realistic live-traffic shape) is split into contiguous time slices; the
/// first becomes a fresh v3 file and the rest are appended one by one,
/// measuring append throughput, chunk-count growth, rewrites forced by
/// returning users, and dead bytes. Afterwards Q1 latency is compared on
/// the appended file vs the same file compacted — the §4.2 pruning quality
/// compaction restores.
pub fn ingest(cache: &mut DatasetCache) -> ExperimentResult {
    let runs = cache.config().runs;
    let users = cache.config().base_users;
    let cfg = cohana_activity::GeneratorConfig::cohort_clustered(users);
    let table = cohana_activity::generate(&cfg);
    let batches = time_slices(&table, 5);

    let dir = std::env::temp_dir().join("cohana-bench-ingest");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("ingest.cohana");
    let chunk = 16 * 1024;
    let first = CompressedTable::build(&batches[0], CompressionOptions::with_chunk_size(chunk))
        .expect("first batch compresses");
    persist::write_file(&first, &path).expect("initial file writes");

    let mut out = ExperimentResult::new(
        "ingest",
        "append throughput per batch, then Q1 latency post-append vs post-compact",
        vec![
            "batch".into(),
            "rows".into(),
            "seconds".into(),
            "rowsPerSec".into(),
            "chunks".into(),
            "rewritten".into(),
            "deadBytes".into(),
            "fileBytes".into(),
        ],
    );
    out.push_row(vec![
        "0 (build)".into(),
        batches[0].num_rows().to_string(),
        "-".into(),
        "-".into(),
        first.chunks().len().to_string(),
        "0".into(),
        "0".into(),
        std::fs::metadata(&path).expect("stat").len().to_string(),
    ]);
    for (i, batch) in batches[1..].iter().enumerate() {
        let (stats, d) =
            crate::timing::time_once(|| persist::append(&path, batch).expect("append succeeds"));
        out.push_row(vec![
            (i + 1).to_string(),
            stats.rows_appended.to_string(),
            fmt_secs(d),
            format!("{:.0}", stats.rows_appended as f64 / d.as_secs_f64().max(1e-9)),
            stats.chunks_after.to_string(),
            stats.chunks_rewritten.to_string(),
            stats.dead_bytes.to_string(),
            stats.file_bytes.to_string(),
        ]);
    }

    let time_q1 = |path: &std::path::Path| {
        let src = Arc::new(FileSource::open(path).expect("open"));
        let stmt = Statement::over(src, &paper::q1(), PlannerOptions::default(), 1).expect("plans");
        time_avg(runs, || stmt.execute().expect("q1 executes"))
    };
    let appended = time_q1(&path);
    let cstats = persist::compact(&path).expect("compact succeeds");
    let compacted = time_q1(&path);
    out.push_note(format!(
        "Q1 post-append {} vs post-compact {} (x{:.2}); compact reclaimed {} bytes, {} -> {} \
         chunks",
        fmt_secs(appended),
        fmt_secs(compacted),
        appended.as_secs_f64() / compacted.as_secs_f64().max(1e-9),
        cstats.reclaimed_bytes,
        cstats.chunks_before,
        cstats.chunks_after,
    ));
    std::fs::remove_file(&path).ok();
    out
}

// ----------------------------------------------------------- Sharded ingest

/// Extension experiment (not in the paper): the sharded write path. Each
/// time-sliced batch is appended twice — serially to one flat file and in
/// parallel to a user-id-range sharded directory (one append thread per
/// touched shard, under per-shard locks) — so every row compares the two
/// paths on identical input. The notes record what a full compaction sweep
/// of the shard set reclaimed and the prepared-Q1 latency measured while an
/// eager maintenance thread auto-compacted shards in the background.
pub fn sharded_ingest(cache: &mut DatasetCache) -> ExperimentResult {
    use cohana_storage::shard;

    let runs = cache.config().runs;
    // Uniform arrival (the default generator, i.e. `cache.base()`): every
    // time slice spans the whole user-id range, so each batch fans out
    // across all shards — the parallel case this experiment measures.
    let table = cache.base();
    let batches = time_slices(&table, 5);
    let shards = 4usize;
    let chunk = CompressionOptions::with_chunk_size(16 * 1024);

    let dir = std::env::temp_dir().join("cohana-bench-sharded-ingest");
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    let flat = dir.join("flat.cohana");
    let sharded = dir.join("sharded");
    let first = CompressedTable::build(&batches[0], chunk).expect("first batch compresses");
    persist::write_file(&first, &flat).expect("initial file writes");
    shard::create_sharded(&sharded, &batches[0], shards, chunk).expect("initial shards write");

    let mut out = ExperimentResult::new(
        "sharded-ingest",
        format!(
            "per-batch append: serial single file vs parallel {shards}-shard directory \
             (same time-sliced input)"
        ),
        vec![
            "batch".into(),
            "rows".into(),
            "serialSec".into(),
            "parallelSec".into(),
            "speedup".into(),
            "shardsTouched".into(),
        ],
    );
    for (i, batch) in batches[1..].iter().enumerate() {
        let (_, serial) = crate::timing::time_once(|| {
            persist::append(&flat, batch).expect("serial append succeeds")
        });
        let (stats, parallel) = crate::timing::time_once(|| {
            shard::append_sharded(&sharded, batch).expect("sharded append succeeds")
        });
        out.push_row(vec![
            (i + 1).to_string(),
            batch.num_rows().to_string(),
            fmt_secs(serial),
            fmt_secs(parallel),
            format!("{:.2}", serial.as_secs_f64() / parallel.as_secs_f64().max(1e-9)),
            stats.shards_touched().to_string(),
        ]);
    }

    // Full compaction sweep of the shard set: the reclaimed bytes are what
    // the returning-user rewrites above left dead.
    let dead: u64 =
        shard::shard_space_stats(&sharded).expect("space stats").iter().map(|s| s.dead_bytes).sum();
    let mut reclaimed = 0u64;
    for i in 0..shards {
        reclaimed += shard::compact_shard(&sharded, i).expect("shard compacts").reclaimed_bytes;
    }
    out.push_note(format!(
        "compaction sweep over {shards} shards: {dead} dead bytes, {reclaimed} reclaimed"
    ));

    // Q1 on the live sharded table while an eager maintenance thread
    // auto-compacts behind more ingests.
    let engine = cohana_core::Cohana::new(Default::default());
    let handle = engine
        .open(&sharded)
        .maintenance(cohana_core::MaintenanceConfig {
            auto_compact: true,
            dead_ratio: 0.01,
            interval: Duration::from_millis(5),
        })
        .open()
        .expect("sharded table opens");
    let stmt = handle.prepare(&paper::q1()).expect("q1 prepares");
    let live = handle.sharded_table().expect("handle is sharded");
    // Each cycle shifts the batch's timestamps so repeated ingests never
    // collide with rows already in the table (the format enforces a
    // (user, action, time) primary key), while the returning users still
    // force the rewrites that feed the compactor.
    let tidx = table.schema().time_idx();
    let mut cycle = 0i64;
    let d = time_avg(runs.max(2), || {
        cycle += 1;
        let mut b = cohana_activity::TableBuilder::new(batches[1].schema().clone());
        for row in batches[1].rows() {
            let mut vals = row.values().to_vec();
            let t = vals[tidx].as_int().expect("time");
            vals[tidx] = cohana_activity::Value::Int(t + (cycle << 32));
            b.push(vals).expect("row pushes");
        }
        live.ingest(&b.finish().expect("batch sorts")).expect("live ingest succeeds");
        stmt.execute().expect("q1 executes during compaction");
    });
    let maint = live.maintenance_stats();
    out.push_note(format!(
        "ingest+Q1 cycle avg {} with background compaction ({} passes, {} auto-compactions, \
         {} bytes reclaimed)",
        fmt_secs(d),
        maint.passes,
        maint.auto_compactions,
        maint.reclaimed_bytes
    ));
    drop(stmt);
    drop(handle);
    drop(engine);
    std::fs::remove_dir_all(&dir).ok();
    out
}

// ------------------------------------------------------- Scan throughput

/// Extension experiment (not in the paper): end-to-end rows/sec of the
/// vectorized chunk executor (block time decode, per-chunk predicate
/// specialization, allocation-free inner loop — `docs/PERF.md`). Q1–Q4 run
/// as prepared statements on the resident compressed table and on a warmed
/// v3 `FileSource`; each row records the executor-attributed `rows_scanned`
/// and the derived rows/sec straight from `QueryStats`, so scan-rate
/// regressions show up in the recorded numbers, not just in criterion
/// timings.
pub fn scan_throughput(cache: &mut DatasetCache) -> ExperimentResult {
    let runs = cache.config().runs;
    let compressed = cache.compressed(1, 64 * 1024);
    let dir = std::env::temp_dir().join("cohana-bench-scan-throughput");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("scan-throughput.cohana");
    persist::write_file(&compressed, &path).expect("write v3 file");
    let v3 = Arc::new(FileSource::open(&path).expect("open v3 file"));

    let mut out = ExperimentResult::new(
        "scan-throughput",
        "vectorized executor scan rate: rows scanned and rows/sec per query and source",
        vec!["query".into(), "source".into(), "rows".into(), "seconds".into(), "rowsPerSec".into()],
    );
    for (name, q) in q1_to_q4() {
        for (src_name, src) in [
            ("resident", Arc::clone(&compressed) as Arc<dyn ChunkSource>),
            ("v3-warm", Arc::clone(&v3) as Arc<dyn ChunkSource>),
        ] {
            let stmt = Statement::over(src, &q, PlannerOptions::default(), 1).expect("query plans");
            stmt.execute().expect("warm-up executes"); // warm the segment cache
            let mut last_stats = None;
            let d = time_avg(runs, || {
                last_stats = stmt.execute().expect("query executes").stats;
            });
            let stats = last_stats.expect("executor attaches stats");
            out.push_row(vec![
                name.into(),
                src_name.into(),
                stats.rows_scanned.to_string(),
                fmt_secs(d),
                format!("{:.0}", stats.rows_scanned as f64 / d.as_secs_f64().max(1e-9)),
            ]);
        }
    }
    std::fs::remove_file(&path).ok();
    out
}

// ------------------------------------------------------ Morsel scheduler

/// Extension experiment (not in the paper): morsel-driven work stealing on
/// a skewed chunk-size distribution. `GeneratorConfig::skewed` plants one
/// whale user holding ~half the table's rows — since chunks never split
/// users, that is one chunk with ~50% of the data, the worst case for the
/// static per-chunk worker stride this scheduler replaced. Q1/Q3 run at
/// parallelism 1 and 4, reporting p50/p99 latency (tight tails mean the
/// whale was stolen morsel by morsel, not serialized on one worker) and
/// the per-worker busy-time split of a parallel-4 streamed run.
pub fn morsel_scheduler(cache: &mut DatasetCache) -> ExperimentResult {
    let config = cache.config().clone();
    // Enough runs for the p99 of a *distribution*, not just a max of 5.
    let runs = config.runs.max(10);
    let table = cohana_activity::generate(&cohana_activity::GeneratorConfig::skewed(
        config.base_users.max(8),
    ));
    let compressed = Arc::new(
        CompressedTable::build(&table, CompressionOptions::with_chunk_size(16 * 1024))
            .expect("skewed table compresses"),
    );
    let whale_share = compressed.chunks().iter().map(|c| c.num_rows()).max().unwrap_or(0) as f64
        / table.num_rows() as f64;

    let mut out = ExperimentResult::new(
        "morsel-scheduler",
        format!(
            "work-stealing on a skewed table ({} chunks, largest {:.0}% of rows): latency \
             percentiles by worker count",
            compressed.chunks().len(),
            whale_share * 100.0
        ),
        vec![
            "query".into(),
            "workers".into(),
            "p50".into(),
            "p99".into(),
            "p99/p50".into(),
            "morsels".into(),
        ],
    );
    for (name, q) in [("Q1", paper::q1()), ("Q3", paper::q3())] {
        for workers in [1usize, 4] {
            let stmt = Statement::over(compressed.clone(), &q, PlannerOptions::default(), workers)
                .expect("plans");
            let mut last_stats = None;
            let samples = crate::timing::time_samples(runs, || {
                last_stats = stmt.execute().expect("executes").stats;
            });
            let p50 = crate::timing::percentile(&samples, 50.0).expect("runs > 0");
            let p99 = crate::timing::percentile(&samples, 99.0).expect("runs > 0");
            out.push_row(vec![
                name.into(),
                workers.to_string(),
                fmt_secs(p50),
                fmt_secs(p99),
                format!("{:.2}", p99.as_secs_f64() / p50.as_secs_f64().max(1e-9)),
                last_stats.expect("executor attaches stats").morsels_executed.to_string(),
            ]);
        }
    }

    // Busy-time split of one parallel-4 streamed run: stealing spreads the
    // whale chunk's morsels, a static stride would pile them on one worker.
    let stmt =
        Statement::over(compressed, &paper::q3(), PlannerOptions::default(), 4).expect("plans");
    let mut stream = stmt.stream();
    for batch in &mut stream {
        batch.expect("batch executes");
    }
    let busy = stream.worker_busy();
    let stats = stream.stats();
    let total: u64 = busy.iter().sum::<u64>().max(1);
    out.push_note(format!(
        "Q3 workers=4: {} morsels, per-worker busy ms {:?} (shares {:?}%)",
        stats.morsels_executed,
        busy.iter().map(|ns| ns / 1_000_000).collect::<Vec<_>>(),
        busy.iter().map(|ns| 100 * ns / total).collect::<Vec<_>>(),
    ));
    out
}

// --------------------------------------------------------------- Serving

/// Extension experiment (not in the paper): the network serving layer under
/// concurrent clients. An in-process `cohana-server` wraps the shared
/// compressed table; 8 client connections each run the Q1–Q4 mix over the
/// wire. Reported per query: p50/p99 end-to-end latency (TCP + admission +
/// engine + result assembly) and server-side scan rate; plus one admission
/// row proving the concurrency cap held (peak active ≤ cap) and how much
/// time queries spent queued rather than executing.
pub fn serving(cache: &mut DatasetCache) -> ExperimentResult {
    use cohana_server::{Client, Server, ServerConfig};

    /// (query, end-to-end latency, rows the server scanned for it)
    type Sample = (&'static str, Duration, u64);

    let passes = cache.config().runs.max(2);
    let clients = 8usize;
    let cap = 4usize;
    let compressed = cache.compressed(1, 16 * 1024);
    let engine = cohana_core::Cohana::new(cohana_core::EngineOptions::default());
    engine.register_source("GameActions", compressed as Arc<dyn ChunkSource>);

    let mut server = Server::start(
        Arc::new(engine),
        ServerConfig { admission_cap: cap, queue_bound: 1024, ..ServerConfig::default() },
    )
    .expect("server binds");
    let addr = server.local_addr();

    let samples: Arc<std::sync::Mutex<Vec<Sample>>> = Arc::new(std::sync::Mutex::new(Vec::new()));
    let sql: Arc<Vec<(&'static str, String)>> =
        Arc::new(q1_to_q4().into_iter().map(|(n, q)| (n, q.to_sql())).collect());
    let wall_start = std::time::Instant::now();
    let handles: Vec<_> = (0..clients)
        .map(|i| {
            let samples = samples.clone();
            let sql = sql.clone();
            std::thread::spawn(move || {
                let mut client = Client::connect(addr, "bench").expect("client connects");
                let prepared: Vec<_> = sql
                    .iter()
                    .map(|(name, text)| (*name, client.prepare(text).expect("prepares")))
                    .collect();
                for pass in 0..passes {
                    for k in 0..prepared.len() {
                        // Offset per client and pass so the in-flight mix
                        // overlaps different queries.
                        let (name, p) = &prepared[(i + pass + k) % prepared.len()];
                        let started = std::time::Instant::now();
                        let report = client
                            .execute(p)
                            .expect("execute starts")
                            .collect()
                            .expect("remote query runs");
                        let latency = started.elapsed();
                        let scanned = report.stats.expect("server stats attached").rows_scanned;
                        samples.lock().unwrap().push((name, latency, scanned));
                    }
                }
            })
        })
        .collect();
    for h in handles {
        h.join().expect("client thread succeeds");
    }
    let wall = wall_start.elapsed();
    let admission = server.admission_stats();
    server.shutdown();

    let all = samples.lock().unwrap().clone();
    let mut out = ExperimentResult::new(
        "serving",
        format!(
            "{clients} concurrent wire clients x Q1-Q4, admission cap {cap}: end-to-end \
             latency percentiles and server-side scan rate"
        ),
        vec!["query".into(), "runs".into(), "p50".into(), "p99".into(), "rowsPerSec".into()],
    );
    for (name, _) in q1_to_q4() {
        let lat: Vec<Duration> =
            all.iter().filter(|(n, _, _)| *n == name).map(|(_, d, _)| *d).collect();
        let scanned: u64 = all.iter().filter(|(n, _, _)| *n == name).map(|(_, _, r)| r).sum();
        let busy: f64 = lat.iter().map(Duration::as_secs_f64).sum();
        let mut sorted = lat.clone();
        sorted.sort_unstable();
        let p50 = crate::timing::percentile(&sorted, 50.0).expect("runs > 0");
        let p99 = crate::timing::percentile(&sorted, 99.0).expect("runs > 0");
        out.push_row(vec![
            name.into(),
            lat.len().to_string(),
            fmt_secs(p50),
            fmt_secs(p99),
            format!("{:.0}", scanned as f64 / busy.max(1e-9)),
        ]);
    }
    let total_scanned: u64 = all.iter().map(|(_, _, r)| r).sum();
    out.push_note(format!(
        "{} queries in {}, aggregate {:.0} rows/s; peak {}/{} active (cap held: {}), \
         queue depth max {}, total queue wait {}",
        all.len(),
        fmt_secs(wall),
        total_scanned as f64 / wall.as_secs_f64().max(1e-9),
        admission.peak_active,
        admission.cap,
        admission.peak_active <= admission.cap,
        admission.max_queue_depth,
        fmt_secs(admission.total_queue_wait),
    ));
    out
}

/// Contiguous time slices of a table (the streaming-arrival shape).
fn time_slices(table: &ActivityTable, k: usize) -> Vec<ActivityTable> {
    let tidx = table.schema().time_idx();
    let mut order: Vec<usize> = (0..table.num_rows()).collect();
    order.sort_by_key(|&r| table.rows()[r].get(tidx).as_int().expect("time"));
    let per = table.num_rows().div_ceil(k).max(1);
    order
        .chunks(per)
        .map(|rows| {
            let mut b = cohana_activity::TableBuilder::new(table.schema().clone());
            for &r in rows {
                b.push(table.rows()[r].values().to_vec()).expect("row pushes");
            }
            b.finish().expect("slice sorts")
        })
        .collect()
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
        lazy_io(cache),
        scan_throughput(cache),
        morsel_scheduler(cache),
        ingest(cache),
        sharded_ingest(cache),
        serving(cache),
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

    #[test]
    fn scan_throughput_records_rows_per_sec() {
        let r = scan_throughput(&mut quick_cache());
        assert_eq!(r.rows.len(), 8, "Q1-Q4 x resident/v3-warm");
        for row in &r.rows {
            let rows: u64 = row[2].parse().unwrap();
            let rate: f64 = row[4].parse().unwrap();
            assert!(rows > 0, "{}: no rows attributed", row[0]);
            assert!(rate > 0.0, "{}: no rate recorded", row[0]);
        }
    }

    #[test]
    fn morsel_scheduler_reports_percentiles_and_busy_split() {
        let r = morsel_scheduler(&mut quick_cache());
        assert_eq!(r.rows.len(), 4, "Q1/Q3 x workers 1/4");
        for row in &r.rows {
            assert!(row[2].parse::<f64>().unwrap() > 0.0, "{}: no p50", row[0]);
            assert!(row[3].parse::<f64>().unwrap() > 0.0, "{}: no p99", row[0]);
            assert!(row[5].parse::<u64>().unwrap() > 0, "{}: no morsels", row[0]);
        }
        assert_eq!(r.notes.len(), 1);
        assert!(r.notes[0].contains("per-worker busy"));
    }

    #[test]
    fn ingest_reports_appends_and_compaction() {
        let r = ingest(&mut quick_cache());
        assert_eq!(r.rows.len(), 5, "one build row + four append rows");
        assert_eq!(r.notes.len(), 1);
        let last = r.rows.last().unwrap();
        let dead: u64 = last[6].parse().unwrap();
        assert!(dead > 0, "appends leave dead bytes for compaction to reclaim");
        assert!(r.notes[0].contains("reclaimed"));
    }

    #[test]
    fn sharded_ingest_compares_both_paths_per_batch() {
        let r = sharded_ingest(&mut quick_cache());
        assert_eq!(r.rows.len(), 4, "one row per appended batch");
        for row in &r.rows {
            assert!(row[1].parse::<u64>().unwrap() > 0, "batch {}: no rows", row[0]);
            assert!(row[4].parse::<f64>().unwrap() > 0.0, "batch {}: no speedup", row[0]);
            assert!(row[5].parse::<u64>().unwrap() >= 1, "batch {}: no shards", row[0]);
        }
        assert_eq!(r.notes.len(), 2);
        assert!(r.notes[0].contains("reclaimed"));
        assert!(r.notes[1].contains("background compaction"));
    }

    #[test]
    fn lazy_io_reports_projection_savings() {
        let r = lazy_io(&mut quick_cache());
        assert_eq!(r.rows.len(), 8);
        assert_eq!(r.notes.len(), 4);
        assert!(r.notes[1].contains("v4 codecs"), "missing compression note: {}", r.notes[1]);
        assert!(r.notes[3].contains("cold decode rates"), "missing decode note: {}", r.notes[3]);
        assert!(r.notes[3].contains("MB/s"), "decode note carries no rate: {}", r.notes[3]);
        for row in &r.rows {
            let columns: usize = row[3].parse().unwrap();
            let columns_max: usize = row[4].parse().unwrap();
            let bytes_read: u64 = row[5].parse().unwrap();
            let bytes_decoded: u64 = row[6].parse().unwrap();
            let file_bytes: u64 = row[7].parse().unwrap();
            assert!(columns < columns_max, "{}: projection pushdown never fired", row[0]);
            assert!(bytes_read < file_bytes, "{}: read the whole file", row[0]);
            assert!(bytes_read <= bytes_decoded, "{}: decoded fewer bytes than it read", row[0]);
        }
    }
}
