//! The four workloads: set-up (with its correctness checks) and the
//! closed-loop measured phase of each.
//!
//! Why these four: cohort analysis is a handful of analysts who each wait
//! for a report, so every workload is a closed loop with at most two client
//! threads. `resident_scan` keeps everything in memory so only the scan
//! kernels work; `cold_file_scan` runs the same pass over a file whose cache
//! is far smaller than the table, so reading and decoding dominate;
//! `served_mix` is the only one that crosses SQL, admission, framing and a
//! socket; `ingest_query` writes while it reads, so a gain for one side that
//! taxes the other shows.

use crate::api::{
    self, ActivityTable, Cohana, CohortQuery, CohortReport, QueryStats, Result, Statement,
    TableHandle,
};
use crate::stats::median;
use crate::trace::{Tracer, HARNESS};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    ResidentScan,
    ColdFileScan,
    ServedMix,
    IngestQuery,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::ResidentScan,
        Workload::ColdFileScan,
        Workload::ServedMix,
        Workload::IngestQuery,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::ResidentScan => "resident_scan",
            Workload::ColdFileScan => "cold_file_scan",
            Workload::ServedMix => "served_mix",
            Workload::IngestQuery => "ingest_query",
        }
    }

    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Input sizes. The shapes never change between the two; only how much data
/// flows through them.
#[derive(Debug, Clone, Copy)]
pub struct Scale {
    /// Generated users (about 127 rows each).
    pub users: usize,
    /// Users of the prefix on which the engine is checked against the naive
    /// evaluator.
    pub prefix_users: usize,
    /// Segment cache of `cold_file_scan`: under a fifth of the decoded
    /// table, yet room for one chunk's projected columns.
    pub cold_cache_bytes: usize,
    /// Set-ups per run; `setup_s` is their median.
    pub setups: usize,
}

impl Scale {
    /// About 0.76 M rows in 12 chunks: the largest size at which three
    /// set-ups plus the measured phase of every workload fit the driver's
    /// time cap.
    pub const FULL: Scale =
        Scale { users: 6_000, prefix_users: 1_000, cold_cache_bytes: 1 << 20, setups: 3 };
    /// Smoke-test size.
    pub const QUICK: Scale =
        Scale { users: 400, prefix_users: 150, cold_cache_bytes: 256 << 10, setups: 1 };
}

const SHARDS: usize = 4;
pub const SERVED_CLIENTS: usize = 2;
const ADMISSION_CAP: usize = 2;
const INGEST_BATCHES: usize = 10;
/// Compact after these (1-based) batches: explicitly, not from the timer
/// thread, so counts repeat.
const COMPACT_AFTER: [usize; 2] = [5, 10];
/// Name of the measured table: registered first, so it is also the default
/// table a served client's SQL resolves to.
pub const TABLE: &str = "t";
const REFERENCE: &str = "reference";

/// A directory under the benchmark's `out/` that is removed when dropped.
pub struct ScratchDir(PathBuf);

impl ScratchDir {
    pub fn create(out_dir: &Path) -> Result<ScratchDir> {
        static NEXT: AtomicU64 = AtomicU64::new(0);
        let n = NEXT.fetch_add(1, Ordering::Relaxed);
        let path = out_dir.join(format!("tmp-{}-{n}", std::process::id()));
        std::fs::create_dir_all(&path)?;
        Ok(ScratchDir(path))
    }

    pub fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        // Nothing useful to do with a failure here; the directory sits under
        // the ignored `out/`.
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Operations attempted and failed (errors, wrong answers, refusals).
#[derive(Debug, Default, Clone, Copy)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
}

impl Tally {
    pub fn check(&mut self, ok: bool) {
        self.attempted += 1;
        self.failed += u64::from(!ok);
    }

    pub fn absorb(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
    }
}

/// The time-sliced ingest input: a sharded table of the first half of the
/// rows (kept pristine; every cycle works on a copy) and the later batches.
pub struct IngestPlan {
    template: PathBuf,
    batches: Vec<ActivityTable>,
}

impl IngestPlan {
    pub fn build(rows: &ActivityTable, dir: &Path) -> Result<IngestPlan> {
        let (head, batches) = api::split_by_time(rows, 0.5, INGEST_BATCHES)?;
        let template = dir.join("ingest-template");
        let builder = api::engine(1);
        api::create_sharded(&builder, &template, TABLE, &head, SHARDS)?;
        Ok(IngestPlan { template, batches })
    }
}

/// Everything one set-up leaves behind for the measured phase.
pub struct Fixture {
    pub workload: Workload,
    pub rows: ActivityTable,
    pub queries: Vec<CohortQuery>,
    /// The SQL text a client sends for each query.
    pub sql: Vec<String>,
    /// The resident table's report per query: what every other path must
    /// reproduce bit for bit.
    pub reference: Vec<CohortReport>,
    pub engine: Arc<Cohana>,
    /// Table the layer probes run on: the measured table, or the resident
    /// reference where the workload makes its own tables per cycle.
    pub probe_table: &'static str,
    /// File or shard directory of the measured table.
    pub data_path: PathBuf,
    pub server: Option<api::Server>,
    pub ingest: Option<IngestPlan>,
    /// Rows per second of building the measured table (not for
    /// `ingest_query`, which measures its own).
    pub load_rows_per_s: Option<f64>,
    pub disk_bytes_per_row: Option<f64>,
    pub checks: Tally,
    // Last, so the tables above are closed before their files go.
    pub scratch: ScratchDir,
}

impl Fixture {
    pub fn table(&self) -> Result<TableHandle<'_>> {
        api::table(&self.engine, self.probe_table)
    }
}

fn run_all(stmts: &[Statement]) -> Result<Vec<CohortReport>> {
    stmts.iter().map(api::execute).collect()
}

/// Rows per second of a build started at `started`, and disk bytes per row
/// of what it wrote.
fn build_figures(
    built: &TableHandle<'_>,
    rows: &ActivityTable,
    started: Instant,
) -> Result<(f64, f64)> {
    let load = rows.num_rows() as f64 / elapsed_s(started);
    Ok((load, api::disk_usage(built)?.bytes_per_row()))
}

/// Generate, build, write, open and check one workload's tables.
pub fn setup(workload: Workload, scale: Scale, seed: u64, out_dir: &Path) -> Result<Fixture> {
    let scratch = ScratchDir::create(out_dir)?;
    let dir = scratch.path().to_path_buf();
    let rows = api::generate_rows(scale.users, seed);
    let queries = api::queries();
    let mut checks = Tally::default();
    // Tables are built through one engine and measured through another, so
    // that the measured table is the first the second one registers.
    let builder = api::engine(1);

    // The engine against the naive evaluator, on a user prefix small enough
    // for the naive side to take a fraction of a second.
    let prefix = api::user_prefix(&rows, scale.prefix_users)?;
    let prefix_path = dir.join("prefix.cohana");
    api::create_file(&builder, &prefix_path, "prefix-build", &prefix, scale.cold_cache_bytes)?;
    let prefix_table = api::open_resident(&builder, &prefix_path, "prefix")?;
    for (query, report) in
        queries.iter().zip(run_all(&api::prepare_all(&prefix_table, &queries, 1)?)?)
    {
        checks.check(report == api::naive(&prefix, query)?);
    }

    let flat = dir.join("flat.cohana");
    let t = Instant::now();
    let built = api::create_file(&builder, &flat, "flat", &rows, scale.cold_cache_bytes)?;
    let (flat_load, flat_disk) = build_figures(&built, &rows, t)?;

    let engine = api::engine(1);
    let mut fx = Fixture {
        workload,
        sql: queries.iter().map(api::sql_of).collect(),
        queries,
        reference: Vec::new(),
        engine: engine.clone(),
        probe_table: TABLE,
        data_path: flat.clone(),
        server: None,
        ingest: None,
        load_rows_per_s: Some(flat_load),
        disk_bytes_per_row: Some(flat_disk),
        checks,
        rows,
        scratch,
    };
    match workload {
        Workload::ResidentScan => {
            api::open_resident(&engine, &flat, TABLE)?;
        }
        Workload::ColdFileScan => {
            api::open_file(&engine, &flat, TABLE, scale.cold_cache_bytes)?;
        }
        Workload::ServedMix => {
            let path = dir.join("sharded");
            let t = Instant::now();
            let built = api::create_sharded(&builder, &path, "sharded", &fx.rows, SHARDS)?;
            let (load, disk) = build_figures(&built, &fx.rows, t)?;
            (fx.load_rows_per_s, fx.disk_bytes_per_row) = (Some(load), Some(disk));
            api::open_sharded(&engine, &path, TABLE)?;
            fx.data_path = path;
        }
        Workload::IngestQuery => {
            fx.probe_table = REFERENCE;
            (fx.load_rows_per_s, fx.disk_bytes_per_row) = (None, None);
            fx.ingest = Some(IngestPlan::build(&fx.rows, &dir)?);
        }
    }

    let reference = if workload == Workload::ResidentScan {
        TABLE
    } else {
        api::open_resident(&engine, &flat, REFERENCE)?;
        REFERENCE
    };
    fx.reference = run_all(&api::prepare_all(&api::table(&engine, reference)?, &fx.queries, 1)?)?;
    if matches!(workload, Workload::ColdFileScan | Workload::ServedMix) {
        let measured = api::prepare_all(&api::table(&engine, TABLE)?, &fx.queries, 1)?;
        for (report, expected) in run_all(&measured)?.iter().zip(&fx.reference) {
            fx.checks.check(report == expected);
        }
    }
    if workload == Workload::ServedMix {
        let server = api::serve(engine.clone(), ADMISSION_CAP)?;
        let mut conn = api::Connection::open(&server, "setup", &fx.sql)?;
        for (q, expected) in fx.reference.iter().enumerate() {
            let (report, _, _) = conn.query(q)?;
            fx.checks.check(&report == expected);
        }
        fx.server = Some(server);
    }
    Ok(fx)
}

/// Latency samples and engine counters of one measured phase.
#[derive(Default)]
pub struct Samples {
    /// Milliseconds per execution, by query index.
    pub query_ms: Vec<Vec<f64>>,
    /// Milliseconds per pass: the sum of its queries' latencies, so the
    /// harness's own checking between queries is left out.
    pub pass_ms: Vec<f64>,
    /// Engine-reported stats summed per query index.
    pub stats: Vec<QueryStats>,
    /// When each Q1 ran (for stalls under compaction).
    pub q1_spans: Vec<(Instant, Instant)>,
    /// Time queries waited for admission (served only).
    pub queue_wait_ms: Vec<f64>,
    pub tally: Tally,
    /// Wall time of the measured phase in seconds.
    pub wall_s: f64,
}

impl Samples {
    pub fn new(queries: usize) -> Samples {
        Samples {
            query_ms: vec![Vec::new(); queries],
            stats: vec![QueryStats::default(); queries],
            ..Samples::default()
        }
    }

    fn record(&mut self, q: usize, start: Instant, end: Instant, stats: &QueryStats, ok: bool) {
        self.query_ms[q].push(ms(end - start));
        self.stats[q].absorb(stats);
        if q == 0 {
            self.q1_spans.push((start, end));
        }
        self.tally.check(ok);
    }

    pub fn absorb(&mut self, other: Samples) {
        for (mine, theirs) in self.query_ms.iter_mut().zip(other.query_ms) {
            mine.extend(theirs);
        }
        for (mine, theirs) in self.stats.iter_mut().zip(&other.stats) {
            mine.absorb(theirs);
        }
        self.pass_ms.extend(other.pass_ms);
        self.q1_spans.extend(other.q1_spans);
        self.queue_wait_ms.extend(other.queue_wait_ms);
        self.tally.absorb(other.tally);
        self.wall_s = self.wall_s.max(other.wall_s);
    }

    pub fn queries_done(&self) -> usize {
        self.query_ms.iter().map(Vec::len).sum()
    }

    pub fn passes(&self) -> usize {
        self.pass_ms.len()
    }
}

/// One in-process pass over prepared statements, checked against
/// `expected` where given.
fn scan_pass(
    stmts: &[Statement],
    expected: Option<&[CohortReport]>,
    samples: &mut Samples,
) -> Result<Vec<CohortReport>> {
    let mut pass_ms = 0.0;
    let mut reports = Vec::with_capacity(stmts.len());
    for (q, stmt) in stmts.iter().enumerate() {
        let start = Instant::now();
        let mut report = api::execute(stmt)?;
        let end = Instant::now();
        let stats = report.stats.take().unwrap_or_default();
        let ok = expected.is_none_or(|e| report == e[q]);
        samples.record(q, start, end, &stats, ok);
        pass_ms += ms(end - start);
        reports.push(report);
    }
    samples.pass_ms.push(pass_ms);
    Ok(reports)
}

/// `resident_scan` / `cold_file_scan`: one thread looping the pass.
pub fn run_scan(fx: &Fixture, seconds: f64) -> Result<Samples> {
    let stmts = api::prepare_all(&fx.table()?, &fx.queries, 1)?;
    let mut samples = Samples::new(stmts.len());
    let start = Instant::now();
    while elapsed_s(start) < seconds {
        scan_pass(&stmts, Some(&fx.reference), &mut samples)?;
    }
    samples.wall_s = elapsed_s(start);
    Ok(samples)
}

/// `served_mix`: two connections each looping the pass, the second starting
/// half a pass in so the two overlap different queries.
pub fn run_served(fx: &Fixture, clients: usize, seconds: f64) -> Result<Samples> {
    let server = fx.server.as_ref().ok_or("served_mix needs its server")?;
    let n = fx.queries.len();
    let results: Vec<Result<Samples>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..clients)
            .map(|client| {
                scope.spawn(move || -> Result<Samples> {
                    let mut conn =
                        api::Connection::open(server, &format!("client{client}"), &fx.sql)?;
                    let mut samples = Samples::new(n);
                    let offset = client * n / clients;
                    let start = Instant::now();
                    while elapsed_s(start) < seconds {
                        let mut pass_ms = 0.0;
                        for step in 0..n {
                            let q = (step + offset) % n;
                            let t0 = Instant::now();
                            // A refused or failed request is a failed
                            // operation, not the end of the run.
                            let outcome = conn.query(q);
                            let t1 = Instant::now();
                            match outcome {
                                Ok((report, stats, wait)) => {
                                    samples.record(q, t0, t1, &stats, report == fx.reference[q]);
                                    samples.queue_wait_ms.push(ms(wait));
                                }
                                Err(_) => samples.tally.check(false),
                            }
                            pass_ms += ms(t1 - t0);
                        }
                        samples.pass_ms.push(pass_ms);
                    }
                    samples.wall_s = elapsed_s(start);
                    Ok(samples)
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("client thread panicked")).collect()
    });
    let mut all = Samples::new(n);
    for samples in results {
        all.absorb(samples?);
    }
    Ok(all)
}

/// What one ingest cycle (ten batches, two compactions, a reader beside
/// them) measured.
#[derive(Default)]
pub struct Cycle {
    /// Summed time of the writer's ingest and compact calls, in seconds.
    pub writer_s: f64,
    pub rows_ingested: u64,
    pub append_ms: Vec<f64>,
    pub chunks_rewritten: Vec<usize>,
    pub bytes_appended: u64,
    pub compact_ms: Vec<f64>,
    pub compact_spans: Vec<(Instant, Instant)>,
    pub compact_bytes_out: u64,
    pub reclaimed_bytes: u64,
    pub dead_ratio_peak: f64,
    /// Live file bytes and rows after the final compaction.
    pub final_bytes: u64,
    pub final_rows: u64,
    pub reader: Samples,
    pub tally: Tally,
}

/// One `ingest_query` cycle on a fresh copy of the half table. With a
/// tracer, the writer's calls and the reader's queries are recorded as
/// spans.
pub fn run_cycle(
    fx: &Fixture,
    plan: &IngestPlan,
    mut tracer: Option<&mut Tracer>,
) -> Result<Cycle> {
    let scratch = ScratchDir::create(fx.scratch.path())?;
    let dir = scratch.path().join("table");
    copy_table_dir(&plan.template, &dir)?;
    let engine = api::engine(1);
    let table = api::open_sharded(&engine, &dir, TABLE)?;
    let epoch = tracer.as_ref().map(|t| t.epoch());
    let done = AtomicBool::new(false);
    let mut cycle = Cycle::default();

    let reader = std::thread::scope(|scope| -> Result<(Samples, Option<Tracer>)> {
        let reader = scope.spawn(|| read_beside_ingest(fx, &table, &done, epoch));
        let written = write_cycle(&table, plan, &mut cycle, tracer.as_deref_mut());
        done.store(true, Ordering::SeqCst);
        let read = reader.join().expect("reader thread panicked");
        written?;
        read
    })?;
    cycle.reader = reader.0;
    if let (Some(tracer), Some(spans)) = (tracer, reader.1) {
        tracer.absorb(spans);
    }

    // The finished table must answer exactly like one built from all rows
    // at once.
    let reports = run_all(&api::prepare_all(&table, &fx.queries, 1)?)?;
    for (report, expected) in reports.iter().zip(&fx.reference) {
        cycle.tally.check(report == expected);
    }
    let disk = api::disk_usage(&table)?;
    (cycle.final_bytes, cycle.final_rows) = (disk.file_bytes, disk.live_rows);
    Ok(cycle)
}

fn write_cycle(
    table: &TableHandle<'_>,
    plan: &IngestPlan,
    cycle: &mut Cycle,
    mut tracer: Option<&mut Tracer>,
) -> Result<()> {
    let root = tracer.as_deref_mut().map(|t| t.open(None, 0, "cycle", HARNESS));
    for (i, batch) in plan.batches.iter().enumerate() {
        let start = Instant::now();
        let stats = api::ingest(table, batch)?;
        let end = Instant::now();
        if let Some(t) = tracer.as_deref_mut() {
            t.record(root, 0, "ingest", "ingest", start, end);
        }
        cycle.tally.check(stats.rows_appended == batch.num_rows());
        cycle.writer_s += (end - start).as_secs_f64();
        cycle.rows_ingested += stats.rows_appended as u64;
        cycle.append_ms.push(ms(end - start));
        cycle.chunks_rewritten.push(stats.chunks_rewritten);
        cycle.bytes_appended += stats.bytes_appended;
        let disk = api::disk_usage(table)?;
        let dead_ratio = disk.dead_bytes as f64 / disk.file_bytes.max(1) as f64;
        cycle.dead_ratio_peak = cycle.dead_ratio_peak.max(dead_ratio);

        if COMPACT_AFTER.contains(&(i + 1)) {
            let start = Instant::now();
            let stats = api::compact(table)?;
            let end = Instant::now();
            if let Some(t) = tracer.as_deref_mut() {
                t.record(root, 0, "compact", "ingest", start, end);
            }
            cycle.tally.check(true);
            cycle.writer_s += (end - start).as_secs_f64();
            cycle.compact_ms.push(ms(end - start));
            cycle.compact_spans.push((start, end));
            cycle.compact_bytes_out += stats.bytes_after;
            cycle.reclaimed_bytes += stats.reclaimed_bytes;
        }
    }
    if let (Some(t), Some(root)) = (tracer, root) {
        t.close(root);
    }
    Ok(())
}

/// The reader of `ingest_query`: loops the pass on the table the writer is
/// growing until told to stop. Statements pin a snapshot, so each pass
/// prepares afresh to see what has been ingested since. Intermediate
/// answers have no reference; what must hold is that Q1's total cohort
/// size (the users present) never shrinks.
fn read_beside_ingest(
    fx: &Fixture,
    table: &TableHandle<'_>,
    done: &AtomicBool,
    trace_epoch: Option<Instant>,
) -> Result<(Samples, Option<Tracer>)> {
    let mut samples = Samples::new(fx.queries.len());
    let mut tracer = trace_epoch.map(Tracer::new);
    let mut users_seen = 0;
    let mut query_id = 0;
    let start = Instant::now();
    while !done.load(Ordering::SeqCst) {
        let stmts = api::prepare_all(table, &fx.queries, 1)?;
        let reports = match tracer.as_mut() {
            None => scan_pass(&stmts, None, &mut samples)?,
            Some(tracer) => {
                let source = api::source(table)?;
                let mut reports = Vec::with_capacity(stmts.len());
                for (q, stmt) in stmts.iter().enumerate() {
                    query_id += 1;
                    let live = api::live_chunks(stmt)?;
                    let start = Instant::now();
                    let traced = crate::layers::traced_query(
                        tracer, "query", query_id, stmt, &live, &*source, false,
                    )?;
                    samples.record(q, start, Instant::now(), &QueryStats::default(), true);
                    reports.push(traced.report);
                }
                reports
            }
        };
        let users = api::total_cohort_size(&reports[0]);
        samples.tally.check(users >= users_seen);
        users_seen = users;
    }
    samples.wall_s = elapsed_s(start);
    Ok((samples, tracer))
}

/// Copy a shard directory's files (a pristine table has no lock files).
fn copy_table_dir(from: &Path, to: &Path) -> Result<()> {
    std::fs::create_dir_all(to)?;
    for entry in std::fs::read_dir(from)? {
        let entry = entry?;
        if entry.file_type()?.is_file() {
            std::fs::copy(entry.path(), to.join(entry.file_name()))?;
        }
    }
    Ok(())
}

/// `ingest_query`: cycles until the time is up (at least one; a further one
/// starts only while more than half of it fits).
pub fn run_ingest(fx: &Fixture, seconds: f64) -> Result<Vec<Cycle>> {
    let plan = fx.ingest.as_ref().ok_or("ingest_query needs its plan")?;
    let mut cycles = Vec::new();
    let start = Instant::now();
    loop {
        let t = Instant::now();
        cycles.push(run_cycle(fx, plan, None)?);
        if elapsed_s(start) + elapsed_s(t) / 2.0 >= seconds {
            return Ok(cycles);
        }
    }
}

/// Rows ingested per second of writer time, as the median over cycles.
pub fn ingest_rows_per_s(cycles: &[Cycle]) -> f64 {
    median(&cycles.iter().map(|c| c.rows_ingested as f64 / c.writer_s).collect::<Vec<_>>())
}

/// Pool the readers of several cycles; the wall time is the time readers
/// ran, so `queries / wall` is the readers' rate under ingest.
pub fn pooled_readers(cycles: Vec<Cycle>, queries: usize) -> (Samples, Tally) {
    let mut all = Samples::new(queries);
    let mut tally = Tally::default();
    let mut wall = 0.0;
    for cycle in cycles {
        wall += cycle.reader.wall_s;
        tally.absorb(cycle.tally);
        all.absorb(cycle.reader);
    }
    all.wall_s = wall;
    (all, tally)
}

pub fn elapsed_s(since: Instant) -> f64 {
    since.elapsed().as_secs_f64()
}

pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}
