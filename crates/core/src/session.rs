//! The session/statement query surface: prepare once, execute many, stream
//! results, observe costs.
//!
//! The paper's architecture (Figure 4) keeps a stable query surface —
//! parser → planner → executor — in front of the storage manager. This
//! module is that surface for programmatic callers (the SQL front end in
//! `cohana-sql` layers string parsing on top of it):
//!
//! * [`Session`] — a cheap per-caller handle on a shared
//!   [`Cohana`] engine, carrying option overrides (parallelism, planner
//!   flags, default table) that affect only this caller;
//! * [`Statement`] — a validated and planned query, re-executable any
//!   number of times, with [`Statement::explain`] and cumulative
//!   [`QueryStats`] across executions;
//! * [`QueryStream`] — a pull-based iterator of per-chunk [`ResultBatch`]es
//!   with [`QueryStream::collect`] preserving the eager semantics. A
//!   consumer that stops pulling stops chunk decode: on a lazy file-backed
//!   source, unpulled chunks are never read from disk;
//! * [`BatchMerger`] — the one fold of a query's batches into its result,
//!   finished as the report or as one network-portable
//!   [`WireBatch`] (what `cohana-server` sends).
//!
//! ```
//! use cohana_activity::{generate, GeneratorConfig};
//! use cohana_core::{AggFunc, Cohana, CohortQuery};
//! use cohana_storage::CompressionOptions;
//!
//! let table = generate(&GeneratorConfig::small());
//! let engine = Cohana::from_activity_table(&table, CompressionOptions::default()).unwrap();
//!
//! let session = engine.session().with_parallelism(2);
//! let q1 = CohortQuery::builder("launch")
//!     .cohort_by(["country"])
//!     .aggregate(AggFunc::user_count())
//!     .build()
//!     .unwrap();
//! let stmt = session.prepare(&q1).unwrap();
//! let report = stmt.execute().unwrap();
//! assert!(report.num_rows() > 0);
//! let stats = report.stats.unwrap();
//! assert_eq!(stats.chunks_scanned + stats.chunks_pruned, stats.chunks_total);
//! ```

use crate::engine::Cohana;
use crate::error::EngineError;
use crate::exec::{Accumulator, QueryCore, ResultBatch};
use crate::plan::{plan_query, PhysicalPlan, PlannerOptions};
use crate::query::CohortQuery;
use crate::report::CohortReport;
use crate::stats::QueryStats;
use crate::wire::WireBatch;
use cohana_activity::Schema;
use cohana_storage::{ChunkSource, IoRecorder};
use std::any::Any;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::Receiver;
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Instant;

/// A lightweight per-caller handle on a [`Cohana`] engine.
///
/// Sessions are cheap to create (a borrow plus copied options) and carry
/// overrides that never touch the shared engine: many concurrent callers
/// can run the same engine at different parallelism, planner flags, or
/// default tables. Obtain one with [`Cohana::session`].
#[derive(Clone)]
pub struct Session<'e> {
    engine: &'e Cohana,
    options: crate::engine::EngineOptions,
    table: Option<String>,
}

impl<'e> Session<'e> {
    pub(crate) fn new(engine: &'e Cohana) -> Session<'e> {
        Session { engine, options: engine.options(), table: None }
    }

    /// The engine this session runs against.
    pub fn engine(&self) -> &'e Cohana {
        self.engine
    }

    /// The effective options (engine defaults plus session overrides).
    pub fn options(&self) -> crate::engine::EngineOptions {
        self.options
    }

    /// Override the worker-thread count for statements prepared here.
    pub fn with_parallelism(mut self, parallelism: usize) -> Self {
        self.options.parallelism = parallelism.max(1);
        self
    }

    /// Override this session's default table (the engine default otherwise).
    pub fn on_table(mut self, name: impl Into<String>) -> Self {
        self.table = Some(name.into());
        self
    }

    /// The table statements resolve against: the session override if set,
    /// the engine's default table otherwise.
    pub fn table_name(&self) -> Result<String, EngineError> {
        match &self.table {
            Some(name) => Ok(name.clone()),
            None => self
                .engine
                .default_table_name()
                .ok_or_else(|| EngineError::UnknownTable("<no tables registered>".into())),
        }
    }

    /// Schema of the session's table.
    pub fn schema(&self) -> Result<Schema, EngineError> {
        let name = self.table_name()?;
        self.engine.schema_of(&name).ok_or(EngineError::UnknownTable(name))
    }

    fn source(&self) -> Result<Arc<dyn ChunkSource>, EngineError> {
        let name = self.table_name()?;
        self.engine.source(&name).ok_or(EngineError::UnknownTable(name))
    }

    /// Validate and plan a query against the session's table. The returned
    /// [`Statement`] is self-contained (it pins the table's chunk source)
    /// and re-executable.
    pub fn prepare(&self, query: &CohortQuery) -> Result<Statement, EngineError> {
        Statement::over(self.source()?, query, self.options.planner, self.options.parallelism)
    }

    /// Prepare a query against an explicit [`TableHandle`] instead of the
    /// session's default table, keeping this session's option overrides
    /// (parallelism, planner flags). The handle must belong to the same engine.
    ///
    /// [`TableHandle`]: crate::TableHandle
    pub fn prepare_on(
        &self,
        table: &crate::handle::TableHandle<'_>,
        query: &CohortQuery,
    ) -> Result<Statement, EngineError> {
        if !std::ptr::eq(table.engine(), self.engine) {
            return Err(EngineError::Unsupported(
                "the table handle belongs to a different engine than this session".into(),
            ));
        }
        Statement::over(table.source()?, query, self.options.planner, self.options.parallelism)
    }

    /// Prepare and execute in one call (the eager convenience path).
    pub fn execute(&self, query: &CohortQuery) -> Result<CohortReport, EngineError> {
        self.prepare(query)?.execute()
    }

    /// EXPLAIN: prepare the query and render its plan.
    pub fn explain(&self, query: &CohortQuery) -> Result<String, EngineError> {
        Ok(self.prepare(query)?.explain())
    }
}

/// A validated, planned, re-executable cohort query.
///
/// A statement pins the chunk source it was prepared against (catalog
/// changes after `prepare` do not affect it), owns the physical plan and the
/// compiled predicates, and accumulates [`QueryStats`] over every execution
/// in [`Statement::cumulative_stats`].
pub struct Statement {
    core: QueryCore,
    parallelism: usize,
    /// `(cumulative stats, execution count)` under one lock, so the two
    /// never present a torn snapshot.
    lifetime: Mutex<(QueryStats, u64)>,
}

impl Statement {
    /// Plan `query` directly over a chunk source — the low-level entry point
    /// behind [`Session::prepare`], useful for tests and tools that hold a
    /// source without an engine catalog.
    pub fn over(
        source: Arc<dyn ChunkSource>,
        query: &CohortQuery,
        planner: PlannerOptions,
        parallelism: usize,
    ) -> Result<Statement, EngineError> {
        let plan = plan_query(query, source.table_meta().schema(), planner)?;
        Self::with_plan(source, plan, parallelism)
    }

    /// Like [`Statement::over`] with an already-planned query. The plan must
    /// have been produced against this source's schema (predicate
    /// compilation re-validates attribute references).
    pub fn with_plan(
        source: Arc<dyn ChunkSource>,
        plan: PhysicalPlan,
        parallelism: usize,
    ) -> Result<Statement, EngineError> {
        Ok(Statement {
            core: QueryCore::new(source, Arc::new(plan))?,
            parallelism: parallelism.max(1),
            lifetime: Mutex::new((QueryStats::default(), 0)),
        })
    }

    /// The physical plan.
    pub fn plan(&self) -> &PhysicalPlan {
        &self.core.plan
    }

    /// The validated query.
    pub fn query(&self) -> &CohortQuery {
        &self.core.plan.query
    }

    /// Worker threads used by [`Statement::stream`] / [`Statement::execute`].
    pub fn parallelism(&self) -> usize {
        self.parallelism
    }

    /// EXPLAIN rendering: the optimized Figure-5 operator tree, the
    /// projected columns the scan will fetch, the metadata predicate used
    /// for §4.2 chunk pruning, and the execution parallelism.
    pub fn explain(&self) -> String {
        let plan = self.plan();
        let schema = self.core.source.table_meta().schema();
        let projected: Vec<&str> =
            plan.projected_idxs.iter().map(|&i| schema.attribute(i).name.as_str()).collect();
        let mut out = plan.explain();
        out.push_str(&format!("-- projected columns: {}\n", projected.join(", ")));
        if plan.options.prune_chunks {
            let mut prune = format!("birth action {:?}", plan.query.birth_action);
            if let Some((lo, hi)) = plan.birth_time_bounds {
                prune.push_str(&format!(", birth time in [{lo}, {hi}]"));
            }
            out.push_str(&format!("-- prune chunks on: {prune}\n"));
        } else {
            out.push_str("-- prune chunks on: (disabled)\n");
        }
        out.push_str(&format!("-- parallelism: {}\n", self.parallelism));
        out
    }

    /// Open a pull-based stream of per-chunk result batches. Chunk pruning
    /// happens here (it is metadata-only); chunk I/O and decode happen as
    /// batches are pulled.
    pub fn stream(&self) -> QueryStream<'_> {
        QueryStream::open(self)
    }

    /// Execute eagerly: stream every batch, merge, and attach this
    /// execution's [`QueryStats`] to the report.
    pub fn execute(&self) -> Result<CohortReport, EngineError> {
        self.stream().collect()
    }

    /// Merge already-pulled batches (from one full pass of
    /// [`Statement::stream`]) into a report — the manual-pull equivalent of
    /// [`QueryStream::collect`]. The report carries no stats; the stream
    /// that produced the batches has them.
    pub fn report_from_batches(
        &self,
        batches: impl IntoIterator<Item = ResultBatch>,
    ) -> Result<CohortReport, EngineError> {
        let mut merged = self.merger();
        for batch in batches {
            merged.absorb(&batch);
        }
        Ok(merged.report())
    }

    /// An empty fold for this statement's batches.
    pub fn merger(&self) -> BatchMerger<'_> {
        BatchMerger {
            core: &self.core,
            merged: self.core.merger(),
            first_chunk: None,
            rows_scanned: 0,
            morsels: 0,
        }
    }

    /// Convert a pulled batch into its network-portable [`WireBatch`] form,
    /// with cohort keys decoded to values so a remote consumer can merge
    /// batches (via [`ReportAssembler`](crate::wire::ReportAssembler))
    /// without this statement's table metadata.
    pub fn wire_batch(&self, batch: &ResultBatch) -> WireBatch {
        let counts = [batch.chunk_index as u64, batch.rows_scanned as u64, batch.morsels];
        self.core.wire_batch(counts, &batch.partial)
    }

    /// Stats accumulated over every execution (including partially consumed
    /// or dropped streams) of this statement. Monotone: each execution only
    /// adds.
    pub fn cumulative_stats(&self) -> QueryStats {
        self.lifetime.lock().expect("stats lock poisoned").0
    }

    /// How many streams this statement has opened.
    pub fn executions(&self) -> u64 {
        self.lifetime.lock().expect("stats lock poisoned").1
    }

    fn record(&self, stats: &QueryStats) {
        let mut lifetime = self.lifetime.lock().expect("stats lock poisoned");
        lifetime.0.absorb(stats);
        lifetime.1 += 1;
    }
}

impl std::fmt::Debug for Statement {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Statement")
            .field("query", &self.query().to_sql())
            .field("parallelism", &self.parallelism)
            .field("executions", &self.executions())
            .finish_non_exhaustive()
    }
}

/// One execution's [`ResultBatch`]es folded into a single partial — the
/// merge behind [`QueryStream::collect`], [`Statement::report_from_batches`]
/// and the one result a `cohana-server` execution sends. Batches fold in
/// any order (partials are additive across chunks); finish with
/// [`report`](Self::report), or ship the fold with
/// [`wire_batch`](Self::wire_batch). Obtain one from [`Statement::merger`].
pub struct BatchMerger<'s> {
    core: &'s QueryCore,
    merged: Accumulator,
    /// The lowest chunk index folded, and the rows and morsels summed.
    first_chunk: Option<usize>,
    rows_scanned: usize,
    morsels: u64,
}

impl BatchMerger<'_> {
    /// Fold one batch of this statement in.
    pub fn absorb(&mut self, batch: &ResultBatch) {
        let first = self.first_chunk.map_or(batch.chunk_index, |c| c.min(batch.chunk_index));
        self.first_chunk = Some(first);
        self.rows_scanned += batch.rows_scanned;
        self.morsels += batch.morsels;
        self.merged.absorb(&batch.partial);
    }

    /// The fold as one [`WireBatch`]: every cohort once, with its summed
    /// size and merged cells. Its `chunk_index` is the lowest chunk index
    /// folded (0 before any batch); `rows_scanned` and `morsels` are sums.
    pub fn wire_batch(&self) -> WireBatch {
        let first = self.first_chunk.unwrap_or(0);
        let counts = [first as u64, self.rows_scanned as u64, self.morsels];
        self.core.wire_batch(counts, &self.merged)
    }

    /// The report of everything folded, sorted by cohort then age. Carries
    /// no stats.
    pub fn report(self) -> CohortReport {
        self.core.build_report(self.merged)
    }
}

enum StreamState {
    /// One chunk is fetched, decoded, and processed per pull.
    Serial {
        live: std::vec::IntoIter<usize>,
    },
    /// Worker threads feed a bounded channel; pulls drain it.
    Parallel {
        rx: Receiver<Result<ResultBatch, EngineError>>,
        handles: Vec<JoinHandle<()>>,
    },
    Done,
}

/// A pull-based stream of per-chunk [`ResultBatch`]es.
///
/// Iterate it for streaming consumption (first batches arrive before the
/// last chunk is decoded) or call [`QueryStream::collect`] for the eager
/// report. Dropping the stream early terminates the query: serial streams
/// simply never touch the remaining chunks; parallel workers stop at their
/// next send into the disconnected channel. Either way the statement's
/// cumulative stats record whatever work was actually done. A panic while
/// running a chunk reaches the consumer at any parallelism: a parallel
/// stream re-raises a worker's panic once its other workers are done.
pub struct QueryStream<'s> {
    stmt: &'s Statement,
    state: StreamState,
    stats: QueryStats,
    /// Nanoseconds spent running chunks, summed over the threads that ran
    /// them.
    busy: Arc<AtomicU64>,
    /// This execution's I/O, credited at the storage layer's increment
    /// sites: exact even when other queries decode on the same source
    /// concurrently (see [`IoRecorder`]).
    recorder: Arc<IoRecorder>,
    started: Instant,
    recorded: bool,
}

impl<'s> QueryStream<'s> {
    fn open(stmt: &'s Statement) -> QueryStream<'s> {
        let live = stmt.core.live_chunks();
        let total = stmt.core.source.num_chunks();
        let stats = QueryStats {
            chunks_total: total,
            chunks_pruned: total - live.len(),
            ..QueryStats::default()
        };
        let (recorder, busy) = (Arc::new(IoRecorder::new()), Arc::new(AtomicU64::new(0)));
        let started = Instant::now();
        let workers = stmt.parallelism.min(live.len());
        let state = if workers <= 1 {
            StreamState::Serial { live: live.into_iter() }
        } else {
            let (rx, handles) =
                stmt.core.spawn_workers(live, workers, recorder.clone(), busy.clone());
            StreamState::Parallel { rx, handles }
        };
        QueryStream { stmt, state, stats, busy, recorder, started, recorded: false }
    }

    /// The statement this stream executes.
    pub fn statement(&self) -> &'s Statement {
        self.stmt
    }

    /// A snapshot of this execution's stats so far (final once the stream
    /// is exhausted).
    pub fn stats(&self) -> QueryStats {
        if self.recorded {
            return self.stats;
        }
        self.measured()
    }

    /// Drain the remaining batches and merge everything into the eager
    /// [`CohortReport`], with this execution's [`QueryStats`] attached.
    pub fn collect(mut self) -> Result<CohortReport, EngineError> {
        let mut merged = self.stmt.merger();
        for batch in &mut self {
            merged.absorb(&batch?);
        }
        let mut report = merged.report();
        report.stats = Some(self.stats());
        Ok(report)
    }

    /// The counted stats plus what the recorder, the clock and the busy
    /// counter measured so far.
    fn measured(&self) -> QueryStats {
        let mut stats = self.stats;
        stats.add_io(&self.recorder.snapshot());
        stats.wall_time = self.started.elapsed();
        stats.worker_busy_ns += self.busy.load(Ordering::Relaxed);
        stats
    }

    /// Tear down the pipeline: disconnect the channel (stopping parallel
    /// workers at their next send), join them, and fold this execution's
    /// stats into the statement's cumulative counters exactly once. Returns
    /// the first panic payload of a worker that panicked.
    fn shutdown(&mut self) -> Option<Box<dyn Any + Send>> {
        let mut panic = None;
        if let StreamState::Parallel { rx, handles } =
            std::mem::replace(&mut self.state, StreamState::Done)
        {
            drop(rx);
            for h in handles {
                if let Err(payload) = h.join() {
                    panic.get_or_insert(payload);
                }
            }
        }
        if !self.recorded {
            // Parallel workers are joined above, so every credit is in.
            self.stats = self.measured();
            self.recorded = true;
            self.stmt.record(&self.stats);
        }
        panic
    }
}

impl Iterator for QueryStream<'_> {
    type Item = Result<ResultBatch, EngineError>;

    fn next(&mut self) -> Option<Self::Item> {
        let item = match &mut self.state {
            StreamState::Serial { live } => {
                live.next().map(|idx| self.stmt.core.run_chunk(idx, &self.recorder, &self.busy))
            }
            // A recv error means every worker is done and the channel is
            // drained (workers hold the only senders).
            StreamState::Parallel { rx, .. } => rx.recv().ok(),
            StreamState::Done => None,
        };
        match item {
            Some(Ok(batch)) => {
                self.stats.chunks_scanned += 1;
                self.stats.rows_scanned += batch.rows_scanned as u64;
                self.stats.batches += 1;
                self.stats.morsels_executed += batch.morsels;
                Some(Ok(batch))
            }
            Some(Err(e)) => {
                self.shutdown();
                Some(Err(e))
            }
            None => {
                // A worker that panicked sent nothing for its chunk: re-raise
                // rather than end the stream short, as the serial path would.
                if let Some(payload) = self.shutdown() {
                    std::panic::resume_unwind(payload);
                }
                None
            }
        }
    }
}

impl Drop for QueryStream<'_> {
    /// A consumer that stopped pulling has given up on the answer, so a
    /// worker's panic payload is dropped here, not re-raised.
    fn drop(&mut self) {
        self.shutdown();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::agg::AggFunc;
    use cohana_activity::{generate, GeneratorConfig};
    use cohana_storage::{CompressedTable, CompressionOptions};

    fn engine() -> Cohana {
        let t = generate(&GeneratorConfig::small());
        Cohana::from_activity_table(&t, CompressionOptions::with_chunk_size(256)).unwrap()
    }

    fn q1() -> CohortQuery {
        CohortQuery::builder("launch")
            .cohort_by(["country"])
            .aggregate(AggFunc::user_count())
            .build()
            .unwrap()
    }

    #[test]
    fn session_prepare_execute_matches_engine_execute() {
        let e = engine();
        let session = e.session();
        let stmt = session.prepare(&q1()).unwrap();
        let via_stmt = stmt.execute().unwrap();
        let via_engine = e.execute(&q1()).unwrap();
        assert_eq!(via_stmt, via_engine);
        assert!(via_stmt.stats.is_some());
    }

    #[test]
    fn session_overrides_do_not_leak() {
        let e = engine();
        let fast = e.session().with_parallelism(4);
        assert_eq!(fast.options().parallelism, 4);
        assert_eq!(e.session().options().parallelism, e.options().parallelism);
        let a = fast.execute(&q1()).unwrap();
        let b = e.session().execute(&q1()).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn stream_batches_cover_all_live_chunks() {
        let e = engine();
        let stmt = e.session().prepare(&q1()).unwrap();
        let mut stream = stmt.stream();
        let mut batches = Vec::new();
        for b in &mut stream {
            batches.push(b.unwrap());
        }
        let stats = stream.stats();
        assert_eq!(stats.batches, batches.len());
        assert_eq!(stats.chunks_scanned + stats.chunks_pruned, stats.chunks_total);
        let mut idxs: Vec<usize> = batches.iter().map(|b| b.chunk_index()).collect();
        idxs.sort_unstable();
        idxs.dedup();
        assert_eq!(idxs.len(), batches.len(), "each chunk yields exactly one batch");
        drop(stream);
        // The fold as one wire batch: each cell once, the counts summed.
        let mut merged = stmt.merger();
        batches.iter().rev().for_each(|b| merged.absorb(b));
        let wire = merged.wire_batch();
        assert_eq!(wire.chunk_index(), idxs[0] as u64);
        assert_eq!(
            (wire.rows_scanned(), wire.morsels()),
            (stats.rows_scanned, stats.morsels_executed)
        );
        let report = stmt.report_from_batches(batches).unwrap();
        assert_eq!(report, e.execute(&q1()).unwrap());
        assert_eq!(wire.num_cells(), report.num_rows());
        assert_eq!(wire.num_cohorts(), report.cohort_sizes.len());
    }

    #[test]
    fn cumulative_stats_are_monotone_over_reexecution() {
        let e = engine();
        let stmt = e.session().prepare(&q1()).unwrap();
        let r1 = stmt.execute().unwrap();
        let after_one = stmt.cumulative_stats();
        let r2 = stmt.execute().unwrap();
        let after_two = stmt.cumulative_stats();
        assert_eq!(r1, r2, "re-execution is deterministic");
        assert_eq!(stmt.executions(), 2);
        assert!(after_two.dominates(&after_one));
        assert_eq!(after_two.chunks_scanned, 2 * after_one.chunks_scanned);
    }

    #[test]
    fn statement_over_raw_source_works() {
        let t = generate(&GeneratorConfig::small());
        let c =
            Arc::new(CompressedTable::build(&t, CompressionOptions::with_chunk_size(256)).unwrap());
        let stmt = Statement::over(c, &q1(), PlannerOptions::default(), 2).unwrap();
        assert_eq!(stmt.parallelism(), 2);
        let report = stmt.execute().unwrap();
        assert!(report.num_rows() > 0);
    }

    #[test]
    fn explain_lists_projection_prune_and_parallelism() {
        let e = engine();
        let stmt = e.session().with_parallelism(3).prepare(&q1()).unwrap();
        let text = stmt.explain();
        assert!(text.contains("TableScan"));
        assert!(text.contains("projected columns:"));
        assert!(text.contains("birth action \"launch\""));
        assert!(text.contains("parallelism: 3"));
    }

    #[test]
    fn unknown_table_errors() {
        let e = engine();
        assert!(matches!(
            e.session().on_table("nope").prepare(&q1()).unwrap_err(),
            EngineError::UnknownTable(_)
        ));
        let empty = Cohana::new(Default::default());
        assert!(empty.session().prepare(&q1()).is_err());
    }

    #[test]
    fn dropped_stream_still_records_stats() {
        let e = engine();
        let stmt = e.session().prepare(&q1()).unwrap();
        {
            let mut stream = stmt.stream();
            let first = stream.next();
            assert!(first.is_some());
        } // dropped after one batch
        let cum = stmt.cumulative_stats();
        assert_eq!(stmt.executions(), 1);
        assert_eq!(cum.chunks_scanned, 1);
        assert!(cum.chunks_total > 1);
    }
}
