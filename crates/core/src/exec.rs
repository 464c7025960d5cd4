//! The chunk pipeline: physical execution of cohort query plans (§4.2–§4.5).
//!
//! The optimized plan is executed **against each data chunk** independently
//! and the per-chunk partial results are merged — valid because chunking
//! never splits a user. This module is organised as a pull-based pipeline:
//! `QueryCore` owns everything resolved once per statement (the source,
//! the plan, the compiled `ExecContext`) and turns one chunk into one
//! [`ResultBatch`] on demand; the public [`QueryStream`](crate::QueryStream)
//! drives it either serially (one chunk per pull — a consumer that stops
//! pulling stops chunk decode) or with worker threads that each claim whole
//! chunks and feed their batches into a bounded channel. The chunk is the
//! unit of parallel work, and both paths run the same `QueryCore::run_chunk`.
//! Per chunk the executor fuses Algorithm 1 (birth selection), the age
//! selection, and Algorithm 2 (cohort aggregation) into a single pass over
//! user blocks:
//!
//! 1. **chunk pruning** — skip the chunk if the birth action is absent from
//!    its action chunk-dictionary, or if the birth predicate's time bounds
//!    are disjoint from the chunk's time range;
//! 2. per user: **GetBirthTuple**, evaluate the birth condition on that one
//!    tuple, and **SkipCurUser** on failure — so the pass touches only
//!    `O(l·m)` tuples for `l` qualified users;
//! 3. for qualified users: assign the cohort from the birth tuple — the key
//!    is interned to a dense cohort id once per user (a direct-indexed LUT
//!    over the chunk codes when every key part is a dictionary attribute and
//!    the chunk has at least as many rows as key combinations, one hash
//!    probe otherwise) — and bump the cohort size; then the user's block
//!    goes through three steps that all rest on its tuples being
//!    time-ordered (§4.1), so ages never decrease along it:
//!    * **range** — tuples at or before the birth row have age ≤ 0, and the
//!      age selection's `AGE` bounds ([`CompiledExpr::split_age_range`]) are
//!      row positions found by binary search on the *packed* time column
//!      (`BitPacked::partition_point`); only that row range of the time,
//!      predicate and value columns is ever unpacked, which is why
//!      `AGE < g` gets cheaper as `g` shrinks (Figure 9);
//!    * **selection** — what is left of the age selection compacts the
//!      range into a selection vector of offsets
//!      ([`CompiledExpr::refine`]); ages are divided out, and value columns
//!      gathered, for selected tuples only. With no residual the selection
//!      is the range and nothing is materialized;
//!    * **runs** — equal ages are adjacent, so the selected tuples split
//!      into `(user, age)` runs; run starts are found without a branch per
//!      tuple, and each run updates its cell once per aggregate
//!      (**array-based aggregation**, §4.4): `COUNT += len`, `SUM`/`AVG`
//!      from a prefix sum, `MIN`/`MAX` over the run's values;
//! 4. **UserCount** (§4.5): "distinct users at age g" is one increment per
//!    run — no last-age check per tuple — and per-chunk counts sum exactly
//!    because no user spans chunks.
//!
//! §4.4's array is the `Accumulator`: one typed `StateCol` per
//! aggregate, indexed by cell, and one contiguous block of cells per cohort
//! indexed by age — so a fold is a typed add at `block + age - 1` whose
//! kind was matched once per user and aggregate. A chunk's batch carries its
//! accumulator as it is; merging batches adds block into block, a pass over
//! what the incoming batch holds; the report reads the merged blocks; and a
//! [`WireBatch`] is the one place the cells are compacted, in key order.
//!
//! The per-chunk pass is **vectorized** (see `docs/PERF.md`): columns are
//! resolved once per chunk into [`ChunkCursors`],
//! predicates are re-specialized against each chunk's dictionaries and
//! ranges ([`CompiledExpr::specialize`]), and every step above is a
//! straight-line pass over scratch buffers reused across users: no column
//! lookups, no hardware divisions, no allocations, and no branch that
//! depends on a tuple's age or on whether it was selected.

use crate::agg::{Dest, Kind, RunValues, StateCol};
use crate::cells::{self, CohortTable};
use crate::error::EngineError;
use crate::plan::PhysicalPlan;
use crate::query::CohortAttr;
use crate::report::CohortReport;
use crate::scan::{compile_predicate, ChunkScan, CompiledExpr, EvalCtx, SlotCol};
use crate::wire::WireBatch;
use cohana_activity::{TimeBin, Timestamp, Value, ValueType};
use cohana_storage::rle::{UserRle, UserRun};
use cohana_storage::{
    with_recorder, Chunk, ChunkCursors, ChunkIndexEntry, ChunkSource, IoRecorder, TableMeta,
};
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc};
use std::thread::JoinHandle;
use std::time::Instant;

/// Largest age, in units of the query's age granularity, one chunk may
/// span. The accumulator indexes a cohort's states by age, so this bounds
/// its arrays (2^20 daily ages is 2 870 years); a chunk whose time range is
/// wider is refused rather than allocated for.
const MAX_AGE_UNITS: i64 = 1 << 20;

/// Target rows per user-block morsel, the tile [`QueryCore::run_chunk`]
/// walks a chunk in: it bounds the processor's batch buffers, and
/// `morsels_executed` counts the tiles.
const MORSEL_ROWS: usize = 16 * 1024;

/// Encoded cohort key: one `u64` per cohort attribute (global id for
/// strings, bit-cast `i64` for integers and binned birth times).
type Key = Vec<u64>;

/// How one cohort attribute is extracted from a birth tuple.
#[derive(Debug, Clone, Copy)]
enum KeyPart {
    /// Global id of a string attribute.
    Str(usize),
    /// Raw integer attribute (bit-cast).
    Int(usize),
    /// Birth time binned to the granularity, bit-cast seconds.
    TimeBin(TimeBin),
}

/// One per-chunk batch of partial results, as yielded by a
/// [`QueryStream`](crate::QueryStream).
///
/// A batch is a *partial* cohort aggregation: the same `(cohort, age)` cell
/// may appear in many batches and their contributions add (chunking never
/// splits a user, so cohort sizes and aggregate states are additive across
/// chunks). Fold batches with a
/// [`Statement::merger`](crate::Statement::merger) — the one merge behind
/// [`Statement::report_from_batches`](crate::Statement::report_from_batches),
/// [`QueryStream::collect`](crate::QueryStream::collect) and the server.
#[derive(Debug)]
pub struct ResultBatch {
    pub(crate) chunk_index: usize,
    pub(crate) rows_scanned: usize,
    pub(crate) morsels: u64,
    pub(crate) partial: Box<Accumulator>,
}

impl ResultBatch {
    /// Index of the source chunk that produced this batch.
    pub fn chunk_index(&self) -> usize {
        self.chunk_index
    }

    /// Rows of the source chunk this batch's scan covered.
    pub fn rows_scanned(&self) -> usize {
        self.rows_scanned
    }

    /// User-block morsels executed to produce this batch (0 when the chunk
    /// was skipped without touching a row).
    pub fn morsels(&self) -> u64 {
        self.morsels
    }

    /// Cohorts with at least one qualified user in this chunk.
    pub fn num_cohorts(&self) -> usize {
        self.partial.num_cohorts()
    }

    /// `(cohort, age)` cells this chunk contributed to.
    pub fn num_cells(&self) -> usize {
        self.partial.num_cells()
    }

    /// Qualified users this chunk contributed (summed over cohorts).
    pub fn num_users(&self) -> u64 {
        self.partial.num_users()
    }
}

/// Everything resolved once per statement before touching chunks.
pub(crate) struct ExecContext {
    birth_gid: Option<u32>,
    birth_pred: Option<CompiledExpr>,
    age_pred: Option<CompiledExpr>,
    key_parts: Vec<KeyPart>,
    /// An empty state column per aggregate, of its kind.
    cols: Vec<StateCol>,
    agg_attrs: Vec<Option<usize>>,
    age_bin: TimeBin,
}

impl ExecContext {
    fn new(table: &TableMeta, plan: &PhysicalPlan) -> Result<ExecContext, EngineError> {
        let schema = table.schema();
        let query = &plan.query;

        let birth_gid = table.lookup_gid(schema.action_idx(), &query.birth_action);
        let birth_pred = query
            .birth_predicate
            .as_ref()
            .map(|p| compile_predicate(p, schema, table))
            .transpose()?;
        let age_pred = query
            .age_predicate
            .as_ref()
            .map(|p| compile_predicate(p, schema, table))
            .transpose()?;

        let mut key_parts = Vec::with_capacity(query.cohort_by.len());
        for c in &query.cohort_by {
            key_parts.push(match c {
                CohortAttr::Attr(a) => {
                    let idx = schema.require(a)?;
                    match schema.attribute(idx).vtype {
                        ValueType::Str => KeyPart::Str(idx),
                        ValueType::Int => KeyPart::Int(idx),
                    }
                }
                CohortAttr::TimeBin(bin) => KeyPart::TimeBin(*bin),
            });
        }

        let agg_attrs: Vec<Option<usize>> = query
            .aggregates
            .iter()
            .map(|a| a.attr().map(|n| schema.require(n)).transpose())
            .collect::<Result<_, _>>()?;

        Ok(ExecContext {
            birth_gid,
            birth_pred,
            age_pred,
            key_parts,
            cols: query.aggregates.iter().map(|a| StateCol::new(Kind::of(a))).collect(),
            agg_attrs,
            age_bin: query.age_bin,
        })
    }
}

/// The shared, thread-safe heart of one prepared statement: the chunk
/// source, the physical plan, and the per-statement [`ExecContext`]. All
/// three sit behind `Arc`s so serial pulls, parallel workers, and the
/// statement itself can share them freely; cloning a `QueryCore` is three
/// reference-count bumps.
#[derive(Clone)]
pub(crate) struct QueryCore {
    pub(crate) source: Arc<dyn ChunkSource>,
    pub(crate) plan: Arc<PhysicalPlan>,
    ctx: Arc<ExecContext>,
}

impl QueryCore {
    pub(crate) fn new(
        source: Arc<dyn ChunkSource>,
        plan: Arc<PhysicalPlan>,
    ) -> Result<QueryCore, EngineError> {
        let ctx = Arc::new(ExecContext::new(source.table_meta(), &plan)?);
        Ok(QueryCore { source, plan, ctx })
    }

    /// The hoisted §4.2 chunk-pruning pass: decide from index metadata
    /// alone — before any chunk I/O — which chunks can contribute. For a
    /// lazy file-backed source, pruned chunks are never read from disk, let
    /// alone decoded.
    pub(crate) fn live_chunks(&self) -> Vec<usize> {
        (0..self.source.num_chunks())
            .filter(|&i| !prune_chunk(self.source.index_entry(i), &self.plan, &self.ctx))
            .collect()
    }

    /// Run the fused per-chunk pass over one chunk, fetching it through the
    /// projection-aware [`ChunkSource::chunk_columns`] so a
    /// column-addressable source reads and decodes only the columns the
    /// query names. The chunk is processed morsel by morsel, which bounds
    /// the scratch buffers. The chunk's I/O is credited to `recorder` — so
    /// it lands on exactly this query, however many queries share the
    /// source — and its run time is added to `busy`.
    pub(crate) fn run_chunk(
        &self,
        idx: usize,
        recorder: &Arc<IoRecorder>,
        busy: &AtomicU64,
    ) -> Result<ResultBatch, EngineError> {
        let started = Instant::now();
        let batch = with_recorder(recorder, || self.scan_chunk(idx));
        busy.fetch_add(started.elapsed().as_nanos() as u64, Ordering::Relaxed);
        batch
    }

    fn scan_chunk(&self, idx: usize) -> Result<ResultBatch, EngineError> {
        let chunk = self.source.chunk_columns(idx, &self.plan.projected_idxs)?;
        let mut proc = RunProcessor::new(self.source.table_meta(), &chunk, &self.plan, &self.ctx)?;
        if proc.skip_chunk {
            // No user in this chunk can qualify; nothing to scan.
            return Ok(ResultBatch {
                chunk_index: idx,
                rows_scanned: 0,
                morsels: 0,
                partial: Box::new(self.merger()),
            });
        }
        let morsels = chunk.morsel_run_ranges(MORSEL_ROWS);
        for &(lo, hi) in &morsels {
            proc.process_runs(lo, hi);
        }
        Ok(ResultBatch {
            chunk_index: idx,
            rows_scanned: chunk.num_rows(),
            morsels: morsels.len() as u64,
            partial: Box::new(proc.acc),
        })
    }

    /// Spawn `workers` threads that claim the `live` chunks one at a time
    /// from a shared counter and send each one's [`run_chunk`] batch into a
    /// channel bounded at `workers` batches. A chunk is the unit of work,
    /// and no two workers touch one: its partial is complete on its own
    /// because chunking never splits a user.
    ///
    /// Cancellation is pull-based: a dropped receiver fails the next send,
    /// and the failing worker raises a flag every worker checks before it
    /// claims, so early termination stops at the next chunk boundary. A
    /// worker that panics stops claiming; its peers finish the rest, and
    /// the stream re-raises the panic when it joins them.
    ///
    /// [`run_chunk`]: QueryCore::run_chunk
    pub(crate) fn spawn_workers(
        &self,
        live: Vec<usize>,
        workers: usize,
        recorder: Arc<IoRecorder>,
        busy: Arc<AtomicU64>,
    ) -> (mpsc::Receiver<Result<ResultBatch, EngineError>>, Vec<JoinHandle<()>>) {
        let (tx, rx) = mpsc::sync_channel(workers);
        let claims = Arc::new((live, AtomicUsize::new(0), AtomicBool::new(false)));
        let handles = (0..workers)
            .map(|_| {
                let (core, claims, tx) = (self.clone(), claims.clone(), tx.clone());
                let (recorder, busy) = (recorder.clone(), busy.clone());
                std::thread::spawn(move || {
                    let (live, next, cancelled) = &*claims;
                    while !cancelled.load(Ordering::Relaxed) {
                        let Some(&idx) = live.get(next.fetch_add(1, Ordering::Relaxed)) else {
                            return;
                        };
                        if tx.send(core.run_chunk(idx, &recorder, &busy)).is_err() {
                            cancelled.store(true, Ordering::Relaxed);
                        }
                    }
                })
            })
            .collect();
        (rx, handles)
    }

    /// An empty table to fold this statement's partials into.
    pub(crate) fn merger(&self) -> Accumulator {
        Accumulator::hashed(&self.ctx)
    }

    /// Decode merged partials into the final report, sorted by cohort then
    /// age: each cohort key is decoded once, not once per row.
    pub(crate) fn build_report(&self, merged: Accumulator) -> CohortReport {
        let query = &self.plan.query;
        let m = &merged;
        cells::build_report(
            query.cohort_by.iter().map(|c| c.to_string()).collect(),
            query.aggregates.iter().map(|a| a.header()).collect(),
            (0..m.sizes.len()).map(|id| (self.decode_key(m.key(id)), m.sizes[id], id)).collect(),
            &m.cols,
            |id| m.cells(id),
        )
    }

    /// Convert a partial, with its `[chunk_index, rows_scanned, morsels]`,
    /// into its network-portable form: every encoded cohort key is decoded
    /// to [`Value`]s using this statement's table metadata, so the receiver
    /// needs no dictionaries to merge batches.
    pub(crate) fn wire_batch(&self, counts: [u64; 3], partial: &Accumulator) -> WireBatch {
        WireBatch::new(counts, partial.sorted(|key| self.decode_key(key)))
    }

    /// Decode an encoded cohort key into its reported [`Value`]s. Injective
    /// for keys of one statement: distinct global ids map to distinct
    /// dictionary strings, the integer bit-cast is the identity, and distinct
    /// bin starts render distinct dates — so decoded keys collide iff the
    /// encoded ones did.
    fn decode_key(&self, key: &[u64]) -> Vec<Value> {
        let table = self.source.table_meta();
        key.iter()
            .zip(self.ctx.key_parts.iter())
            .map(|(v, part)| match part {
                KeyPart::Str(idx) => Value::Str(table.gid_value(*idx, *v as u32).clone()),
                KeyPart::Int(_) => Value::Int(*v as i64),
                KeyPart::TimeBin(_) => Value::from(Timestamp(*v as i64).render_date()),
            })
            .collect()
    }
}

/// The §4.2 chunk-pruning decision, computed purely from a chunk's index
/// entry (no chunk I/O): the chunk is skipped when the birth action is
/// absent from its action dictionary, when the birth predicate's time bounds
/// are disjoint from its time range, or when the compiled birth predicate is
/// constant-false. With `prune_chunks` disabled (ablations) every chunk is
/// processed.
fn prune_chunk(entry: &ChunkIndexEntry, plan: &PhysicalPlan, ctx: &ExecContext) -> bool {
    if !plan.options.prune_chunks {
        return false;
    }
    // Birth action absent from the table (None) or from this chunk's action
    // dictionary: no user can be born here, and chunking never splits a
    // user, so the whole chunk is irrelevant.
    match ctx.birth_gid {
        None => return true,
        Some(gid) if !entry.has_action(gid) => return true,
        Some(_) => {}
    }
    if let Some((lo, hi)) = plan.birth_time_bounds {
        if entry.time_disjoint(lo, hi) {
            return true;
        }
    }
    ctx.birth_pred.as_ref().is_some_and(|p| p.is_const_false())
}

/// The fused per-chunk operator pipeline. One processor walks a chunk in
/// half-open run ranges (user-block morsels, see
/// [`Chunk::morsel_run_ranges`]); any tiling folds to the same partial,
/// because every per-user operator is local to the user's block.
///
/// This is the vectorized path: columns are resolved **once** into
/// [`ChunkCursors`], predicates are specialized against this chunk's
/// dictionaries and ranges ([`CompiledExpr::specialize`]), birth rows are
/// located for a whole morsel at once with
/// [`ChunkScan::find_birth_rows_batch`], and a qualified user's block goes
/// through **range → selection → runs** (see the module docs) over scratch
/// buffers reused across users: no column lookups, no hardware divisions,
/// no allocations and no per-tuple branch.
pub(crate) struct RunProcessor<'a> {
    scan: ChunkScan<'a>,
    cursors: ChunkCursors<'a>,
    rle: &'a UserRle,
    plan: &'a PhysicalPlan,
    ctx: &'a ExecContext,
    time_deltas: &'a cohana_storage::BitPacked,
    time_min: i64,
    /// §4.3 "compile once per chunk": the birth predicate folded against
    /// this chunk's metadata, gid comparisons rewritten to raw chunk codes.
    birth_pred: Option<CompiledExpr>,
    /// The age predicate's `AGE` bounds ([`CompiledExpr::split_age_range`])
    /// as seconds past a user's birth: a tuple is old enough when its time
    /// delta exceeds `birth + age_lo_secs` and young enough when it does not
    /// exceed `birth + age_hi_secs`. `None` where the bound cannot bind in
    /// this chunk (`AGE >= 1`, or an upper bound past the chunk's time
    /// span) and so needs no search.
    age_lo_secs: Option<u64>,
    age_hi_secs: Option<u64>,
    /// What the age predicate tests beyond its bounds, with every scalar
    /// that varies inside a block bound to a slot
    /// ([`CompiledExpr::bind_slots`]), and what each slot holds; `pbufs` are
    /// the slots.
    residual: Option<CompiledExpr>,
    slot_cols: Vec<SlotCol>,
    /// The age selection is empty in this chunk: users still qualify (their
    /// cohort sizes count), but no tuple ever reaches the aggregates.
    age_dead: bool,
    /// The specialized birth predicate proved no user in this chunk can
    /// qualify: callers should not run any morsel.
    pub(crate) skip_chunk: bool,
    acc: Accumulator,
    /// Deduplicated attribute indexes of the value columns the aggregates
    /// read, the per-aggregate slot into them, and their chunk minima.
    vattrs: Vec<usize>,
    agg_vslots: Vec<Option<usize>>,
    vmins: Vec<i64>,
    // Scratch reused across users and morsels: one growth to the largest
    // block, then allocation-free. `tbuf` holds the decoded time deltas of
    // a user's range, `sel` the offsets the residual keeps, `ages` and
    // `vbufs` the selected tuples' ages and raw measure values, `starts`
    // where each age run begins, `cells` the cell each run lands in and
    // `psums` each value column's running total.
    tbuf: Vec<u64>,
    sel: Vec<u32>,
    ages: Vec<u32>,
    starts: Vec<u32>,
    cells: Vec<usize>,
    runs_buf: Vec<UserRun>,
    birth_rows: Vec<Option<usize>>,
    vbufs: Vec<Vec<u64>>,
    psums: Vec<Vec<u64>>,
    pbufs: Vec<Vec<u64>>,
    /// Work counters: tuples whose time delta was unpacked, tuples that
    /// reached the aggregates, and the `(user, age)` runs they formed.
    pub(crate) tuples_decoded: u64,
    pub(crate) tuples_folded: u64,
    pub(crate) runs_folded: u64,
}

impl<'a> RunProcessor<'a> {
    pub(crate) fn new(
        table: &'a TableMeta,
        chunk: &'a Chunk,
        plan: &'a PhysicalPlan,
        ctx: &'a ExecContext,
    ) -> Result<RunProcessor<'a>, EngineError> {
        let scan = ChunkScan::open(table, chunk, ctx.birth_gid)?;
        let cursors = chunk.cursors();
        let birth_pred = ctx.birth_pred.as_ref().map(|p| p.specialize(chunk));
        let skip_chunk = plan.options.skip_unqualified_users
            && birth_pred.as_ref().is_some_and(CompiledExpr::is_const_false);

        // Every age this chunk can produce indexes an accumulator array.
        let (tmin, tmax) = chunk
            .column_required(table.schema().time_idx())
            .int_range()
            .expect("ChunkScan::open checked the time column is an integer segment");
        let span_secs = tmax.saturating_sub(tmin);
        let age_span = ctx.age_bin.age_units(span_secs);
        if age_span > MAX_AGE_UNITS {
            return Err(EngineError::Unsupported(format!(
                "a chunk spans {age_span} age units (limit {MAX_AGE_UNITS}); use a coarser age \
                 granularity"
            )));
        }

        // Age selection: bounds become seconds past birth (`age <= g` iff
        // `secs <= g * unit`), the rest is bound to block-decoded slots.
        let age_pred =
            ctx.age_pred.as_ref().map_or(CompiledExpr::Const(true), |p| p.specialize(chunk));
        let age = age_pred.split_age_range();
        let secs = |g: i64| g.saturating_mul(ctx.age_bin.unit_secs());
        // No tuple of this chunk is `span_secs` past any other.
        let age_dead = age.is_empty() || secs(age.lo - 1) >= span_secs;
        let age_lo_secs = (!age_dead && age.lo > 1).then(|| secs(age.lo - 1) as u64);
        let age_hi_secs = (!age_dead && secs(age.hi) < span_secs).then(|| secs(age.hi) as u64);
        let mut slot_cols = Vec::new();
        let residual = age.residual.map(|r| r.bind_slots(&cursors, &mut slot_cols));

        // Resolve which value columns the aggregates read, deduplicated so
        // two aggregates over the same attribute share one decoded buffer.
        let mut vattrs: Vec<usize> = Vec::new();
        let agg_vslots: Vec<Option<usize>> = ctx
            .agg_attrs
            .iter()
            .map(|attr| {
                attr.map(|idx| {
                    vattrs.iter().position(|v| *v == idx).unwrap_or_else(|| {
                        vattrs.push(idx);
                        vattrs.len() - 1
                    })
                })
            })
            .collect();
        let vmins: Vec<i64> = vattrs.iter().map(|&i| cursors.int_min(i)).collect();

        let time_deltas = scan.time_deltas();
        let time_min = scan.time_min();
        Ok(RunProcessor {
            scan,
            rle: chunk.user_rle(),
            plan,
            ctx,
            time_deltas,
            time_min,
            birth_pred,
            age_lo_secs,
            age_hi_secs,
            residual,
            age_dead,
            skip_chunk,
            acc: Accumulator::new(ctx, plan.options.array_aggregation, &cursors, chunk.num_rows()),
            cursors,
            vbufs: vec![Vec::new(); vattrs.len()],
            psums: vec![Vec::new(); vattrs.len()],
            pbufs: vec![Vec::new(); slot_cols.len()],
            slot_cols,
            vattrs,
            agg_vslots,
            vmins,
            tbuf: Vec::new(),
            sel: Vec::new(),
            ages: Vec::new(),
            starts: Vec::new(),
            cells: Vec::new(),
            runs_buf: Vec::new(),
            birth_rows: Vec::new(),
            tuples_decoded: 0,
            tuples_folded: 0,
            runs_folded: 0,
        })
    }

    /// Run the fused birth-selection / age-selection / aggregation pass over
    /// the user runs `lo..hi` (one morsel), accumulating into this
    /// processor's partial. Correct for any tiling of the chunk's runs
    /// because every per-user operator is local to the user's block.
    pub(crate) fn process_runs(&mut self, lo: usize, hi: usize) {
        self.runs_buf.clear();
        for i in lo..hi {
            self.runs_buf.push(self.rle.run(i));
        }
        // Batch birth search: locate every user's birth row (early-exit
        // word-walking scan per run) before any per-user work.
        self.scan.find_birth_rows_batch(&self.runs_buf, &mut self.birth_rows);

        for j in 0..self.runs_buf.len() {
            let run = self.runs_buf[j];
            let Some(birth_row) = self.birth_rows[j] else {
                continue; // user never performed the birth action
            };
            let birth_ctx = EvalCtx { row: birth_row, birth_row, age_units: 0 };
            let qualified =
                self.birth_pred.as_ref().is_none_or(|p| p.eval(&self.cursors, &birth_ctx));
            if !qualified && self.plan.options.skip_unqualified_users {
                continue; // SkipCurUser(): this user's tuples stay untouched
            }
            let birth_delta = self.time_deltas.get(birth_row);
            if !qualified {
                // Ablation mode: perform the scan work the skip would have
                // avoided, discarding the result. black_box prevents the
                // optimizer from deleting it.
                std::hint::black_box(self.select(run, birth_row, birth_delta));
                continue;
            }

            // Cohort assignment from the birth tuple (Definition 6): intern
            // the key once; everything below addresses the cohort by id.
            // Cohort size counts every qualified user exactly once.
            let birth_time = self.time_min + birth_delta as i64;
            let cohort = self.acc.intern(self.ctx, &self.cursors, birth_row, birth_time);
            self.acc.sizes[cohort] += 1;
            if self.age_dead {
                continue; // no tuple of this user can reach the aggregates
            }
            // A user whose every tuple fails the age selection leaves no
            // trace: no value decode, no accumulator traffic.
            let selected = self.select(run, birth_row, birth_delta);
            if selected > 0 {
                self.fold(cohort, selected);
            }
        }
    }

    /// **Range** and **selection** for one user block. Ages within a block
    /// are non-decreasing (time-ordering), so the age bounds are row
    /// positions found by binary search on the packed time column *before*
    /// anything is decoded, and only that row range is unpacked; the
    /// residual predicate then compacts it to a selection vector. Returns
    /// how many tuples are selected, leaving their ages in `ages[..n]` and
    /// their raw measure values in `vbufs[..][..n]`.
    fn select(&mut self, run: UserRun, birth_row: usize, birth_delta: u64) -> usize {
        let cursors = &self.cursors;
        let bin = self.ctx.age_bin;
        // Tuples at or before the birth row have age <= 0.
        let (mut lo, mut hi) = (birth_row + 1, (run.first + run.count) as usize);
        if let Some(secs) = self.age_hi_secs {
            hi = self.time_deltas.partition_point(lo, hi, |d| d <= birth_delta + secs);
        }
        if let Some(secs) = self.age_lo_secs {
            lo = self.time_deltas.partition_point(lo, hi, |d| d <= birth_delta + secs);
        }
        let deltas = scratch(&mut self.tbuf, hi - lo);
        self.time_deltas.unpack_range(lo, hi, deltas);
        self.tuples_decoded += (hi - lo) as u64;
        // Tuples sharing the birth timestamp but sorting after the birth
        // row have age 0 and head the range.
        let same_time = deltas.iter().take_while(|&&d| d <= birth_delta).count();
        lo += same_time;
        let deltas = &mut deltas[same_time..];
        let mut n = hi - lo;

        if let Some(residual) = &self.residual {
            for (buf, col) in self.pbufs.iter_mut().zip(&self.slot_cols) {
                let buf = scratch(buf, n);
                match *col {
                    SlotCol::Attr(attr) => cursors.unpack(attr, lo, hi, buf),
                    SlotCol::Age => {
                        let ages = scratch(&mut self.ages, n);
                        fill_ages(bin, deltas, birth_delta, ages);
                        buf.iter_mut().zip(ages).for_each(|(b, a)| *b = *a as u64);
                    }
                }
            }
            self.sel.clear();
            self.sel.extend(0..n as u32);
            residual.refine(cursors, birth_row, &self.pbufs, &mut self.sel);
            n = self.sel.len();
            compact(deltas, &self.sel);
        }
        if n == 0 {
            return 0;
        }
        // Ages (and the division behind them) for selected tuples only.
        fill_ages(bin, &deltas[..n], birth_delta, scratch(&mut self.ages, n));
        for (buf, &attr) in self.vbufs.iter_mut().zip(&self.vattrs) {
            let buf = scratch(buf, hi - lo);
            cursors.unpack(attr, lo, hi, buf);
            if n < hi - lo {
                compact(buf, &self.sel);
            }
        }
        n
    }

    /// **Runs**: fold one qualified user's `n` selected tuples. The ages
    /// are non-decreasing, so equal ages are adjacent; each `(user, age)`
    /// run updates its `(cohort, age)` cell once per aggregate
    /// ([`StateCol::fold_runs`]) with sums taken from a prefix sum, and
    /// "distinct users at age g" (§4.5) is one increment per run. Run starts
    /// and prefix sums are found in straight-line passes, so nothing branches
    /// per tuple, and an aggregate's kind is matched once per user.
    fn fold(&mut self, cohort: usize, n: usize) {
        let ages = &self.ages[..n];
        // Every index is stored; the write position advances only past an
        // index whose age differs from its predecessor's.
        let starts = scratch(&mut self.starts, n + 1);
        starts[0] = 0;
        let mut runs = 1;
        for i in 1..n {
            starts[runs] = i as u32;
            runs += (ages[i] != ages[i - 1]) as usize;
        }
        starts[runs] = n as u32;
        for (psum, vbuf) in self.psums.iter_mut().zip(&self.vbufs) {
            let psum = scratch(psum, n + 1);
            psum[0] = 0;
            let mut total = 0u64;
            for (p, &v) in psum[1..].iter_mut().zip(&vbuf[..n]) {
                total = total.wrapping_add(v);
                *p = total;
            }
        }

        // The cohort's block of cells, resolved and grown once per user (to
        // the largest run age — the last one, but a block that breaks time
        // order must not index past it); then each run's cell, and one typed
        // pass over the runs per aggregate.
        let starts = &starts[..=runs];
        let oldest = starts[..runs].iter().fold(0, |oldest, &a| oldest.max(ages[a as usize]));
        let block = self.acc.block(cohort, oldest as usize);
        let cells = scratch(&mut self.cells, runs);
        for (cell, &a) in cells.iter_mut().zip(starts) {
            *cell = block + ages[a as usize] as usize - 1;
            self.acc.present[*cell] = true;
        }
        for (col, vslot) in self.acc.cols.iter_mut().zip(&self.agg_vslots) {
            let values = vslot.map_or_else(RunValues::default, |s| RunValues {
                raw: &self.vbufs[s][..n],
                psum: &self.psums[s][..=n],
                base: self.vmins[s],
            });
            col.fold_runs(cells, starts, &values);
        }
        self.tuples_folded += n as u64;
        self.runs_folded += runs as u64;
    }
}

/// Normalize the ages of one user's tuples into `out`, dispatching once per
/// block so the per-row division inside is by a **compile-time constant**
/// (the optimizer strength-reduces it to a multiply — no hardware division
/// in the loop). Every delta is past `birth_delta` (time order, with the
/// same-timestamp tuples already dropped), so the age is
/// [`TimeBin::age_units`] of a positive `delta - birth_delta`: whole units
/// counted from 1, at most the chunk's age span (which `MAX_AGE_UNITS`
/// bounds). The subtraction saturates so that a block that breaks time
/// order cannot produce an age beyond that span.
fn fill_ages(bin: TimeBin, deltas: &[u64], birth_delta: u64, out: &mut [u32]) {
    use cohana_activity::{SECONDS_PER_DAY, SECONDS_PER_WEEK};
    const DAY: u64 = SECONDS_PER_DAY as u64;
    const WEEK: u64 = SECONDS_PER_WEEK as u64;
    match bin {
        TimeBin::Day => fill_ages_const::<DAY>(deltas, birth_delta, out),
        TimeBin::Week => fill_ages_const::<WEEK>(deltas, birth_delta, out),
        TimeBin::Month => fill_ages_const::<{ 30 * DAY }>(deltas, birth_delta, out),
    }
}

#[inline(always)]
fn fill_ages_const<const UNIT: u64>(deltas: &[u64], birth_delta: u64, out: &mut [u32]) {
    for (slot, &d) in out.iter_mut().zip(deltas) {
        *slot = (d.saturating_sub(birth_delta + 1) / UNIT) as u32 + 1;
    }
}

/// The first `n` slots of a scratch buffer that only ever grows: once it has
/// seen the largest block, taking a slice neither allocates nor clears.
fn scratch<T: Copy + Default>(buf: &mut Vec<T>, n: usize) -> &mut [T] {
    if buf.len() < n {
        buf.resize(n, T::default());
    }
    &mut buf[..n]
}

/// Gather `buf[sel[k]]` into `buf[k]`, in place: `sel` ascends, so
/// `sel[k] >= k` and no element is overwritten before it is read.
fn compact(buf: &mut [u64], sel: &[u32]) {
    for (k, &i) in sel.iter().enumerate() {
        buf[k] = buf[i as usize];
    }
}

/// Marks a chunk code the direct-indexed interner has not seen yet.
const NO_ID: u32 = u32::MAX;

/// The direct-indexed interner of one chunk: every key part is a
/// dictionary attribute and the product of their chunk-dictionary sizes is
/// at most the chunk's row count, so the mixed radix of the birth tuple's
/// chunk codes indexes a LUT of that product — no hashing. `parts` holds
/// each attribute and its dictionary size.
#[derive(Debug)]
struct Lut {
    parts: Vec<(usize, usize)>,
    ids: Vec<u32>,
}

/// The §4.4 array aggregation table, for any cohort key: cohorts are
/// interned to ids in order of first appearance; keys and sizes are flat
/// vectors by id, and each cohort owns a contiguous block of the cell
/// columns — one [`StateCol`] per aggregate and a presence flag — indexed
/// `block + age - 1`. A block is as long as the oldest age its users
/// reached; when a user passes it, it moves to the end of the columns at
/// twice the length (or the new age, if more), so the footprint is
/// `O(cohorts seen × ages seen)` whatever the size of the dictionaries
/// behind the key, and no cohort allocates on its own. A [`RunProcessor`]
/// folds tuples into one, which becomes its chunk's batch; a query's
/// batches fold into another ([`Accumulator::absorb`]).
#[derive(Debug)]
pub(crate) struct Accumulator {
    arity: usize,
    lut: Option<Lut>,
    /// Keys the LUT does not intern (all of them, when there is no LUT),
    /// and the scratch a probed key is assembled in.
    ids: HashMap<Key, u32>,
    key: Key,
    /// Encoded keys by id, `arity` parts each.
    keys: Vec<u64>,
    sizes: Vec<u64>,
    /// Each cohort's block: first cell and ages held.
    blocks: Vec<(usize, usize)>,
    /// Whether a cell received a tuple (the rest of a block is room).
    present: Vec<bool>,
    cols: Vec<StateCol>,
}

impl Accumulator {
    /// A table that interns by hashing only.
    fn hashed(ctx: &ExecContext) -> Accumulator {
        Accumulator {
            arity: ctx.key_parts.len(),
            lut: None,
            ids: HashMap::new(),
            key: Vec::new(),
            keys: Vec::new(),
            sizes: Vec::new(),
            blocks: Vec::new(),
            present: Vec::new(),
            cols: ctx.cols.clone(),
        }
    }

    /// The table of one processor over a chunk of `rows` rows. `direct` is
    /// the §4.4 ablation switch (`array_aggregation`): whether an
    /// all-dictionary key may skip hashing.
    fn new(
        ctx: &ExecContext,
        direct: bool,
        cursors: &ChunkCursors<'_>,
        rows: usize,
    ) -> Accumulator {
        let parts: Option<Vec<(usize, usize)>> = ctx
            .key_parts
            .iter()
            .map(|part| match *part {
                KeyPart::Str(attr) => Some((attr, cursors.lut(attr).len())),
                _ => None,
            })
            .collect();
        let lut = parts.filter(|_| direct).and_then(|parts| {
            let n = parts.iter().try_fold(1usize, |n, &(_, len)| n.checked_mul(len))?;
            (n <= rows).then(|| Lut { parts, ids: vec![NO_ID; n] })
        });
        Accumulator { lut, ..Accumulator::hashed(ctx) }
    }

    /// The id of the cohort the user born at `birth_row` belongs to.
    #[inline]
    fn intern(
        &mut self,
        ctx: &ExecContext,
        cursors: &ChunkCursors<'_>,
        birth_row: usize,
        birth_time: i64,
    ) -> usize {
        if let Some(Lut { parts, ids }) = &mut self.lut {
            let slot = parts
                .iter()
                .fold(0, |slot, &(attr, len)| slot * len + cursors.code(attr, birth_row) as usize);
            if ids[slot] == NO_ID {
                ids[slot] = self.sizes.len() as u32;
                self.keys
                    .extend(parts.iter().map(|&(attr, _)| cursors.gid(attr, birth_row) as u64));
                self.sizes.push(0);
                self.blocks.push((0, 0));
            }
            return ids[slot] as usize;
        }
        let mut key = std::mem::take(&mut self.key);
        key.clear();
        key.extend(ctx.key_parts.iter().map(|part| match part {
            KeyPart::Str(idx) => cursors.gid(*idx, birth_row) as u64,
            KeyPart::Int(idx) => cursors.int(*idx, birth_row) as u64,
            KeyPart::TimeBin(bin) => bin.bin_start(Timestamp(birth_time)).secs() as u64,
        }));
        let id = self.intern_key(&key);
        self.key = key;
        id
    }

    fn key(&self, id: usize) -> &[u64] {
        &self.keys[id * self.arity..(id + 1) * self.arity]
    }

    /// Cohort `id`'s present cells as `(age, cell)`, ages ascending.
    fn cells(&self, id: usize) -> impl Iterator<Item = (i64, usize)> + '_ {
        let (start, len) = self.blocks[id];
        (start..start + len).filter(|&c| self.present[c]).map(move |c| ((c - start) as i64 + 1, c))
    }

    fn intern_key(&mut self, key: &[u64]) -> usize {
        if let Some(&id) = self.ids.get(key) {
            return id as usize;
        }
        self.ids.insert(key.to_vec(), self.sizes.len() as u32);
        self.keys.extend_from_slice(key);
        self.sizes.push(0);
        self.blocks.push((0, 0));
        self.sizes.len() - 1
    }

    /// Fold another table of the same query in (a chunk's): sizes add, and
    /// each of its cohorts' blocks merges into this one's block of that
    /// cohort, cell by cell in one contiguous pass per column — so a merge
    /// costs what `other` holds, not what has been merged so far. Ages are
    /// bounded by the chunk span every processor accepted (`MAX_AGE_UNITS`).
    pub(crate) fn absorb(&mut self, other: &Accumulator) {
        let moves: Vec<(usize, usize, usize)> = (0..other.sizes.len())
            .map(|id| {
                let to = self.intern_key(other.key(id));
                self.sizes[to] += other.sizes[id];
                let (start, len) = other.blocks[id];
                (start, self.block(to, len), len)
            })
            .collect();
        for &(from, to, len) in &moves {
            let present = self.present[to..to + len].iter_mut().zip(&other.present[from..]);
            present.for_each(|(p, &q)| *p |= q);
        }
        for (col, src) in self.cols.iter_mut().zip(&other.cols) {
            col.merge_from(src, Dest::Blocks(&moves));
        }
    }

    /// The first cell of `cohort`'s block, grown to hold ages up to `oldest`.
    #[inline]
    fn block(&mut self, cohort: usize, oldest: usize) -> usize {
        let (start, len) = self.blocks[cohort];
        if oldest <= len {
            return start;
        }
        let (moved, grown) = (self.present.len(), oldest.max(2 * len));
        self.present.extend_from_within(start..start + len);
        self.present.resize(moved + grown, false);
        for col in &mut self.cols {
            col.relocate(start..start + len, moved + grown);
        }
        self.blocks[cohort] = (moved, grown);
        moved
    }

    /// Cohorts with at least one qualified user.
    pub(crate) fn num_cohorts(&self) -> usize {
        self.sizes.len()
    }

    /// `(cohort, age)` cells that received a tuple.
    pub(crate) fn num_cells(&self) -> usize {
        (0..self.sizes.len()).map(|id| self.cells(id).count()).sum()
    }

    /// Qualified users summed over cohorts.
    pub(crate) fn num_users(&self) -> u64 {
        self.sizes.iter().sum()
    }

    /// The flat layout of this table: keys decoded by `decode`, cohorts in
    /// ascending decoded-key order, each with its present cells, every
    /// column gathered once.
    pub(crate) fn sorted(&self, decode: impl Fn(&[u64]) -> Vec<Value>) -> CohortTable {
        let mut keys: Vec<Vec<Value>> =
            (0..self.sizes.len()).map(|id| decode(self.key(id))).collect();
        let mut order: Vec<usize> = (0..keys.len()).collect();
        order.sort_by(|&a, &b| keys[a].cmp(&keys[b]));
        let (mut flat, mut sizes) = (Vec::with_capacity(keys.len() * self.arity), Vec::new());
        let (mut ends, mut ages, mut cells) = (Vec::new(), Vec::new(), Vec::new());
        for id in order {
            flat.append(&mut keys[id]);
            sizes.push(self.sizes[id]);
            for (age, cell) in self.cells(id) {
                ages.push(age);
                cells.push(cell);
            }
            ends.push(ages.len());
        }
        let cols = self.cols.iter().map(|c| c.gather(&cells)).collect();
        CohortTable::from_parts(self.arity, flat, sizes, ends, ages, cols)
    }

    /// Cells currently allocated over all cohorts, times the aggregates.
    #[cfg(test)]
    fn allocated_states(&self) -> usize {
        self.present.len() * self.cols.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::agg::AggFunc;
    use crate::expr::Expr;
    use crate::plan::{plan_query, PlannerOptions};
    use crate::query::CohortQuery;
    use cohana_activity::{Schema, TableBuilder};
    use cohana_storage::{CompressedTable, CompressionOptions};

    #[test]
    fn fill_ages_matches_timebin_age_units() {
        let deltas: Vec<u64> = vec![1, 86_399, 86_400, 86_401, 604_800, 2_591_999, 2_592_001];
        for bin in [TimeBin::Day, TimeBin::Week, TimeBin::Month] {
            for birth_delta in [0u64, 1, 86_400, 700_000] {
                let after: Vec<u64> = deltas.iter().map(|d| d + birth_delta).collect();
                let mut out = vec![u32::MAX; after.len()];
                fill_ages(bin, &after, birth_delta, &mut out);
                for (&age, &d) in out.iter().zip(&deltas) {
                    assert_eq!(age as i64, bin.age_units(d as i64), "{bin:?} {d}s past birth");
                }
            }
        }
        // A delta that breaks time order still lands inside the age span.
        let mut out = [0u32; 2];
        fill_ages(TimeBin::Day, &[5, 10], 10, &mut out);
        assert_eq!(out, [1, 1]);
    }

    /// Run `query` serially over every chunk of `table` and sum the kernel's
    /// work counters: `(tuples decoded, tuples folded, runs folded)`.
    fn kernel_work(table: &CompressedTable, query: &CohortQuery) -> (u64, u64, u64) {
        kernel_run(table, query, PlannerOptions::default()).0
    }

    /// [`kernel_work`] under `options`, with the users the cohorts count:
    /// every qualified user, whether or not a tuple of theirs was folded.
    fn kernel_run(
        table: &CompressedTable,
        query: &CohortQuery,
        options: PlannerOptions,
    ) -> ((u64, u64, u64), u64) {
        let plan = plan_query(query, table.schema(), options).unwrap();
        let ctx = ExecContext::new(table.table_meta(), &plan).unwrap();
        let (mut work, mut users) = ((0, 0, 0), 0);
        for chunk in table.chunks() {
            let mut proc = RunProcessor::new(table.table_meta(), chunk, &plan, &ctx).unwrap();
            if !proc.skip_chunk {
                proc.process_runs(0, chunk.num_users());
            }
            work.0 += proc.tuples_decoded;
            work.1 += proc.tuples_folded;
            work.2 += proc.runs_folded;
            users += proc.acc.num_users();
        }
        (work, users)
    }

    /// The 300-user paper-shaped table the counter tests run on.
    fn paper_activity() -> cohana_activity::ActivityTable {
        cohana_activity::generate(&cohana_activity::GeneratorConfig::new(300))
    }

    fn paper_table(
        activity: &cohana_activity::ActivityTable,
        chunk_size: usize,
    ) -> CompressedTable {
        CompressedTable::build(activity, CompressionOptions::with_chunk_size(chunk_size)).unwrap()
    }

    /// Figure 6 by counts, not by clock: chunking never splits a user, so
    /// Q1–Q4 decode, fold and run over exactly the same tuples whether the
    /// table is dozens of chunks or one. What chunk size may change is the
    /// per-chunk overhead, never the work per tuple.
    #[test]
    fn kernel_work_is_flat_in_chunk_size_figure6() {
        use crate::paper;
        let activity = paper_activity();
        let tables: Vec<CompressedTable> =
            [1 << 10, 1 << 12, 1 << 14, 1 << 20].map(|size| paper_table(&activity, size)).into();
        let chunks: Vec<usize> = tables.iter().map(|t| t.chunks().len()).collect();
        assert!(chunks[0] > 10 && chunks[3] == 1, "chunk counts {chunks:?}");
        for query in [paper::q1(), paper::q2(), paper::q3(), paper::q4()] {
            let work: Vec<_> = tables.iter().map(|t| kernel_work(t, &query)).collect();
            assert!(work[0].2 > 0, "{} folds nothing", query.to_sql());
            assert!(
                work.iter().all(|w| *w == work[0]),
                "{} over {chunks:?} chunks: {work:?}",
                query.to_sql()
            );
        }
    }

    /// Figure 8 by counts, not by clock: with `d1` at the first day and `d2`
    /// swept a day at a time, Q5 and Q6 decode only the tuples of users born
    /// in `[d1, d2]`. That is nothing before the first birth, never less as
    /// `d2` grows, and exactly Q1's and Q3's work once `d2` covers every
    /// birth. The users Q5 counts are the launch-birth CDF, read off the
    /// rows.
    #[test]
    fn birth_bounds_decode_along_the_birth_cdf_figure8() {
        use crate::paper;
        use cohana_activity::{Timestamp, SECONDS_PER_DAY};
        let activity = paper_activity();
        let table = paper_table(&activity, 1 << 12);
        let (tidx, aidx) = (activity.schema().time_idx(), activity.schema().action_idx());
        // Each user's first `action` tuple, straight from the rows.
        let births = |action: &str| -> Vec<i64> {
            let rows = activity.rows();
            activity
                .user_blocks()
                .filter_map(|b| {
                    let mut block = rows[b.start..b.start + b.len].iter();
                    let birth = block.find(|row| row.get(aidx).as_str() == Some(action))?;
                    birth.get(tidx).as_int()
                })
                .collect()
        };
        let (launch, shop) = (births("launch"), births("shop"));
        let first = *launch.iter().chain(&shop).min().unwrap();
        let last = *launch.iter().chain(&shop).max().unwrap();
        let d1 = TimeBin::Day.bin_start(Timestamp(first)).secs();
        let (q1, q3) = (kernel_work(&table, &paper::q1()), kernel_work(&table, &paper::q3()));
        let born_by = |births: &[i64], d2: i64| births.iter().filter(|&&t| t <= d2).count() as u64;

        let mut sweep: Vec<(u64, u64)> = Vec::new();
        for day in 0.. {
            let d2 = d1 + day * SECONDS_PER_DAY;
            let options = PlannerOptions::default();
            let (q5, users) = kernel_run(&table, &paper::q5(d1, d2), options);
            let (q6, _) = kernel_run(&table, &paper::q6(d1, d2), options);
            let (launched, shopped) = (born_by(&launch, d2), born_by(&shop, d2));
            assert_eq!(users, launched, "day {day}: Q5's users against the launch births");
            assert!(launched > 0 || q5.0 == 0, "day {day}: Q5 decodes {} before a birth", q5.0);
            assert!(shopped > 0 || q6.0 == 0, "day {day}: Q6 decodes {} before a birth", q6.0);
            if let Some(&(q5_last, q6_last)) = sweep.last() {
                assert!(q5.0 >= q5_last && q6.0 >= q6_last, "day {day}: {q5:?}, {q6:?}");
            }
            sweep.push((q5.0, q6.0));
            if d2 >= last {
                assert_eq!((q5, q6), (q1, q3), "day {day} covers every birth");
                break;
            }
        }
        // Shown under `--nocapture`: the Figure 8 curve in tuples.
        println!("Q5/Q6 decode by day of d2: {sweep:?}, Q1/Q3 {} / {}", q1.0, q3.0);
        assert_eq!(sweep[0], (0, 0), "d2 = d1 is before the first birth");
        assert!(sweep.len() > 10, "births spread over {} days", sweep.len());
    }

    /// Ablation D2 (`SkipCurUser`, §4.3): with the skip off, Q4 decodes the
    /// tuples of every user its birth selection rejects and throws them
    /// away, so it decodes strictly more for the same answer.
    #[test]
    fn skipping_unqualified_users_decodes_less_for_the_same_answer() {
        use crate::paper;
        use crate::session::Statement;
        let table = Arc::new(paper_table(&paper_activity(), 1 << 12));
        let q4 = paper::q4();
        let skip = PlannerOptions::default();
        let no_skip = PlannerOptions { skip_unqualified_users: false, ..skip };
        let ((skipped, ..), users) = kernel_run(&table, &q4, skip);
        let ((scanned, ..), no_skip_users) = kernel_run(&table, &q4, no_skip);
        assert!(users > 0 && users == no_skip_users, "{users} vs {no_skip_users} users");
        assert!(skipped < scanned, "Q4 decodes {skipped} with the skip, {scanned} without");
        let answer = |options| Statement::over(table.clone(), &q4, options, 1)?.execute();
        assert_eq!(answer(skip).unwrap().rows, answer(no_skip).unwrap().rows);
    }

    /// Figure 9 by counts, not by clock: the tuples an `AGE < g` query
    /// decodes grow with `g` and stay below what the unbounded query
    /// decodes, because the bound is a row range found before decoding.
    #[test]
    fn age_bounds_decode_in_proportion_to_the_ages_selected() {
        use crate::paper;
        let table = paper_table(&paper_activity(), 1 << 12);
        type Sweep = fn(i64) -> CohortQuery;
        for (name, bounded, unbounded) in
            [("Q7/Q1", paper::q7 as Sweep, paper::q1()), ("Q8/Q3", paper::q8 as Sweep, paper::q3())]
        {
            let (full_decoded, full_folded, full_runs) = kernel_work(&table, &unbounded);
            assert!(full_runs > 0 && full_runs <= full_folded && full_folded <= full_decoded);
            let mut last = 0;
            let mut sweep = Vec::new();
            for g in 1..=14 {
                let (decoded, folded, runs) = kernel_work(&table, &bounded(g));
                sweep.push(decoded);
                assert!(decoded >= last, "{name}: g = {g} decodes {decoded} after {last}");
                assert!(runs <= folded && folded <= decoded && decoded < full_decoded);
                if g <= 5 {
                    assert!(
                        2 * decoded < full_decoded,
                        "{name}: AGE < {g} decodes {decoded} of the unbounded {full_decoded}"
                    );
                }
                last = decoded;
            }
            // Shown under `--nocapture`: the Figure 9 curve in tuples.
            println!("{name}: AGE < 1..=14 decodes {sweep:?}, unbounded {full_decoded}");
            // `AGE < 1` selects nothing and decodes nothing.
            assert_eq!(kernel_work(&table, &bounded(1)), (0, 0, 0), "{name}");
            assert!(last > 0, "{name}: AGE < 14 selects tuples");
        }
        // SkipCurUser: Q2 and Q4 decode no tuple of an unqualified user —
        // at most those of the users their birth selections keep.
        let (q1_decoded, ..) = kernel_work(&table, &paper::q1());
        let (q2_decoded, ..) = kernel_work(&table, &paper::q2());
        let (q3_decoded, ..) = kernel_work(&table, &paper::q3());
        let (q4_decoded, ..) = kernel_work(&table, &paper::q4());
        assert!(0 < q2_decoded && q2_decoded < q1_decoded, "Q2 {q2_decoded} vs Q1 {q1_decoded}");
        assert!(q4_decoded < q3_decoded, "Q4 {q4_decoded} vs Q3 {q3_decoded}");
    }

    /// Any morsel tiling of a chunk folds to the same partial: one processor
    /// driven over `morsel_run_ranges(n)` — tiles of 16 rows (most of a
    /// skewed table's chunks split, so later tiles start past run 0), 256
    /// rows, and one tile — reports exactly what one `(0, users)` pass
    /// does, on every chunk of the skewed table and for Q1–Q8.
    #[test]
    fn every_morsel_tiling_folds_like_one_pass() {
        use crate::paper;
        let cfg = cohana_activity::GeneratorConfig::skewed(60);
        let activity = cohana_activity::generate(&cfg);
        let table = Arc::new(
            CompressedTable::build(&activity, CompressionOptions::with_chunk_size(256)).unwrap(),
        );
        let (d1, d2) = (cfg.start.secs(), cfg.start.secs() + 7 * 86_400);
        let queries = [
            paper::q1(),
            paper::q2(),
            paper::q3(),
            paper::q4(),
            paper::q5(d1, d2),
            paper::q6(d1, d2),
            paper::q7(7),
            paper::q8(7),
        ];
        let mut split = 0;
        for query in &queries {
            let plan = plan_query(query, table.schema(), PlannerOptions::default()).unwrap();
            let core = QueryCore::new(table.clone(), Arc::new(plan)).unwrap();
            for chunk in table.chunks() {
                let fold = |ranges: &[(usize, usize)]| {
                    let meta = table.table_meta();
                    let mut proc = RunProcessor::new(meta, chunk, &core.plan, &core.ctx).unwrap();
                    if !proc.skip_chunk {
                        ranges.iter().for_each(|&(lo, hi)| proc.process_runs(lo, hi));
                    }
                    core.build_report(proc.acc)
                };
                let whole = fold(&[(0, chunk.num_users())]);
                for rows in [16, 256, usize::MAX] {
                    let tiles = chunk.morsel_run_ranges(rows);
                    split += (tiles.len() > 1) as usize;
                    assert_eq!(fold(&tiles), whole, "{} in {rows}-row tiles", query.to_sql());
                }
            }
        }
        assert!(split > 0, "some chunk must split into several tiles");
    }

    /// A user block whose time column is not sorted (a file damaged where
    /// no range check sees it) may answer anything, but the kernel must
    /// stay inside its arrays: the oldest age is then not the last one.
    #[test]
    fn a_block_that_breaks_time_order_stays_in_bounds() {
        use cohana_storage::ChunkColumn;
        let table = wide_dictionary_table(5);
        let chunk = &table.chunks()[0];
        let time_idx = table.schema().time_idx();
        // Each user's six tuples (days 0..=5) now run 0, 5, 1, 4, 2, 3.
        let times: Vec<i64> = (0..chunk.num_rows())
            .map(|row| (row / 6 * 6 + [0, 5, 1, 4, 2, 3][row % 6]) as i64 * 86_400 + 60)
            .collect();
        let mut columns = chunk.columns().to_vec();
        columns[time_idx] = Some(Arc::new(ChunkColumn::from_ints(&times)));
        let broken = Chunk::from_shared(chunk.shared_rle().clone(), columns).unwrap();
        for age in [None, Some(Expr::age().between_int(2, 4))] {
            let mut query = CohortQuery::builder("launch").cohort_by(["country"]);
            if let Some(age) = age {
                query = query.age_where(age);
            }
            let query = query
                .aggregate(AggFunc::sum("gold"))
                .aggregate(AggFunc::user_count())
                .build()
                .unwrap();
            let plan = plan_query(&query, table.schema(), PlannerOptions::default()).unwrap();
            let ctx = ExecContext::new(table.table_meta(), &plan).unwrap();
            let mut proc = RunProcessor::new(table.table_meta(), &broken, &plan, &ctx).unwrap();
            proc.process_runs(0, broken.num_users());
            assert!(proc.tuples_folded <= proc.tuples_decoded);
            assert_eq!(proc.acc.num_users(), 3);
        }
    }

    /// Three users in three countries, three cities and three roles, active
    /// for `days` days each, in chunk 0 of a table whose country dictionary
    /// has 100 003 entries: a fourth user, ingested after them into chunks
    /// of their own, visits 100 000 more countries.
    fn wide_dictionary_table(days: i64) -> CompressedTable {
        let mut b = TableBuilder::new(Schema::game_actions());
        for (user, country, city, role) in [
            ("u1", "Chile", "Arica", "dwarf"),
            ("u2", "Ghana", "Accra", "mage"),
            ("u3", "Nepal", "Patan", "thief"),
        ] {
            for day in 0..=days {
                let action = if day == 0 { "launch" } else { "shop" };
                let row: [Value; 8] = [
                    user.into(),
                    (day * 86_400 + 60).into(),
                    action.into(),
                    country.into(),
                    city.into(),
                    role.into(),
                    1.into(),
                    (10 * day).into(),
                ];
                b.push(row.to_vec()).unwrap();
            }
        }
        let table = b.finish().unwrap();
        let mut filler = TableBuilder::new(Schema::game_actions());
        for i in 0..100_000i64 {
            let row: [Value; 8] = [
                "u4".into(),
                (i + 60).into(),
                "shop".into(),
                format!("country-{i:06}").into(),
                "Arica".into(),
                "dwarf".into(),
                1.into(),
                0.into(),
            ];
            filler.push(row.to_vec()).unwrap();
        }
        let options = CompressionOptions::with_chunk_size(1 << 16);
        let three = CompressedTable::build(&table, options).unwrap();
        let (wide, _) = three.ingest(&filler.finish().unwrap()).unwrap();
        let country_idx = table.schema().index_of("country").unwrap();
        assert_eq!(wide.global_dict(country_idx).unwrap().len(), 100_003);
        assert_eq!(wide.chunks()[0].num_users(), 3);
        wide
    }

    /// Aggregate the three users of [`wide_dictionary_table`] by `key` and
    /// check the accumulator holds 3 cohorts × `days` ages × 2 aggregates —
    /// not 100 003 × `days` × 2. Returns whether the key was interned
    /// through the direct-indexed LUT.
    fn footprint_within_cohorts_seen(key: &[&str], array_aggregation: bool) -> bool {
        let days = 5;
        let table = wide_dictionary_table(days);
        let query = CohortQuery::builder("launch")
            .cohort_by(key.iter().copied())
            .aggregate(AggFunc::sum("gold"))
            .aggregate(AggFunc::user_count())
            .build()
            .unwrap();
        let options = PlannerOptions { array_aggregation, ..PlannerOptions::default() };
        let plan = plan_query(&query, table.schema(), options).unwrap();
        let ctx = ExecContext::new(table.table_meta(), &plan).unwrap();
        let chunk = &table.chunks()[0];
        let mut proc = RunProcessor::new(table.table_meta(), chunk, &plan, &ctx).unwrap();
        proc.process_runs(0, chunk.num_users());
        let direct = proc.acc.lut.is_some();
        let bound = 3 * days as usize * 2;
        assert!(
            proc.acc.allocated_states() <= bound,
            "{key:?}: {} states allocated for 3 cohorts of {days} ages (bound {bound})",
            proc.acc.allocated_states()
        );
        assert_eq!((proc.acc.num_cohorts(), proc.acc.num_cells()), (3, 3 * days as usize));
        assert_eq!(proc.acc.num_users(), 3);
        direct
    }

    #[test]
    fn accumulator_footprint_follows_cohorts_seen_not_dictionary_size() {
        // Chunk dictionaries of 3 and 3 × 3 entries against 18 rows.
        for key in [&["country"][..], &["country", "city"]] {
            assert!(footprint_within_cohorts_seen(key, true), "{key:?} takes the LUT");
            assert!(!footprint_within_cohorts_seen(key, false), "the ablation hashes {key:?}");
        }
    }

    /// The fallback twin: 3 × 3 × 3 = 27 key combinations could occur in a
    /// chunk of 18 rows, so the key is hashed, within the same bound.
    #[test]
    fn composite_key_past_the_row_count_falls_back_to_hashing() {
        assert!(!footprint_within_cohorts_seen(&["country", "city", "role"], true));
    }
}
