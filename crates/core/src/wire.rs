//! Wire-format result batches: the network-portable form of a
//! [`ResultBatch`](crate::ResultBatch).
//!
//! A [`ResultBatch`](crate::ResultBatch) holds cohort keys in their *encoded* form (global ids,
//! bit-cast integers, binned timestamps) plus the executor context needed to
//! decode them — none of which survives a process boundary. A [`WireBatch`]
//! is the same partial aggregation with every cohort key decoded to
//! [`Value`]s, so a remote client can merge batches without the table's
//! dictionaries. Convert one chunk's batch with
//! [`Statement::wire_batch`](crate::Statement::wire_batch), or a whole
//! execution's merged batches — what the server sends — with
//! [`BatchMerger::wire_batch`](crate::BatchMerger::wire_batch); merge
//! client-side with [`ReportAssembler`], whose [`finish`](ReportAssembler::finish)
//! reproduces the engine's report bit-for-bit (same row order, same
//! cohort-size semantics), because aggregate partials are additive across
//! chunks and key decoding is injective.
//!
//! A batch keeps the executor's cohort-interned layout: each cohort is stated
//! once (key, size), followed by its cells as columns — ascending ages, then
//! one column per aggregate. `docs/PROTOCOL.md` has the byte layout. Two
//! properties the rest of the system leans on:
//!
//! * **self-contained** — a batch names its own strings and cohorts, so any
//!   subset of a query's batches, in any order, still merges (cancellation,
//!   early drop and concurrent readers depend on it), and so does any run of
//!   one batch's cohorts encoded on its own
//!   ([`WireBatch::encode_cohorts_into`], how a result too large for one
//!   frame is split);
//! * **deterministic** — cohorts are in ascending key order and ages ascend,
//!   so the encoded bytes are a function of the batch.
//!
//! Every payload is parsed through the storage layer's [`Reader`], and the
//! `cohana-server` protocol's fixed-width payloads are written through its
//! twin, [`Writer`]. Decode failures surface as [`EngineError::Corrupt`] so
//! a malformed payload can never panic a reader, and every count is checked
//! against the bytes that remain before anything is allocated for it.

use crate::agg::{AggState, Kind, StateCol};
use crate::cells::{self, CohortTable};
use crate::error::EngineError;
use crate::report::CohortReport;
use crate::stats::QueryStats;
use cohana_activity::Value;
use cohana_storage::{Reader, Writer};
use std::collections::HashMap;
use std::ops::Range;
use std::sync::Arc;
use std::time::Duration;

/// A partial result with decoded cohort keys, of one chunk or of several
/// merged — the server sends an execution's merged batches as one BATCH
/// frame (or as several, each a run of its cohorts, past the frame limit).
///
/// Like [`ResultBatch`](crate::ResultBatch), a `WireBatch` is *partial*: the
/// same `(cohort, age)` cell may appear in many batches and their
/// contributions add. Within one batch every cohort appears once, in
/// ascending key order, and its ages ascend; read them with
/// [`cohorts`](Self::cohorts).
#[derive(Debug, Clone, PartialEq)]
pub struct WireBatch {
    chunk_index: u64,
    rows_scanned: u64,
    morsels: u64,
    /// The cohorts, in ascending key order, with their cells.
    table: CohortTable,
}

/// One cohort of a [`WireBatch`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WireCohort<'a> {
    /// The decoded cohort key, one value per cohort attribute.
    pub key: &'a [Value],
    /// Qualified users of this cohort in the batch's chunk.
    pub size: u64,
    /// Ages the cohort has cells at, strictly ascending.
    pub ages: &'a [i64],
    cols: &'a [StateCol],
    first: usize,
}

impl WireCohort<'_> {
    /// The partial state of aggregate `agg` at the cohort's `cell`-th age
    /// (`cell < ages.len()`).
    pub fn state(&self, cell: usize, agg: usize) -> AggState {
        assert!(cell < self.ages.len(), "cell {cell} of {}", self.ages.len());
        self.cols[agg].get(self.first + cell)
    }
}

impl WireBatch {
    /// A batch of `[chunk_index, rows_scanned, morsels]` and a table whose
    /// cohorts are in ascending key order.
    pub(crate) fn new(
        [chunk_index, rows_scanned, morsels]: [u64; 3],
        table: CohortTable,
    ) -> WireBatch {
        debug_assert!((1..table.num_cohorts()).all(|i| table.cohort(i - 1).0 < table.cohort(i).0));
        WireBatch { chunk_index, rows_scanned, morsels, table }
    }

    /// Index of the source chunk that produced this batch; for a batch of
    /// several chunks merged, the lowest of their indexes.
    pub fn chunk_index(&self) -> u64 {
        self.chunk_index
    }

    /// Rows of the source chunks the scan covered.
    pub fn rows_scanned(&self) -> u64 {
        self.rows_scanned
    }

    /// User-block morsels executed to produce this batch.
    pub fn morsels(&self) -> u64 {
        self.morsels
    }

    /// Cohorts with at least one qualified user in the batch's chunks.
    pub fn num_cohorts(&self) -> usize {
        self.table.num_cohorts()
    }

    /// `(cohort, age)` cells the batch's chunks contributed to.
    pub fn num_cells(&self) -> usize {
        self.table.num_cells()
    }

    /// The batch's cohorts in ascending key order.
    pub fn cohorts(&self) -> impl Iterator<Item = WireCohort<'_>> {
        (0..self.num_cohorts()).map(|i| self.cohort(i))
    }

    fn cohort(&self, i: usize) -> WireCohort<'_> {
        let t = &self.table;
        let (key, size, cells) = t.cohort(i);
        WireCohort { key, size, ages: &t.ages()[cells.clone()], cols: t.cols(), first: cells.start }
    }

    /// Serialize into the binary wire form.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::new();
        self.encode_into(&mut out);
        out
    }

    /// Append the binary wire form to `out` (a server reuses one buffer per
    /// connection, with the frame header in front).
    pub fn encode_into(&self, out: &mut Vec<u8>) {
        self.encode_cohorts_into(0..self.num_cohorts(), out);
    }

    /// Append the wire form of the batch made of the `cohorts` run of this
    /// one (cohort indexes in key order, `cohorts.end <= num_cohorts()`):
    /// its own string table, those cohorts and their cells. A run starting
    /// at the first cohort states this batch's `rows_scanned` and `morsels`,
    /// any other run states 0 for both, so over the runs of a split the
    /// counts still add up to the batch's. The whole range encodes exactly
    /// as [`encode_into`](Self::encode_into).
    pub fn encode_cohorts_into(&self, cohorts: Range<usize>, out: &mut Vec<u8>) {
        assert!(cohorts.end <= self.num_cohorts(), "cohorts {cohorts:?} of {}", self.num_cohorts());
        let counts = if cohorts.start == 0 { [self.rows_scanned, self.morsels] } else { [0, 0] };
        for v in [self.chunk_index, counts[0], counts[1]] {
            put_varint(out, v);
        }
        let cols = self.table.cols();
        put_varint(out, self.table.arity() as u64);
        put_varint(out, cols.len() as u64);
        out.extend(cols.iter().map(|c| c.kind() as u8));
        let run = || cohorts.clone().map(|i| self.cohort(i));

        // String table: each distinct string once, in order of first use.
        let mut table: HashMap<&str, u64> = HashMap::new();
        let mut strings: Vec<&str> = Vec::new();
        let mut refs: Vec<u64> = Vec::new();
        let keys = run().flat_map(|c| c.key);
        for s in keys.filter_map(Value::as_str) {
            refs.push(*table.entry(s).or_insert_with(|| {
                strings.push(s);
                strings.len() as u64 - 1
            }));
        }
        put_varint(out, strings.len() as u64);
        for s in strings {
            put_varint(out, s.len() as u64);
            out.extend_from_slice(s.as_bytes());
        }

        // Cohort table: key value refs + size.
        put_varint(out, cohorts.len() as u64);
        let mut refs = refs.into_iter();
        for cohort in run() {
            for v in cohort.key {
                match v {
                    Value::Null => out.push(VALUE_NULL),
                    Value::Int(i) => {
                        out.push(VALUE_INT);
                        put_varint(out, zigzag(*i));
                    }
                    Value::Str(_) => {
                        out.push(VALUE_STR);
                        put_varint(out, refs.next().expect("one ref per string value"));
                    }
                }
            }
            put_varint(out, cohort.size);
        }

        // Cells, cohort by cohort: age deltas, then one column per aggregate.
        for cohort in run() {
            put_varint(out, cohort.ages.len() as u64);
            let mut prev = 0;
            for &age in cohort.ages {
                put_varint(out, (age - prev) as u64);
                prev = age;
            }
            for col in cols {
                put_cells(out, col, cohort.first..cohort.first + cohort.ages.len());
            }
        }
    }

    /// Deserialize from the binary wire form.
    pub fn decode(bytes: &[u8]) -> Result<WireBatch, EngineError> {
        let mut r = Reader::new(bytes);
        let chunk_index = r.varint()?;
        let rows_scanned = r.varint()?;
        let morsels = r.varint()?;
        let arity = r.varint_count(1)?;
        let n_aggs = r.varint_count(1)?;
        let mut cols = r
            .take(n_aggs)?
            .iter()
            .map(|&t| Kind::from_tag(t).map(StateCol::new))
            .collect::<Option<Vec<_>>>()
            .ok_or_else(|| corrupt("unknown aggregate-state tag"))?;
        if arity == 0 || cols.is_empty() {
            return Err(corrupt("batch without cohort attributes or aggregates"));
        }

        let n_strings = r.varint_count(1)?;
        let mut strings: Vec<Arc<str>> = Vec::with_capacity(n_strings);
        for _ in 0..n_strings {
            let len = r.varint_count(1)?;
            let s = std::str::from_utf8(r.take(len)?)
                .map_err(|_| corrupt("invalid UTF-8 in wire string"))?;
            strings.push(Arc::from(s));
        }

        // A cohort is at least its value kinds, its size and its cell count.
        let n_cohorts = r.varint_count(arity + 2)?;
        let mut keys: Vec<Value> = Vec::with_capacity(n_cohorts * arity);
        let mut sizes = Vec::with_capacity(n_cohorts);
        for i in 0..n_cohorts {
            for _ in 0..arity {
                keys.push(match r.u8()? {
                    VALUE_NULL => Value::Null,
                    VALUE_INT => Value::Int(r.zigzag()?),
                    VALUE_STR => {
                        let idx = r.varint()?;
                        let s = usize::try_from(idx).ok().and_then(|i| strings.get(i));
                        Value::Str(s.ok_or_else(|| corrupt("string ref out of range"))?.clone())
                    }
                    t => return Err(corrupt(format!("unknown value kind {t}"))),
                });
            }
            if i > 0 && keys[(i - 1) * arity..i * arity] >= keys[i * arity..] {
                return Err(corrupt("cohort keys must ascend, each stated once"));
            }
            sizes.push(r.varint()?);
        }

        let mut cell_ends = Vec::with_capacity(n_cohorts);
        let mut ages: Vec<i64> = Vec::new();
        for _ in 0..n_cohorts {
            // A cell is at least its age delta and one byte per state.
            let n_cells = r.varint_count(1 + cols.len())?;
            let mut age = 0i64;
            for _ in 0..n_cells {
                let delta = r.varint()?;
                age = i64::try_from(delta)
                    .ok()
                    .filter(|&d| d >= 1)
                    .and_then(|d| age.checked_add(d))
                    .ok_or_else(|| corrupt("ages of a cohort must ascend from 1"))?;
                ages.push(age);
            }
            for col in &mut cols {
                for _ in 0..n_cells {
                    col.push(r.state(col.kind())?);
                }
            }
            cell_ends.push(ages.len());
        }
        r.finish()?;
        let table = CohortTable::from_parts(arity, keys, sizes, cell_ends, ages, cols);
        Ok(WireBatch { chunk_index, rows_scanned, morsels, table })
    }
}

/// Client-side merge of [`WireBatch`]es back into a [`CohortReport`].
///
/// Feed it every batch of one execution, then [`finish`](Self::finish): the
/// result equals what [`Statement::execute`](crate::Statement::execute)
/// returns in-process (compared with `CohortReport`'s stats-ignoring
/// equality). Cohort keys sort by their decoded [`Value`]s, which matches
/// the engine's row order; a cohort with a size but no qualifying cells
/// contributes no rows, and a cell whose cohort never reported a size (never
/// happens in engine-produced batches) gets size 0 — both exactly as the
/// engine's own report builder behaves, because it is the same code.
#[derive(Debug)]
pub struct ReportAssembler {
    cohort_attrs: Vec<String>,
    agg_names: Vec<String>,
    merged: CohortTable,
}

impl ReportAssembler {
    /// Start assembling a report with the given headers (from the PREPARE
    /// response, or [`CohortQuery`](crate::CohortQuery) directly).
    pub fn new(cohort_attrs: Vec<String>, agg_names: Vec<String>) -> ReportAssembler {
        ReportAssembler { cohort_attrs, agg_names, merged: CohortTable::default() }
    }

    /// Fold one batch in: one probe per cohort of the batch, then sizes add
    /// and the cohort's cells merge age by age (commutative, so batch
    /// arrival order does not matter). A batch whose key or aggregates do not
    /// match the ones before it, or that would carry a cohort's size past
    /// `u64::MAX`, is refused as [`EngineError::Corrupt`] and leaves the
    /// assembler as it was.
    pub fn push(&mut self, batch: &WireBatch) -> Result<(), EngineError> {
        self.merged.absorb(&batch.table)
    }

    /// Finalize into the report, sorted by (cohort, age). Carries no stats
    /// (the server reports those separately in its STATS frame).
    pub fn finish(self) -> CohortReport {
        let t = &self.merged;
        let cohorts = (0..t.num_cohorts())
            .map(|i| {
                let (key, size, _) = t.cohort(i);
                (key.to_vec(), size, i)
            })
            .collect();
        let cells = |i| t.cohort(i).2.map(|c| (t.ages()[c], c));
        cells::build_report(self.cohort_attrs, self.agg_names, cohorts, t.cols(), cells)
    }
}

/// Serialize a [`QueryStats`] (for STATS frame payloads).
pub fn encode_query_stats(w: &mut Vec<u8>, s: &QueryStats) {
    w.u64(s.chunks_total as u64);
    w.u64(s.chunks_pruned as u64);
    w.u64(s.chunks_scanned as u64);
    w.u64(s.rows_scanned);
    w.u64(s.chunks_decoded as u64);
    w.u64(s.columns_decoded as u64);
    w.u64(s.bytes_read);
    w.u64(s.bytes_decompressed);
    w.u64(s.cache_evictions);
    w.u64(s.batches as u64);
    w.u64(s.morsels_executed);
    w.u64(s.worker_busy_ns);
    w.u64(s.wall_time.as_nanos() as u64);
}

/// Deserialize a [`QueryStats`] written by [`encode_query_stats`].
pub fn decode_query_stats(r: &mut Reader<'_>) -> Result<QueryStats, EngineError> {
    Ok(QueryStats {
        chunks_total: r.u64()? as usize,
        chunks_pruned: r.u64()? as usize,
        chunks_scanned: r.u64()? as usize,
        rows_scanned: r.u64()?,
        chunks_decoded: r.u64()? as usize,
        columns_decoded: r.u64()? as usize,
        bytes_read: r.u64()?,
        bytes_decompressed: r.u64()?,
        cache_evictions: r.u64()?,
        batches: r.u64()? as usize,
        morsels_executed: r.u64()?,
        worker_busy_ns: r.u64()?,
        wall_time: Duration::from_nanos(r.u64()?),
    })
}

// Value kinds of a cohort-table entry.
const VALUE_NULL: u8 = 0;
const VALUE_INT: u8 = 1;
const VALUE_STR: u8 = 2;

fn corrupt(msg: impl Into<String>) -> EngineError {
    EngineError::Corrupt(msg.into())
}

/// Zig-zag map a signed integer so small magnitudes encode short.
fn zigzag(v: i64) -> u64 {
    ((v << 1) ^ (v >> 63)) as u64
}

/// Append an unsigned LEB128 varint (1–10 bytes).
fn put_varint(out: &mut Vec<u8>, mut v: u64) {
    while v >= 0x80 {
        out.push(v as u8 | 0x80);
        v >>= 7;
    }
    out.push(v as u8);
}

/// Append the payload of `col`'s `cells`; the column's kind is in the
/// batch header.
fn put_cells(out: &mut Vec<u8>, col: &StateCol, cells: Range<usize>) {
    let (vals, counts) = col.parts();
    match col.kind() {
        Kind::Sum => cells.for_each(|c| put_varint(out, zigzag(vals[c]))),
        Kind::Avg => cells.for_each(|c| {
            put_varint(out, zigzag(vals[c]));
            put_varint(out, counts[c]);
        }),
        Kind::Min | Kind::Max => cells.for_each(|c| {
            out.push(counts[c] as u8);
            if counts[c] != 0 {
                put_varint(out, zigzag(vals[c]));
            }
        }),
        Kind::Count | Kind::UserCount => cells.for_each(|c| put_varint(out, counts[c])),
    }
}

/// The wire-specific reads, on top of the storage layer's [`Reader`] (whose
/// errors become [`EngineError::Corrupt`] through `?`): LEB128 varints,
/// zig-zag integers, varint element counts and aggregate states.
trait WireRead {
    fn varint(&mut self) -> Result<u64, EngineError>;
    fn zigzag(&mut self) -> Result<i64, EngineError>;
    fn varint_count(&mut self, min_elem_bytes: usize) -> Result<usize, EngineError>;
    fn state(&mut self, kind: Kind) -> Result<AggState, EngineError>;
}

impl WireRead for Reader<'_> {
    /// Read an unsigned LEB128 varint: at most 10 bytes, no bits beyond 64.
    fn varint(&mut self) -> Result<u64, EngineError> {
        let mut v = 0u64;
        for (i, &b) in self.rest().iter().take(10).enumerate() {
            if i == 9 && b > 1 {
                return Err(corrupt("varint wider than 64 bits"));
            }
            v |= u64::from(b & 0x7f) << (7 * i);
            if b < 0x80 {
                self.take(i + 1)?;
                return Ok(v);
            }
        }
        Err(corrupt("varint truncated or longer than 10 bytes"))
    }

    /// Read a zig-zag varint.
    fn zigzag(&mut self) -> Result<i64, EngineError> {
        let v = self.varint()?;
        Ok((v >> 1) as i64 ^ -((v & 1) as i64))
    }

    /// Read a varint element count, refusing one the remaining bytes cannot
    /// hold at `min_elem_bytes` each — so a caller may allocate for it.
    fn varint_count(&mut self, min_elem_bytes: usize) -> Result<usize, EngineError> {
        let n = self.varint()?;
        Ok(self.count(n, min_elem_bytes)?)
    }

    /// Read the payload of one aggregate state of `kind`.
    fn state(&mut self, kind: Kind) -> Result<AggState, EngineError> {
        let opt = |r: &mut Self| match r.u8()? {
            0 => Ok(None),
            1 => r.zigzag().map(Some),
            t => Err(corrupt(format!("unknown option tag {t}"))),
        };
        Ok(match kind {
            Kind::Sum => AggState::Sum(self.zigzag()?),
            Kind::Avg => AggState::Avg { sum: self.zigzag()?, count: self.varint()? },
            Kind::Min => AggState::Min(opt(self)?),
            Kind::Max => AggState::Max(opt(self)?),
            Kind::Count => AggState::Count(self.varint()?),
            Kind::UserCount => AggState::UserCount(self.varint()?),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::agg::AggValue;

    const KINDS: [Kind; 6] =
        [Kind::Sum, Kind::Avg, Kind::Min, Kind::Max, Kind::Count, Kind::UserCount];

    /// A cell with one state of every kind, derived from `v`.
    fn cell(v: i64) -> [AggState; 6] {
        [
            AggState::Sum(v),
            AggState::Avg { sum: v.wrapping_neg(), count: v.unsigned_abs() },
            AggState::Min(Some(v)),
            AggState::Max(None),
            AggState::Count(v.unsigned_abs() + 1),
            AggState::UserCount(1),
        ]
    }

    use crate::cells::tests::{table, Cohort};

    fn cohort(key: Vec<Value>, size: u64, cells: &[(i64, i64)]) -> Cohort {
        (key, size, cells.iter().map(|&(age, v)| (age, cell(v).to_vec())).collect())
    }

    fn sample_cohorts() -> Vec<Cohort> {
        vec![
            cohort(vec![Value::str("China"), Value::Int(-4)], 5, &[(1, 52), (2, -7), (40, 0)]),
            cohort(vec![Value::str("Australia"), Value::Null], 3, &[(7, i64::MIN)]),
            cohort(vec![Value::str("Australia"), Value::Int(i64::MAX)], 1, &[]),
        ]
    }

    /// A batch of `cohorts` in any order, each cell one state per kind.
    fn batch_of(chunk: u64, kinds: &[Kind], cohorts: &[Cohort]) -> WireBatch {
        let mut cohorts = cohorts.to_vec();
        cohorts.sort_by(|a, b| a.0.cmp(&b.0));
        let arity = cohorts.first().map_or(1, |c| c.0.len());
        WireBatch::new([chunk, 1000, 7], table(arity, kinds, &cohorts))
    }

    #[test]
    fn batch_codec_roundtrips_and_orders_cohorts() {
        let batch = batch_of(3, &KINDS, &sample_cohorts());
        let bytes = batch.encode();
        assert_eq!(WireBatch::decode(&bytes).unwrap(), batch);
        assert_eq!((batch.chunk_index(), batch.rows_scanned(), batch.morsels()), (3, 1000, 7));
        assert_eq!((batch.num_cohorts(), batch.num_cells()), (3, 4));
        let cohorts: Vec<WireCohort<'_>> = batch.cohorts().collect();
        assert!(cohorts.windows(2).all(|w| w[0].key < w[1].key));
        assert_eq!(cohorts[2].key, [Value::str("China"), Value::Int(-4)]);
        assert_eq!((cohorts[2].size, cohorts[2].ages), (5, &[1i64, 2, 40][..]));
        assert_eq!((0..6).map(|a| cohorts[2].state(1, a)).collect::<Vec<_>>(), cell(-7));
        assert!(cohorts[0].ages.is_empty());
    }

    #[test]
    fn a_run_of_cohorts_encodes_as_a_batch_of_its_own() {
        let batch = batch_of(3, &KINDS, &sample_cohorts());
        let mut whole = Vec::new();
        batch.encode_cohorts_into(0..3, &mut whole);
        assert_eq!(whole, batch.encode());
        let flat = |c: WireCohort<'_>| {
            let states: Vec<AggState> =
                (0..c.ages.len()).flat_map(|cell| (0..6).map(move |a| c.state(cell, a))).collect();
            (c.key.to_vec(), c.size, c.ages.to_vec(), states)
        };
        let all: Vec<_> = batch.cohorts().map(flat).collect();
        let headers = || (vec!["a".into(), "b".into()], (0..6).map(|a| a.to_string()).collect());
        let assemble = |parts: &[&WireBatch]| {
            let (attrs, aggs) = headers();
            let mut asm = ReportAssembler::new(attrs, aggs);
            parts.iter().for_each(|p| asm.push(p).unwrap());
            asm.finish()
        };
        for at in 0..=3 {
            let [head, tail] = [0..at, at..3].map(|run| {
                let mut out = Vec::new();
                batch.encode_cohorts_into(run, &mut out);
                WireBatch::decode(&out).unwrap()
            });
            assert_eq!((head.rows_scanned(), head.morsels(), head.chunk_index()), (1000, 7, 3));
            let tail_counts = if at == 0 { (1000, 7) } else { (0, 0) };
            assert_eq!(
                (tail.rows_scanned(), tail.morsels(), tail.chunk_index()),
                (tail_counts.0, tail_counts.1, 3)
            );
            let parts: Vec<_> = head.cohorts().chain(tail.cohorts()).map(flat).collect();
            assert_eq!(parts, all, "split at {at}");
            assert_eq!(assemble(&[&head, &tail]), assemble(&[&batch]));
        }
        // A run names only its own strings.
        let mut china = Vec::new();
        batch.encode_cohorts_into(2..3, &mut china);
        assert_eq!(china.windows(9).filter(|w| w == b"Australia").count(), 0);
    }

    #[test]
    fn encoded_bytes_do_not_depend_on_cohort_arrival_order() {
        let mut cohorts = sample_cohorts();
        let bytes = batch_of(3, &KINDS, &cohorts).encode();
        cohorts.reverse();
        assert_eq!(batch_of(3, &KINDS, &cohorts).encode(), bytes);
        // "Australia" is stated once, although two cohorts use it.
        let hits = bytes.windows(9).filter(|w| w == b"Australia").count();
        assert_eq!(hits, 1);
    }

    #[test]
    fn decode_rejects_truncation_and_trailing_garbage() {
        let bytes = batch_of(3, &KINDS, &sample_cohorts()).encode();
        for cut in 0..bytes.len() {
            assert!(
                matches!(WireBatch::decode(&bytes[..cut]), Err(EngineError::Corrupt(_))),
                "cut at {cut} must fail"
            );
        }
        let mut extended = bytes.clone();
        extended.push(0);
        assert!(matches!(WireBatch::decode(&extended), Err(EngineError::Corrupt(_))));
    }

    /// A batch (`arity` 1, one `Sum`) written field by field, so each test
    /// can bend exactly one of them. The string table is `["au", "cn"]`;
    /// each cohort is `(string ref, size)`, and only the first has cells.
    struct Raw {
        arity: u64,
        tags: Vec<u8>,
        strings: u64,
        cohorts: u64,
        keys: Vec<(u64, u64)>,
        cells: u64,
        deltas: Vec<u64>,
        sums: Vec<i64>,
    }

    impl Raw {
        fn valid() -> Raw {
            Raw {
                arity: 1,
                tags: vec![Kind::Sum as u8],
                strings: 2,
                cohorts: 1,
                keys: vec![(0, 9)],
                cells: 2,
                deltas: vec![1, 3],
                sums: vec![1, 2],
            }
        }

        fn bytes(&self) -> Vec<u8> {
            let mut out = vec![0, 0, 0]; // chunk_index, rows_scanned, morsels
            put_varint(&mut out, self.arity);
            put_varint(&mut out, self.tags.len() as u64);
            out.extend_from_slice(&self.tags);
            put_varint(&mut out, self.strings);
            out.extend_from_slice(b"\x02au\x02cn");
            put_varint(&mut out, self.cohorts);
            for &(string_ref, size) in &self.keys {
                out.push(VALUE_STR);
                put_varint(&mut out, string_ref);
                put_varint(&mut out, size);
            }
            put_varint(&mut out, self.cells);
            for &d in &self.deltas {
                put_varint(&mut out, d);
            }
            for &s in &self.sums {
                put_varint(&mut out, zigzag(s));
            }
            out.resize(out.len() + self.keys.len() - 1, 0); // no cells
            out
        }

        fn batch(self) -> WireBatch {
            WireBatch::decode(&self.bytes()).unwrap()
        }
    }

    #[test]
    fn decode_rejects_out_of_range_fields() {
        let ok = Raw::valid().batch();
        let only = ok.cohorts().next().unwrap();
        assert_eq!((only.key, only.size, only.ages), (&[Value::str("au")][..], 9, &[1i64, 4][..]));
        assert_eq!([only.state(0, 0), only.state(1, 0)], [AggState::Sum(1), AggState::Sum(2)]);
        let two = Raw { cohorts: 2, keys: vec![(0, 9), (1, 1)], ..Raw::valid() }.batch();
        assert_eq!(two.num_cohorts(), 2);

        let bent: Vec<(&str, Raw)> = vec![
            ("no cohort attributes", Raw { arity: 0, ..Raw::valid() }),
            ("arity beyond the payload", Raw { arity: 1 << 40, ..Raw::valid() }),
            ("unknown state tag", Raw { tags: vec![6], ..Raw::valid() }),
            ("no aggregates", Raw { tags: vec![], ..Raw::valid() }),
            ("string count beyond the payload", Raw { strings: u64::MAX, ..Raw::valid() }),
            ("cohort count beyond the payload", Raw { cohorts: 1 << 32, ..Raw::valid() }),
            ("string ref out of range", Raw { keys: vec![(2, 9)], ..Raw::valid() }),
            ("cell count beyond the payload", Raw { cells: 1 << 20, ..Raw::valid() }),
            ("zero age delta", Raw { deltas: vec![1, 0], ..Raw::valid() }),
            ("age overflow", Raw { deltas: vec![i64::MAX as u64, 1], ..Raw::valid() }),
            ("age delta above i64", Raw { deltas: vec![1, u64::MAX], ..Raw::valid() }),
            ("a key stated twice", Raw { cohorts: 2, keys: vec![(0, 9), (0, 1)], ..Raw::valid() }),
            ("descending keys", Raw { cohorts: 2, keys: vec![(1, 9), (0, 1)], ..Raw::valid() }),
        ];
        for (what, raw) in bent {
            assert!(
                matches!(WireBatch::decode(&raw.bytes()), Err(EngineError::Corrupt(_))),
                "{what} must be refused"
            );
        }
    }

    /// Frames that decode but would overflow when merged: a sum wraps (as
    /// the engine's own fold and merge do, in every build), a cohort size
    /// past `u64::MAX` is refused and leaves the assembler as it was.
    #[test]
    fn hostile_sums_wrap_and_hostile_sizes_are_refused() {
        let assemble = |frames: Vec<Raw>| {
            let mut asm = ReportAssembler::new(vec!["k".into()], vec!["Sum(v)".into()]);
            let pushed: Vec<bool> =
                frames.into_iter().map(|f| asm.push(&f.batch()).is_ok()).collect();
            (pushed, asm.finish())
        };
        let (pushed, report) = assemble(vec![
            Raw { sums: vec![i64::MAX, 0], ..Raw::valid() },
            Raw { sums: vec![1, 0], ..Raw::valid() },
        ]);
        assert_eq!(pushed, [true, true]);
        assert_eq!(report.rows[0].measures, [AggValue::Int(i64::MIN)]);

        let (pushed, report) = assemble(vec![
            Raw { keys: vec![(0, u64::MAX)], ..Raw::valid() },
            Raw { keys: vec![(0, 1)], sums: vec![5, 5], ..Raw::valid() },
        ]);
        assert_eq!(pushed, [true, false]);
        assert_eq!(report.cohort_sizes[&vec![Value::str("au")]], u64::MAX);
        assert_eq!(report.rows[0].measures, [AggValue::Int(1)]);
    }

    #[test]
    fn varints_are_bounded() {
        let read = |bytes: &[u8]| Reader::new(bytes).varint();
        assert_eq!(read(&[0x7f]).unwrap(), 127);
        let mut max = vec![0xff; 9];
        max.push(0x01);
        assert_eq!(read(&max).unwrap(), u64::MAX);
        max[9] = 0x02; // a 65th bit
        assert!(read(&max).is_err());
        assert!(read(&[0x80; 11]).is_err(), "11-byte varint");
        assert!(read(&[0x80]).is_err(), "truncated varint");
        for v in [0, 1, -1, i64::MAX, i64::MIN] {
            let mut out = Vec::new();
            put_varint(&mut out, zigzag(v));
            assert_eq!(Reader::new(&out).zigzag().unwrap(), v);
        }
    }

    #[test]
    fn query_stats_codec_roundtrips() {
        let stats = QueryStats {
            chunks_total: 4,
            chunks_pruned: 1,
            chunks_scanned: 3,
            rows_scanned: 600,
            chunks_decoded: 3,
            columns_decoded: 9,
            bytes_read: 1024,
            bytes_decompressed: 1536,
            cache_evictions: 2,
            batches: 3,
            morsels_executed: 12,
            worker_busy_ns: 4_000_000,
            wall_time: Duration::from_millis(5),
        };
        let mut bytes = Vec::new();
        encode_query_stats(&mut bytes, &stats);
        let mut r = Reader::new(&bytes);
        assert_eq!(decode_query_stats(&mut r).unwrap(), stats);
        r.finish().unwrap();
    }

    /// Cohorts as `(key, size, [(age, sum)])`.
    type SumCohort<'a> = (&'a str, u64, &'a [(i64, i64)]);

    fn sum_batch(chunk: u64, cohorts: &[SumCohort<'_>]) -> WireBatch {
        let cohorts: Vec<Cohort> = cohorts
            .iter()
            .map(|&(key, size, cells)| {
                let cells = cells.iter().map(|&(age, s)| (age, vec![AggState::Sum(s)]));
                (vec![Value::str(key)], size, cells.collect())
            })
            .collect();
        batch_of(chunk, &[Kind::Sum], &cohorts)
    }

    #[test]
    fn assembler_merges_batches_in_any_order() {
        let a = sum_batch(0, &[("au", 2, &[(1, 5)])]);
        let b = sum_batch(1, &[("au", 1, &[(1, 7), (3, 2)]), ("cn", 4, &[(2, 1)])]);
        let assemble = |batches: &[&WireBatch]| {
            let mut asm = ReportAssembler::new(vec!["country".into()], vec!["Sum(gold)".into()]);
            for batch in batches {
                asm.push(batch).unwrap();
            }
            asm.finish()
        };
        let ab = assemble(&[&a, &b]);
        let ba = assemble(&[&b, &a]);
        assert_eq!(ab, ba);
        assert_eq!(ab.num_rows(), 3);
        let row = ab.find(&[Value::str("au")], 1).unwrap();
        assert_eq!(row.size, 3);
        assert_eq!(row.measures, vec![AggValue::Int(12)]);
        assert_eq!(ab.cohort_sizes[&vec![Value::str("cn")]], 4);
    }

    #[test]
    fn assembler_rejects_arity_mismatch() {
        let one = sum_batch(0, &[("au", 1, &[(1, 5)])]);
        let cells = vec![(2, vec![AggState::Sum(5), AggState::Count(1)])];
        let two = batch_of(0, &[Kind::Sum, Kind::Count], &[(vec![Value::str("au")], 1, cells)]);
        let mut asm = ReportAssembler::new(vec![], vec![]);
        asm.push(&one).unwrap();
        assert!(asm.push(&two).is_err());
    }
}
