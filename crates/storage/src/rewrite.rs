//! The one encoder from tuples to chunks: the columnar rewrite behind every
//! mutation of an encoded table (append, compaction, user deletion, the
//! resident ingest) and behind [`CompressedTable::build`], which is an ingest
//! into the empty table.
//!
//! §4.1's one hard invariant is that a user never spans chunks, so growing or
//! shrinking a table means re-cutting chunks at user boundaries. The data is
//! already in the form that takes: each chunk is a sequence of *user runs* in
//! `(time, action)` order, every cell a small integer. This module moves runs
//! from old chunks (and tuples from a batch) into new chunks without leaving
//! that form — no `Value`, no string comparison per cell, no sort of rows:
//!
//! * [`Decoded`] block-decodes an existing chunk once per column and
//!   translates chunk codes into the *target* dictionaries through one
//!   dictionary-sized LUT per column; a user's tuples are then a slice.
//! * [`EncodedBatch`] encodes a batch's cells once against the target
//!   dictionaries.
//! * [`assemble`] walks every user in ascending target gid — a sort of run
//!   descriptors, not rows — splicing a returning user's batch tuples onto
//!   their run, and feeds a [`ChunkAssembler`], which closes a chunk at the
//!   first user boundary at or past the chunk size and derives its RLE
//!   triples, chunk dictionaries, ranges and packed codes.
//!
//! This is the only place a string becomes a gid, a gid a chunk code, and a
//! run of users a chunk. Two entry points set up the target and call it:
//! [`Splice`] (merged dictionaries; `persist::append`,
//! [`CompressedTable::ingest`] and so [`CompressedTable::build`]) and
//! [`rebuild`] (minimal dictionaries; `persist::compact`,
//! `shard::apply_pending_tombstones` and [`CompressedTable::compacted`]).

use crate::bitpack::{bits_for, BitPacked};
use crate::chunk::Chunk;
use crate::column::ChunkColumn;
use crate::dict::{ChunkDict, GlobalDict};
use crate::persist::{AppendStats, EpochRemaps};
use crate::rle::{UserRle, UserRun};
use crate::table::{ColumnMeta, CompressedTable, TableMeta};
use crate::{Result, StorageError};
use cohana_activity::{ActivityError, ActivityTable, Schema};
use std::borrow::Borrow;
use std::ops::Range;
use std::sync::Arc;

/// "Not in the open chunk" in [`ChunkAssembler::code_of`], "not in the
/// rebuilt dictionary" in [`rebuild`]'s remaps.
const ABSENT: u32 = u32::MAX;

/// A gid carried into the target dictionary (`None` is the identity).
fn remapped(remap: Option<&Arc<Vec<u32>>>, gid: u32) -> Result<u32> {
    match remap {
        None => Ok(gid),
        Some(remap) => remap.get(gid as usize).copied().ok_or_else(|| {
            StorageError::Corrupt(format!(
                "gid {gid} outside the dictionary being rewritten (size {})",
                remap.len()
            ))
        }),
    }
}

/// Collects users into chunks. Cells arrive in target terms, one `u64` each:
/// the target gid of a string cell, the value of an integer cell (as its
/// `i64` bit pattern). A chunk closes at the first user boundary at or past
/// `chunk_size` rows (see [`CompressionOptions`](crate::CompressionOptions)).
struct ChunkAssembler<'a> {
    metas: &'a [ColumnMeta],
    chunk_size: usize,
    /// The open chunk's RLE triples.
    users: Vec<u64>,
    firsts: Vec<u64>,
    counts: Vec<u64>,
    rows: usize,
    /// The open chunk's cells per attribute (unused at the user attribute).
    cols: Vec<Vec<u64>>,
    /// Per string attribute, target gid → chunk code while a chunk closes,
    /// [`ABSENT`] otherwise. Sized by the target dictionary once; closing
    /// resets only the entries it set.
    code_of: Vec<Vec<u32>>,
    done: Vec<Chunk>,
}

impl<'a> ChunkAssembler<'a> {
    fn new(metas: &'a [ColumnMeta], chunk_size: usize) -> Self {
        ChunkAssembler {
            metas,
            chunk_size: chunk_size.max(1),
            users: Vec::new(),
            firsts: Vec::new(),
            counts: Vec::new(),
            rows: 0,
            cols: vec![Vec::new(); metas.len()],
            code_of: metas
                .iter()
                .map(|m| match m {
                    ColumnMeta::Str { dict } => vec![ABSENT; dict.len()],
                    ColumnMeta::User { .. } | ColumnMeta::Int { .. } => Vec::new(),
                })
                .collect(),
            done: Vec::new(),
        }
    }

    /// Start the next user, closing the open chunk first if it is full.
    fn begin_user(&mut self, user_gid: u32) -> Result<()> {
        if self.rows >= self.chunk_size {
            self.close()?;
        }
        self.users.push(user_gid as u64);
        self.firsts.push(self.rows as u64);
        self.counts.push(0);
        Ok(())
    }

    /// Add `rows` of `cols` to the user begun last.
    fn extend(&mut self, cols: &[Vec<u64>], rows: Range<usize>) {
        for (own, col) in self.cols.iter_mut().zip(cols) {
            if !col.is_empty() {
                own.extend_from_slice(&col[rows.clone()]);
            }
        }
        *self.counts.last_mut().expect("extend follows begin_user") += rows.len() as u64;
        self.rows += rows.len();
    }

    fn close(&mut self) -> Result<()> {
        let rle = UserRle::from_parts(
            BitPacked::from_slice(&self.users),
            BitPacked::from_slice(&self.firsts),
            BitPacked::from_slice(&self.counts),
        )?;
        let mut columns = Vec::with_capacity(self.metas.len());
        for ((meta, cells), code_of) in self.metas.iter().zip(&mut self.cols).zip(&mut self.code_of)
        {
            columns.push(match meta {
                ColumnMeta::User { .. } => None,
                ColumnMeta::Str { .. } => {
                    let mut present = Vec::new();
                    for &gid in cells.iter() {
                        let seen = &mut code_of[gid as usize];
                        if *seen == ABSENT {
                            *seen = 0;
                            present.push(gid as u32);
                        }
                    }
                    present.sort_unstable();
                    for (code, &gid) in present.iter().enumerate() {
                        code_of[gid as usize] = code as u32;
                    }
                    for cell in cells.iter_mut() {
                        *cell = code_of[*cell as usize] as u64;
                    }
                    for &gid in &present {
                        code_of[gid as usize] = ABSENT;
                    }
                    // Every dictionary entry occurs, so the top code is known.
                    let width = bits_for(present.len().saturating_sub(1) as u64);
                    Some(ChunkColumn::Str {
                        dict: ChunkDict::from_sorted(present)?,
                        codes: BitPacked::from_slice_with_width(cells, width),
                    })
                }
                ColumnMeta::Int { .. } => {
                    let first = cells.first().map_or(0, |&v| v as i64);
                    let (min, max) = cells
                        .iter()
                        .fold((first, first), |(lo, hi), &v| (lo.min(v as i64), hi.max(v as i64)));
                    for cell in cells.iter_mut() {
                        *cell = (*cell as i64).wrapping_sub(min) as u64;
                    }
                    let width = bits_for(max.wrapping_sub(min) as u64);
                    Some(ChunkColumn::Int {
                        min,
                        max,
                        deltas: BitPacked::from_slice_with_width(cells, width),
                    })
                }
            });
            cells.clear();
        }
        self.users.clear();
        self.firsts.clear();
        self.counts.clear();
        self.rows = 0;
        self.done.push(Chunk::new(rle, columns)?);
        Ok(())
    }

    fn finish(mut self) -> Result<Vec<Chunk>> {
        if self.rows > 0 {
            self.close()?;
        }
        Ok(self.done)
    }
}

/// One existing chunk block-decoded: a `u64` per cell per attribute (none at
/// the user attribute) and its user runs.
struct Decoded {
    runs: Vec<UserRun>,
    cols: Vec<Vec<u64>>,
}

impl Decoded {
    /// Unpack every column once, leaving raw chunk codes and deltas.
    fn unpack(ci: usize, chunk: &Chunk, user_idx: usize) -> Result<Decoded> {
        let n = chunk.num_rows();
        let cols = (0..chunk.columns().len())
            .map(|attr| {
                if attr == user_idx {
                    return Ok(Vec::new());
                }
                let col = chunk.column(attr).ok_or_else(|| {
                    StorageError::Corrupt(format!("chunk {ci}: column {attr}: segment missing"))
                })?;
                let mut codes = vec![0u64; n];
                col.packed().unpack_range(0, n, &mut codes);
                Ok(codes)
            })
            .collect::<Result<_>>()?;
        Ok(Decoded { runs: chunk.user_rle().runs().collect(), cols })
    }

    /// Carry the unpacked cells into target terms in place: chunk codes →
    /// target gids through one LUT per column (chunk dictionary ∘ `remaps`),
    /// deltas → values, run user gids through the user remap.
    fn translate(&mut self, chunk: &Chunk, remaps: &EpochRemaps, user_idx: usize) -> Result<()> {
        for run in &mut self.runs {
            run.user_gid = remapped(remaps[user_idx].as_ref(), run.user_gid)?;
        }
        for (attr, cells) in self.cols.iter_mut().enumerate() {
            match chunk.column(attr) {
                None => {}
                Some(ChunkColumn::Str { dict, .. }) => {
                    let lut = dict
                        .global_ids()
                        .iter()
                        .map(|&gid| remapped(remaps[attr].as_ref(), gid).map(u64::from))
                        .collect::<Result<Vec<u64>>>()?;
                    for cell in cells.iter_mut() {
                        *cell = lut[*cell as usize];
                    }
                }
                Some(ChunkColumn::Int { min, .. }) => {
                    for cell in cells.iter_mut() {
                        *cell = min.wrapping_add(*cell as i64) as u64;
                    }
                }
            }
        }
        Ok(())
    }
}

/// A batch's cells in target terms, with one run per user (ascending target
/// gid, since the batch is sorted by user and dictionaries by value). The
/// default is the empty batch.
#[derive(Default)]
struct EncodedBatch {
    users: Vec<UserRun>,
    cols: Vec<Vec<u64>>,
}

impl EncodedBatch {
    /// Encode against `metas`, whose dictionaries were merged with the
    /// batch's values: one dictionary lookup per user, and one per string
    /// cell unless it is the very string (same allocation) the row above
    /// held — which a user's dimension values mostly are.
    fn encode(batch: &ActivityTable, metas: &[ColumnMeta]) -> Self {
        let rows = batch.rows();
        let gid = |attr: usize, s: &str| -> u32 {
            let dict = metas[attr].dict().expect("string attribute has a dictionary");
            dict.lookup(s).expect("merged dictionary covers the batch")
        };
        let mut cols: Vec<Vec<u64>> = vec![Vec::new(); metas.len()];
        // Per attribute, where the string above lives and its gid; the
        // pointer is an identity, never read through.
        let mut above: Vec<(*const u8, usize, u32)> = vec![(std::ptr::null(), 0, 0); metas.len()];
        for row in rows {
            for (attr, (meta, col)) in metas.iter().zip(&mut cols).enumerate() {
                match meta {
                    ColumnMeta::User { .. } => {}
                    ColumnMeta::Int { .. } => {
                        col.push(row.get(attr).as_int().expect("int attribute") as u64)
                    }
                    ColumnMeta::Str { .. } => {
                        let s = row.get(attr).as_str().expect("string attribute");
                        if (above[attr].0, above[attr].1) != (s.as_ptr(), s.len()) {
                            above[attr] = (s.as_ptr(), s.len(), gid(attr, s));
                        }
                        col.push(above[attr].2 as u64);
                    }
                }
            }
        }
        let user_idx = batch.schema().user_idx();
        let users = batch
            .user_blocks()
            .map(|b| UserRun {
                user_gid: gid(user_idx, batch.key(b.start).0),
                first: b.start as u32,
                count: b.len as u32,
            })
            .collect();
        EncodedBatch { users, cols }
    }
}

fn rows_of(run: &UserRun) -> Range<usize> {
    run.first as usize..(run.first + run.count) as usize
}

/// The rewrite itself: every user run of `sources` and every user of `batch`
/// through one assembler in ascending target gid. A user present on both
/// sides is spliced: a concatenation when the batch's first `(time, action)`
/// sorts after the run's last, else a two-pointer merge (gid order is the
/// primary key's string order); equal keys are the primary-key collision an
/// append rejects.
fn assemble(
    schema: &Schema,
    metas: &[ColumnMeta],
    chunk_size: usize,
    sources: &[Decoded],
    batch: &EncodedBatch,
) -> Result<Vec<Chunk>> {
    let mut runs: Vec<(&Decoded, &UserRun)> =
        sources.iter().flat_map(|d| d.runs.iter().map(move |run| (d, run))).collect();
    runs.sort_unstable_by_key(|(_, run)| run.user_gid);
    let mut arrivals = batch.users.iter().peekable();
    let arrived = |asm: &mut ChunkAssembler, user: &UserRun| -> Result<()> {
        asm.begin_user(user.user_gid)?;
        asm.extend(&batch.cols, rows_of(user));
        Ok(())
    };

    let (time, action) = (schema.time_idx(), schema.action_idx());
    let key = |cols: &[Vec<u64>], row: usize| (cols[time][row] as i64, cols[action][row]);
    let mut merged: Vec<Vec<u64>> = vec![Vec::new(); metas.len()];
    let mut asm = ChunkAssembler::new(metas, chunk_size);
    for (source, run) in runs {
        while let Some(new_user) = arrivals.next_if(|u| u.user_gid < run.user_gid) {
            arrived(&mut asm, new_user)?;
        }
        asm.begin_user(run.user_gid)?;
        let old = rows_of(run);
        let Some(more) = arrivals.next_if(|u| u.user_gid == run.user_gid) else {
            asm.extend(&source.cols, old);
            continue;
        };
        let (new, new_cols) = (rows_of(more), &batch.cols);
        if old.is_empty() || key(&source.cols, old.end - 1) < key(new_cols, new.start) {
            asm.extend(&source.cols, old);
            asm.extend(new_cols, new);
            continue;
        }
        merged.iter_mut().for_each(Vec::clear);
        let (mut o, mut n) = (old.start, new.start);
        while o < old.end || n < new.end {
            let from_old = n == new.end
                || (o < old.end && {
                    let (a, b) = (key(&source.cols, o), key(new_cols, n));
                    if a == b {
                        return Err(collision(metas, schema, run.user_gid, a));
                    }
                    a < b
                });
            let (cols, row) = if from_old { (&source.cols, &mut o) } else { (new_cols, &mut n) };
            for (out, col) in merged.iter_mut().zip(cols) {
                if !col.is_empty() {
                    out.push(col[*row]);
                }
            }
            *row += 1;
        }
        asm.extend(&merged, 0..old.len() + new.len());
    }
    for new_user in arrivals {
        arrived(&mut asm, new_user)?;
    }
    asm.finish()
}

/// The error an append reports for a batch tuple whose primary key already
/// exists.
fn collision(
    metas: &[ColumnMeta],
    schema: &Schema,
    user_gid: u32,
    key: (i64, u64),
) -> StorageError {
    let name = |attr: usize, gid: u32| {
        metas[attr].dict().map_or_else(|| gid.to_string(), |dict| dict.value(gid).to_string())
    };
    let e = ActivityError::DuplicateKey {
        user: name(schema.user_idx(), user_gid),
        time: key.0,
        action: name(schema.action_idx(), key.1 as u32),
    };
    StorageError::Invalid(format!("append batch conflicts with existing data: {e}"))
}

// ------------------------------------------------------------------ splice

/// A batch set against the table it grows: the merged dictionaries, the step
/// remap of the old dictionaries into them, and the batch encoded in their
/// terms. Chunks holding none of the batch's users are untouched by it (only
/// re-based through `step`); the rest go through [`Splice::rewrite`].
pub(crate) struct Splice {
    /// Column metadata after the append: dictionaries merged with the
    /// batch's values, integer ranges widened.
    pub(crate) metas: Vec<ColumnMeta>,
    /// Per attribute, the strictly increasing remap of the old dictionary
    /// into the merged one (`None`: nothing new, or an integer attribute).
    pub(crate) step: EpochRemaps,
    schema: Schema,
    chunk_size: usize,
    batch: EncodedBatch,
    /// Merged user gid → whether the batch holds tuples of that user.
    in_batch: Vec<bool>,
}

impl Splice {
    /// Merge a non-empty `batch` (of the table's schema) into `old`'s
    /// dictionaries and encode it.
    pub(crate) fn plan(old: &TableMeta, batch: &ActivityTable) -> Result<Splice> {
        let arity = old.schema().arity();
        let old_is_empty = old.num_rows() == 0;
        let mut metas = Vec::with_capacity(arity);
        let mut step: EpochRemaps = Vec::with_capacity(arity);
        for (attr, meta) in old.metas().iter().enumerate() {
            match meta {
                ColumnMeta::User { dict } | ColumnMeta::Str { dict } => {
                    let (merged, remap) = dict.merge_with(batch.distinct_strings(attr));
                    step.push((merged.len() != dict.len()).then(|| Arc::new(remap)));
                    metas.push(match meta {
                        ColumnMeta::User { .. } => ColumnMeta::User { dict: merged },
                        _ => ColumnMeta::Str { dict: merged },
                    });
                }
                ColumnMeta::Int { min, max } => {
                    let (bmin, bmax) = batch.int_range(attr).ok_or_else(|| {
                        StorageError::Invalid("cannot splice an empty batch".into())
                    })?;
                    let (min, max) = if old_is_empty {
                        (bmin, bmax)
                    } else {
                        ((*min).min(bmin), (*max).max(bmax))
                    };
                    step.push(None);
                    metas.push(ColumnMeta::Int { min, max });
                }
            }
        }
        let batch = EncodedBatch::encode(batch, &metas);
        let schema = old.schema().clone();
        let mut in_batch = vec![false; metas[schema.user_idx()].dict().map_or(0, GlobalDict::len)];
        for user in &batch.users {
            in_batch[user.user_gid as usize] = true;
        }
        Ok(Splice { metas, step, schema, chunk_size: old.options().chunk_size, batch, in_batch })
    }

    /// Whether any of the batch's users was in the old dictionary: if the
    /// merged one grew by every one of them, no chunk can be touched.
    pub(crate) fn has_returning_users(&self) -> bool {
        self.step[self.schema.user_idx()]
            .as_ref()
            .is_none_or(|old| old.len() + self.batch.users.len() > self.in_batch.len())
    }

    /// Whether a chunk (its user column in the old dictionary's terms) holds
    /// a user of the batch and therefore has to be rewritten.
    pub(crate) fn touches(&self, rle: &UserRle) -> Result<bool> {
        let step = self.step[self.schema.user_idx()].as_ref();
        for run in rle.runs() {
            let gid = remapped(step, run.user_gid)? as usize;
            let returning = self.in_batch.get(gid).ok_or_else(|| {
                StorageError::Corrupt(format!("user gid {gid} outside the user dictionary"))
            })?;
            if *returning {
                return Ok(true);
            }
        }
        Ok(false)
    }

    /// Rewrite the touched chunks (in the old dictionaries' terms) together
    /// with the whole batch: returning users spliced, new users interleaved
    /// by gid, chunks re-cut at the table's chunk size.
    pub(crate) fn rewrite(&self, touched: &[(usize, impl Borrow<Chunk>)]) -> Result<Vec<Chunk>> {
        let user_idx = self.schema.user_idx();
        let sources = touched
            .iter()
            .map(|(ci, chunk)| {
                let chunk = chunk.borrow();
                let mut decoded = Decoded::unpack(*ci, chunk, user_idx)?;
                decoded.translate(chunk, &self.step, user_idx)?;
                Ok(decoded)
            })
            .collect::<Result<Vec<_>>>()?;
        assemble(&self.schema, &self.metas, self.chunk_size, &sources, &self.batch)
    }
}

// ----------------------------------------------------------------- rebuild

/// What [`rebuild`] left out.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Dropped {
    pub(crate) users: usize,
    pub(crate) rows: usize,
}

/// Re-cut a whole table: every run of every chunk except those of `victims`,
/// in user order, against **minimal** dictionaries — what
/// `CompressedTable::build` makes of the same tuples. The values present are
/// the union of the chunk dictionaries and the range the union of the chunk
/// ranges, so the target costs O(dictionary); only a chunk that loses a user
/// is scanned for what its remaining rows still hold.
pub(crate) fn rebuild(
    meta: &TableMeta,
    chunks: &[Chunk],
    victims: &[&str],
) -> Result<(CompressedTable, Dropped)> {
    let schema = meta.schema();
    let user_idx = schema.user_idx();
    let mut doomed: Vec<u32> =
        victims.iter().filter_map(|v| meta.lookup_gid(user_idx, v)).collect();
    doomed.sort_unstable();

    // What survives, per attribute: the gids present, or the integer range.
    let mut present: Vec<Vec<bool>> =
        meta.metas().iter().map(|m| vec![false; m.dict().map_or(0, GlobalDict::len)]).collect();
    let mut ranges: Vec<Option<(i64, i64)>> = vec![None; schema.arity()];
    let mut dropped = Dropped::default();
    let mut sources = Vec::with_capacity(chunks.len());
    for (ci, chunk) in chunks.iter().enumerate() {
        let mut decoded = Decoded::unpack(ci, chunk, user_idx)?;
        let before = decoded.runs.len();
        decoded.runs.retain(|run| {
            let keep = doomed.binary_search(&run.user_gid).is_err();
            if !keep {
                dropped.rows += run.count as usize;
            }
            keep
        });
        dropped.users += before - decoded.runs.len();
        let whole = decoded.runs.len() == before;
        for run in &decoded.runs {
            present[user_idx][run.user_gid as usize] = true;
        }
        for (attr, cells) in decoded.cols.iter().enumerate() {
            let kept = || decoded.runs.iter().flat_map(|run| &cells[rows_of(run)]);
            match chunk.column(attr) {
                None => {}
                Some(ChunkColumn::Str { dict, .. }) if whole => {
                    for &gid in dict.global_ids() {
                        present[attr][gid as usize] = true;
                    }
                }
                Some(ChunkColumn::Str { dict, .. }) => {
                    for &code in kept() {
                        present[attr][dict.global_id(code as u32) as usize] = true;
                    }
                }
                Some(ChunkColumn::Int { min, max, .. }) => {
                    let range = if whole {
                        (!decoded.runs.is_empty()).then_some((*min, *max))
                    } else {
                        kept().fold(None, |r: Option<(i64, i64)>, &delta| {
                            let v = min.wrapping_add(delta as i64);
                            Some(r.map_or((v, v), |(lo, hi)| (lo.min(v), hi.max(v))))
                        })
                    };
                    if let Some((lo, hi)) = range {
                        let r = ranges[attr].get_or_insert((lo, hi));
                        *r = (r.0.min(lo), r.1.max(hi));
                    }
                }
            }
        }
        sources.push(decoded);
    }

    // The minimal dictionaries and the remaps of the old gids into them.
    let mut remaps: EpochRemaps = Vec::with_capacity(schema.arity());
    let mut metas = Vec::with_capacity(schema.arity());
    for ((old, present), range) in meta.metas().iter().zip(&present).zip(&ranges) {
        let Some(dict) = old.dict() else {
            let (min, max) = range.unwrap_or((0, 0));
            metas.push(ColumnMeta::Int { min, max });
            remaps.push(None);
            continue;
        };
        let mut remap = vec![ABSENT; dict.len()];
        let mut values = Vec::new();
        for (gid, value) in dict.values().iter().enumerate() {
            if present[gid] {
                remap[gid] = values.len() as u32;
                values.push(value.clone());
            }
        }
        let dict = GlobalDict::from_sorted(values)?;
        metas.push(match old {
            ColumnMeta::User { .. } => ColumnMeta::User { dict },
            _ => ColumnMeta::Str { dict },
        });
        remaps.push(Some(Arc::new(remap)));
    }

    for (decoded, chunk) in sources.iter_mut().zip(chunks) {
        decoded.translate(chunk, &remaps, user_idx)?;
    }
    let chunk_size = meta.options().chunk_size;
    let rebuilt = assemble(schema, &metas, chunk_size, &sources, &EncodedBatch::default())?;
    let table = CompressedTable::from_parts(
        schema.clone(),
        metas,
        rebuilt,
        meta.num_rows() - dropped.rows,
        meta.options(),
    )?;
    Ok((table, dropped))
}

// ---------------------------------------------------------------- resident

impl CompressedTable {
    /// The table grown by a batch of activity tuples: chunks holding a
    /// returning user are rewritten with the batch spliced in, the others
    /// re-based onto the merged dictionaries (their packed codes shared),
    /// exactly as [`persist::append`](crate::persist::append) grows a file.
    /// The batch must have the table's schema and no primary key already
    /// present.
    pub fn ingest(&self, batch: &ActivityTable) -> Result<(CompressedTable, AppendStats)> {
        let schema = self.schema();
        if schema != batch.schema() {
            return Err(StorageError::Invalid(
                "ingest batch schema differs from the table's schema".into(),
            ));
        }
        let chunks_before = self.chunks().len();
        if batch.is_empty() {
            let stats =
                AppendStats { chunks_before, chunks_after: chunks_before, ..Default::default() };
            return Ok((self.clone(), stats));
        }
        let user_idx = schema.user_idx();
        let splice = Splice::plan(self.table_meta(), batch)?;
        let mut chunks = Vec::with_capacity(chunks_before);
        let mut touched = Vec::new();
        for (ci, chunk) in self.chunks().iter().enumerate() {
            if splice.touches(chunk.user_rle())? {
                touched.push((ci, chunk));
                continue;
            }
            let rle = match &splice.step[user_idx] {
                Some(remap) => Arc::new(chunk.user_rle().clone().remap_users(remap)?),
                None => chunk.shared_rle().clone(),
            };
            let columns = chunk
                .columns()
                .iter()
                .zip(&splice.step)
                .map(|(col, remap)| match (col, remap) {
                    (Some(col), Some(remap)) => {
                        Ok(Some(Arc::new(ChunkColumn::clone(col).remap_gids(remap)?)))
                    }
                    (col, _) => Ok(col.clone()),
                })
                .collect::<Result<_>>()?;
            chunks.push(Chunk::from_shared(rle, columns)?);
        }
        chunks.extend(splice.rewrite(&touched)?);
        let stats = AppendStats {
            rows_appended: batch.num_rows(),
            chunks_before,
            chunks_after: chunks.len(),
            chunks_rewritten: touched.len(),
            ..Default::default()
        };
        let table = CompressedTable::from_parts(
            schema.clone(),
            splice.metas,
            chunks,
            self.num_rows() + batch.num_rows(),
            self.options(),
        )?;
        Ok((table, stats))
    }

    /// The table re-cut the way [`CompressedTable::build`] would cut its
    /// tuples: users in order, full chunks, minimal dictionaries.
    pub fn compacted(&self) -> Result<CompressedTable> {
        Ok(rebuild(self.table_meta(), self.chunks(), &[])?.0)
    }
}
