//! The compressed activity table: global metadata + chunks.
//!
//! This module holds the table and checks its structure; it encodes nothing.
//! [`CompressedTable::build`] is an ingest into the empty table, so every
//! string → gid lookup, chunk code and chunk cut happens in `crate::rewrite`.

use crate::chunk::Chunk;
use crate::column::ChunkColumn;
use crate::dict::GlobalDict;
use crate::rle::UserRle;
use crate::source::ChunkIndexEntry;
use crate::{Result, StorageError};
use cohana_activity::{ActivityTable, AttributeRole, Schema, TableBuilder, Value, ValueType};
use std::sync::Arc;

/// Options controlling compression.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CompressionOptions {
    /// Target number of tuples per chunk. A chunk is closed at the first
    /// user boundary at or past this size, so chunks can exceed it by at
    /// most one user's activity count. The paper evaluates 16K–1M and
    /// defaults to 256K.
    pub chunk_size: usize,
}

impl CompressionOptions {
    /// Use a specific target chunk size (in tuples).
    pub fn with_chunk_size(chunk_size: usize) -> Self {
        CompressionOptions { chunk_size }
    }
}

impl Default for CompressionOptions {
    fn default() -> Self {
        // The paper's default chunk size.
        CompressionOptions { chunk_size: 256 * 1024 }
    }
}

/// Global (table-level) metadata of one attribute.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ColumnMeta {
    /// The user column: a global dictionary of user ids. Per-chunk data is
    /// the RLE triple array.
    User {
        /// Sorted unique user ids.
        dict: GlobalDict,
    },
    /// A string column: global dictionary (level 1 of the two-level
    /// encoding).
    Str {
        /// Sorted unique values.
        dict: GlobalDict,
    },
    /// An integer column: global `[min, max]` range (level 1 of the
    /// two-level delta encoding).
    Int {
        /// Global minimum.
        min: i64,
        /// Global maximum.
        max: i64,
    },
}

impl ColumnMeta {
    /// The global dictionary of a user or string attribute.
    pub fn dict(&self) -> Option<&GlobalDict> {
        match self {
            ColumnMeta::User { dict } | ColumnMeta::Str { dict } => Some(dict),
            ColumnMeta::Int { .. } => None,
        }
    }
}

/// The chunk-independent part of a compressed table: schema, per-attribute
/// global metadata (dictionaries / ranges), row count, and compression
/// options.
///
/// This is everything a query needs *before* touching chunk data — predicate
/// compilation, cohort-key resolution, and report decoding all run against
/// `TableMeta` alone, which is what lets a file-backed
/// [`ChunkSource`](crate::source::ChunkSource) plan and prune without
/// materializing a single chunk.
#[derive(Debug, Clone)]
pub struct TableMeta {
    schema: Schema,
    metas: Vec<ColumnMeta>,
    num_rows: usize,
    options: CompressionOptions,
}

impl TableMeta {
    /// Assemble from parts (used by the persistence layer).
    pub(crate) fn new(
        schema: Schema,
        metas: Vec<ColumnMeta>,
        num_rows: usize,
        options: CompressionOptions,
    ) -> Result<Self> {
        if metas.len() != schema.arity() {
            return Err(StorageError::Corrupt("meta count != schema arity".into()));
        }
        let meta = TableMeta { schema, metas, num_rows, options };
        match &meta.metas[meta.schema.user_idx()] {
            ColumnMeta::User { .. } => Ok(meta),
            _ => Err(StorageError::Corrupt("user meta missing at user index".into())),
        }
    }

    /// The metadata of a table with no tuples: empty dictionaries, integer
    /// ranges `{0, 0}`.
    pub(crate) fn empty(schema: Schema, options: CompressionOptions) -> Self {
        let metas = schema
            .attributes()
            .iter()
            .map(|attr| match (attr.role, attr.vtype) {
                (AttributeRole::User, _) => ColumnMeta::User { dict: GlobalDict::default() },
                (_, ValueType::Str) => ColumnMeta::Str { dict: GlobalDict::default() },
                (_, ValueType::Int) => ColumnMeta::Int { min: 0, max: 0 },
            })
            .collect();
        TableMeta { schema, metas, num_rows: 0, options }
    }

    /// The schema.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// Compression options used to build the table.
    pub fn options(&self) -> CompressionOptions {
        self.options
    }

    /// Total number of tuples.
    pub fn num_rows(&self) -> usize {
        self.num_rows
    }

    /// Total number of distinct users.
    pub fn num_users(&self) -> usize {
        match &self.metas[self.schema.user_idx()] {
            ColumnMeta::User { dict } => dict.len(),
            _ => unreachable!("user meta at user index"),
        }
    }

    /// Global metadata of an attribute.
    pub fn meta(&self, attr_idx: usize) -> &ColumnMeta {
        &self.metas[attr_idx]
    }

    /// All metas.
    pub fn metas(&self) -> &[ColumnMeta] {
        &self.metas
    }

    /// The global dictionary of a string (or user) attribute.
    pub fn global_dict(&self, attr_idx: usize) -> Option<&GlobalDict> {
        self.metas[attr_idx].dict()
    }

    /// Resolve a string to its global id in an attribute's dictionary.
    pub fn lookup_gid(&self, attr_idx: usize, value: &str) -> Option<u32> {
        self.global_dict(attr_idx).and_then(|d| d.lookup(value))
    }

    /// The string for a global id of an attribute.
    pub fn gid_value(&self, attr_idx: usize, gid: u32) -> &Arc<str> {
        self.global_dict(attr_idx).expect("string attribute").value(gid)
    }
}

/// A compressed activity table with every chunk resident in memory.
#[derive(Debug, Clone)]
pub struct CompressedTable {
    meta: TableMeta,
    chunks: Vec<Chunk>,
    index: Vec<ChunkIndexEntry>,
}

impl CompressedTable {
    /// Compress an activity table (§4.1): the ingest of `table` into the
    /// empty table of its schema, so a build cuts and encodes chunks exactly
    /// as an append, a compaction or a deletion does (`crate::rewrite`). The
    /// input is already in primary-key order, which provides the clustering
    /// and time-ordering properties the format needs.
    pub fn build(table: &ActivityTable, options: CompressionOptions) -> Result<Self> {
        if options.chunk_size == 0 {
            return Err(StorageError::Invalid("chunk_size must be positive".into()));
        }
        let meta = TableMeta::empty(table.schema().clone(), options);
        let empty = CompressedTable { meta, chunks: Vec::new(), index: Vec::new() };
        Ok(empty.ingest(table)?.0)
    }

    /// Assemble from chunks `persist` decoded (the resident open).
    /// Validates the global row count and each chunk's structure
    /// ([`validate_chunk`]); the per-value code ranges were proved when
    /// the columns were decoded and are not walked again.
    pub(crate) fn from_parts(
        schema: Schema,
        metas: Vec<ColumnMeta>,
        chunks: Vec<Chunk>,
        num_rows: usize,
        options: CompressionOptions,
    ) -> Result<Self> {
        let meta = TableMeta::new(schema, metas, num_rows, options)?;
        let chunk_rows: usize = chunks.iter().map(|c| c.num_rows()).sum();
        if chunk_rows != num_rows {
            return Err(StorageError::Corrupt(format!(
                "chunks cover {chunk_rows} rows, header claims {num_rows}"
            )));
        }
        let index = chunks.iter().map(|c| ChunkIndexEntry::of_chunk(c, meta.schema())).collect();
        for (ci, chunk) in chunks.iter().enumerate() {
            validate_chunk(&meta, ci, chunk)?;
        }
        Ok(CompressedTable { meta, chunks, index })
    }

    /// Deep consistency check of any table, however it was built: every
    /// chunk-dictionary id must resolve into the global dictionary, every
    /// packed code into its chunk dictionary, every delta into its chunk
    /// range, and the RLE user column must describe contiguous runs
    /// covering exactly the chunk's rows. Tables read from files already
    /// hold all of this by construction (see [`crate::persist`]); the
    /// per-value half here is one block-decode pass per column.
    pub fn validate_consistency(&self) -> Result<()> {
        for (ci, chunk) in self.chunks.iter().enumerate() {
            validate_chunk(&self.meta, ci, chunk)?;
            for (idx, col) in chunk.columns().iter().enumerate() {
                if let Some(col) = col {
                    validate_codes(ci, idx, col)?;
                }
            }
        }
        Ok(())
    }

    /// The chunk-independent metadata (schema, dictionaries, ranges).
    pub fn table_meta(&self) -> &TableMeta {
        &self.meta
    }

    /// The schema.
    pub fn schema(&self) -> &Schema {
        self.meta.schema()
    }

    /// Compression options used to build the table.
    pub fn options(&self) -> CompressionOptions {
        self.meta.options()
    }

    /// Total number of tuples.
    pub fn num_rows(&self) -> usize {
        self.meta.num_rows()
    }

    /// Total number of distinct users.
    pub fn num_users(&self) -> usize {
        self.meta.num_users()
    }

    /// The chunks.
    pub fn chunks(&self) -> &[Chunk] {
        &self.chunks
    }

    /// Per-chunk index entries (the metadata the executor prunes against and
    /// the persistence footer serializes).
    pub fn index_entries(&self) -> &[ChunkIndexEntry] {
        &self.index
    }

    /// Global metadata of an attribute.
    pub fn meta(&self, attr_idx: usize) -> &ColumnMeta {
        self.meta.meta(attr_idx)
    }

    /// All metas.
    pub fn metas(&self) -> &[ColumnMeta] {
        self.meta.metas()
    }

    /// The global dictionary of a string (or user) attribute.
    pub fn global_dict(&self, attr_idx: usize) -> Option<&GlobalDict> {
        self.meta.global_dict(attr_idx)
    }

    /// Resolve a string to its global id in an attribute's dictionary.
    pub fn lookup_gid(&self, attr_idx: usize, value: &str) -> Option<u32> {
        self.meta.lookup_gid(attr_idx, value)
    }

    /// The string for a global id of an attribute.
    pub fn gid_value(&self, attr_idx: usize, gid: u32) -> &Arc<str> {
        self.meta.gid_value(attr_idx, gid)
    }

    /// Decode one value (slow path, used by tests/decompression).
    pub fn decode_value(&self, chunk_idx: usize, row: usize, attr_idx: usize) -> Value {
        let chunk = &self.chunks[chunk_idx];
        if attr_idx == self.schema().user_idx() {
            let gid = chunk.user_rle().user_at_row(row).expect("row within chunk");
            return Value::Str(self.gid_value(attr_idx, gid).clone());
        }
        match chunk.column_required(attr_idx) {
            col @ ChunkColumn::Str { .. } => {
                Value::Str(self.gid_value(attr_idx, col.gid_at(row)).clone())
            }
            col @ ChunkColumn::Int { .. } => Value::Int(col.int_value(row)),
        }
    }

    /// Fully decompress back to an [`ActivityTable`] (round-trip testing and
    /// export).
    pub fn decompress(&self) -> Result<ActivityTable> {
        let mut builder = TableBuilder::with_capacity(self.schema().clone(), self.num_rows());
        for chunk in &self.chunks {
            for values in chunk_rows(&self.meta, chunk) {
                builder.push(values).map_err(|e| StorageError::Corrupt(e.to_string()))?;
            }
        }
        builder.finish().map_err(|e| StorageError::Corrupt(e.to_string()))
    }
}

/// Decode every row of one fully materialized chunk back into values, in
/// storage order — the row export behind [`CompressedTable::decompress`].
/// Nothing that rewrites a table goes through rows; see `crate::rewrite`.
fn chunk_rows(meta: &TableMeta, chunk: &Chunk) -> Vec<Vec<Value>> {
    let schema = meta.schema();
    let user_idx = schema.user_idx();
    let n = chunk.num_rows();
    // Block-decode every column once (one `unpack_range` sweep) instead of
    // a per-row, per-attribute packed-word probe; the row loop below then just assembles values.
    let mut cols: Vec<Option<(&ChunkColumn, Vec<u64>)>> = Vec::with_capacity(schema.arity());
    for attr in 0..schema.arity() {
        if attr == user_idx {
            cols.push(None);
            continue;
        }
        let col = chunk.column_required(attr);
        let mut codes = vec![0u64; n];
        col.packed().unpack_range(0, n, &mut codes);
        cols.push(Some((col, codes)));
    }
    let mut out = Vec::with_capacity(n);
    for run in chunk.user_rle().runs() {
        let user = meta.gid_value(user_idx, run.user_gid).clone();
        for row in run.first as usize..(run.first + run.count) as usize {
            let mut values = Vec::with_capacity(schema.arity());
            for (attr, col) in cols.iter().enumerate() {
                let Some((col, codes)) = col else {
                    values.push(Value::Str(user.clone()));
                    continue;
                };
                values.push(match col {
                    ChunkColumn::Str { dict, .. } => {
                        Value::Str(meta.gid_value(attr, dict.global_id(codes[row] as u32)).clone())
                    }
                    ChunkColumn::Int { min, .. } => Value::Int(min + codes[row] as i64),
                });
            }
            out.push(values);
        }
    }
    out
}

/// Validate one chunk's structure against the table-level metadata: the RLE
/// user column must describe contiguous runs covering exactly the chunk's
/// rows with in-range user gids, and every non-user column must be
/// materialized with a header that agrees with the metadata
/// ([`validate_column_header`]). Per-value code ranges are **not** walked:
/// chunks decoded by [`crate::persist`] carry them by construction, and
/// [`CompressedTable::validate_consistency`] checks them itself. Partial
/// chunks validate each piece as it is decoded with [`validate_rle`] /
/// [`validate_column_header`] instead.
pub(crate) fn validate_chunk(meta: &TableMeta, ci: usize, chunk: &Chunk) -> Result<()> {
    validate_rle(meta, ci, chunk.user_rle(), chunk.num_rows())?;
    let user_idx = meta.schema().user_idx();
    for (idx, col) in chunk.columns().iter().enumerate() {
        match col {
            None if idx == user_idx => {}
            None => {
                return Err(StorageError::Corrupt(format!(
                    "chunk {ci}: column {idx}: segment missing"
                )))
            }
            Some(col) => validate_column_header(meta, ci, idx, col)?,
        }
    }
    Ok(())
}

/// Validate an RLE user column on its own: contiguous runs, in-range user
/// gids, counts covering exactly `num_rows` rows.
pub(crate) fn validate_rle(
    meta: &TableMeta,
    ci: usize,
    rle: &UserRle,
    num_rows: usize,
) -> Result<()> {
    let user_idx = meta.schema().user_idx();
    let user_dict_len = match meta.meta(user_idx) {
        ColumnMeta::User { dict } => dict.len() as u64,
        _ => return Err(StorageError::Corrupt("user meta missing at user index".into())),
    };
    let corrupt = |msg: String| StorageError::Corrupt(format!("chunk {ci}: {msg}"));
    let mut expected_first = 0u64;
    for run in rle.runs() {
        if (run.user_gid as u64) >= user_dict_len {
            return Err(corrupt(format!("user gid {} out of range", run.user_gid)));
        }
        if run.first as u64 != expected_first || run.count == 0 {
            return Err(corrupt("user runs not contiguous".into()));
        }
        expected_first += run.count as u64;
    }
    if expected_first != num_rows as u64 {
        return Err(corrupt("user runs do not cover chunk rows".into()));
    }
    Ok(())
}

/// The O(dictionary) half of column validation: the segment's kind agrees
/// with the attribute's metadata, chunk dict ids resolve into the global
/// dictionary, and an integer range is ordered. What every file-backed path
/// runs on a freshly decoded segment — the per-value half was proved by the
/// decoder.
pub(crate) fn validate_column_header(
    meta: &TableMeta,
    ci: usize,
    idx: usize,
    col: &ChunkColumn,
) -> Result<()> {
    let corrupt = |msg: String| StorageError::Corrupt(format!("chunk {ci}: column {idx}: {msg}"));
    match (col, meta.meta(idx)) {
        (ChunkColumn::Str { dict, .. }, ColumnMeta::Str { dict: global }) => {
            match dict.global_ids().last() {
                Some(&max_gid) if max_gid as usize >= global.len() => {
                    Err(corrupt(format!("chunk dict gid {max_gid} out of range")))
                }
                _ => Ok(()),
            }
        }
        (ChunkColumn::Int { min, max, .. }, ColumnMeta::Int { .. }) if min > max => {
            Err(corrupt("min > max".into()))
        }
        (ChunkColumn::Int { .. }, ColumnMeta::Int { .. }) => Ok(()),
        _ => Err(corrupt("segment kind disagrees with metadata".into())),
    }
}

/// The per-value half: codes within the chunk dictionary, deltas within the
/// chunk range, through [`BitPacked::max_value`](crate::BitPacked::max_value)'s
/// block kernel. Only [`CompressedTable::validate_consistency`] calls this;
/// no file read path does.
fn validate_codes(ci: usize, idx: usize, col: &ChunkColumn) -> Result<()> {
    col.check_code_range(col.packed().max_value()).map_err(|e| e.in_column(ci, idx))
}

#[cfg(test)]
mod tests {
    use super::*;
    use cohana_activity::{generate, GeneratorConfig};

    fn sample() -> ActivityTable {
        generate(&GeneratorConfig::small())
    }

    #[test]
    fn roundtrip_decompress() {
        let t = sample();
        let c = CompressedTable::build(&t, CompressionOptions::default()).unwrap();
        let back = c.decompress().unwrap();
        assert_eq!(back.num_rows(), t.num_rows());
        assert_eq!(back.rows(), t.rows());
    }

    /// `c` with one code of chunk 0's `attr` column replaced.
    fn with_code(
        c: &CompressedTable,
        attr: usize,
        code: impl Fn(&ChunkColumn) -> u64,
    ) -> Vec<Chunk> {
        let chunk = &c.chunks()[0];
        let mut cols = chunk.columns().to_vec();
        let col = chunk.column_required(attr);
        let mut codes = col.packed().to_vec();
        codes[1] = code(col);
        let packed = crate::BitPacked::from_slice(&codes);
        cols[attr] = Some(Arc::new(match col {
            ChunkColumn::Str { dict, .. } => ChunkColumn::Str { dict: dict.clone(), codes: packed },
            ChunkColumn::Int { min, max, .. } => {
                ChunkColumn::Int { min: *min, max: *max, deltas: packed }
            }
        }));
        let mut chunks = c.chunks().to_vec();
        chunks[0] = Chunk::from_shared(Arc::new(chunk.user_rle().clone()), cols).unwrap();
        chunks
    }

    #[test]
    fn validate_consistency_walks_code_ranges_on_any_table() {
        let c =
            CompressedTable::build(&sample(), CompressionOptions::with_chunk_size(256)).unwrap();
        c.validate_consistency().unwrap();
        let schema = c.schema().clone();
        for (attr, code, what) in [
            (
                schema.action_idx(),
                (|col: &ChunkColumn| col.dict().unwrap().len() as u64) as fn(&ChunkColumn) -> u64,
                "code out of range",
            ),
            (
                schema.time_idx(),
                |col: &ChunkColumn| {
                    let (min, max) = col.int_range().unwrap();
                    (max - min) as u64 + 1
                },
                "delta out of range",
            ),
        ] {
            // Structure alone — all `from_parts` checks, because its callers
            // proved the ranges while decoding — does not see the bad code;
            // the full public check does, and names where it is.
            let bad = CompressedTable::from_parts(
                schema.clone(),
                c.metas().to_vec(),
                with_code(&c, attr, code),
                c.num_rows(),
                c.options(),
            )
            .unwrap();
            match bad.validate_consistency() {
                Err(StorageError::Corrupt(msg)) => {
                    assert_eq!(msg, format!("chunk 0: column {attr}: {what}"));
                }
                other => panic!("expected Corrupt, got {other:?}"),
            }
        }
    }

    #[test]
    fn users_never_split_across_chunks() {
        let t = sample();
        // Tiny chunks force many chunk boundaries.
        let c = CompressedTable::build(&t, CompressionOptions::with_chunk_size(64)).unwrap();
        assert!(c.chunks().len() > 1, "expected multiple chunks");
        let mut seen = std::collections::HashSet::new();
        for chunk in c.chunks() {
            for run in chunk.user_rle().runs() {
                assert!(seen.insert(run.user_gid), "user {} split across chunks", run.user_gid);
            }
        }
        assert_eq!(seen.len(), c.num_users());
    }

    #[test]
    fn chunk_size_trades_chunk_count() {
        let t = sample();
        let small = CompressedTable::build(&t, CompressionOptions::with_chunk_size(128)).unwrap();
        let large =
            CompressedTable::build(&t, CompressionOptions::with_chunk_size(1 << 20)).unwrap();
        assert!(small.chunks().len() > large.chunks().len());
        assert_eq!(large.chunks().len(), 1);
    }

    #[test]
    fn smaller_chunks_use_fewer_bits_per_value() {
        // Fewer users per chunk -> smaller chunk dictionaries -> narrower
        // codes. Payload bytes (excluding per-chunk dictionary overhead)
        // should not grow when chunks shrink; the paper's Figure 7 shows
        // total size growing with chunk size.
        let t = generate(&GeneratorConfig::new(300));
        let small = CompressedTable::build(&t, CompressionOptions::with_chunk_size(256)).unwrap();
        let large =
            CompressedTable::build(&t, CompressionOptions::with_chunk_size(1 << 20)).unwrap();
        let code_bytes = |ct: &CompressedTable| -> usize {
            ct.chunks()
                .iter()
                .map(|ch| {
                    ch.columns()
                        .iter()
                        .flatten()
                        .map(|c| match &**c {
                            ChunkColumn::Str { codes, .. } => codes.packed_bytes(),
                            ChunkColumn::Int { deltas, .. } => deltas.packed_bytes(),
                        })
                        .sum::<usize>()
                })
                .sum()
        };
        assert!(code_bytes(&small) <= code_bytes(&large));
    }

    #[test]
    fn lookup_and_decode() {
        let t = sample();
        let c = CompressedTable::build(&t, CompressionOptions::default()).unwrap();
        let aidx = t.schema().action_idx();
        let gid = c.lookup_gid(aidx, "launch").expect("launch exists");
        assert_eq!(c.gid_value(aidx, gid).as_ref(), "launch");
        assert_eq!(c.lookup_gid(aidx, "no-such-action"), None);
    }

    #[test]
    fn rejects_zero_chunk_size() {
        let t = sample();
        assert!(CompressedTable::build(&t, CompressionOptions::with_chunk_size(0)).is_err());
    }

    #[test]
    fn empty_table_compresses() {
        let t = cohana_activity::TableBuilder::new(Schema::game_actions()).finish().unwrap();
        let c = CompressedTable::build(&t, CompressionOptions::default()).unwrap();
        assert_eq!(c.num_rows(), 0);
        assert_eq!(c.chunks().len(), 0);
        assert_eq!(c.decompress().unwrap().num_rows(), 0);
    }
}
