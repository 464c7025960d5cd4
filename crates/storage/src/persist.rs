//! Binary persistence of compressed tables.
//!
//! # v4: the codec-compressed column-addressable format
//!
//! Every chunk's segments are written as **independently addressable
//! blobs** — the RLE user column first, then one blob per remaining
//! attribute — followed by a footer that records, per chunk, the byte
//! location of every blob plus per-column statistics, and finally the
//! footer length + magic (the Parquet `RowGroupMetaData` /
//! `ColumnChunkMetaData` layout, adapted to COHANA's user-clustered
//! chunks). New in v4, each column blob's packed-array section is run
//! through the smallest of the [`crate::codec`] codecs (raw /
//! delta-then-pack / rANS) at write time, and the footer's blob record
//! grows a codec tag plus the blob's uncompressed (v3-serialized) size:
//!
//! ```text
//! ┌────────────────────────────────────────────────────────────────────┐
//! │ magic "COHA" u32 │ version=4 u32                                   │  header
//! ├────────────────────────────────────────────────────────────────────┤
//! │ chunk 0: rle blob │ col 1 blob │ col 2 blob │ …                    │  payload
//! │ chunk 1: rle blob │ col 1 blob │ …                                 │
//! ├────────────────────────────────────────────────────────────────────┤
//! │ chunk_size u64                                                     │  footer
//! │ schema (arity u16, then name │ vtype u8 │ role u8 per attribute)   │
//! │ one ColumnMeta per attribute (dictionaries / ranges)               │
//! │ num_rows u64 │ chunk_count u32                                     │
//! │ per chunk: rle offset u64 │ len u64 │ codec u8 │ uncompressed u64  │
//! │            per attribute: offset u64 │ len u64 │ codec u8 │        │
//! │                           uncompressed u64  (all-zero for user)    │
//! │            rows u64 │ users u64 │ time_min i64 │ time_max i64      │
//! │            n_actions u32 │ gids…                                   │
//! │            per attribute: stats (user u8=0 │ str u8=1 + distinct   │
//! │                                  u32 │ int u8=2 + min i64 + max)   │
//! ├────────────────────────────────────────────────────────────────────┤
//! │ footer_len u64 │ magic "COHA" u32                                  │  tail
//! └────────────────────────────────────────────────────────────────────┘
//! ```
//!
//! All integers are little-endian. Each blob is self-contained given its
//! footer record, so any single column of any chunk can be fetched and
//! decoded from its `(offset, len, codec, uncompressed)` alone — the
//! property projection pushdown builds on:
//! [`FileSource`](crate::source::FileSource) opens in O(footer), prunes
//! chunks from index entries, and then reads **only the bytes of the
//! columns the plan projects**. A `Raw` blob is byte-identical to its v3
//! form (the RLE blob always is); `Delta`/`Ans` blobs keep their header
//! (tag byte, chunk dictionary gids, int min/max) raw and entropy-code
//! only the packed array, decoding back into the exact
//! [`BitPacked`] the raw path would produce — cursors, `unpack_range`
//! and the morsel executor never see the difference.
//!
//! # What a decoded column guarantees
//!
//! Every [`ChunkColumn`] this module returns — from a v1/v2 chunk blob, a
//! raw v3 blob or a codec-compressed v4 blob, on the eager, lazy and append
//! paths alike — has **in-range codes**: each chunk id of a string segment
//! indexes its chunk dictionary, each delta of an integer segment lies
//! within the segment's own `max − min` (and `min ≤ max`). It is a
//! construction invariant, established in one place (`ColumnHeader::with_codes`)
//! from a bound the decode itself produces: the delta decoder's running
//! maximum, the ANS table's top symbol (re-examined against the exact
//! maximum only if it fails, since a crafted table may list a symbol its
//! stream never produces), or, for raw sections, one block-decode pass over
//! the words. Callers therefore check only what relates a column to the
//! *table* — its kind, its dictionary's gids against the global dictionary,
//! the footer's statistics (`table::validate_column_header`,
//! `FileSource::fetch_column`) — and never walk the values again before the
//! scan reads them.
//!
//! # Appending
//!
//! v4 files grow in place: [`append`] writes a batch's chunks after the old
//! end of file and re-serializes the footer at the new tail, leaving every
//! previously written byte untouched (old footers and superseded chunk
//! versions become dead bytes until [`compact`] reclaims them). Dictionary
//! growth is recorded as per-epoch gid remaps in the footer instead of
//! rewriting blobs; chunks holding users that reappear in a batch are
//! rewritten so no user ever spans two chunks — spliced and re-cut in their
//! columnar form by `crate::rewrite`, never through rows. See
//! `docs/FORMAT.md` for the exact layout and `crate::writer::TableWriter`
//! for the batching front end.
//!
//! # v3, v2 and v1: read, never written
//!
//! [`to_bytes`] writes v4 and nothing else; the older formats are read-only.
//! v3 files (raw column-addressable blobs, the pre-codec format) read through
//! every path — eager, lazy, compact — and migrate on their first append:
//! [`compact`] rewrites one as the v4 image its table builds to, and the
//! batch is appended to that. v2 files (whole-chunk blobs, footer-indexed)
//! are read eagerly via [`from_bytes`]/[`read_file`] and lazily via
//! `FileSource`, which degrades to whole-chunk fetches since a v2 chunk is
//! one blob. v1 files (a single eager header-first blob, no footer) are read
//! by [`from_bytes`] only. Neither v1 nor v2 can grow or be compacted:
//! load one eagerly and re-save it with [`write_file`] to migrate. The tests
//! read golden v1–v3 images from `tests/fixtures/`.

use crate::bitpack::BitPacked;
use crate::chunk::Chunk;
use crate::codec::{self, Codec, SectionEncoder};
use crate::column::ChunkColumn;
use crate::dict::{ChunkDict, GlobalDict};
use crate::rewrite::{self, Splice};
use crate::rle::UserRle;
use crate::source::{ChunkIndexEntry, ColumnStats};
use crate::table::{ColumnMeta, CompressedTable, CompressionOptions, TableMeta};
use crate::{Result, StorageError};
use bytes::{Buf, BufMut, Bytes, BytesMut};
use cohana_activity::{ActivityTable, Attribute, AttributeRole, Schema, ValueType};
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::Path;
use std::sync::Arc;

pub(crate) const MAGIC: u32 = 0x434F_4841; // "COHA"
/// Current on-disk format version (column-addressable, per-blob codecs).
pub const VERSION: u32 = 4;
/// Bytes before the first blob: magic + version.
const HEADER_LEN: u64 = 8;
/// Bytes after the footer: footer_len u64 + magic u32.
const TAIL_LEN: u64 = 12;

/// Serialize a compressed table into the current (v4, column-addressable
/// with per-blob codecs) format — the only format this module writes.
pub fn to_bytes(table: &CompressedTable) -> Bytes {
    image(table).0
}

/// A whole v4 image, plus where it put every chunk's blobs and where its
/// footer starts.
fn image(table: &CompressedTable) -> (Bytes, Vec<ChunkLayout>, u64) {
    let mut buf = BytesMut::new();
    buf.put_u32_le(MAGIC);
    buf.put_u32_le(VERSION);
    let layouts = write_blobs(&mut buf, table.chunks(), table.schema(), 0);
    let footer_start = buf.len() as u64;
    write_footer(
        &mut buf,
        table.options().chunk_size,
        table.schema(),
        table.metas(),
        table.num_rows() as u64,
        &layouts,
        table.index_entries(),
        &[],
        &[],
    );
    let footer_len = buf.len() as u64 - footer_start;
    buf.put_u64_le(footer_len);
    buf.put_u32_le(MAGIC);
    (buf.freeze(), layouts, footer_start)
}

/// Write every chunk's blobs back-to-back into `buf`, returning their
/// layouts with offsets shifted by `base` (the file offset `buf[0]` will
/// land at — 0 when writing a whole image, the old file size when writing an
/// appended region). Every column blob goes through codec selection; the RLE
/// blob is always raw (its three packed arrays carry the scan-critical user
/// runs, decoded for every touched chunk).
fn write_blobs(
    buf: &mut BytesMut,
    chunks: &[Chunk],
    schema: &Schema,
    base: u64,
) -> Vec<ChunkLayout> {
    let arity = schema.arity();
    let user_idx = schema.user_idx();
    let mut layouts = Vec::with_capacity(chunks.len());
    let mut encoder = SectionEncoder::default();
    for chunk in chunks {
        let rle_offset = base + buf.len() as u64;
        write_rle_blob(buf, chunk.user_rle());
        let rle = BlobLoc::raw(rle_offset, base + buf.len() as u64 - rle_offset);
        let mut cols = vec![BlobLoc::absent(); arity];
        for (idx, slot) in cols.iter_mut().enumerate() {
            if idx == user_idx {
                continue;
            }
            let offset = base + buf.len() as u64;
            let (codec, uncompressed) =
                write_column_blob_v4(buf, chunk.column_required(idx), &mut encoder);
            *slot = BlobLoc { offset, len: base + buf.len() as u64 - offset, codec, uncompressed };
        }
        layouts.push(ChunkLayout { rle, cols });
    }
    layouts
}

/// Write a v4 footer (everything between the last blob and the tail):
/// options + schema + global column metadata, the per-chunk index, and — for
/// appended files — the dictionary-epoch extension. `epochs` and
/// `chunk_epochs` must be empty or sized together (`chunk_epochs.len() ==
/// layouts.len()`).
#[allow(clippy::too_many_arguments)]
fn write_footer(
    buf: &mut BytesMut,
    chunk_size: usize,
    schema: &Schema,
    metas: &[ColumnMeta],
    num_rows: u64,
    layouts: &[ChunkLayout],
    entries: &[ChunkIndexEntry],
    epochs: &[EpochRemaps],
    chunk_epochs: &[u32],
) {
    let arity = schema.arity();
    let write_loc = |buf: &mut BytesMut, loc: &BlobLoc| {
        buf.put_u64_le(loc.offset);
        buf.put_u64_le(loc.len);
        buf.put_u8(loc.codec.tag());
        buf.put_u64_le(loc.uncompressed);
    };
    buf.put_u64_le(chunk_size as u64);
    write_schema(buf, schema);
    for meta in metas {
        write_meta(buf, meta);
    }
    buf.put_u64_le(num_rows);
    buf.put_u32_le(layouts.len() as u32);
    for (layout, entry) in layouts.iter().zip(entries) {
        write_loc(buf, &layout.rle);
        for loc in &layout.cols {
            write_loc(buf, loc);
        }
        write_entry_base(buf, entry);
        debug_assert_eq!(entry.column_stats.len(), arity);
        for stats in &entry.column_stats {
            write_column_stats(buf, stats);
        }
    }
    // The epoch extension is omitted entirely when every chunk is current,
    // keeping never-appended images byte-identical to build-once images.
    if !epochs.is_empty() {
        debug_assert_eq!(chunk_epochs.len(), layouts.len());
        buf.put_u32_le(epochs.len() as u32);
        for epoch in chunk_epochs {
            buf.put_u32_le(*epoch);
        }
        for per_attr in epochs {
            debug_assert_eq!(per_attr.len(), arity);
            for remap in per_attr {
                match remap {
                    None => buf.put_u8(0),
                    Some(remap) => {
                        buf.put_u8(1);
                        buf.put_u32_le(remap.len() as u32);
                        for gid in remap.iter() {
                            buf.put_u32_le(*gid);
                        }
                    }
                }
            }
        }
    }
}

/// Deserialize a compressed table from bytes (v1–v4), materializing every
/// chunk.
pub fn from_bytes(data: &[u8]) -> Result<CompressedTable> {
    let mut buf = data;
    let magic = get_u32(&mut buf)?;
    if magic != MAGIC {
        return Err(StorageError::Corrupt(format!("bad magic {magic:#x}")));
    }
    match get_u32(&mut buf)? {
        1 => from_bytes_v1(buf),
        v @ 2..=4 => from_bytes_footered(data, v),
        v => Err(StorageError::BadVersion(v)),
    }
}

/// v1: header-first eager blob; `buf` starts right after magic + version.
fn from_bytes_v1(mut buf: &[u8]) -> Result<CompressedTable> {
    let chunk_size = get_u64(&mut buf)? as usize;
    let schema = read_schema(&mut buf)?;
    let mut metas = Vec::with_capacity(schema.arity());
    for _ in 0..schema.arity() {
        metas.push(read_meta(&mut buf)?);
    }
    let num_rows = get_u64(&mut buf)? as usize;
    let num_chunks = get_u32(&mut buf)? as usize;
    // Guard the chunk count before allocating: every chunk needs at least its
    // three packed-array headers and its column count.
    if num_chunks > buf.remaining() / 29 {
        return Err(StorageError::Corrupt(format!("chunk count {num_chunks} overruns input")));
    }
    let mut chunks = Vec::with_capacity(num_chunks);
    for _ in 0..num_chunks {
        chunks.push(read_chunk(&mut buf, schema.arity())?);
    }
    if buf.has_remaining() {
        return Err(StorageError::Corrupt(format!("{} trailing bytes", buf.remaining())));
    }
    CompressedTable::from_parts(
        schema,
        metas,
        chunks,
        num_rows,
        CompressionOptions::with_chunk_size(chunk_size.max(1)),
    )
}

/// v2/v3/v4: parse the footer from the tail, then decode every blob.
fn from_bytes_footered(data: &[u8], version: u32) -> Result<CompressedTable> {
    let footer = parse_footer_region(data, version)?;
    let arity = footer.meta.schema().arity();
    let mut chunks = Vec::with_capacity(footer.locations.len());
    match &footer.layouts {
        // v3/v4: assemble each chunk from its independently addressed blobs.
        Some(layouts) => {
            let user_idx = footer.meta.schema().user_idx();
            for (ci, layout) in layouts.iter().enumerate() {
                let corrupt = |e: StorageError| StorageError::Corrupt(format!("chunk {ci}: {e}"));
                let (start, end) =
                    (layout.rle.offset as usize, (layout.rle.offset + layout.rle.len) as usize);
                let mut rle = decode_rle_blob(&data[start..end]).map_err(corrupt)?;
                if let Some(remap) = footer.remap_for(ci, user_idx) {
                    rle = rle.remap_users(remap).map_err(corrupt)?;
                }
                let mut columns: Vec<Option<Arc<ChunkColumn>>> = vec![None; arity];
                for (idx, loc) in layout.cols.iter().enumerate() {
                    if idx == user_idx {
                        continue;
                    }
                    let (start, end) = (loc.offset as usize, (loc.offset + loc.len) as usize);
                    let col_err = |e: StorageError| e.in_column(ci, idx);
                    let mut col =
                        decode_column_blob_loc(&data[start..end], loc).map_err(col_err)?;
                    if let Some(remap) = footer.remap_for(ci, idx) {
                        col = col.remap_gids(remap).map_err(col_err)?;
                    }
                    columns[idx] = Some(Arc::new(col));
                }
                chunks.push(Chunk::from_shared(Arc::new(rle), columns)?);
            }
        }
        // v2: one self-contained blob per chunk.
        None => {
            for (ci, (offset, len)) in footer.locations.iter().enumerate() {
                let (start, end) = (*offset as usize, (*offset + *len) as usize);
                let chunk = decode_chunk_blob(&data[start..end], arity)
                    .map_err(|e| StorageError::Corrupt(format!("chunk {ci}: {e}")))?;
                chunks.push(chunk);
            }
        }
    }
    let table = CompressedTable::from_parts(
        footer.meta.schema().clone(),
        footer.meta.metas().to_vec(),
        chunks,
        footer.meta.num_rows(),
        footer.meta.options(),
    )?;
    // The footer's index entries are untrusted input: they must agree with
    // the entries recomputed from the decoded chunks, or pruning decisions
    // would silently disagree with the data. (v2 entries carry no column
    // stats and compare on their base fields.)
    let consistent = table
        .index_entries()
        .iter()
        .zip(footer.entries.iter())
        .all(|(computed, stored)| stored.matches(computed));
    if !consistent || table.index_entries().len() != footer.entries.len() {
        return Err(StorageError::Corrupt("footer index disagrees with chunk payloads".into()));
    }
    Ok(table)
}

/// Write a compressed table to a file (current v4 format).
pub fn write_file(table: &CompressedTable, path: &Path) -> Result<()> {
    std::fs::write(path, to_bytes(table))?;
    Ok(())
}

/// Read a compressed table from a file (any version), materializing every
/// chunk. For lazy access to v2/v3 files use
/// [`FileSource`](crate::source::FileSource) instead.
pub fn read_file(path: &Path) -> Result<CompressedTable> {
    let data = std::fs::read(path)?;
    from_bytes(&data)
}

// ----------------------------------------------------------------- append

/// What one [`append`] did to a file.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct AppendStats {
    /// Tuples in the appended batch.
    pub rows_appended: usize,
    /// Chunks in the file before the append.
    pub chunks_before: usize,
    /// Chunks in the file after the append.
    pub chunks_after: usize,
    /// Old chunks that had to be re-encoded because the batch contained
    /// activity of users already living in them (chunking never splits a
    /// user, so a returning user's old and new tuples must land in one
    /// chunk). Their previous blob versions become dead bytes.
    pub chunks_rewritten: usize,
    /// Bytes written at the tail (new blobs + footer + tail marker).
    pub bytes_appended: u64,
    /// Dead bytes now in the file: superseded footers and rewritten chunk
    /// versions, reclaimable by [`compact`].
    pub dead_bytes: u64,
    /// Total file size after the append.
    pub file_bytes: u64,
}

/// What one [`compact`] reclaimed.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct CompactStats {
    /// File size before compaction.
    pub bytes_before: u64,
    /// File size after compaction.
    pub bytes_after: u64,
    /// `bytes_before - bytes_after` (0 if the rewrite grew the file).
    pub reclaimed_bytes: u64,
    /// Chunks before compaction (appends leave under-filled chunks).
    pub chunks_before: usize,
    /// Chunks after re-chunking at the configured target size.
    pub chunks_after: usize,
    /// Total tuples (unchanged by compaction).
    pub rows: usize,
}

/// Check that a file starts with a growable (v3/v4) header and return its
/// version, with an operation-specific hint for v1/v2 files (which are
/// immutable snapshots in those formats).
fn require_growable(header: &[u8], what: &str) -> Result<u32> {
    let mut cur = header;
    let magic = get_u32(&mut cur)?;
    if magic != MAGIC {
        return Err(StorageError::Corrupt(format!("bad magic {magic:#x}")));
    }
    match get_u32(&mut cur)? {
        v @ (3 | 4) => Ok(v),
        v @ (1 | 2) => Err(StorageError::Unsupported(format!(
            "cannot {what} a version {v} file: only v3+ column-addressable files support in-place \
             growth; load it eagerly with persist::read_file and re-save with persist::write_file \
             to migrate"
        ))),
        v => Err(StorageError::BadVersion(v)),
    }
}

/// Fill `buf` from `offset` without touching the handle's cursor: one
/// `pread` per blob, safe to issue from several threads at once.
#[cfg(unix)]
pub(crate) fn fill_at(file: &std::fs::File, buf: &mut [u8], offset: u64) -> std::io::Result<()> {
    std::os::unix::fs::FileExt::read_exact_at(file, buf, offset)
}

#[cfg(windows)]
pub(crate) fn fill_at(
    file: &std::fs::File,
    mut buf: &mut [u8],
    mut offset: u64,
) -> std::io::Result<()> {
    use std::os::windows::fs::FileExt;
    while !buf.is_empty() {
        match file.seek_read(buf, offset) {
            Ok(0) => return Err(std::io::ErrorKind::UnexpectedEof.into()),
            Ok(n) => {
                let rest = buf;
                buf = &mut rest[n..];
                offset += n as u64;
            }
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    Ok(())
}

fn read_exact_at(file: &std::fs::File, offset: u64, len: u64) -> Result<Vec<u8>> {
    let mut buf = vec![0u8; len as usize];
    fill_at(file, &mut buf, offset)?;
    Ok(buf)
}

/// Decode the columns of one chunk of an open v3/v4 file into
/// current-dictionary terms, around its already decoded (and remapped) user
/// column.
fn read_chunk_at(
    file: &std::fs::File,
    footer: &Footer,
    layout: &ChunkLayout,
    ci: usize,
    rle: UserRle,
) -> Result<Chunk> {
    let schema = footer.meta.schema();
    let mut columns: Vec<Option<Arc<ChunkColumn>>> = vec![None; schema.arity()];
    for (idx, loc) in layout.cols.iter().enumerate() {
        if idx == schema.user_idx() {
            continue;
        }
        let col_err = |e: StorageError| e.in_column(ci, idx);
        let mut col = decode_column_blob_loc(&read_exact_at(file, loc.offset, loc.len)?, loc)
            .map_err(col_err)?;
        if let Some(remap) = footer.remap_for(ci, idx) {
            col = col.remap_gids(remap).map_err(col_err)?;
        }
        columns[idx] = Some(Arc::new(col));
    }
    let chunk = Chunk::from_shared(Arc::new(rle), columns)?;
    crate::table::validate_chunk(&footer.meta, ci, &chunk)?;
    Ok(chunk)
}

/// Compose two remap steps: `a` maps an epoch's gids into the previous
/// current dictionary, `step` maps the previous current dictionary into the
/// new one. `None` is the identity.
fn compose_remaps(a: &EpochRemaps, step: &EpochRemaps) -> Result<EpochRemaps> {
    a.iter()
        .zip(step)
        .map(|(a, s)| match (a, s) {
            (None, None) => Ok(None),
            (None, Some(s)) => Ok(Some(s.clone())),
            (Some(a), None) => Ok(Some(a.clone())),
            (Some(a), Some(s)) => {
                let composed: Result<Vec<u32>> = a
                    .iter()
                    .map(|&g| {
                        s.get(g as usize).copied().ok_or_else(|| {
                            StorageError::Corrupt(format!(
                                "epoch remap gid {g} outside the next step (size {})",
                                s.len()
                            ))
                        })
                    })
                    .collect();
                Ok(Some(Arc::new(composed?)))
            }
        })
        .collect()
}

/// Extend an existing v4 file **in place** with a batch of activity tuples.
/// A v3 file is first migrated: [`compact`] rewrites it as the v4 image
/// building its table once would give, and the batch is appended to that.
///
/// The batch is encoded into chunk-sized runs against the file's
/// dictionaries *merged* with the batch's new values; the new chunks' blobs
/// are written after the old footer position and a fresh footer is
/// serialized at the tail. Nothing already on disk is re-encoded **except**
/// chunks holding users that also appear in the batch: a returning user's
/// old and new tuples must live in one chunk (the §4.1 invariant every
/// executor pass relies on), so those chunks' user runs are block-decoded,
/// spliced with each user's new activity (appended when it is later than
/// what the run holds, merged by `(time, action)` otherwise), re-cut at the
/// chunk size together with the batch's new users, and re-appended — their
/// old blob versions, like the old footer, become dead bytes until
/// [`compact`] reclaims them. No chunk comes out larger than `chunk_size`
/// plus its last user.
///
/// New dictionary values that sort into the middle of a global dictionary do
/// **not** shift the ids stored in existing blobs: the footer records, per
/// dictionary *epoch*, the strictly increasing remap from that epoch's gids
/// into the merged dictionary, and the decode path re-bases old chunks
/// through it. The merged dictionaries stay sorted, so `rank`-based ordering
/// predicates remain valid.
///
/// v1/v2 files are rejected with [`StorageError::Unsupported`] — re-save
/// them first. The batch must have the file's schema, and its primary keys
/// must not collide with existing tuples: a collision is
/// [`StorageError::Invalid`] and leaves the file's rows untouched (a v3 file
/// stays migrated).
///
/// Readers holding the file open (e.g. a
/// [`FileSource`](crate::source::FileSource)) are unaffected: their footer
/// still describes exactly the bytes it did at open time. Re-open to
/// observe the appended data.
///
/// **Single writer.** Appends are not internally synchronized: two
/// concurrent `append`s to one file would read the same footer and write
/// overlapping tails, corrupting it. Serialize writers externally — the
/// shard writers do (a [`ShardLock`](crate::shard::ShardLock) per file);
/// out-of-engine callers own the coordination.
pub fn append(path: &Path, batch: &ActivityTable) -> Result<AppendStats> {
    Ok(append_with_chunks(path, batch)?.0)
}

/// The chunks a write path encoded, each with its position and blob layout
/// in the footer that write produced. A source opened over that footer can
/// adopt them ([`ShardedSource::open_seeded`](crate::shard::ShardedSource::open_seeded))
/// instead of reading back and decoding what the writer held in memory.
#[derive(Debug, Default)]
pub struct WrittenChunks {
    /// File offset of the footer the write produced.
    pub(crate) footer_start: u64,
    /// `(chunk index in that footer, where its blobs went, the chunk)`, in
    /// the file's own (current) dictionary terms.
    pub(crate) chunks: Vec<(usize, ChunkLayout, Chunk)>,
}

/// [`append`], also handing back the chunks it wrote (none for an empty
/// batch).
pub fn append_with_chunks(
    path: &Path,
    batch: &ActivityTable,
) -> Result<(AppendStats, WrittenChunks)> {
    let mut file = std::fs::OpenOptions::new().read(true).write(true).open(path)?;
    let total = file.seek(SeekFrom::End(0))?;
    if total < HEADER_LEN + TAIL_LEN {
        return Err(StorageError::Corrupt("file too short for header + tail".into()));
    }
    let header = read_exact_at(&file, 0, HEADER_LEN)?;
    let version = require_growable(&header, "append to")?;
    let footer = read_footer_from_file(&mut file)?;
    let schema = footer.meta.schema().clone();
    if &schema != batch.schema() {
        return Err(StorageError::Invalid(
            "append batch schema differs from the file's schema".into(),
        ));
    }
    let chunks_before = footer.locations.len();
    if batch.is_empty() {
        let stats = AppendStats {
            chunks_before,
            chunks_after: chunks_before,
            file_bytes: total,
            dead_bytes: dead_bytes(total, &footer),
            ..AppendStats::default()
        };
        return Ok((stats, WrittenChunks::default()));
    }
    if version == 3 {
        // A v3 file migrates on its first growth: compaction rewrites it as
        // its v4 build-once image (through a rename, so this handle is
        // stale), and the batch is appended to that.
        drop(file);
        compact(path)?;
        return append_with_chunks(path, batch);
    }
    let layouts = footer.layouts.as_ref().expect("v3+ footers always carry layouts").clone();

    // Merge the batch's new values into every dictionary (remembering the
    // strictly increasing step remap of each old dictionary into its merged
    // form), widen integer ranges, and encode the batch in those terms.
    let splice = Splice::plan(&footer.meta, batch)?;

    // Old chunks containing users that also appear in the batch must be
    // rewritten (their RLE blobs are cheap to scan relative to full chunk
    // payloads). Remapping the whole RLE up front surfaces any gid outside
    // its dictionary epoch as corruption instead of silently misclassifying
    // the chunk, and hands the decoded user column to the rewrite below.
    let user_idx = schema.user_idx();
    let mut touched: Vec<(usize, Chunk)> = Vec::new();
    if splice.has_returning_users() {
        for (ci, layout) in layouts.iter().enumerate() {
            let in_chunk = |e: StorageError| StorageError::Corrupt(format!("chunk {ci}: {e}"));
            let blob = read_exact_at(&file, layout.rle.offset, layout.rle.len)?;
            let mut rle = decode_rle_blob(&blob).map_err(in_chunk)?;
            if let Some(remap) = footer.remap_for(ci, user_idx) {
                rle = rle.remap_users(remap).map_err(in_chunk)?;
            }
            if splice.touches(&rle).map_err(in_chunk)? {
                touched.push((ci, read_chunk_at(&file, &footer, layout, ci, rle)?));
            }
        }
    }

    // The delta: every touched chunk's user runs with the batch spliced in,
    // re-cut at the chunk size, against the merged dictionaries. A colliding
    // primary key fails here, before anything is written.
    let delta = splice.rewrite(&touched)?;
    let Splice { metas, step, .. } = splice;

    // Compose the dictionary epochs. Surviving chunks keep their numeric
    // epoch tag: when the step is non-trivial it is pushed as a new epoch at
    // index `old epochs.len()`, exactly the tag previously meaning
    // "current". If nothing survives, the epoch history resets.
    let old_epoch_of = |ci: usize| -> u32 {
        footer.chunk_epochs.get(ci).copied().unwrap_or(footer.epochs.len() as u32)
    };
    let mut rewritten = touched.iter().map(|(ci, _)| *ci).peekable();
    let surviving: Vec<usize> =
        (0..chunks_before).filter(|ci| rewritten.next_if_eq(ci).is_none()).collect();
    let step_identity = step.iter().all(Option::is_none);
    let epochs: Vec<EpochRemaps> = if surviving.is_empty() {
        Vec::new()
    } else if step_identity {
        footer.epochs.clone()
    } else {
        let mut composed: Vec<EpochRemaps> =
            footer.epochs.iter().map(|e| compose_remaps(e, &step)).collect::<Result<_>>()?;
        composed.push(step.clone());
        composed
    };
    let current_epoch = epochs.len() as u32;

    // Assemble the new footer: surviving old chunks (offsets untouched,
    // action gids re-based onto the merged dictionary) followed by the delta
    // chunks at the tail.
    let action_remap = step[schema.action_idx()].as_ref();
    let mut all_layouts: Vec<ChunkLayout> = Vec::with_capacity(surviving.len() + delta.len());
    let mut all_entries: Vec<ChunkIndexEntry> = Vec::with_capacity(all_layouts.capacity());
    let mut chunk_epochs: Vec<u32> = Vec::with_capacity(all_layouts.capacity());
    for &ci in &surviving {
        let mut entry = footer.entries[ci].clone();
        if let Some(remap) = action_remap {
            for gid in &mut entry.action_gids {
                *gid = *remap.get(*gid as usize).ok_or_else(|| {
                    StorageError::Corrupt(format!(
                        "chunk {ci}: action gid {gid} outside the old dictionary"
                    ))
                })?;
            }
        }
        all_layouts.push(layouts[ci].clone());
        all_entries.push(entry);
        chunk_epochs.push(old_epoch_of(ci));
    }
    let mut tail_buf = BytesMut::new();
    let new_layouts = write_blobs(&mut tail_buf, &delta, &schema, total);
    for (layout, chunk) in new_layouts.iter().zip(&delta) {
        all_layouts.push(layout.clone());
        all_entries.push(ChunkIndexEntry::of_chunk(chunk, &schema));
        chunk_epochs.push(current_epoch);
    }
    let num_rows: u64 = all_entries.iter().map(|e| e.num_rows).sum();

    let footer_start = total + tail_buf.len() as u64;
    write_footer(
        &mut tail_buf,
        footer.meta.options().chunk_size,
        &schema,
        &metas,
        num_rows,
        &all_layouts,
        &all_entries,
        &epochs,
        if epochs.is_empty() { &[] } else { &chunk_epochs },
    );
    let footer_len = total + tail_buf.len() as u64 - footer_start;
    tail_buf.put_u64_le(footer_len);
    tail_buf.put_u32_le(MAGIC);

    // One contiguous write at the old EOF: the old footer (still describing
    // exactly the old bytes) is left in place as dead bytes, so a reader
    // that opened the file before this append keeps a consistent snapshot.
    file.seek(SeekFrom::Start(total))?;
    file.write_all(&tail_buf)?;

    let file_bytes = total + tail_buf.len() as u64;
    let live_payload: u64 =
        all_layouts.iter().map(|l| l.rle.len + l.cols.iter().map(|loc| loc.len).sum::<u64>()).sum();
    let stats = AppendStats {
        rows_appended: batch.num_rows(),
        chunks_before,
        chunks_after: all_layouts.len(),
        chunks_rewritten: touched.len(),
        bytes_appended: tail_buf.len() as u64,
        dead_bytes: file_bytes - HEADER_LEN - live_payload - footer_len - TAIL_LEN,
        file_bytes,
    };
    let chunks = (surviving.len()..).zip(new_layouts).zip(delta).map(|((i, l), c)| (i, l, c));
    Ok((stats, WrittenChunks { footer_start, chunks: chunks.collect() }))
}

/// Dead (unreferenced) payload bytes in a parsed file image.
fn dead_bytes(total: u64, footer: &Footer) -> u64 {
    let live: u64 = footer.locations.iter().map(|(_, len)| *len).sum();
    let footer_len = total - TAIL_LEN - footer.payload_end;
    total - HEADER_LEN - live - footer_len - TAIL_LEN
}

/// Space accounting of one on-disk table file, readable from the footer
/// alone — O(footer), no chunk payload is touched. This is what a
/// maintenance policy polls to decide whether a file has accumulated enough
/// superseded bytes (rewritten chunks, earlier footers) to be worth
/// compacting.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FileSpaceStats {
    /// Total size of the file on disk.
    pub file_bytes: u64,
    /// Unreferenced payload bytes: superseded chunk versions and earlier
    /// footers left behind by [`append`], reclaimable by [`compact`].
    pub dead_bytes: u64,
    /// Live rows the current footer describes.
    pub rows: u64,
    /// Chunks the current footer describes.
    pub chunks: usize,
}

impl FileSpaceStats {
    /// Fraction of the file that is dead bytes (0.0 for a freshly built or
    /// freshly compacted file).
    pub fn dead_ratio(&self) -> f64 {
        self.dead_bytes as f64 / self.file_bytes.max(1) as f64
    }
}

/// Read the space accounting of a v2/v3/v4 file: total size plus the dead
/// bytes its current footer no longer references. Costs one footer parse.
pub fn file_space_stats(path: &Path) -> Result<FileSpaceStats> {
    let mut file = std::fs::File::open(path)?;
    let footer = read_footer_from_file(&mut file)?;
    let total = file.metadata()?.len();
    Ok(FileSpaceStats {
        file_bytes: total,
        dead_bytes: dead_bytes(total, &footer),
        rows: footer.entries.iter().map(|e| e.num_rows).sum(),
        chunks: footer.locations.len(),
    })
}

/// Rewrite a v3/v4 file compactly: decode everything (through any
/// dictionary epochs), put every user's run back into the paper's §3
/// `(user, time, action)` primary order, re-chunk at the configured target
/// size, rebuild minimal sorted dictionaries, and atomically replace the
/// file (write to a sibling temp file, then rename). This merges the
/// under-filled chunks appends leave behind, restores the §4.2 pruning
/// quality of time-clustered chunks, drops every dead byte, and resets the
/// epoch history — the image is byte for byte what building the table once
/// from the same tuples writes. The rewrite always emits the current
/// [`VERSION`], so compacting a v3 file doubles as the v3 → v4 migration
/// path.
pub fn compact(path: &Path) -> Result<CompactStats> {
    Ok(compact_with_chunks(path)?.0)
}

/// [`compact`], also handing back the chunks of the new image.
pub fn compact_with_chunks(path: &Path) -> Result<(CompactStats, WrittenChunks)> {
    let data = std::fs::read(path)?;
    let bytes_before = data.len() as u64;
    if data.len() < HEADER_LEN as usize {
        return Err(StorageError::Corrupt("file too short for header".into()));
    }
    require_growable(&data[..HEADER_LEN as usize], "compact")?;
    let table = from_bytes(&data)?;
    let (rebuilt, _) = rewrite::rebuild(table.table_meta(), table.chunks(), &[])?;
    let (bytes, layouts, footer_start) = image(&rebuilt);
    replace_file(path, "compact-tmp", &bytes)?;

    let stats = CompactStats {
        bytes_before,
        bytes_after: bytes.len() as u64,
        reclaimed_bytes: bytes_before.saturating_sub(bytes.len() as u64),
        chunks_before: table.chunks().len(),
        chunks_after: rebuilt.chunks().len(),
        rows: rebuilt.num_rows(),
    };
    let chunks = layouts.into_iter().zip(rebuilt.chunks()).enumerate();
    let chunks = chunks.map(|(i, (layout, chunk))| (i, layout, chunk.clone())).collect();
    Ok((stats, WrittenChunks { footer_start, chunks }))
}

/// Atomically replace `path` with `bytes`: write a sibling `path.<suffix>`
/// file, then rename it over the target, so open readers keep the old inode.
pub(crate) fn replace_file(path: &Path, suffix: &str, bytes: &[u8]) -> Result<()> {
    let mut tmp = path.as_os_str().to_os_string();
    tmp.push(".");
    tmp.push(suffix);
    let tmp = std::path::PathBuf::from(tmp);
    std::fs::write(&tmp, bytes)?;
    std::fs::rename(&tmp, path)?;
    Ok(())
}

// --------------------------------------------------------------- inspect

/// Aggregate statistics for one codec across every blob of a file.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CodecStats {
    /// Number of blobs (RLE + column) encoded with this codec.
    pub blobs: usize,
    /// Total on-disk bytes of those blobs.
    pub compressed_bytes: u64,
    /// Total bytes those blobs decode (serialize raw) to.
    pub uncompressed_bytes: u64,
    /// Wall time [`inspect`] spent decoding those blobs, in nanoseconds.
    pub decode_nanos: u64,
}

impl CodecStats {
    /// Decode throughput in MB/s of *decoded* output (0.0 before any
    /// blob has been timed). "MB" here is 10^6 bytes, matching the bench
    /// reports.
    pub fn decode_mbps(&self) -> f64 {
        if self.decode_nanos == 0 {
            0.0
        } else {
            self.uncompressed_bytes as f64 * 1000.0 / self.decode_nanos as f64
        }
    }
}

/// Per-attribute compression summary. The user attribute's row covers the
/// RLE user blob, which is always raw.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ColumnCompression {
    /// Attribute name from the schema.
    pub name: String,
    /// Total on-disk bytes across all chunks.
    pub compressed_bytes: u64,
    /// Total decoded (raw v3-serialized) bytes across all chunks.
    pub uncompressed_bytes: u64,
}

impl ColumnCompression {
    /// Uncompressed-to-compressed size ratio (1.0 for raw columns).
    pub fn ratio(&self) -> f64 {
        self.uncompressed_bytes as f64 / self.compressed_bytes.max(1) as f64
    }
}

/// What [`inspect`] reports about a column-addressable (v3/v4) file.
#[derive(Debug, Clone)]
pub struct FormatInfo {
    /// On-disk format version (3 or 4).
    pub version: u32,
    /// Total rows across all chunks.
    pub num_rows: usize,
    /// Number of chunks.
    pub num_chunks: usize,
    /// One entry per schema attribute, in schema order.
    pub columns: Vec<ColumnCompression>,
    /// Aggregates indexed by codec tag: raw, delta, ans.
    pub codecs: [CodecStats; 3],
}

impl FormatInfo {
    /// Total live on-disk payload bytes (header, footer and any dead bytes
    /// excluded).
    pub fn compressed_bytes(&self) -> u64 {
        self.columns.iter().map(|c| c.compressed_bytes).sum()
    }

    /// Total decoded payload bytes.
    pub fn uncompressed_bytes(&self) -> u64 {
        self.columns.iter().map(|c| c.uncompressed_bytes).sum()
    }

    /// Whole-payload uncompressed-to-compressed ratio.
    pub fn ratio(&self) -> f64 {
        self.uncompressed_bytes() as f64 / self.compressed_bytes().max(1) as f64
    }
}

/// Walk every live blob of a v3/v4 file, decode each through its codec
/// tag exactly as a lazy column fetch would (blob in, range-proved
/// [`ChunkColumn`] out), and report per-column and per-codec size and
/// decode-time aggregates. This is the measurement backbone of the
/// `decode/column_fetch` bench lines and doubles as a whole-file decode
/// validation pass.
pub fn inspect(path: &Path) -> Result<FormatInfo> {
    let data = std::fs::read(path)?;
    if data.len() < HEADER_LEN as usize {
        return Err(StorageError::Corrupt("file too short for header".into()));
    }
    let mut cur = &data[..HEADER_LEN as usize];
    let magic = get_u32(&mut cur)?;
    if magic != MAGIC {
        return Err(StorageError::Corrupt(format!("bad magic {magic:#x}")));
    }
    let version = get_u32(&mut cur)?;
    if !matches!(version, 3 | 4) {
        return Err(StorageError::Unsupported(format!(
            "inspect needs the per-blob layouts of a v3/v4 file, got version {version}"
        )));
    }
    let footer = parse_footer_region(&data, version)?;
    let layouts = footer.layouts.as_ref().expect("v3+ footers always carry layouts");
    let schema = footer.meta.schema();
    let user_idx = schema.user_idx();
    let mut columns: Vec<ColumnCompression> = (0..schema.arity())
        .map(|i| ColumnCompression {
            name: schema.attribute(i).name.clone(),
            compressed_bytes: 0,
            uncompressed_bytes: 0,
        })
        .collect();
    let mut codecs = [CodecStats::default(); 3];
    let mut record = |columns: &mut Vec<ColumnCompression>, idx: usize, loc: &BlobLoc, ns: u64| {
        columns[idx].compressed_bytes += loc.len;
        columns[idx].uncompressed_bytes += loc.uncompressed;
        let c = &mut codecs[loc.codec.tag() as usize];
        c.blobs += 1;
        c.compressed_bytes += loc.len;
        c.uncompressed_bytes += loc.uncompressed;
        c.decode_nanos += ns;
    };
    for (ci, (layout, entry)) in layouts.iter().zip(&footer.entries).enumerate() {
        let loc = &layout.rle;
        let blob = &data[loc.offset as usize..(loc.offset + loc.len) as usize];
        let start = std::time::Instant::now();
        decode_rle_blob(blob)?;
        record(&mut columns, user_idx, loc, start.elapsed().as_nanos() as u64);
        for (idx, loc) in layout.cols.iter().enumerate() {
            if idx == user_idx {
                continue;
            }
            let blob = &data[loc.offset as usize..(loc.offset + loc.len) as usize];
            // The step a lazy column fetch pays: blob -> range-proved
            // `ChunkColumn`.
            let start = std::time::Instant::now();
            let col = decode_column_blob_loc(blob, loc).map_err(|e| e.in_column(ci, idx))?;
            record(&mut columns, idx, loc, start.elapsed().as_nanos() as u64);
            if col.len() as u64 != entry.num_rows {
                return Err(StorageError::Corrupt(format!(
                    "chunk {ci}: column {idx} has {} rows, footer claims {}",
                    col.len(),
                    entry.num_rows
                )));
            }
        }
    }
    Ok(FormatInfo {
        version,
        num_rows: footer.meta.num_rows(),
        num_chunks: layouts.len(),
        columns,
        codecs,
    })
}

// ------------------------------------------------------------------ footer

/// The byte location of one blob plus how it is encoded: where it lives,
/// how many bytes it occupies on disk, the codec its packed-array section
/// was written with, and the exact length the blob serializes to once
/// decoded back to raw v3 form. For v1–v3 files `codec` is always
/// [`Codec::Raw`] and `uncompressed == len`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct BlobLoc {
    pub(crate) offset: u64,
    pub(crate) len: u64,
    pub(crate) codec: Codec,
    pub(crate) uncompressed: u64,
}

impl BlobLoc {
    /// A raw (uncompressed) blob: on-disk bytes are the decoded bytes.
    pub(crate) fn raw(offset: u64, len: u64) -> Self {
        BlobLoc { offset, len, codec: Codec::Raw, uncompressed: len }
    }

    /// The all-zero placeholder used at the user attribute's column slot
    /// (the user column lives in the RLE blob instead).
    pub(crate) fn absent() -> Self {
        BlobLoc { offset: 0, len: 0, codec: Codec::Raw, uncompressed: 0 }
    }
}

/// Byte locations of one v3/v4 chunk's blobs: the RLE user column plus one
/// entry per attribute ([`BlobLoc::absent`] at the user attribute's
/// position).
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct ChunkLayout {
    /// Location of the RLE blob (always raw).
    pub(crate) rle: BlobLoc,
    /// Location of each attribute's column blob.
    pub(crate) cols: Vec<BlobLoc>,
}

/// One dictionary epoch's gid remaps: for every attribute, either `None`
/// (integer attribute, or a dictionary unchanged since that epoch) or the
/// strictly increasing map from the epoch's global ids into the file's
/// current (merged) dictionary. Chunks encoded under an older epoch are
/// re-based through their epoch's remap at decode time, which is what lets
/// [`append`] grow a dictionary **without rewriting any existing blob** while
/// keeping the current dictionary sorted (so `rank`-based ordering
/// predicates stay valid).
pub(crate) type EpochRemaps = Vec<Option<Arc<Vec<u32>>>>;

/// Parsed footer: table metadata, per-chunk index entries, per-chunk payload
/// spans, and (v3) per-blob layouts.
pub(crate) struct Footer {
    pub(crate) meta: TableMeta,
    pub(crate) entries: Vec<ChunkIndexEntry>,
    /// `(offset, len)` of each chunk's whole payload span (v2: the chunk
    /// blob; v3: RLE through last column, which tile contiguously). Appended
    /// files may have dead-byte gaps *between* spans (superseded chunk
    /// versions and earlier footers), never inside one.
    pub(crate) locations: Vec<(u64, u64)>,
    /// v3/v4 only: the per-blob layout of every chunk.
    pub(crate) layouts: Option<Vec<ChunkLayout>>,
    /// Non-current dictionary epochs, oldest first (empty for files never
    /// appended to, or fully rewritten by [`compact`]).
    pub(crate) epochs: Vec<EpochRemaps>,
    /// Per chunk, the dictionary epoch its blobs were encoded under
    /// (`epochs.len()` = the current dictionary, needing no remap). An empty
    /// vector means every chunk is current.
    pub(crate) chunk_epochs: Vec<u32>,
    /// File offset where the footer begins — the exclusive upper bound of
    /// every payload blob.
    pub(crate) payload_end: u64,
}

impl Footer {
    /// The gid remap a given chunk needs for a given attribute (`None`:
    /// already in current-dictionary terms).
    pub(crate) fn remap_for(&self, chunk: usize, attr: usize) -> Option<&Arc<Vec<u32>>> {
        let epoch = self.chunk_epochs.get(chunk).copied().unwrap_or(self.epochs.len() as u32);
        self.epochs.get(epoch as usize).and_then(|per_attr| per_attr[attr].as_ref())
    }
}

/// Validate tail + header of a full footered image and parse its footer.
fn parse_footer_region(data: &[u8], version: u32) -> Result<Footer> {
    let total = data.len() as u64;
    if total < HEADER_LEN + TAIL_LEN {
        return Err(StorageError::Corrupt("file too short for header + tail".into()));
    }
    let mut tail = &data[(total - TAIL_LEN) as usize..];
    let footer_len = get_u64(&mut tail)?;
    let tail_magic = get_u32(&mut tail)?;
    if tail_magic != MAGIC {
        return Err(StorageError::Corrupt(format!("bad tail magic {tail_magic:#x}")));
    }
    if footer_len > total - HEADER_LEN - TAIL_LEN {
        return Err(footer_overrun(footer_len, total));
    }
    let footer_start = total - TAIL_LEN - footer_len;
    let footer_bytes = &data[footer_start as usize..(total - TAIL_LEN) as usize];
    read_footer(footer_bytes, footer_start, version)
}

/// The error for a tail whose footer length points outside the file — the
/// signature of a truncated or mis-appended image. Names the offsets so the
/// operator can see where the file ends versus where the footer claims to
/// live.
fn footer_overrun(footer_len: u64, total: u64) -> StorageError {
    let claimed_start = total as i128 - TAIL_LEN as i128 - footer_len as i128;
    StorageError::Corrupt(format!(
        "footer of length {footer_len} would start at offset {claimed_start}, outside the valid \
         payload region [{HEADER_LEN}, {}) of this {total}-byte file (truncated or corrupt tail)",
        total - TAIL_LEN,
    ))
}

/// Parse the footer bytes of a v2 or v3 image; `footer_start` is the file
/// offset where the footer begins (== the end of the payload region), used
/// to validate blob locations.
fn read_footer(mut buf: &[u8], footer_start: u64, version: u32) -> Result<Footer> {
    let chunk_size = get_u64(&mut buf)? as usize;
    // The writer never produces 0 (CompressedTable::build rejects it), so a
    // zero here is corruption, not a value to repair.
    if chunk_size == 0 {
        return Err(StorageError::Corrupt("footer chunk_size is zero".into()));
    }
    let schema = read_schema(&mut buf)?;
    let mut metas = Vec::with_capacity(schema.arity());
    for _ in 0..schema.arity() {
        metas.push(read_meta(&mut buf)?);
    }
    let num_rows = get_u64(&mut buf)? as usize;
    let num_chunks = get_u32(&mut buf)? as usize;
    let arity = schema.arity();
    // Guard the chunk count before allocating: every entry needs at least
    // its fixed-size fields.
    let min_entry = match version {
        2 => 52,
        // rle record + per-attr records + counts/bounds + n_actions +
        // 1-byte stats tags. v4 blob records additionally carry a codec
        // tag and an uncompressed length (9 bytes per blob).
        4 => 25 + 25 * arity + 32 + 4 + arity,
        _ => 16 + 16 * arity + 32 + 4 + arity,
    };
    if num_chunks > buf.remaining() / min_entry {
        return Err(StorageError::Corrupt(format!("chunk count {num_chunks} overruns footer")));
    }
    let mut entries = Vec::with_capacity(num_chunks);
    let mut locations = Vec::with_capacity(num_chunks);
    let mut layouts = (version >= 3).then(|| Vec::with_capacity(num_chunks));
    let mut expected_offset = HEADER_LEN;
    for ci in 0..num_chunks {
        // Blob locations must be monotone, non-overlapping, and inside
        // [HEADER_LEN, footer_start). A chunk's first blob may start past
        // the previous chunk's end — appended files carry dead bytes there
        // (superseded footers and rewritten chunks) — but within one chunk
        // the blobs tile exactly. Lengths are compared by subtraction
        // (`offset < footer_start` is checked first), so a crafted length
        // near u64::MAX cannot wrap the bound check.
        let span_start;
        let mut take_blob = |buf: &mut &[u8], what: &str, gap_ok: bool| -> Result<BlobLoc> {
            let offset = get_u64(buf)?;
            let len = get_u64(buf)?;
            let misplaced =
                if gap_ok { offset < expected_offset } else { offset != expected_offset };
            if misplaced || len == 0 || offset >= footer_start || len > footer_start - offset {
                return Err(StorageError::Corrupt(format!(
                    "chunk {ci}: {what} location ({offset}, {len}) does not tile the payload \
                     region"
                )));
            }
            expected_offset = offset + len;
            if version < 4 {
                return Ok(BlobLoc::raw(offset, len));
            }
            let tag = get_u8(buf)?;
            let uncompressed = get_u64(buf)?;
            let codec = Codec::from_tag(tag).ok_or_else(|| {
                StorageError::Corrupt(format!("chunk {ci}: {what} has unknown codec tag {tag}"))
            })?;
            // The write-time selector only picks a non-raw codec when it is
            // *strictly* smaller than raw, and the decoded size of any blob
            // is bounded by its row count (plus small per-blob headers), so
            // both inequalities are hard invariants, not heuristics. The
            // row-count bound caps what a crafted footer can make the
            // decoder allocate.
            let valid = match codec {
                Codec::Raw => uncompressed == len,
                _ => uncompressed > len && uncompressed <= 64 + 16 * num_rows as u64,
            };
            if !valid {
                return Err(StorageError::Corrupt(format!(
                    "chunk {ci}: {what} uncompressed length {uncompressed} is inconsistent \
                     with its {len}-byte {} blob",
                    codec.name(),
                )));
            }
            Ok(BlobLoc { offset, len, codec, uncompressed })
        };
        let layout = if version >= 3 {
            let rle = take_blob(&mut buf, "rle", true)?;
            if rle.codec != Codec::Raw {
                return Err(StorageError::Corrupt(format!(
                    "chunk {ci}: rle blob must be raw, found codec {}",
                    rle.codec.name(),
                )));
            }
            span_start = rle.offset;
            let mut cols = vec![BlobLoc::absent(); arity];
            for (idx, slot) in cols.iter_mut().enumerate() {
                if idx == schema.user_idx() {
                    let offset = get_u64(&mut buf)?;
                    let len = get_u64(&mut buf)?;
                    let mut zero = (offset, len) == (0, 0);
                    if version >= 4 {
                        zero &= get_u8(&mut buf)? == 0 && get_u64(&mut buf)? == 0;
                    }
                    if !zero {
                        return Err(StorageError::Corrupt(format!(
                            "chunk {ci}: user column has a blob location"
                        )));
                    }
                } else {
                    *slot = take_blob(&mut buf, "column", false)?;
                }
            }
            Some(ChunkLayout { rle, cols })
        } else {
            let chunk = take_blob(&mut buf, "chunk", true)?;
            span_start = chunk.offset;
            None
        };
        let num_rows = get_u64(&mut buf)?;
        let num_users = get_u64(&mut buf)?;
        let time_min = get_i64(&mut buf)?;
        let time_max = get_i64(&mut buf)?;
        let n_actions = get_u32(&mut buf)? as usize;
        if n_actions > buf.remaining() / 4 {
            return Err(StorageError::Corrupt(format!(
                "chunk {ci}: action dictionary count {n_actions} overruns footer"
            )));
        }
        let mut action_gids = Vec::with_capacity(n_actions);
        for _ in 0..n_actions {
            action_gids.push(get_u32(&mut buf)?);
        }
        if !action_gids.windows(2).all(|w| w[0] < w[1]) {
            return Err(StorageError::Corrupt(format!("chunk {ci}: action gids not sorted")));
        }
        let column_stats = if version >= 3 {
            let mut stats = Vec::with_capacity(arity);
            for (idx, meta) in metas.iter().enumerate() {
                let s = read_column_stats(&mut buf)?;
                // Stats kinds must agree with the attribute metadata.
                let agrees = matches!(
                    (&s, meta),
                    (ColumnStats::User, ColumnMeta::User { .. })
                        | (ColumnStats::Str { .. }, ColumnMeta::Str { .. })
                        | (ColumnStats::Int { .. }, ColumnMeta::Int { .. })
                );
                if !agrees {
                    return Err(StorageError::Corrupt(format!(
                        "chunk {ci}: column {idx} stats kind disagrees with metadata"
                    )));
                }
                stats.push(s);
            }
            stats
        } else {
            Vec::new()
        };
        entries.push(ChunkIndexEntry {
            num_rows,
            num_users,
            time_min,
            time_max,
            action_gids,
            column_stats,
        });
        locations.push((span_start, expected_offset - span_start));
        if let (Some(layouts), Some(layout)) = (layouts.as_mut(), layout) {
            layouts.push(layout);
        }
    }
    // Optional dictionary-epoch extension, present only in files that have
    // been appended to: per-chunk epoch tags, then one gid remap per
    // dictionary attribute for every non-current epoch.
    let mut epochs: Vec<EpochRemaps> = Vec::new();
    let mut chunk_epochs: Vec<u32> = Vec::new();
    if version >= 3 && buf.has_remaining() {
        let epoch_count = get_u32(&mut buf)? as usize;
        // Every epoch needs at least one tag byte per attribute, every chunk
        // a 4-byte tag; guard before allocating.
        if epoch_count == 0 || epoch_count > buf.remaining() / arity.max(1) {
            return Err(StorageError::Corrupt(format!(
                "epoch count {epoch_count} is invalid for this footer"
            )));
        }
        if num_chunks > buf.remaining() / 4 {
            return Err(StorageError::Corrupt("chunk epoch tags overrun footer".into()));
        }
        for ci in 0..num_chunks {
            let epoch = get_u32(&mut buf)?;
            if epoch as usize > epoch_count {
                return Err(StorageError::Corrupt(format!(
                    "chunk {ci}: epoch {epoch} exceeds epoch count {epoch_count}"
                )));
            }
            chunk_epochs.push(epoch);
        }
        for e in 0..epoch_count {
            let mut per_attr: EpochRemaps = Vec::with_capacity(arity);
            for (idx, meta) in metas.iter().enumerate() {
                match get_u8(&mut buf)? {
                    0 => per_attr.push(None),
                    1 => {
                        let dict_len = match meta {
                            ColumnMeta::User { dict } | ColumnMeta::Str { dict } => dict.len(),
                            ColumnMeta::Int { .. } => {
                                return Err(StorageError::Corrupt(format!(
                                    "epoch {e}: remap addressed to integer attribute {idx}"
                                )))
                            }
                        };
                        let n = get_u32(&mut buf)? as usize;
                        if n > buf.remaining() / 4 {
                            return Err(StorageError::Corrupt(format!(
                                "epoch {e}: remap length {n} overruns footer"
                            )));
                        }
                        let mut remap = Vec::with_capacity(n);
                        for _ in 0..n {
                            remap.push(get_u32(&mut buf)?);
                        }
                        let sorted = remap.windows(2).all(|w| w[0] < w[1]);
                        let in_range = remap.last().is_none_or(|&g| (g as usize) < dict_len);
                        if !sorted || !in_range {
                            return Err(StorageError::Corrupt(format!(
                                "epoch {e}: remap of attribute {idx} is not a sorted injection \
                                 into the current dictionary"
                            )));
                        }
                        per_attr.push(Some(Arc::new(remap)));
                    }
                    t => {
                        return Err(StorageError::Corrupt(format!("bad epoch remap tag {t}")));
                    }
                }
            }
            epochs.push(per_attr);
        }
    }
    if buf.has_remaining() {
        return Err(StorageError::Corrupt(format!("{} trailing footer bytes", buf.remaining())));
    }
    let total_rows: u64 = entries.iter().map(|e| e.num_rows).sum();
    if total_rows != num_rows as u64 {
        return Err(StorageError::Corrupt(format!(
            "index entries cover {total_rows} rows, footer claims {num_rows}"
        )));
    }
    let meta =
        TableMeta::new(schema, metas, num_rows, CompressionOptions::with_chunk_size(chunk_size))?;
    Ok(Footer {
        meta,
        entries,
        locations,
        layouts,
        epochs,
        chunk_epochs,
        payload_end: footer_start,
    })
}

/// Open a v2/v3 file for lazy access: verify the header, then read and
/// parse only the footer. Rejects v1 files (no footer) with a migration
/// hint.
pub(crate) fn read_footer_from_file(file: &mut std::fs::File) -> Result<Footer> {
    let total = file.seek(SeekFrom::End(0))?;
    if total < HEADER_LEN + TAIL_LEN {
        return Err(StorageError::Corrupt("file too short for header + tail".into()));
    }

    let mut header = [0u8; HEADER_LEN as usize];
    file.seek(SeekFrom::Start(0))?;
    file.read_exact(&mut header)?;
    let mut cur: &[u8] = &header;
    let magic = get_u32(&mut cur)?;
    if magic != MAGIC {
        return Err(StorageError::Corrupt(format!("bad magic {magic:#x}")));
    }
    let version = match get_u32(&mut cur)? {
        v @ 2..=4 => v,
        1 => {
            return Err(StorageError::Unsupported(
                "version 1 files have no chunk index footer and cannot be opened lazily; \
                 load eagerly with persist::read_file and re-save to migrate"
                    .into(),
            ))
        }
        v => return Err(StorageError::BadVersion(v)),
    };

    let mut tail = [0u8; TAIL_LEN as usize];
    file.seek(SeekFrom::Start(total - TAIL_LEN))?;
    file.read_exact(&mut tail)?;
    let mut cur: &[u8] = &tail;
    let footer_len = get_u64(&mut cur)?;
    let tail_magic = get_u32(&mut cur)?;
    if tail_magic != MAGIC {
        return Err(StorageError::Corrupt(format!("bad tail magic {tail_magic:#x}")));
    }
    if footer_len > total - HEADER_LEN - TAIL_LEN {
        return Err(footer_overrun(footer_len, total));
    }
    let footer_start = total - TAIL_LEN - footer_len;
    let mut footer_bytes = vec![0u8; footer_len as usize];
    file.seek(SeekFrom::Start(footer_start))?;
    file.read_exact(&mut footer_bytes)?;
    read_footer(&footer_bytes, footer_start, version)
}

/// Decode one self-contained whole-chunk blob (as located by a v2 footer).
pub(crate) fn decode_chunk_blob(blob: &[u8], arity: usize) -> Result<Chunk> {
    let mut buf = blob;
    let chunk = read_chunk(&mut buf, arity)?;
    if buf.has_remaining() {
        return Err(StorageError::Corrupt(format!(
            "{} trailing bytes after chunk payload",
            buf.remaining()
        )));
    }
    Ok(chunk)
}

/// Decode one self-contained RLE blob (as located by a v3 footer).
pub(crate) fn decode_rle_blob(blob: &[u8]) -> Result<UserRle> {
    let mut buf = blob;
    let users = read_packed(&mut buf)?;
    let firsts = read_packed(&mut buf)?;
    let counts = read_packed(&mut buf)?;
    let rle = UserRle::from_parts(users, firsts, counts)?;
    if buf.has_remaining() {
        return Err(StorageError::Corrupt(format!(
            "{} trailing bytes after rle payload",
            buf.remaining()
        )));
    }
    Ok(rle)
}

/// Decode one self-contained column blob (as located by a v3 footer).
pub(crate) fn decode_column_blob(blob: &[u8]) -> Result<ChunkColumn> {
    let mut buf = blob;
    let col = read_column(&mut buf)?
        .ok_or_else(|| StorageError::Corrupt("column blob holds no segment".into()))?;
    if buf.has_remaining() {
        return Err(StorageError::Corrupt(format!(
            "{} trailing bytes after column payload",
            buf.remaining()
        )));
    }
    Ok(col)
}

/// The raw head of a column blob — tag byte, then the chunk dictionary's
/// gids or the integer range — which no codec transforms.
enum ColumnHeader {
    Str(ChunkDict),
    Int { min: i64, max: i64 },
}

impl ColumnHeader {
    /// Parse a tagged header (0 = absent segment, 1 = string, 2 = integer).
    fn read(buf: &mut &[u8]) -> Result<Option<ColumnHeader>> {
        match get_u8(buf)? {
            0 => Ok(None),
            1 => {
                let n = get_u32(buf)? as usize;
                if n > buf.remaining() / 4 {
                    return Err(StorageError::Corrupt(format!(
                        "chunk dictionary count {n} overruns input"
                    )));
                }
                let mut gids = Vec::with_capacity(n);
                for _ in 0..n {
                    gids.push(get_u32(buf)?);
                }
                Ok(Some(ColumnHeader::Str(ChunkDict::from_sorted(gids)?)))
            }
            2 => {
                let min = get_i64(buf)?;
                let max = get_i64(buf)?;
                Ok(Some(ColumnHeader::Int { min, max }))
            }
            t => Err(StorageError::Corrupt(format!("bad column tag {t}"))),
        }
    }

    /// Like [`ColumnHeader::read`] where an absent segment is an error.
    fn read_present(buf: &mut &[u8]) -> Result<ColumnHeader> {
        Self::read(buf)?.ok_or_else(|| StorageError::Corrupt("column blob holds no segment".into()))
    }

    /// Bytes this header serializes to.
    fn serialized_len(&self) -> u64 {
        match self {
            ColumnHeader::Str(dict) => 5 + 4 * dict.len() as u64,
            ColumnHeader::Int { .. } => 17,
        }
    }

    /// The one place a decoded [`ChunkColumn`] is put together: the packed
    /// codes join their header only once they are known to be within the
    /// header's bound. `code_bound` is at least the largest code; when it
    /// passes, nothing else is looked at. It may overshoot (an ANS table
    /// can list a symbol its stream never produces), so a failing bound is
    /// re-examined against the exact maximum before the blob is rejected —
    /// the check stays on values produced.
    fn with_codes(self, packed: BitPacked, code_bound: u64) -> Result<ChunkColumn> {
        let col = match self {
            ColumnHeader::Str(dict) => ChunkColumn::Str { dict, codes: packed },
            ColumnHeader::Int { min, max } => ChunkColumn::Int { min, max, deltas: packed },
        };
        if col.check_code_range(code_bound).is_err() {
            col.check_code_range(col.packed().max_value())?;
        }
        Ok(col)
    }
}

/// Decode one column blob through its footer record: raw blobs take the v3
/// path unchanged; codec-compressed blobs parse the raw header, then hand
/// the remaining bytes to [`codec::decode_array`] with the exact raw
/// section length implied by `loc.uncompressed` — which the codecs verify
/// against their own embedded width/length *before* allocating, and which
/// pins the decoded blob's v3 serialization to exactly `uncompressed`
/// bytes. The bound the decoder returns proves the codes in range.
pub(crate) fn decode_column_blob_loc(blob: &[u8], loc: &BlobLoc) -> Result<ChunkColumn> {
    if loc.codec == Codec::Raw {
        return decode_column_blob(blob);
    }
    let mut buf = blob;
    let header = ColumnHeader::read_present(&mut buf)?;
    let expected = section_len(loc, header.serialized_len())?;
    let (packed, code_bound) = codec::decode_array(loc.codec, buf, expected)?;
    header.with_codes(packed, code_bound)
}

/// The raw packed-section length a blob's footer record implies once its
/// `header_len`-byte raw header is accounted for.
fn section_len(loc: &BlobLoc, header_len: u64) -> Result<u64> {
    loc.uncompressed.checked_sub(header_len).ok_or_else(|| {
        StorageError::Corrupt(format!(
            "blob uncompressed length {} is shorter than its {header_len}-byte header",
            loc.uncompressed
        ))
    })
}

// ---------------------------------------------------------------- helpers

fn get_u8(buf: &mut &[u8]) -> Result<u8> {
    if buf.remaining() < 1 {
        return Err(StorageError::Corrupt("unexpected end of input".into()));
    }
    Ok(buf.get_u8())
}

fn get_u32(buf: &mut &[u8]) -> Result<u32> {
    if buf.remaining() < 4 {
        return Err(StorageError::Corrupt("unexpected end of input".into()));
    }
    Ok(buf.get_u32_le())
}

fn get_u64(buf: &mut &[u8]) -> Result<u64> {
    if buf.remaining() < 8 {
        return Err(StorageError::Corrupt("unexpected end of input".into()));
    }
    Ok(buf.get_u64_le())
}

fn get_i64(buf: &mut &[u8]) -> Result<i64> {
    Ok(get_u64(buf)? as i64)
}

fn write_str(buf: &mut BytesMut, s: &str) {
    buf.put_u32_le(s.len() as u32);
    buf.put_slice(s.as_bytes());
}

fn read_str(buf: &mut &[u8]) -> Result<String> {
    let len = get_u32(buf)? as usize;
    if buf.remaining() < len {
        return Err(StorageError::Corrupt("string overruns input".into()));
    }
    let s = std::str::from_utf8(&buf[..len])
        .map_err(|_| StorageError::Corrupt("invalid utf-8".into()))?
        .to_string();
    buf.advance(len);
    Ok(s)
}

fn write_schema(buf: &mut BytesMut, schema: &Schema) {
    buf.put_u16_le(schema.arity() as u16);
    for attr in schema.attributes() {
        write_str(buf, &attr.name);
        buf.put_u8(match attr.vtype {
            ValueType::Str => 0,
            ValueType::Int => 1,
        });
        buf.put_u8(match attr.role {
            AttributeRole::User => 0,
            AttributeRole::Time => 1,
            AttributeRole::Action => 2,
            AttributeRole::Dimension => 3,
            AttributeRole::Measure => 4,
        });
    }
}

fn read_schema(buf: &mut &[u8]) -> Result<Schema> {
    if buf.remaining() < 2 {
        return Err(StorageError::Corrupt("unexpected end of input".into()));
    }
    let arity = buf.get_u16_le() as usize;
    let mut attrs = Vec::with_capacity(arity);
    for _ in 0..arity {
        let name = read_str(buf)?;
        let vtype = match get_u8(buf)? {
            0 => ValueType::Str,
            1 => ValueType::Int,
            t => return Err(StorageError::Corrupt(format!("bad value type {t}"))),
        };
        let role = match get_u8(buf)? {
            0 => AttributeRole::User,
            1 => AttributeRole::Time,
            2 => AttributeRole::Action,
            3 => AttributeRole::Dimension,
            4 => AttributeRole::Measure,
            r => return Err(StorageError::Corrupt(format!("bad role {r}"))),
        };
        attrs.push(Attribute::new(name, vtype, role));
    }
    Schema::new(attrs).map_err(|e| StorageError::Corrupt(e.to_string()))
}

fn write_dict(buf: &mut BytesMut, dict: &GlobalDict) {
    buf.put_u32_le(dict.len() as u32);
    for v in dict.values() {
        write_str(buf, v);
    }
}

fn read_dict(buf: &mut &[u8]) -> Result<GlobalDict> {
    let n = get_u32(buf)? as usize;
    // Each value consumes at least its 4-byte length prefix; a larger count
    // is corruption, and guarding here prevents huge pre-allocations.
    if n > buf.remaining() / 4 {
        return Err(StorageError::Corrupt(format!("dictionary count {n} overruns input")));
    }
    let mut values: Vec<Arc<str>> = Vec::with_capacity(n);
    for _ in 0..n {
        values.push(Arc::from(read_str(buf)?));
    }
    GlobalDict::from_sorted(values)
}

fn write_meta(buf: &mut BytesMut, meta: &ColumnMeta) {
    match meta {
        ColumnMeta::User { dict } => {
            buf.put_u8(0);
            write_dict(buf, dict);
        }
        ColumnMeta::Str { dict } => {
            buf.put_u8(1);
            write_dict(buf, dict);
        }
        ColumnMeta::Int { min, max } => {
            buf.put_u8(2);
            buf.put_u64_le(*min as u64);
            buf.put_u64_le(*max as u64);
        }
    }
}

fn read_meta(buf: &mut &[u8]) -> Result<ColumnMeta> {
    match get_u8(buf)? {
        0 => Ok(ColumnMeta::User { dict: read_dict(buf)? }),
        1 => Ok(ColumnMeta::Str { dict: read_dict(buf)? }),
        2 => {
            let min = get_i64(buf)?;
            let max = get_i64(buf)?;
            Ok(ColumnMeta::Int { min, max })
        }
        t => Err(StorageError::Corrupt(format!("bad meta tag {t}"))),
    }
}

/// The base (stats-less) fields of an index entry, as every footer version
/// stores them.
fn write_entry_base(buf: &mut BytesMut, entry: &ChunkIndexEntry) {
    buf.put_u64_le(entry.num_rows);
    buf.put_u64_le(entry.num_users);
    buf.put_u64_le(entry.time_min as u64);
    buf.put_u64_le(entry.time_max as u64);
    buf.put_u32_le(entry.action_gids.len() as u32);
    for gid in &entry.action_gids {
        buf.put_u32_le(*gid);
    }
}

fn write_column_stats(buf: &mut BytesMut, stats: &ColumnStats) {
    match stats {
        ColumnStats::User => buf.put_u8(0),
        ColumnStats::Str { distinct } => {
            buf.put_u8(1);
            buf.put_u32_le(*distinct);
        }
        ColumnStats::Int { min, max } => {
            buf.put_u8(2);
            buf.put_u64_le(*min as u64);
            buf.put_u64_le(*max as u64);
        }
    }
}

fn read_column_stats(buf: &mut &[u8]) -> Result<ColumnStats> {
    match get_u8(buf)? {
        0 => Ok(ColumnStats::User),
        1 => Ok(ColumnStats::Str { distinct: get_u32(buf)? }),
        2 => {
            let min = get_i64(buf)?;
            let max = get_i64(buf)?;
            if min > max {
                return Err(StorageError::Corrupt(format!("column stats min {min} > max {max}")));
            }
            Ok(ColumnStats::Int { min, max })
        }
        t => Err(StorageError::Corrupt(format!("bad column stats tag {t}"))),
    }
}

fn write_packed(buf: &mut BytesMut, packed: &BitPacked) {
    buf.put_u8(packed.width());
    buf.put_u64_le(packed.len() as u64);
    for w in packed.words() {
        buf.put_u64_le(*w);
    }
}

fn read_packed(buf: &mut &[u8]) -> Result<BitPacked> {
    let width = get_u8(buf)?;
    if width > 64 {
        return Err(StorageError::Corrupt(format!("bad bit width {width}")));
    }
    let len = get_u64(buf)? as usize;
    // Guard against corrupt lengths before allocating: at `width > 0`, the
    // packed words must actually be present in the input.
    let num_words = if width == 0 { 0 } else { len.div_ceil((64 / width as usize).max(1)) };
    if num_words > buf.remaining() / 8 {
        return Err(StorageError::Corrupt("bitpack words overrun input".into()));
    }
    let mut words = Vec::with_capacity(num_words);
    for _ in 0..num_words {
        words.push(buf.get_u64_le());
    }
    BitPacked::from_raw(width, len, words)
}

/// The RLE user column as a self-contained blob.
fn write_rle_blob(buf: &mut BytesMut, rle: &UserRle) {
    let (users, firsts, counts) = rle.parts();
    write_packed(buf, users);
    write_packed(buf, firsts);
    write_packed(buf, counts);
}

/// One column segment with v4 codec selection on its packed-array section
/// (the only column-blob writer): the tag + dictionary / min-max header
/// stays raw (it is a few bytes and the footer parser needs nothing from
/// it), then the bit-packed array is written with whichever codec
/// `encoder` picked. Returns the chosen codec and the exact length the blob
/// would have serialized to raw (the v3 length), which the footer records
/// as `uncompressed`. A blob whose section stays [`Codec::Raw`] is
/// byte-identical to its v3 form.
fn write_column_blob_v4(
    buf: &mut BytesMut,
    col: &ChunkColumn,
    encoder: &mut SectionEncoder,
) -> (Codec, u64) {
    let (packed, header_len) = match col {
        ChunkColumn::Str { dict, codes } => {
            buf.put_u8(1);
            buf.put_u32_le(dict.len() as u32);
            for gid in dict.global_ids() {
                buf.put_u32_le(*gid);
            }
            (codes, 5 + 4 * dict.len() as u64)
        }
        ChunkColumn::Int { min, max, deltas } => {
            buf.put_u8(2);
            buf.put_u64_le(*min as u64);
            buf.put_u64_le(*max as u64);
            (deltas, 17u64)
        }
    };
    let (chosen, section) = encoder.encode(packed);
    buf.put_slice(section);
    (chosen, header_len + codec::raw_section_len(packed.width(), packed.len() as u64))
}

/// One tagged column segment (0 = absent, 1 = string, 2 = integer) in the
/// raw v3 layout. The words are kept as read; one block pass over them
/// finds the maximum that proves the codes in range.
fn read_column(buf: &mut &[u8]) -> Result<Option<ChunkColumn>> {
    let Some(header) = ColumnHeader::read(buf)? else { return Ok(None) };
    let packed = read_packed(buf)?;
    let max_code = packed.max_value();
    header.with_codes(packed, max_code).map(Some)
}

/// One whole chunk as a self-contained blob (the v1/v2 chunk encoding).
fn read_chunk(buf: &mut &[u8], arity: usize) -> Result<Chunk> {
    let users = read_packed(buf)?;
    let firsts = read_packed(buf)?;
    let counts = read_packed(buf)?;
    let rle = UserRle::from_parts(users, firsts, counts)?;
    if buf.remaining() < 2 {
        return Err(StorageError::Corrupt("unexpected end of input".into()));
    }
    let ncols = buf.get_u16_le() as usize;
    if ncols != arity {
        return Err(StorageError::Corrupt(format!("chunk has {ncols} columns, schema {arity}")));
    }
    let mut columns = Vec::with_capacity(ncols);
    for _ in 0..ncols {
        columns.push(read_column(buf)?);
    }
    Chunk::new(rle, columns)
}

#[cfg(test)]
mod range_tests;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{fixtures, test_alloc};
    use cohana_activity::{generate, GeneratorConfig, TableBuilder};

    fn compressed() -> CompressedTable {
        let t = generate(&GeneratorConfig::small());
        CompressedTable::build(&t, CompressionOptions::with_chunk_size(256)).unwrap()
    }

    /// A dataset large enough that per-chunk codec selection actually picks
    /// non-raw codecs (the tiny 256-row chunks of [`compressed`] amortize no
    /// frequency table).
    fn compressed_large() -> CompressedTable {
        let t = generate(&GeneratorConfig::new(200));
        CompressedTable::build(&t, CompressionOptions::with_chunk_size(16 * 1024)).unwrap()
    }

    /// The table the golden fixtures hold.
    fn fixture_table() -> CompressedTable {
        from_bytes(fixtures::V3).unwrap()
    }

    /// The fixture table in every format: the golden v1–v3 images and the
    /// v4 image of what they decode to.
    fn images() -> [Vec<u8>; 4] {
        [
            fixtures::V1.to_vec(),
            fixtures::V2.to_vec(),
            fixtures::V3.to_vec(),
            to_bytes(&fixture_table()).to_vec(),
        ]
    }

    /// A golden image declares its version, decodes, and what it decodes to
    /// survives a v4 round trip unchanged.
    fn assert_fixture_roundtrips(bytes: &[u8], version: u32) {
        assert_eq!(&bytes[4..8], version.to_le_bytes());
        let back = from_bytes(bytes).unwrap();
        assert!(back.chunks().len() > 1 && back.num_rows() > 0, "v{version}");
        let again = from_bytes(&to_bytes(&back)).unwrap();
        assert_eq!(again.chunks(), back.chunks(), "v{version}");
        assert_eq!(again.metas(), back.metas(), "v{version}");
        assert_eq!(again.index_entries(), back.index_entries(), "v{version}");
        assert_eq!(again.decompress().unwrap().rows(), back.decompress().unwrap().rows());
    }

    #[test]
    fn roundtrip_bytes_v4() {
        let c = compressed();
        let bytes = to_bytes(&c);
        let back = from_bytes(&bytes).unwrap();
        assert_eq!(back.num_rows(), c.num_rows());
        assert_eq!(back.chunks(), c.chunks());
        assert_eq!(back.schema(), c.schema());
        assert_eq!(back.index_entries(), c.index_entries());
        // Full decode equality.
        assert_eq!(back.decompress().unwrap().rows(), c.decompress().unwrap().rows());
    }

    #[test]
    fn roundtrip_bytes_v3() {
        assert_fixture_roundtrips(fixtures::V3, 3);
    }

    #[test]
    fn roundtrip_bytes_v4_with_compressed_blobs() {
        // Large chunks make the codec selector actually choose non-raw
        // codecs; the round trip must still reproduce the table exactly.
        let c = compressed_large();
        let v4 = to_bytes(&c);
        let footer = parse_footer_region(&v4, VERSION).unwrap();
        let locs = footer.layouts.iter().flatten().flat_map(|l| &l.cols);
        let (disk, raw) = locs.fold((0, 0), |(d, r), loc| (d + loc.len, r + loc.uncompressed));
        assert!(
            disk < raw,
            "v4 blobs ({disk}) should be smaller than raw ({raw}) on realistic chunks"
        );
        let back = from_bytes(&v4).unwrap();
        assert_eq!(back.chunks(), c.chunks());
        assert_eq!(back.decompress().unwrap().rows(), c.decompress().unwrap().rows());
    }

    #[test]
    fn roundtrip_bytes_v2() {
        assert_fixture_roundtrips(fixtures::V2, 2);
    }

    #[test]
    fn roundtrip_bytes_v1() {
        assert_fixture_roundtrips(fixtures::V1, 1);
    }

    #[test]
    fn v1_chunk_count_past_the_input_is_corrupt_without_allocating_it() {
        let empty = fixtures::V1_EMPTY;
        assert_eq!(empty.len(), 196);
        let table = from_bytes(empty).unwrap();
        assert_eq!((table.num_rows(), table.chunks().len()), (0, 0));
        // The last four bytes are the chunk count: claim u32::MAX chunks
        // with no bytes left to hold them.
        let mut crafted = empty.to_vec();
        let at = crafted.len() - 4;
        crafted[at..].copy_from_slice(&u32::MAX.to_le_bytes());
        test_alloc::reset_largest();
        let outcome = from_bytes(&crafted);
        let largest = test_alloc::largest();
        assert!(largest <= 64 * 1024, "a {largest}-byte allocation for a 196-byte image");
        match outcome {
            Err(StorageError::Corrupt(msg)) => assert!(msg.contains("chunk count"), "{msg}"),
            other => panic!("expected Corrupt, got {other:?}"),
        }
    }

    #[test]
    fn v4_header_declares_version_4() {
        let bytes = to_bytes(&compressed());
        assert_eq!(&bytes[0..4], MAGIC.to_le_bytes());
        assert_eq!(&bytes[4..8], VERSION.to_le_bytes());
        assert_eq!(VERSION, 4);
        // Tail carries the magic too.
        assert_eq!(&bytes[bytes.len() - 4..], MAGIC.to_le_bytes());
    }

    #[test]
    fn roundtrip_file() {
        let c = compressed();
        let dir = std::env::temp_dir().join("cohana-persist-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("table.cohana");
        write_file(&c, &path).unwrap();
        let back = read_file(&path).unwrap();
        assert_eq!(back.num_rows(), c.num_rows());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn rejects_bad_magic() {
        for mut bytes in images() {
            bytes[0] ^= 0xFF;
            assert!(matches!(from_bytes(&bytes).unwrap_err(), StorageError::Corrupt(_)));
        }
    }

    #[test]
    fn rejects_bad_tail_magic() {
        for mut bytes in images().into_iter().skip(1) {
            let last = bytes.len() - 1;
            bytes[last] ^= 0xFF;
            assert!(matches!(from_bytes(&bytes).unwrap_err(), StorageError::Corrupt(_)));
        }
    }

    #[test]
    fn rejects_bad_version() {
        let mut bytes = to_bytes(&compressed()).to_vec();
        bytes[4] = 99;
        assert!(matches!(from_bytes(&bytes).unwrap_err(), StorageError::BadVersion(99)));
    }

    #[test]
    fn rejects_truncation_everywhere() {
        for bytes in images() {
            // Truncating at any prefix must error, never panic.
            for cut in (0..bytes.len().min(400)).chain([bytes.len() - 1]) {
                assert!(from_bytes(&bytes[..cut]).is_err(), "cut at {cut} should fail");
            }
        }
    }

    #[test]
    fn rejects_trailing_garbage() {
        // v1 detects trailing bytes directly; the footered formats' tail
        // magic lands on the wrong bytes once anything is appended.
        for mut bytes in images() {
            bytes.push(0);
            assert!(from_bytes(&bytes).is_err());
        }
    }

    /// Byte size of one v2 footer entry.
    fn v2_entry_size(e: &ChunkIndexEntry) -> usize {
        52 + 4 * e.action_gids.len()
    }

    #[test]
    fn rejects_crafted_overflow_locations_v2() {
        // A footer whose first chunk length is near u64::MAX so that
        // `offset + len` wraps past the bound check, with the second entry
        // repaired to keep the tiling chain consistent. Must be rejected by
        // the subtraction-based bound check, never reach the slicing code.
        let c = fixture_table();
        assert!(c.chunks().len() >= 2);
        let bytes = fixtures::V2.to_vec();
        let tail = bytes.len() - 12;
        let footer_len = u64::from_le_bytes(bytes[tail..tail + 8].try_into().unwrap()) as usize;
        let footer_start = (tail - footer_len) as u64;
        let entries_size: usize = c.index_entries().iter().map(v2_entry_size).sum();
        let e0 = tail - entries_size;
        let e1 = e0 + v2_entry_size(&c.index_entries()[0]);
        let mut crafted = bytes.clone();
        crafted[e0 + 8..e0 + 16].copy_from_slice(&(u64::MAX - 7).to_le_bytes());
        crafted[e1..e1 + 8].copy_from_slice(&0u64.to_le_bytes());
        crafted[e1 + 8..e1 + 16].copy_from_slice(&footer_start.to_le_bytes());
        assert!(matches!(from_bytes(&crafted), Err(StorageError::Corrupt(_))));
    }

    /// Byte size of one v3 footer entry.
    fn v3_entry_size(arity: usize, e: &ChunkIndexEntry) -> usize {
        let stats: usize = e
            .column_stats
            .iter()
            .map(|s| match s {
                ColumnStats::User => 1,
                ColumnStats::Str { .. } => 5,
                ColumnStats::Int { .. } => 17,
            })
            .sum();
        16 + 16 * arity + 36 + 4 * e.action_gids.len() + stats
    }

    #[test]
    fn rejects_crafted_overflow_locations_v3() {
        // Same attack on the v3 footer: a near-u64::MAX RLE blob length in
        // the first chunk's layout must be rejected by the subtraction-based
        // tiling check — no wrap, no huge allocation, no panic.
        let c = fixture_table();
        assert!(c.chunks().len() >= 2);
        let arity = c.schema().arity();
        let bytes = fixtures::V3.to_vec();
        let tail = bytes.len() - 12;
        let entries_size: usize = c.index_entries().iter().map(|e| v3_entry_size(arity, e)).sum();
        let e0 = tail - entries_size;
        let mut crafted = bytes.clone();
        // rle_len is the second u64 of the first entry.
        crafted[e0 + 8..e0 + 16].copy_from_slice(&(u64::MAX - 7).to_le_bytes());
        assert!(matches!(from_bytes(&crafted), Err(StorageError::Corrupt(_))));
    }

    /// Byte size of one v4 footer entry: every blob record grows by a codec
    /// tag byte and an uncompressed-length u64.
    fn v4_entry_size(arity: usize, e: &ChunkIndexEntry) -> usize {
        v3_entry_size(arity, e) + 9 * (arity + 1)
    }

    /// Footer byte offset of the first chunk's entry in a v4 image with no
    /// epoch extension (entries run up to the tail).
    fn v4_first_entry_offset(c: &CompressedTable, bytes: &[u8]) -> usize {
        let arity = c.schema().arity();
        let entries_size: usize = c.index_entries().iter().map(|e| v4_entry_size(arity, e)).sum();
        bytes.len() - 12 - entries_size
    }

    #[test]
    fn rejects_crafted_overflow_locations_v4() {
        let c = compressed();
        assert!(c.chunks().len() >= 2);
        let bytes = to_bytes(&c).to_vec();
        let e0 = v4_first_entry_offset(&c, &bytes);
        let mut crafted = bytes.clone();
        // rle_len is still the second u64 of the first entry's rle record.
        crafted[e0 + 8..e0 + 16].copy_from_slice(&(u64::MAX - 7).to_le_bytes());
        assert!(matches!(from_bytes(&crafted), Err(StorageError::Corrupt(_))));
    }

    #[test]
    fn rejects_bad_codec_tags_v4() {
        let c = compressed();
        let bytes = to_bytes(&c).to_vec();
        let e0 = v4_first_entry_offset(&c, &bytes);
        // The rle record's codec tag (offset 16 within the record): an
        // unknown tag and a known-but-forbidden one must both be rejected.
        for tag in [7u8, Codec::Delta.tag()] {
            let mut crafted = bytes.clone();
            crafted[e0 + 16] = tag;
            assert!(matches!(from_bytes(&crafted), Err(StorageError::Corrupt(_))), "tag {tag}");
        }
    }

    #[test]
    fn rejects_tampered_uncompressed_length_v4() {
        let c = compressed();
        let bytes = to_bytes(&c).to_vec();
        let e0 = v4_first_entry_offset(&c, &bytes);
        // A raw blob's uncompressed length must equal its on-disk length;
        // growing it by one must fail footer validation.
        let rle_unc = u64::from_le_bytes(bytes[e0 + 17..e0 + 25].try_into().unwrap());
        let mut crafted = bytes.clone();
        crafted[e0 + 17..e0 + 25].copy_from_slice(&(rle_unc + 1).to_le_bytes());
        assert!(matches!(from_bytes(&crafted), Err(StorageError::Corrupt(_))));
    }

    #[test]
    fn rejects_tampered_uncompressed_length_on_compressed_blob_v4() {
        // Find a genuinely compressed blob through the parsed footer, then
        // nudge its uncompressed length so footer validation still passes
        // (> len, within the row bound) but the codec's own embedded
        // width/length no longer matches — the decoder must reject it.
        let c = compressed_large();
        let bytes = to_bytes(&c).to_vec();
        let footer = parse_footer_region(&bytes, 4).unwrap();
        let layouts = footer.layouts.as_ref().unwrap();
        let arity = c.schema().arity();
        let mut entry_start = v4_first_entry_offset(&c, &bytes);
        let mut target = None;
        'outer: for (ci, layout) in layouts.iter().enumerate() {
            for (j, loc) in layout.cols.iter().enumerate() {
                if loc.codec != Codec::Raw {
                    target = Some(entry_start + 25 + 25 * j);
                    break 'outer;
                }
            }
            entry_start += v4_entry_size(arity, &c.index_entries()[ci]);
        }
        let record = target.expect("large chunks must produce at least one compressed blob");
        let unc_at = record + 17;
        let unc = u64::from_le_bytes(bytes[unc_at..unc_at + 8].try_into().unwrap());
        let mut crafted = bytes.clone();
        crafted[unc_at..unc_at + 8].copy_from_slice(&(unc + 8).to_le_bytes());
        assert!(from_bytes(&crafted).is_err());
    }

    #[test]
    fn append_preserves_file_version() {
        // v4 is the version every append writes; v3 files migrate to it
        // (`tests/append.rs`), v1/v2 files are refused.
        let dir = std::env::temp_dir().join("cohana-persist-version-preserve");
        std::fs::create_dir_all(&dir).unwrap();
        let rows = generate(&GeneratorConfig::small());
        let (first, rest) = rows.rows().split_at(rows.rows().len() / 2);
        let build_table = |slice: &[cohana_activity::Tuple]| {
            let mut b = TableBuilder::new(rows.schema().clone());
            for row in slice {
                b.push(row.values().to_vec()).unwrap();
            }
            b.finish().unwrap()
        };
        let path = dir.join("table-v4.cohana");
        let opts = CompressionOptions::with_chunk_size(256);
        write_file(&CompressedTable::build(&build_table(first), opts).unwrap(), &path).unwrap();
        append(&path, &build_table(rest)).unwrap();
        let bytes = std::fs::read(&path).unwrap();
        assert_eq!(&bytes[4..8], VERSION.to_le_bytes(), "v4 file changed version");
        // The grown file still decodes to the full row set.
        let back = from_bytes(&bytes).unwrap();
        assert_eq!(back.num_rows(), rows.rows().len());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn compact_upgrades_v3_to_v4() {
        let dir = std::env::temp_dir().join("cohana-persist-compact-upgrade");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("table.cohana");
        std::fs::write(&path, fixtures::V3).unwrap();
        compact(&path).unwrap();
        let bytes = std::fs::read(&path).unwrap();
        assert_eq!(&bytes[4..8], 4u32.to_le_bytes());
        assert_eq!(bytes, to_bytes(&fixture_table()).to_vec());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn inspect_reports_codec_selection() {
        let dir = std::env::temp_dir().join("cohana-persist-inspect");
        std::fs::create_dir_all(&dir).unwrap();
        let inspect_image = |name: &str, bytes: &[u8]| {
            let path = dir.join(name);
            std::fs::write(&path, bytes).unwrap();
            let info = inspect(&path).unwrap();
            std::fs::remove_file(&path).ok();
            info
        };
        let c = fixture_table();
        let v3 = inspect_image("table-v3.cohana", fixtures::V3);
        assert_eq!(v3.version, 3);
        assert_eq!(v3.num_rows, c.num_rows());
        assert_eq!(v3.compressed_bytes(), v3.uncompressed_bytes());
        assert_eq!(v3.codecs[1].blobs + v3.codecs[2].blobs, 0);

        // The same table as v4: its blobs decode to exactly the v3 payload
        // and are never larger on disk.
        let v4 = inspect_image("table-v4.cohana", &to_bytes(&c));
        assert_eq!(v4.version, 4);
        assert_eq!(v4.num_chunks, c.chunks().len());
        assert_eq!(v4.uncompressed_bytes(), v3.compressed_bytes());
        assert!(v4.compressed_bytes() <= v3.compressed_bytes());
        for (a, b) in v4.columns.iter().zip(v3.columns.iter()) {
            assert_eq!(a.name, b.name);
            assert_eq!(a.uncompressed_bytes, b.uncompressed_bytes);
            assert!(a.compressed_bytes <= a.uncompressed_bytes);
        }

        // On realistic chunks at least one blob chooses a real codec.
        let large = inspect_image("table-large.cohana", &to_bytes(&compressed_large()));
        assert!(large.compressed_bytes() < large.uncompressed_bytes());
        assert!(large.codecs[1].blobs + large.codecs[2].blobs > 0);
        assert!(large.ratio() > 1.0);
    }

    #[test]
    fn rejects_zero_chunk_size_footer() {
        for bytes in images().into_iter().skip(1) {
            let tail = bytes.len() - 12;
            let footer_len = u64::from_le_bytes(bytes[tail..tail + 8].try_into().unwrap()) as usize;
            let footer_start = tail - footer_len;
            let mut crafted = bytes;
            crafted[footer_start..footer_start + 8].copy_from_slice(&0u64.to_le_bytes());
            assert!(matches!(from_bytes(&crafted), Err(StorageError::Corrupt(_))));
        }
    }

    #[test]
    fn rejects_tampered_footer_index() {
        for bytes in images().into_iter().skip(1) {
            // Locate the footer and flip one byte inside it; either the
            // footer parse or the recomputed-index comparison must reject
            // the image.
            let tail = bytes.len() - 12;
            let footer_len = u64::from_le_bytes(bytes[tail..tail + 8].try_into().unwrap()) as usize;
            let footer_start = tail - footer_len;
            let mut seen_reject = false;
            for pos in [footer_start + 8, footer_start + footer_len / 2, tail - 1] {
                let mut tampered = bytes.clone();
                tampered[pos] ^= 0x01;
                if from_bytes(&tampered).is_err() {
                    seen_reject = true;
                }
            }
            assert!(seen_reject, "no footer tampering detected");
        }
    }

    #[test]
    fn all_versions_decode_identically() {
        let [v1, v2, v3, v4] = images().map(|bytes| from_bytes(&bytes).unwrap());
        assert_eq!(v1.chunks(), v2.chunks());
        assert_eq!(v2.chunks(), v3.chunks());
        assert_eq!(v3.chunks(), v4.chunks());
        assert_eq!(v1.metas(), v4.metas());
        assert_eq!(v1.schema(), v4.schema());
        assert_eq!(v1.num_rows(), v4.num_rows());
        assert_eq!(v1.options(), v4.options());
    }
}
