//! Chunk sources: uniform, lazily-loadable access to a table's chunks.
//!
//! The executor processes a table one chunk at a time and, thanks to the
//! per-chunk metadata COHANA keeps (§4.1), can often prove from metadata
//! alone that a chunk contributes nothing to a query (birth action absent
//! from the chunk's action dictionary, or birth-time bounds disjoint from
//! the chunk's time range). [`ChunkSource`] makes that split explicit:
//!
//! * [`ChunkIndexEntry`] carries exactly the pruning metadata, available for
//!   *every* chunk without touching chunk payloads;
//! * [`ChunkSource::chunk`] materializes one chunk's payload on demand;
//! * [`ChunkSource::chunk_columns`] materializes only the columns named by
//!   the plan's projection list — columns the query never names are never
//!   read from disk.
//!
//! Two implementations exist: [`CompressedTable`] (everything resident in
//! memory — `chunk` is a borrow) and [`FileSource`] (a footer-indexed v3/v4
//! file — segments are seeked, read, and decoded on demand and retained in a
//! **bounded, byte-budgeted LRU cache** over `(chunk, column)` entries, so a
//! table much larger than RAM can be queried within a fixed memory budget).
//! Opening a `FileSource` costs O(footer): a selective query on a cold table
//! pays I/O and decode cost only for the chunk columns it actually touches,
//! mirroring the row-group/column-chunk metadata designs of Parquet and
//! GBAM. A `FileSource` keeps only the cache, the positional reads and the
//! I/O counters: every blob it reads becomes a segment through
//! [`persist`]'s one checked decode, the same one the eager load runs.

use crate::chunk::Chunk;
use crate::column::ChunkColumn;
use crate::persist::{self, EpochRemaps, Footer};
use crate::record::IoRecorder;
use crate::rle::UserRle;
use crate::table::{CompressedTable, TableMeta};
use crate::{Result, StorageError};
use cohana_activity::Schema;
use std::collections::HashMap;
use std::fs::File;
use std::ops::Deref;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex, MutexGuard};

/// Per-column statistics recorded in a footer's [`ChunkIndexEntry`]: the
/// analogue of Parquet's `ColumnChunkMetaData` statistics, computable from
/// the chunk payload and therefore verifiable after a lazy decode.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ColumnStats {
    /// The user column: its data is the RLE triple array, described by the
    /// entry's row/user counts.
    User,
    /// A dictionary-encoded string column: number of distinct values in the
    /// chunk.
    Str {
        /// Size of the chunk dictionary.
        distinct: u32,
    },
    /// A delta-encoded integer column: the chunk's value range.
    Int {
        /// Minimum value in the chunk.
        min: i64,
        /// Maximum value in the chunk.
        max: i64,
    },
}

/// Per-chunk metadata: everything the executor needs to decide whether a
/// chunk can contribute to a query, without loading the chunk itself. The
/// persistence footer stores one entry per chunk (the analogue of Parquet's
/// `RowGroupMetaData` + the column-chunk statistics it wraps), with one
/// [`ColumnStats`] per attribute.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChunkIndexEntry {
    /// Tuples in the chunk.
    pub num_rows: u64,
    /// Distinct users in the chunk.
    pub num_users: u64,
    /// Minimum of the time attribute over the chunk.
    pub time_min: i64,
    /// Maximum of the time attribute over the chunk.
    pub time_max: i64,
    /// The chunk's action dictionary: sorted global ids of every action that
    /// occurs in the chunk. Membership here decides birth-action pruning.
    pub action_gids: Vec<u32>,
    /// Per-attribute statistics, one per schema position.
    pub column_stats: Vec<ColumnStats>,
}

impl ChunkIndexEntry {
    /// Compute the entry (including per-column stats) for a fully
    /// materialized in-memory chunk.
    pub fn of_chunk(chunk: &Chunk, schema: &Schema) -> Self {
        let (time_min, time_max) = chunk
            .column_required(schema.time_idx())
            .int_range()
            .expect("time column is integer-encoded");
        let action_gids = chunk
            .column_required(schema.action_idx())
            .dict()
            .expect("action column is dictionary-encoded")
            .global_ids()
            .to_vec();
        let column_stats = (0..schema.arity())
            .map(|idx| {
                if idx == schema.user_idx() {
                    return ColumnStats::User;
                }
                let col = chunk.column_required(idx);
                match col.int_range() {
                    Some((min, max)) => ColumnStats::Int { min, max },
                    None => ColumnStats::Str {
                        distinct: col.dict().expect("string column").len() as u32,
                    },
                }
            })
            .collect();
        ChunkIndexEntry {
            num_rows: chunk.num_rows() as u64,
            num_users: chunk.num_users() as u64,
            time_min,
            time_max,
            action_gids,
            column_stats,
        }
    }

    /// Whether any tuple in the chunk performs the action with this global
    /// id.
    pub fn has_action(&self, gid: u32) -> bool {
        self.action_gids.binary_search(&gid).is_ok()
    }

    /// Whether the chunk's time range is disjoint from `[lo, hi]`.
    pub fn time_disjoint(&self, lo: i64, hi: i64) -> bool {
        hi < self.time_min || lo > self.time_max
    }
}

/// A loaded chunk: borrowed from a resident table, or owned by the caller.
///
/// `Owned` is what makes cache eviction possible: a source that hands out
/// only `&self`-lifetime borrows is forced to retain every decode for its
/// whole life. [`FileSource`] returns `Owned` chunks whose segments are
/// reference-counted with the cache, so eviction never invalidates an
/// in-flight chunk.
pub enum ChunkRef<'a> {
    /// Chunk resident in the source (memory table).
    Borrowed(&'a Chunk),
    /// Chunk assembled for this call (segments may still be shared with the
    /// source's cache via `Arc`).
    Owned(Box<Chunk>),
}

impl Deref for ChunkRef<'_> {
    type Target = Chunk;
    fn deref(&self) -> &Chunk {
        match self {
            ChunkRef::Borrowed(c) => c,
            ChunkRef::Owned(c) => c,
        }
    }
}

/// Decode-throughput counters for one codec: how many raw bytes its blobs
/// decoded to and how long that took. Indexed by codec tag in
/// [`SourceIoStats::decode`].
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct CodecDecode {
    /// Bytes the decoded blobs serialize to raw (same unit as
    /// `bytes_decompressed`).
    pub bytes_out: u64,
    /// Wall time spent inside the decoders, in nanoseconds.
    pub nanos: u64,
}

impl CodecDecode {
    /// Decode throughput in MB/s of decoded output (0.0 before any blob
    /// has been decoded). "MB" is 10^6 bytes, matching the bench reports.
    pub fn mbps(&self) -> f64 {
        if self.nanos == 0 {
            0.0
        } else {
            self.bytes_out as f64 * 1000.0 / self.nanos as f64
        }
    }
}

/// I/O and cache counters of a source (all zero for fully resident
/// sources), read from its table's lifetime [`IoRecorder`] plus the cache
/// gauges; a query's own share comes from the recorder its stream installs.
/// Diagnostics: lets tests, benches, and the shell's `.stats` assert that
/// pruning and projection pushdown actually avoided work.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct SourceIoStats {
    /// Chunks whose skeleton (the RLE user column) was decoded from backing
    /// storage.
    pub chunks_decoded: usize,
    /// Individual column segments decoded.
    pub columns_decoded: usize,
    /// Payload bytes read from backing storage (excludes the footer). With
    /// v4 codec-compressed blobs these are *on-disk* (compressed) bytes.
    pub bytes_read: u64,
    /// Bytes the read blobs decode to — their raw (v3-serialized) size.
    /// Equals `bytes_read` on v3 sources, whose blobs are stored raw;
    /// the gap between the two is what the v4 codecs saved on the disk
    /// path.
    pub bytes_decompressed: u64,
    /// Per-codec decode throughput counters, indexed by codec tag (raw,
    /// delta, ans). RLE blobs count under raw.
    pub decode: [CodecDecode; 3],
    /// Cache entries evicted to stay within the byte budget.
    pub cache_evictions: u64,
    /// Bytes currently retained by the cache.
    pub cache_resident_bytes: usize,
    /// The configured cache byte budget.
    pub cache_budget_bytes: usize,
}

/// Uniform access to a table's chunks, with pruning metadata available
/// before any chunk I/O.
pub trait ChunkSource: Send + Sync {
    /// The chunk-independent table metadata (schema, global dictionaries,
    /// integer ranges, row count).
    fn table_meta(&self) -> &TableMeta;

    /// Number of chunks.
    fn num_chunks(&self) -> usize;

    /// Pruning metadata of one chunk. Always available without chunk I/O.
    fn index_entry(&self, idx: usize) -> &ChunkIndexEntry;

    /// Materialize one chunk, loading and decoding it if necessary.
    fn chunk(&self, idx: usize) -> Result<ChunkRef<'_>>;

    /// Materialize one chunk **partially**: the returned chunk is guaranteed
    /// to carry the user RLE plus the column segments of every attribute in
    /// `cols` (the user attribute's data is always in the RLE; other
    /// attributes may or may not be materialized). Fully resident sources
    /// serve the whole chunk.
    fn chunk_columns(&self, idx: usize, cols: &[usize]) -> Result<ChunkRef<'_>> {
        let _ = cols;
        self.chunk(idx)
    }

    /// I/O and cache counters (all zero for fully resident sources).
    fn io_stats(&self) -> SourceIoStats {
        SourceIoStats::default()
    }
}

impl ChunkSource for CompressedTable {
    fn table_meta(&self) -> &TableMeta {
        self.table_meta()
    }

    fn num_chunks(&self) -> usize {
        self.chunks().len()
    }

    fn index_entry(&self, idx: usize) -> &ChunkIndexEntry {
        &self.index_entries()[idx]
    }

    fn chunk(&self, idx: usize) -> Result<ChunkRef<'_>> {
        Ok(ChunkRef::Borrowed(&self.chunks()[idx]))
    }
}

/// Default byte budget of a [`FileSource`]'s segment cache (256 MiB).
pub const DEFAULT_CACHE_BUDGET: usize = 256 * 1024 * 1024;

/// Cache key: `(source id, chunk index, segment id)` where segment 1 is the
/// RLE user column and `2 + attr` a column segment.
/// The source id disambiguates entries when several [`FileSource`]s — the
/// shards of one sharded table — share a single byte-budgeted cache.
type SegKey = (u32, u32, u32);

const SEG_RLE: u32 = 1;

fn seg_col(attr: usize) -> u32 {
    2 + attr as u32
}

/// One decoded segment retained by the cache. Cloning is an `Arc` bump.
#[derive(Clone)]
enum CacheSlot {
    Rle(Arc<UserRle>),
    Col(Arc<ChunkColumn>),
}

struct CacheEntry {
    slot: CacheSlot,
    bytes: usize,
    tick: u64,
}

/// Bounded LRU over decoded segments, keyed `(source, chunk, column)`. Each
/// entry is charged what the decoded segment holds in memory — its
/// `packed_bytes()`: bit-packed words plus chunk dictionary, the size of
/// the v3 (raw) serialization, not the blob's codec-compressed size on
/// disk. Eviction happens **before**
/// insertion, so the resident total never exceeds the budget, even
/// transiently; a segment larger than the whole budget is simply never
/// retained. One cache can back several sources (the shards of a sharded
/// table), which share the single byte budget.
pub(crate) struct SegmentCache {
    budget: usize,
    resident: usize,
    tick: u64,
    map: HashMap<SegKey, CacheEntry>,
}

impl SegmentCache {
    fn new(budget: usize) -> Self {
        SegmentCache { budget, resident: 0, tick: 0, map: HashMap::new() }
    }

    fn get(&mut self, key: SegKey) -> Option<CacheSlot> {
        self.tick += 1;
        let tick = self.tick;
        self.map.get_mut(&key).map(|e| {
            e.tick = tick;
            e.slot.clone()
        })
    }

    /// Insert an entry, evicting LRU entries as needed; returns how many
    /// evictions this insertion caused (counted by the caller).
    fn insert(&mut self, key: SegKey, slot: CacheSlot, bytes: usize) -> u64 {
        if let Some(old) = self.map.remove(&key) {
            self.resident -= old.bytes;
        }
        if bytes > self.budget {
            // A segment larger than the whole budget is never retained.
            // Nothing resident is displaced, so this is not an eviction.
            return 0;
        }
        let mut evicted_now = 0;
        while self.resident + bytes > self.budget {
            let lru = self
                .map
                .iter()
                .min_by_key(|(_, e)| e.tick)
                .map(|(k, _)| *k)
                .expect("resident > 0 implies a cached entry");
            let evicted = self.map.remove(&lru).expect("lru key present");
            self.resident -= evicted.bytes;
            evicted_now += 1;
        }
        self.tick += 1;
        self.map.insert(key, CacheEntry { slot, bytes, tick: self.tick });
        self.resident += bytes;
        evicted_now
    }

    /// Distinct chunks of one source with at least one cached segment.
    fn chunks_resident(&self, src: u32) -> usize {
        let mut chunks: Vec<u32> =
            self.map.keys().filter(|(s, _, _)| *s == src).map(|(_, c, _)| *c).collect();
        chunks.sort_unstable();
        chunks.dedup();
        chunks.len()
    }
}

/// What the [`FileSource`]s of one table share: the segment cache, so all
/// their decoded segments count against a single byte budget, and the
/// table's lifetime [`IoRecorder`], so one counter set counts their I/O.
/// The shards of a sharded table open with clones of one of these.
#[derive(Debug, Clone)]
pub(crate) struct SharedCache {
    segments: Arc<Mutex<SegmentCache>>,
    io: Arc<IoRecorder>,
}

pub(crate) fn shared_cache(budget: usize) -> SharedCache {
    SharedCache {
        segments: Arc::new(Mutex::new(SegmentCache::new(budget))),
        io: Arc::new(IoRecorder::new()),
    }
}

/// A lazily-loaded, file-backed table in the footer-indexed v3 or v4
/// format.
///
/// [`FileSource::open`] reads only the 8-byte header and the footer — O(1)
/// in the number of tuples. Every chunk's columns are independently
/// addressable: [`FileSource::chunk_columns`] seeks and decodes only the RLE
/// user column plus the projected column segments. Decoded segments live in
/// a bounded byte-budgeted LRU cache
/// ([`FileSource::open_with_budget`]) so resident memory never exceeds the
/// configured budget regardless of table size.
#[derive(Debug)]
pub struct FileSource {
    path: PathBuf,
    /// Read with positional reads only, so concurrent fetches share the
    /// handle without a lock (and without a shared cursor to race on).
    file: File,
    /// The parsed footer: table metadata, index entries, blob layouts, and
    /// the dictionary epochs of an appended file (see [`persist::append`]),
    /// through whose gid remaps chunks encoded under an older dictionary are
    /// re-based at decode time. A [`FileSource::rebase`] replaces its
    /// metadata and action gids with unified ones and folds the shard's
    /// overlay into those remaps.
    footer: Footer,
    /// Decoded-segment cache and lifetime I/O counters, shared by every
    /// shard of a sharded table (one byte budget, one counter set); a
    /// standalone source owns its pair exclusively.
    shared: SharedCache,
    /// This source's id within its (possibly shared) cache — the first
    /// component of every [`SegKey`] it reads or writes.
    cache_id: u32,
}

impl std::fmt::Debug for SegmentCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SegmentCache")
            .field("budget", &self.budget)
            .field("resident", &self.resident)
            .field("entries", &self.map.len())
            .finish()
    }
}

impl FileSource {
    /// Open a v3/v4 file by reading its footer, with the default cache
    /// budget ([`DEFAULT_CACHE_BUDGET`]); no chunk data is touched.
    ///
    /// Returns [`StorageError::Unsupported`] for v1 and v2 files, which are
    /// no longer read (see [`persist`]).
    pub fn open(path: &Path) -> Result<FileSource> {
        Self::open_with_budget(path, DEFAULT_CACHE_BUDGET)
    }

    /// Like [`FileSource::open`] with an explicit segment-cache byte budget.
    /// A budget of 0 disables caching entirely (every access re-reads and
    /// re-decodes).
    pub fn open_with_budget(path: &Path, cache_budget: usize) -> Result<FileSource> {
        Self::open_shared(path, shared_cache(cache_budget), 0)
    }

    /// Adopt the chunks a write path just encoded
    /// ([`persist::append_with_chunks`], [`persist::compact_with_chunks`]) as
    /// cached segments, so the first reader of the new snapshot does not
    /// decode what the writer held in memory a moment earlier. They enter
    /// through the ordinary cache insert — charged like any decoded segment,
    /// within the budget, evicted LRU — and are re-based by the remap a
    /// decoded segment of their chunk gets ([`Footer::remap_for`], so call
    /// after any [`FileSource::rebase`]). A chunk is adopted only where this
    /// source's footer is the one its writer produced — same footer offset,
    /// same blob locations — and is otherwise left to be decoded on demand.
    pub(crate) fn seed(&self, written: persist::WrittenChunks) -> Result<()> {
        if written.footer_start != self.footer.payload_end {
            return Ok(());
        }
        let user_idx = self.footer.meta.schema().user_idx();
        for (idx, layout, chunk) in written.chunks {
            if self.footer.layouts.get(idx) != Some(&layout) {
                continue;
            }
            // Take the segments out of the chunk, so a remap moves their
            // packed codes when nothing else holds them.
            let (rle, columns) = (chunk.shared_rle().clone(), chunk.columns().to_vec());
            drop(chunk);
            let rle = match self.footer.remap_for(idx, user_idx) {
                Some(remap) => Arc::new(Arc::unwrap_or_clone(rle).remap_users(remap)?),
                None => rle,
            };
            let bytes = rle.packed_bytes();
            self.insert((self.cache_id, idx as u32, SEG_RLE), CacheSlot::Rle(rle), bytes);
            for (attr, col) in columns.into_iter().enumerate() {
                let Some(col) = col else { continue };
                let col = match self.footer.remap_for(idx, attr) {
                    Some(remap) => Arc::new(Arc::unwrap_or_clone(col).remap_gids(remap)?),
                    None => col,
                };
                let bytes = col.packed_bytes();
                self.insert((self.cache_id, idx as u32, seg_col(attr)), CacheSlot::Col(col), bytes);
            }
        }
        Ok(())
    }

    /// Open a file against an existing (possibly shared) segment cache and
    /// lifetime recorder, tagging every cache entry with `cache_id`. This is
    /// how a sharded table gives all its shard files one byte budget and one
    /// counter set; each shard gets a distinct id so per-shard residency
    /// accounting stays precise.
    pub(crate) fn open_shared(
        path: &Path,
        shared: SharedCache,
        cache_id: u32,
    ) -> Result<FileSource> {
        let file = File::open(path)?;
        let footer = persist::read_footer_from_file(&file)?;
        Ok(FileSource { path: path.to_path_buf(), file, footer, shared, cache_id })
    }

    /// Re-base this source into a unifying dictionary space (a sharded
    /// table's): `meta` replaces its table metadata, and `overlay` — per
    /// attribute, the gid remap from this file's dictionaries into `meta`'s
    /// — is composed into the footer's epoch remaps ([`Footer::rebase`]).
    /// Each segment is then re-based once, straight into unified terms, by
    /// the same checked decode that serves a standalone file; index entries'
    /// action gids, which steer pruning, are rewritten here.
    pub(crate) fn rebase(&mut self, meta: TableMeta, overlay: EpochRemaps) -> Result<()> {
        self.footer.rebase(meta, overlay)
    }

    /// The file backing this source.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// How many of this source's chunks currently have at least one cached
    /// segment.
    pub fn chunks_resident(&self) -> usize {
        self.cache().chunks_resident(self.cache_id)
    }

    fn cache(&self) -> MutexGuard<'_, SegmentCache> {
        self.shared.segments.lock().expect("cache lock poisoned")
    }

    /// Count one I/O event on the table's lifetime recorder and the
    /// thread's active query recorder ([`IoRecorder::count`]).
    fn count(&self, bump: impl Fn(&IoRecorder)) {
        self.shared.io.count(bump)
    }

    /// Read `len` bytes at `offset` from the backing file. A short read is
    /// reported as corruption naming the blob's offsets — the footer
    /// promised these bytes, so their absence means the file was truncated
    /// (e.g. a torn append) behind our back.
    fn read_range(&self, offset: u64, len: u64) -> Result<Vec<u8>> {
        if len > self.footer.payload_end.saturating_sub(offset) {
            return Err(StorageError::Corrupt(format!(
                "blob at offset {offset} (length {len}) reaches past the payload region end \
                 {}",
                self.footer.payload_end
            )));
        }
        let mut buf = vec![0u8; len as usize];
        persist::fill_at(&self.file, &mut buf, offset).map_err(|e| {
            if e.kind() == std::io::ErrorKind::UnexpectedEof {
                StorageError::Corrupt(format!(
                    "blob at offset {offset} (length {len}) reaches past the end of the file \
                     (truncated?)"
                ))
            } else {
                StorageError::Io(e.to_string())
            }
        })?;
        self.count(|r| r.add_bytes_read(len));
        Ok(buf)
    }

    /// Fetch the RLE user column of a chunk: a cache hit, or a read and
    /// [`Footer::rle`]'s checked decode.
    fn fetch_rle(&self, idx: usize) -> Result<Arc<UserRle>> {
        let key = (self.cache_id, idx as u32, SEG_RLE);
        if let Some(CacheSlot::Rle(rle)) = self.cache().get(key) {
            return Ok(rle);
        }
        let loc = &self.footer.layouts[idx].rle;
        let blob = self.read_range(loc.offset, loc.len)?;
        let rle = self
            .footer
            .rle(idx, &blob, |nanos| self.count(|r| r.add_decode(0, loc.uncompressed, nanos)))?;
        self.count(|r| r.add_chunks_decoded(1));
        let rle = Arc::new(rle);
        self.insert(key, CacheSlot::Rle(rle.clone()), rle.packed_bytes());
        Ok(rle)
    }

    /// Fetch one column segment of a chunk: a cache hit, or a read and
    /// [`Footer::column`]'s checked decode.
    fn fetch_column(&self, idx: usize, attr: usize) -> Result<Arc<ChunkColumn>> {
        let key = (self.cache_id, idx as u32, seg_col(attr));
        if let Some(CacheSlot::Col(col)) = self.cache().get(key) {
            return Ok(col);
        }
        let loc = &self.footer.layouts[idx].cols[attr];
        let blob = self.read_range(loc.offset, loc.len)?;
        let col = self.footer.column(idx, attr, &blob, |nanos| {
            self.count(|r| r.add_decode(loc.codec.tag() as usize, loc.uncompressed, nanos))
        })?;
        self.count(|r| r.add_columns_decoded(1));
        let col = Arc::new(col);
        self.insert(key, CacheSlot::Col(col.clone()), col.packed_bytes());
        Ok(col)
    }

    /// Cache one segment, counting the evictions that made room for it.
    fn insert(&self, key: SegKey, slot: CacheSlot, bytes: usize) {
        let evicted = self.cache().insert(key, slot, bytes);
        self.count(|r| r.add_cache_evictions(evicted));
    }

    /// Assemble a (possibly partial) chunk: RLE + the requested columns.
    fn assemble(&self, idx: usize, cols: &[usize]) -> Result<ChunkRef<'_>> {
        let arity = self.footer.meta.schema().arity();
        let user_idx = self.footer.meta.schema().user_idx();
        let rle = self.fetch_rle(idx)?;
        let mut columns: Vec<Option<Arc<ChunkColumn>>> = vec![None; arity];
        for &attr in cols {
            if attr >= arity {
                return Err(StorageError::Invalid(format!(
                    "projected column {attr} out of range (arity {arity})"
                )));
            }
            if attr == user_idx || columns[attr].is_some() {
                continue;
            }
            columns[attr] = Some(self.fetch_column(idx, attr)?);
        }
        Ok(ChunkRef::Owned(Box::new(Chunk::from_shared(rle, columns)?)))
    }
}

impl ChunkSource for FileSource {
    fn table_meta(&self) -> &TableMeta {
        &self.footer.meta
    }

    fn num_chunks(&self) -> usize {
        self.footer.layouts.len()
    }

    fn index_entry(&self, idx: usize) -> &ChunkIndexEntry {
        &self.footer.entries[idx]
    }

    fn chunk(&self, idx: usize) -> Result<ChunkRef<'_>> {
        let all: Vec<usize> = (0..self.footer.meta.schema().arity()).collect();
        self.assemble(idx, &all)
    }

    fn chunk_columns(&self, idx: usize, cols: &[usize]) -> Result<ChunkRef<'_>> {
        self.assemble(idx, cols)
    }

    /// The whole table's counters: every shard of a sharded table shares
    /// one lifetime recorder and one cache, so any shard reports them all.
    fn io_stats(&self) -> SourceIoStats {
        let cache = self.cache();
        SourceIoStats {
            cache_resident_bytes: cache.resident,
            cache_budget_bytes: cache.budget,
            ..self.shared.io.snapshot()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fixtures;
    use crate::record;
    use crate::table::CompressionOptions;
    use cohana_activity::{generate, GeneratorConfig};

    fn compressed() -> CompressedTable {
        let t = generate(&GeneratorConfig::small());
        CompressedTable::build(&t, CompressionOptions::with_chunk_size(256)).unwrap()
    }

    /// The table the golden v3 image holds.
    fn fixture_table() -> CompressedTable {
        persist::from_bytes(fixtures::V3).unwrap()
    }

    fn temp_path(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join("cohana-source-test");
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(name)
    }

    #[test]
    fn index_entries_describe_chunks() {
        let c = compressed();
        assert!(c.chunks().len() > 1);
        let schema = c.schema().clone();
        for (chunk, entry) in c.chunks().iter().zip(c.index_entries()) {
            assert_eq!(entry.num_rows, chunk.num_rows() as u64);
            assert_eq!(entry.num_users, chunk.num_users() as u64);
            assert!(entry.time_min <= entry.time_max);
            // Every action in the chunk is in the entry and vice versa.
            let dict = chunk.column_required(schema.action_idx()).dict().unwrap();
            assert_eq!(entry.action_gids, dict.global_ids());
            // One stat per attribute, agreeing with the segments.
            assert_eq!(entry.column_stats.len(), schema.arity());
            assert_eq!(entry.column_stats[schema.user_idx()], ColumnStats::User);
            assert_eq!(
                entry.column_stats[schema.time_idx()],
                ColumnStats::Int { min: entry.time_min, max: entry.time_max }
            );
            assert_eq!(
                entry.column_stats[schema.action_idx()],
                ColumnStats::Str { distinct: dict.len() as u32 }
            );
        }
        let rows: u64 = c.index_entries().iter().map(|e| e.num_rows).sum();
        assert_eq!(rows, c.num_rows() as u64);
    }

    #[test]
    fn entry_pruning_predicates() {
        let entry = ChunkIndexEntry {
            num_rows: 10,
            num_users: 2,
            time_min: 100,
            time_max: 200,
            action_gids: vec![1, 4, 9],
            column_stats: vec![],
        };
        assert!(entry.has_action(4));
        assert!(!entry.has_action(5));
        assert!(entry.time_disjoint(0, 99));
        assert!(entry.time_disjoint(201, 300));
        assert!(!entry.time_disjoint(150, 160));
        assert!(!entry.time_disjoint(0, 100));
        assert!(!entry.time_disjoint(200, 300));
    }

    #[test]
    fn memory_source_borrows_everything() {
        let c = compressed();
        let src: &dyn ChunkSource = &c;
        assert_eq!(src.num_chunks(), c.chunks().len());
        for i in 0..src.num_chunks() {
            let chunk = src.chunk(i).unwrap();
            assert_eq!(chunk.num_rows(), c.chunks()[i].num_rows());
            // Projection requests on a resident table serve the whole chunk.
            let partial = src.chunk_columns(i, &[c.schema().time_idx()]).unwrap();
            assert!(matches!(partial, ChunkRef::Borrowed(_)));
        }
        assert_eq!(src.io_stats(), SourceIoStats::default());
    }

    #[test]
    fn v3_file_source_loads_columns_lazily_and_caches() {
        let c = compressed();
        let arity = c.schema().arity();
        let path = temp_path("lazy-v3.cohana");
        persist::write_file(&c, &path).unwrap();

        let src = FileSource::open(&path).unwrap();
        assert_eq!(src.num_chunks(), c.chunks().len());
        assert_eq!(src.table_meta().num_rows(), c.num_rows());
        let io = src.io_stats();
        assert_eq!((io.chunks_decoded, io.columns_decoded, io.bytes_read), (0, 0, 0));
        assert_eq!(src.chunks_resident(), 0);

        // Full fetch decodes the RLE + every non-user column.
        let chunk = src.chunk(1).unwrap();
        assert_eq!(&*chunk, &c.chunks()[1]);
        drop(chunk);
        let io = src.io_stats();
        assert_eq!((io.chunks_decoded, io.columns_decoded), (1, arity - 1));
        assert!(io.bytes_read > 0);
        assert_eq!(src.chunks_resident(), 1);

        // Second access is served from cache: no new decodes, no new reads.
        let again = src.chunk(1).unwrap();
        drop(again);
        assert_eq!(src.io_stats(), io);

        // Entries agree with the in-memory index.
        for i in 0..src.num_chunks() {
            assert_eq!(src.index_entry(i), &c.index_entries()[i]);
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn v3_projection_decodes_only_named_columns() {
        let c = compressed();
        let time_idx = c.schema().time_idx();
        let user_idx = c.schema().user_idx();
        let path = temp_path("projected-v3.cohana");
        persist::write_file(&c, &path).unwrap();

        let src = FileSource::open(&path).unwrap();
        let chunk = src.chunk_columns(0, &[user_idx, time_idx]).unwrap();
        assert_eq!(src.io_stats().columns_decoded, 1, "only the time column decodes");
        assert_eq!(src.io_stats().chunks_decoded, 1);
        // The requested column is materialized and correct.
        assert_eq!(
            chunk.column_required(time_idx).int_value(0),
            c.chunks()[0].column_required(time_idx).int_value(0)
        );
        // Unprojected columns are absent, not wrong.
        let other = (0..c.schema().arity())
            .find(|&i| i != time_idx && i != user_idx)
            .expect("schema has more attributes");
        assert!(chunk.column(other).is_none());
        drop(chunk);

        // Widening the projection only decodes the delta.
        let wide = src.chunk_columns(0, &[user_idx, time_idx, other]).unwrap();
        assert_eq!(src.io_stats().columns_decoded, 2);
        assert!(wide.column(other).is_some());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn cache_respects_byte_budget_for_both_versions() {
        let c = fixture_table();
        for (name, bytes) in
            [("budget-v4.cohana", &persist::to_bytes(&c)[..]), ("budget-v3.cohana", fixtures::V3)]
        {
            let path = temp_path(name);
            std::fs::write(&path, bytes).unwrap();
            // A budget far smaller than the table forces constant eviction.
            let budget = 2 * 1024;
            let src = FileSource::open_with_budget(&path, budget).unwrap();
            for round in 0..2 {
                for i in 0..src.num_chunks() {
                    let chunk = src.chunk(i).unwrap();
                    assert_eq!(chunk.num_rows(), c.chunks()[i].num_rows(), "round {round}");
                    let resident = src.io_stats().cache_resident_bytes;
                    assert!(
                        resident <= budget,
                        "{name}: resident {resident} exceeds budget {budget}"
                    );
                }
            }
            let io = src.io_stats();
            assert!(io.cache_evictions > 0, "{name}: no evictions under a tiny budget");
            // With eviction in play, later rounds re-decode.
            assert!(io.chunks_decoded > src.num_chunks(), "{name}: eviction forced re-decodes");
            std::fs::remove_file(&path).ok();
        }
    }

    #[test]
    fn zero_budget_disables_caching() {
        let c = compressed();
        let path = temp_path("budget-zero.cohana");
        persist::write_file(&c, &path).unwrap();
        let src = FileSource::open_with_budget(&path, 0).unwrap();
        src.chunk(0).unwrap();
        src.chunk(0).unwrap();
        assert_eq!(src.io_stats().cache_resident_bytes, 0);
        assert_eq!(src.io_stats().chunks_decoded, 2, "every access re-decodes");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn a_query_recorder_counts_what_io_stats_reports() {
        // Both versions, so the raw-only v3 and the entropy-coded v4 codec
        // cells are both exercised.
        let c = fixture_table();
        for (name, bytes) in [
            ("recorder-v4.cohana", &persist::to_bytes(&c)[..]),
            ("recorder-v3.cohana", fixtures::V3),
        ] {
            let path = temp_path(name);
            std::fs::write(&path, bytes).unwrap();
            let src = FileSource::open_with_budget(&path, 0).unwrap();
            let recorder = Arc::new(IoRecorder::new());
            record::with_recorder(&recorder, || {
                for i in 0..src.num_chunks() {
                    src.chunk(i).unwrap();
                }
            });
            let lifetime = src.io_stats();
            assert!(lifetime.decode.iter().any(|d| d.nanos > 0), "{name}: no decode timed");
            assert_eq!(
                recorder.snapshot(),
                SourceIoStats { cache_resident_bytes: 0, cache_budget_bytes: 0, ..lifetime },
                "{name}"
            );
            std::fs::remove_file(&path).ok();
        }
    }

    #[test]
    fn file_source_rejects_v1_files() {
        let path = temp_path("v1.cohana");
        std::fs::write(&path, fixtures::V1).unwrap();
        match FileSource::open(&path).unwrap_err() {
            StorageError::Unsupported(msg) => {
                assert!(msg.contains("5b41903") && msg.contains("re-save"), "{msg}")
            }
            other => panic!("expected Unsupported, got {other:?}"),
        }
        std::fs::remove_file(&path).ok();
    }
}
