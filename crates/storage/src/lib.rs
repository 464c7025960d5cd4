//! # cohana-storage
//!
//! COHANA's storage format for activity tables (§4.1 of the paper).
//!
//! An activity table is stored in the sorted order of its primary key
//! `(Au, At, Ae)` and horizontally partitioned into **chunks** such that all
//! tuples of a user land in exactly one chunk. Within a chunk, data is stored
//! column by column:
//!
//! * the **user column** is run-length encoded as `(user, first, count)`
//!   triples, enabling the modified TableScan's `GetNextUser` /
//!   `SkipCurUser`;
//! * **string columns** (action, dimensions) use a *two-level dictionary*:
//!   a global dictionary of sorted unique values assigns *global ids*; each
//!   chunk keeps the sorted list of global ids present (the *chunk
//!   dictionary*) and stores each value as its position in that list (the
//!   *chunk id*). A birth action absent from a chunk dictionary lets the
//!   executor skip the whole chunk;
//! * **integer columns** (time, measures) use *two-level delta encoding*:
//!   a global `[min, max]` range, a per-chunk range, and per-value deltas
//!   from the chunk minimum. Disjoint chunk ranges let the executor skip
//!   chunks for time-range predicates;
//! * the resulting small integers are **bit-packed at fixed width**, chosen
//!   as the minimum number of bits for the largest value, packing as many
//!   values as fit into each 64-bit word **without spanning words**, so any
//!   value can be read randomly without decompression.
//!
//! [`CompressedTable::build`] compresses an
//! [`ActivityTable`](cohana_activity::ActivityTable).
//!
//! ## Persistence and lazy access
//!
//! [`persist`] serializes the compressed form into the **v4
//! column-addressable format**: every chunk's segments (RLE user column +
//! one blob per attribute) are written as independently addressable blobs,
//! then a footer holding the schema, compression options, global column
//! metadata, and one [`ChunkIndexEntry`] per chunk (per-blob byte
//! locations, row/user counts, time bounds, the chunk's action-dictionary
//! membership, and per-column [`ColumnStats`]), terminated by the footer
//! length + magic — the Parquet row-group/column-chunk metadata layout
//! adapted to COHANA's user-clustered chunks. v4 additionally runs each
//! column blob's packed-array section through the smallest of the [`codec`]
//! module's per-blob codecs (raw / delta-then-pack / rANS) and records the
//! choice plus the uncompressed size in the footer. v3 (raw blobs) files
//! stay readable and v1/v2 files are refused; only v4 is written. Every
//! untrusted byte is parsed through one bounds-checked [`Reader`].
//!
//! The [`ChunkSource`] trait splits "metadata for pruning" from "chunk
//! payload": [`CompressedTable`] implements it with everything resident,
//! while [`FileSource`] opens a v3/v4 file in O(footer) and loads + decodes
//! individual segments on demand into a **bounded, byte-budgeted LRU
//! cache** keyed by `(chunk, column)`. With the projection-aware
//! [`ChunkSource::chunk_columns`], a selective query pays I/O and decode
//! cost only for the chunk columns it actually names.
//!
//! ## Incremental ingest
//!
//! Files are not build-once: [`persist::append`] grows a v4 file in place
//! (new blobs after the old footer, fresh footer at the tail, dictionary
//! growth handled by per-epoch gid remaps, returning users' chunks
//! rewritten to preserve the one-chunk-per-user invariant),
//! [`persist::compact`] merges appended chunks back into full-sized,
//! time-clustered, dead-byte-free form, and a source opened after a write
//! sees the grown file while one opened before keeps its snapshot. Building,
//! appending, compacting and deleting users all cut and encode chunks through
//! one columnar rewrite: [`CompressedTable::build`] is an ingest into the
//! empty table. See `docs/FORMAT.md`.

pub mod bitpack;
pub mod chunk;
pub mod codec;
pub mod column;
pub mod cursor;
pub mod dict;
pub mod error;
#[cfg(test)]
#[path = "../tests/fixtures/mod.rs"]
mod fixtures;
pub mod persist;
pub mod reader;
pub mod record;
mod rewrite;
pub mod rle;
pub mod shard;
pub mod source;
pub mod stats;
pub mod table;
#[cfg(test)]
mod test_alloc;

#[cfg(test)]
#[global_allocator]
static TEST_ALLOC: test_alloc::LargestRequest = test_alloc::LargestRequest;

pub use bitpack::BitPacked;
pub use chunk::Chunk;
pub use codec::Codec;
pub use column::ChunkColumn;
pub use cursor::ChunkCursors;
pub use dict::{ChunkDict, GlobalDict};
pub use error::StorageError;
pub use persist::{
    AppendStats, CodecStats, ColumnCompression, CompactStats, FileSpaceStats, FormatInfo,
    WrittenChunks,
};
pub use reader::{ReadError, Reader, Writer};
pub use record::{with_recorder, IoRecorder};
pub use rle::UserRle;
pub use shard::{
    DeleteStats, ShardLock, ShardManifest, ShardedAppendStats, ShardedSource, MANIFEST_FILE,
};
pub use source::{
    ChunkIndexEntry, ChunkRef, ChunkSource, CodecDecode, ColumnStats, FileSource, SourceIoStats,
    DEFAULT_CACHE_BUDGET,
};
pub use stats::StorageStats;
pub use table::{ColumnMeta, CompressedTable, CompressionOptions, TableMeta};

/// Result alias for this crate.
pub type Result<T> = std::result::Result<T, StorageError>;
