//! Sharded tables: one logical table partitioned by user-id range into many
//! shard files under a single manifest.
//!
//! The paper's one-chunk-per-user clustering (§4.1) is a *per-file*
//! invariant, which makes range sharding by user id composition-friendly:
//! every user's tuples live in exactly one shard (the range owner), every
//! shard is an ordinary v3/v4 file preserving the invariant internally, and
//! the concatenation of all shards' chunks is itself a valid chunk sequence
//! for the executor — shards are just more chunks to prune, scan, and steal.
//!
//! A sharded table is a **directory** holding:
//!
//! * `MANIFEST` — the shard map: the user-id range boundaries, one file name
//!   per shard, and any pending deletion tombstones. Rewritten atomically
//!   (temp file + rename) so readers always see a complete map;
//! * one `shard-NNNN.cohana` file per shard — a plain
//!   [`persist`] file, individually appendable and
//!   compactable;
//! * transient `*.lock` files — single-writer locks taken around any shard
//!   mutation, so concurrent ingests (or an ingest racing background
//!   compaction) never interleave writes to one file.
//!
//! A single table **file** is a sharded table too: [`read_manifest`] of a
//! path naming a [`persist`] file yields the *implicit* one-file map — no
//! boundaries, the file as its only shard, no tombstones. It is never
//! written; every function here (append, compaction, deletion, the source)
//! treats it like any other map, except that [`delete_users`] needs no
//! tombstones for it (one file's rewrite is already one atomic rename).
//!
//! What sharding buys, relative to one monolithic file:
//!
//! * **parallel ingest** — [`append_sharded`] routes a batch by user range
//!   and appends all touched shards concurrently, each under its own lock;
//! * **independent maintenance** — a shard whose dead-byte ratio crossed the
//!   compaction threshold is rewritten alone ([`compact_shard`]), while
//!   queries keep streaming from every other shard;
//! * **bounded rewrites for deletion** — [`delete_users`] (GDPR-style
//!   retention) rewrites only the shards owning the tombstoned users, with
//!   the tombstones persisted in the manifest first so a crash mid-rewrite
//!   is recoverable ([`apply_pending_tombstones`]).
//!
//! [`ShardedSource`] opens the whole table for queries: over several shards
//! it merges their dictionaries into one unified [`TableMeta`], re-bases every shard
//! [`FileSource`] into that space (the shard's gid overlay is composed into
//! its file's epoch remaps at open, so each segment is remapped once, as it
//! decodes), and concatenates their chunks behind the ordinary
//! [`ChunkSource`] trait. All shards share one
//! byte-budgeted segment cache, so the memory bound is per table, not per
//! shard, and one lifetime [`IoRecorder`](crate::IoRecorder) that counts
//! the table's I/O.

use crate::dict::GlobalDict;
use crate::persist::{self, AppendStats, CompactStats, EpochRemaps, WrittenChunks};
use crate::reader::{Reader, Writer};
use crate::source::{shared_cache, ChunkIndexEntry, ChunkRef, ChunkSource, SourceIoStats};
use crate::source::{FileSource, DEFAULT_CACHE_BUDGET};
use crate::table::{ColumnMeta, CompressedTable, TableMeta};
use crate::{Result, StorageError};
use cohana_activity::ActivityTable;
use std::borrow::Cow;
use std::collections::BTreeSet;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Magic number of a shard manifest ("CSHM").
const MANIFEST_MAGIC: u32 = 0x4353_484D;
/// Current manifest format version.
const MANIFEST_VERSION: u32 = 1;
/// File name of the manifest inside a sharded-table directory.
pub const MANIFEST_FILE: &str = "MANIFEST";
/// How long a writer waits for a shard's single-writer lock before giving
/// up with [`StorageError::Busy`].
pub const LOCK_TIMEOUT: Duration = Duration::from_secs(10);

// ------------------------------------------------------------- manifest

/// The shard map of one sharded table: `boundaries.len() + 1` shards, where
/// shard `i` owns the user-id range `[boundaries[i-1], boundaries[i])` (the
/// first shard is unbounded below, the last unbounded above; ranges compare
/// lexicographically, matching the storage layer's sorted user
/// dictionaries). Plus any pending deletion tombstones.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardManifest {
    /// Strictly increasing range split points (one fewer than shards).
    boundaries: Vec<String>,
    /// Shard file names, relative to the manifest's directory.
    files: Vec<String>,
    /// Users whose deletion was requested but whose shard rewrites have not
    /// all completed (see [`delete_users`]). Sorted, deduplicated.
    tombstones: Vec<String>,
    /// Whether this is a table file's implicit one-file map (never written).
    implicit: bool,
}

impl ShardManifest {
    fn new(boundaries: Vec<String>, files: Vec<String>) -> Result<Self> {
        let manifest = ShardManifest { boundaries, files, tombstones: Vec::new(), implicit: false };
        manifest.validate()?;
        Ok(manifest)
    }

    fn validate(&self) -> Result<()> {
        if self.files.is_empty() {
            return Err(StorageError::Invalid("manifest names no shard files".into()));
        }
        if self.files.len() != self.boundaries.len() + 1 {
            return Err(StorageError::Corrupt(format!(
                "manifest has {} shard files but {} boundaries (want boundaries + 1 files)",
                self.files.len(),
                self.boundaries.len()
            )));
        }
        if !self.boundaries.windows(2).all(|w| w[0] < w[1]) {
            return Err(StorageError::Corrupt(
                "manifest boundaries are not strictly increasing".into(),
            ));
        }
        for name in &self.files {
            if name.is_empty()
                || name.contains('/')
                || name.contains('\\')
                || name == "."
                || name == ".."
            {
                return Err(StorageError::Corrupt(format!(
                    "manifest shard file name {name:?} is not a plain file name"
                )));
            }
        }
        Ok(())
    }

    /// Number of shards.
    pub fn num_shards(&self) -> usize {
        self.files.len()
    }

    /// The range split points (one fewer than shards).
    pub fn boundaries(&self) -> &[String] {
        &self.boundaries
    }

    /// Shard file names, relative to the manifest's directory.
    pub fn files(&self) -> &[String] {
        &self.files
    }

    /// Users whose deletion is pending (persisted intent; normally empty).
    pub fn tombstones(&self) -> &[String] {
        &self.tombstones
    }

    /// The shard owning a user id: the unique range containing it.
    pub fn route(&self, user: &str) -> usize {
        self.boundaries.partition_point(|b| b.as_str() <= user)
    }

    /// Absolute path of shard `i` given the manifest's directory.
    pub fn shard_path(&self, dir: &Path, i: usize) -> PathBuf {
        dir.join(&self.files[i])
    }

    fn encode(&self) -> Vec<u8> {
        let mut buf = Vec::new();
        buf.u32(MANIFEST_MAGIC);
        buf.u32(MANIFEST_VERSION);
        buf.u32(self.files.len() as u32);
        for s in self.boundaries.iter().chain(&self.files) {
            buf.str(s);
        }
        buf.u32(self.tombstones.len() as u32);
        for t in &self.tombstones {
            buf.str(t);
        }
        buf.u32(MANIFEST_MAGIC);
        buf
    }

    fn decode(data: &[u8]) -> Result<Self> {
        let mut r = Reader::new(data);
        let magic = r.u32()?;
        if magic != MANIFEST_MAGIC {
            return Err(StorageError::Corrupt(format!(
                "neither a shard manifest nor a table file (magic {magic:#x})"
            )));
        }
        let version = r.u32()?;
        if version != MANIFEST_VERSION {
            return Err(StorageError::BadVersion(version));
        }
        // Every boundary, file name and tombstone is at least its 4-byte
        // length prefix: a shard is a file name and (all but one) boundary.
        let shards = r.u32()?;
        if shards == 0 {
            return Err(StorageError::Corrupt("manifest names no shards".into()));
        }
        let shards = r.count(shards.into(), 8)?;
        let read_strs = |r: &mut Reader, n: usize| -> Result<Vec<String>> {
            (0..n).map(|_| Ok(r.str()?.to_string())).collect()
        };
        let boundaries = read_strs(&mut r, shards - 1)?;
        let files = read_strs(&mut r, shards)?;
        let tombstones = r.u32()?;
        let tombstones = r.count(tombstones.into(), 4)?;
        let tombstones = read_strs(&mut r, tombstones)?;
        let tail = r.u32()?;
        if tail != MANIFEST_MAGIC {
            return Err(StorageError::Corrupt(format!("bad manifest tail magic {tail:#x}")));
        }
        r.finish()?;
        let manifest = ShardManifest { boundaries, files, tombstones, implicit: false };
        manifest.validate()?;
        Ok(manifest)
    }
}

/// Whether a path names a sharded table: a directory containing a
/// [`MANIFEST_FILE`], or the manifest file itself (sniffed by magic).
pub fn is_sharded(path: &Path) -> bool {
    file_magic(&manifest_path(path)) == Some(MANIFEST_MAGIC)
}

/// A file's first four bytes, little-endian (`None` if it has fewer or
/// cannot be read).
fn file_magic(path: &Path) -> Option<u32> {
    use std::io::Read;
    let mut head = [0u8; 4];
    std::fs::File::open(path).ok()?.read_exact(&mut head).ok()?;
    Some(u32::from_le_bytes(head))
}

/// Resolve a user-facing path (the table directory or the manifest file
/// itself) to the manifest file path.
pub fn manifest_path(path: &Path) -> PathBuf {
    if path.is_dir() {
        path.join(MANIFEST_FILE)
    } else {
        path.to_path_buf()
    }
}

/// Read and validate a shard manifest (accepts the directory or the
/// manifest file path). A path naming a table file (magic `COHA`, any
/// version) yields its implicit one-file map instead.
pub fn read_manifest(path: &Path) -> Result<ShardManifest> {
    let file = manifest_path(path);
    if file_magic(&file) != Some(persist::MAGIC) {
        return ShardManifest::decode(&std::fs::read(file)?);
    }
    let name = file.file_name().and_then(|n| n.to_str()).ok_or_else(|| {
        StorageError::Invalid(format!("{} is not a UTF-8 file name", file.display()))
    })?;
    let mut manifest = ShardManifest::new(Vec::new(), vec![name.to_string()])?;
    manifest.implicit = true;
    Ok(manifest)
}

/// [`read_manifest`], with the directory its shard file names resolve in.
fn open_map(path: &Path) -> Result<(PathBuf, ShardManifest)> {
    let manifest_file = manifest_path(path);
    let dir = manifest_file.parent().unwrap_or(Path::new(".")).to_path_buf();
    Ok((dir, read_manifest(&manifest_file)?))
}

/// Atomically (re)write a manifest: serialize to a sibling temp file, then
/// rename over the target, so a reader never observes a partial map.
pub fn write_manifest(path: &Path, manifest: &ShardManifest) -> Result<()> {
    if manifest.implicit {
        return Err(StorageError::Invalid("a table file's one-file map is never written".into()));
    }
    manifest.validate()?;
    persist::replace_file(&manifest_path(path), "tmp", &manifest.encode())
}

// ------------------------------------------------------------ shard lock

/// A held single-writer lock on one shard file, backed by an adjacent
/// `.lock` file created with `create_new` (atomic on every platform the
/// engine targets). Dropped (or [`ShardLock::release`]d), the lock file is
/// removed. The file holds the owning pid for post-crash diagnosis.
#[derive(Debug)]
pub struct ShardLock {
    path: PathBuf,
}

impl ShardLock {
    /// Lock file path guarding `shard_path`.
    fn lock_path(shard_path: &Path) -> PathBuf {
        let mut p = shard_path.as_os_str().to_os_string();
        p.push(".lock");
        PathBuf::from(p)
    }

    /// Acquire the single-writer lock for a shard file, waiting up to
    /// `timeout` for a concurrent holder to release it.
    pub fn acquire(shard_path: &Path, timeout: Duration) -> Result<ShardLock> {
        let path = Self::lock_path(shard_path);
        let deadline = std::time::Instant::now() + timeout;
        loop {
            match std::fs::OpenOptions::new().write(true).create_new(true).open(&path) {
                Ok(mut f) => {
                    use std::io::Write;
                    let _ = writeln!(f, "{}", std::process::id());
                    return Ok(ShardLock { path });
                }
                Err(e) if e.kind() == std::io::ErrorKind::AlreadyExists => {
                    if std::time::Instant::now() >= deadline {
                        return Err(StorageError::Busy(format!(
                            "shard lock {} held by another writer (remove the file if its \
                             holder is gone)",
                            path.display()
                        )));
                    }
                    std::thread::sleep(Duration::from_millis(2));
                }
                Err(e) => return Err(e.into()),
            }
        }
    }

    /// Release the lock now (Drop does the same).
    pub fn release(self) {}
}

impl Drop for ShardLock {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.path);
    }
}

// ------------------------------------------------------------- creation

/// Split an activity table's rows into per-shard tables along the manifest
/// boundaries. Rows are user-sorted and routing is monotone in the user id,
/// so each shard's slice is contiguous and stays primary-key sorted; a
/// table that routes whole to one shard is lent, not copied.
fn split_by_shard<'t>(
    manifest: &ShardManifest,
    table: &'t ActivityTable,
) -> Vec<Option<Cow<'t, ActivityTable>>> {
    let mut parts: Vec<Option<Cow<ActivityTable>>> =
        (0..manifest.num_shards()).map(|_| None).collect();
    if table.is_empty() {
        return parts;
    }
    let user_idx = table.schema().user_idx();
    let rows = table.rows();
    let mut start = 0usize;
    while start < rows.len() {
        let user = rows[start].get(user_idx).as_str().expect("user is a string");
        let shard = manifest.route(user);
        // Extend the slice while rows keep routing to the same shard.
        let mut end = start + 1;
        while end < rows.len() {
            let u = rows[end].get(user_idx).as_str().expect("user is a string");
            if manifest.route(u) != shard {
                break;
            }
            end += 1;
        }
        parts[shard] = Some(if end - start == rows.len() {
            Cow::Borrowed(table)
        } else {
            Cow::Owned(
                ActivityTable::from_sorted_rows(table.schema().clone(), rows[start..end].to_vec())
                    .expect("a contiguous slice of a sorted table is sorted"),
            )
        });
        start = end;
    }
    parts
}

/// Create a sharded table from an activity table: choose up to
/// `shards - 1` user-id boundaries that split the distinct users into
/// near-equal groups, write one v4 shard file per non-degenerate range, and
/// write the manifest last (no manifest, no table — a crash mid-create
/// leaves only unreferenced files). Returns the manifest.
///
/// Fewer shards than requested are created when the table has fewer
/// distinct users than `shards`.
pub fn create_sharded(
    dir: &Path,
    table: &ActivityTable,
    shards: usize,
    options: crate::table::CompressionOptions,
) -> Result<ShardManifest> {
    if shards == 0 {
        return Err(StorageError::Invalid("a sharded table needs at least one shard".into()));
    }
    if table.is_empty() {
        return Err(StorageError::Invalid(
            "cannot derive shard boundaries from an empty table; ingest into a single-file \
             table first"
                .into(),
        ));
    }
    std::fs::create_dir_all(dir)?;
    let user_idx = table.schema().user_idx();
    let users: Vec<&str> = table
        .user_blocks()
        .map(|b| table.rows()[b.start].get(user_idx).as_str().expect("user is a string"))
        .collect();
    let shards = shards.min(users.len());
    let mut boundaries: Vec<String> =
        (1..shards).map(|i| users[i * users.len() / shards].to_string()).collect();
    boundaries.dedup();
    boundaries.retain(|b| b.as_str() > users[0]);

    let files: Vec<String> =
        (0..boundaries.len() + 1).map(|i| format!("shard-{i:04}.cohana")).collect();
    let manifest = ShardManifest::new(boundaries, files)?;

    let parts = split_by_shard(&manifest, table);
    run_parts(&parts, |i, part| -> Result<()> {
        let empty;
        let part: &ActivityTable = match part {
            Some(p) => p,
            None => {
                empty = ActivityTable::from_sorted_rows(table.schema().clone(), Vec::new())
                    .expect("empty table is trivially sorted");
                &empty
            }
        };
        let compressed = CompressedTable::build(part, options)?;
        persist::write_file(&compressed, &manifest.shard_path(dir, i))
    })
    .into_iter()
    .collect::<Result<()>>()?;

    write_manifest(dir, &manifest)?;
    Ok(manifest)
}

/// Run `f` over every part on at most `min(parts, available_parallelism)`
/// scoped threads, each claiming the next part index from one counter, and
/// return the results in part order. A panic in `f` re-raises here once the
/// other threads are done.
fn run_parts<T: Sync, R: Send>(parts: &[T], f: impl Fn(usize, &T) -> R + Sync) -> Vec<R> {
    let threads = std::thread::available_parallelism().map_or(1, |n| n.get()).min(parts.len());
    let next = AtomicUsize::new(0);
    let mut results: Vec<Option<R>> = std::iter::repeat_with(|| None).take(parts.len()).collect();
    std::thread::scope(|scope| {
        let claim = || {
            let mut done = Vec::new();
            loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                let Some(part) = parts.get(i) else { return done };
                done.push((i, f(i, part)));
            }
        };
        let handles: Vec<_> = (0..threads).map(|_| scope.spawn(claim)).collect();
        for handle in handles {
            let done = handle.join().unwrap_or_else(|panic| std::panic::resume_unwind(panic));
            for (i, r) in done {
                results[i] = Some(r);
            }
        }
    });
    results.into_iter().map(|r| r.expect("every part was claimed once")).collect()
}

// -------------------------------------------------------------- appends

/// What one [`append_sharded`] did, per shard and in aggregate.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ShardedAppendStats {
    /// `(shard index, that shard's append stats)` for every shard the batch
    /// touched.
    pub per_shard: Vec<(usize, AppendStats)>,
}

impl ShardedAppendStats {
    /// Sum the per-shard stats into one [`AppendStats`] (chunk counts are
    /// summed across shards; `dead_bytes` / `file_bytes` cover only the
    /// touched shards).
    pub fn total(&self) -> AppendStats {
        let mut total = AppendStats::default();
        for (_, s) in &self.per_shard {
            total.rows_appended += s.rows_appended;
            total.chunks_before += s.chunks_before;
            total.chunks_after += s.chunks_after;
            total.chunks_rewritten += s.chunks_rewritten;
            total.bytes_appended += s.bytes_appended;
            total.dead_bytes += s.dead_bytes;
            total.file_bytes += s.file_bytes;
        }
        total
    }

    /// Shards the batch touched.
    pub fn shards_touched(&self) -> usize {
        self.per_shard.len()
    }
}

/// Append a batch to a sharded table: route each row to its range-owning
/// shard, then run every touched shard's [`persist::append`] **in
/// parallel**, each under that shard's single-writer [`ShardLock`]. The
/// manifest is not modified (boundaries are immutable after creation), so
/// concurrent readers are unaffected until they reopen.
pub fn append_sharded(path: &Path, batch: &ActivityTable) -> Result<ShardedAppendStats> {
    Ok(append_sharded_with_chunks(path, batch)?.0)
}

/// [`append_sharded`], also handing back what each touched shard wrote (for
/// [`ShardedSource::open_seeded`]).
pub fn append_sharded_with_chunks(
    path: &Path,
    batch: &ActivityTable,
) -> Result<(ShardedAppendStats, Vec<(usize, WrittenChunks)>)> {
    let (dir, manifest) = open_map(path)?;
    let parts = split_by_shard(&manifest, batch);
    let touched: Vec<(usize, &ActivityTable)> =
        parts.iter().enumerate().filter_map(|(i, p)| Some((i, p.as_deref()?))).collect();
    let results = run_parts(&touched, |_, &(i, part)| {
        let shard_path = manifest.shard_path(&dir, i);
        let _lock = ShardLock::acquire(&shard_path, LOCK_TIMEOUT)?;
        persist::append_with_chunks(&shard_path, part).map(|r| (i, r))
    })
    .into_iter()
    .collect::<Result<Vec<_>>>()?;

    let (per_shard, written) =
        results.into_iter().map(|(i, (stats, written))| ((i, stats), (i, written))).unzip();
    Ok((ShardedAppendStats { per_shard }, written))
}

// ----------------------------------------------------------- maintenance

/// Compact one shard of a sharded table under its single-writer lock:
/// [`persist::compact`]'s temp-file + rename, so open readers keep their
/// pre-compact snapshot through the old inode.
pub fn compact_shard(path: &Path, shard: usize) -> Result<CompactStats> {
    Ok(compact_shard_with_chunks(path, shard)?.0)
}

/// [`compact_shard`], also handing back the chunks of the shard's new image.
pub fn compact_shard_with_chunks(
    path: &Path,
    shard: usize,
) -> Result<(CompactStats, WrittenChunks)> {
    let (dir, manifest) = open_map(path)?;
    if shard >= manifest.num_shards() {
        return Err(StorageError::OutOfBounds {
            what: "shard",
            index: shard,
            len: manifest.num_shards(),
        });
    }
    let shard_path = manifest.shard_path(&dir, shard);
    let _lock = ShardLock::acquire(&shard_path, LOCK_TIMEOUT)?;
    persist::compact_with_chunks(&shard_path)
}

/// Space accounting of every shard, cheapest-possible (one footer parse per
/// shard). Index `i` describes shard `i`.
pub fn shard_space_stats(path: &Path) -> Result<Vec<persist::FileSpaceStats>> {
    let (dir, manifest) = open_map(path)?;
    (0..manifest.num_shards())
        .map(|i| persist::file_space_stats(&manifest.shard_path(&dir, i)))
        .collect()
}

// -------------------------------------------------------------- deletion

/// What a deletion pass did.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DeleteStats {
    /// Users whose tuples were actually found and removed.
    pub users_deleted: usize,
    /// Tuples removed.
    pub rows_deleted: usize,
    /// Shards rewritten.
    pub shards_rewritten: usize,
    /// On-disk bytes reclaimed by the rewrites.
    pub reclaimed_bytes: u64,
}

/// Delete every tuple of the given users from a sharded table (GDPR-style
/// retention), in two durable steps:
///
/// 1. the users are added to the manifest's **tombstones** and the manifest
///    is atomically rewritten — the intent is now durable;
/// 2. [`apply_pending_tombstones`] rewrites each affected shard without the
///    tombstoned users (temp file + rename, under the shard lock), then
///    clears the tombstones from the manifest.
///
/// A crash between the steps (or mid-step-2) leaves the tombstones in the
/// manifest; the next [`apply_pending_tombstones`] — run on every open and
/// every maintenance pass — completes the deletion. A one-file table has no
/// manifest and needs none: its single rewrite is step 2 alone, and atomic.
/// Readers that opened before the rewrite keep their snapshot (old inodes);
/// reopening sees the users gone.
pub fn delete_users(path: &Path, users: &[&str]) -> Result<DeleteStats> {
    let (dir, mut manifest) = open_map(path)?;
    if manifest.implicit {
        return rewrite_without(&dir, &manifest, users);
    }
    let mut set: BTreeSet<String> = manifest.tombstones.iter().cloned().collect();
    set.extend(users.iter().map(|u| u.to_string()));
    manifest.tombstones = set.into_iter().collect();
    write_manifest(path, &manifest)?;
    apply_pending_tombstones(path)
}

/// Apply any tombstones recorded in the manifest: rewrite each shard owning
/// a tombstoned user with that user's tuples dropped, then clear the
/// tombstones. Idempotent and crash-recoverable — safe to call on every
/// open. Returns what was removed (all zeros when no tombstones were
/// pending).
pub fn apply_pending_tombstones(path: &Path) -> Result<DeleteStats> {
    let (dir, mut manifest) = open_map(path)?;
    if manifest.tombstones.is_empty() {
        return Ok(DeleteStats::default());
    }
    let victims: Vec<&str> = manifest.tombstones.iter().map(String::as_str).collect();
    let stats = rewrite_without(&dir, &manifest, &victims)?;
    manifest.tombstones.clear();
    write_manifest(path, &manifest)?;
    Ok(stats)
}

/// Rewrite each shard owning one of `users` without their tuples (under the
/// shard lock, temp file + rename); shards holding none of them are left
/// alone.
fn rewrite_without(dir: &Path, manifest: &ShardManifest, users: &[&str]) -> Result<DeleteStats> {
    let mut by_shard: Vec<Vec<&str>> = vec![Vec::new(); manifest.num_shards()];
    for &user in users {
        by_shard[manifest.route(user)].push(user);
    }
    let mut stats = DeleteStats::default();
    for (i, victims) in by_shard.iter().enumerate() {
        if victims.is_empty() {
            continue;
        }
        let shard_path = manifest.shard_path(dir, i);
        let _lock = ShardLock::acquire(&shard_path, LOCK_TIMEOUT)?;
        let bytes_before = std::fs::metadata(&shard_path)?.len();
        let table = persist::read_file(&shard_path)?;
        let (rebuilt, dropped) =
            crate::rewrite::rebuild(table.table_meta(), table.chunks(), victims)?;
        if dropped.users == 0 {
            continue; // Nothing of these users in this shard: no rewrite.
        }
        stats.users_deleted += dropped.users;
        stats.rows_deleted += dropped.rows;
        persist::replace_file(&shard_path, "delete-tmp", &persist::to_bytes(&rebuilt))?;
        stats.shards_rewritten += 1;
        let bytes_after = std::fs::metadata(&shard_path)?.len();
        stats.reclaimed_bytes += bytes_before.saturating_sub(bytes_after);
    }
    Ok(stats)
}

// --------------------------------------------------------- sharded source

/// All shards of a sharded table behind one [`ChunkSource`]: the chunks of
/// shard 0, then shard 1, and so on. Opening several shards merges their
/// global dictionaries into one unified [`TableMeta`] and re-bases each
/// shard [`FileSource`] into that space (via an internal re-base step), so
/// the executor plans, prunes, and decodes exactly as it would against a
/// single file — shards are just more chunks. One shard is its own unified
/// space and is served as it is. All shards share one byte-budgeted segment
/// cache.
pub struct ShardedSource {
    manifest: ShardManifest,
    /// Never empty; after a re-base every shard carries the unified meta.
    shards: Vec<FileSource>,
    /// Global chunk index → `(shard, chunk-within-shard)`.
    chunk_map: Vec<(u32, u32)>,
}

impl ShardedSource {
    /// Open a sharded table (directory or manifest path) with the default
    /// cache budget.
    pub fn open(path: &Path) -> Result<ShardedSource> {
        Self::open_with_budget(path, DEFAULT_CACHE_BUDGET)
    }

    /// Open with an explicit shared segment-cache byte budget (one budget
    /// across all shards).
    pub fn open_with_budget(path: &Path, cache_budget: usize) -> Result<ShardedSource> {
        Self::open_seeded(path, cache_budget, Vec::new())
    }

    /// Like [`ShardedSource::open_with_budget`], starting with the chunks
    /// the write paths just encoded — `(shard, what it wrote)`, from
    /// [`append_sharded_with_chunks`] / [`compact_shard_with_chunks`] —
    /// already in the shared cache: they enter through the ordinary cache
    /// insert, charged like any decoded segment, and only where the shard's
    /// footer is the one its writer produced.
    pub fn open_seeded(
        path: &Path,
        cache_budget: usize,
        written: Vec<(usize, WrittenChunks)>,
    ) -> Result<ShardedSource> {
        let (dir, manifest) = open_map(path)?;
        let cache = shared_cache(cache_budget);
        let mut shards: Vec<FileSource> = (0..manifest.num_shards())
            .map(|i| {
                FileSource::open_shared(&manifest.shard_path(&dir, i), cache.clone(), i as u32)
            })
            .collect::<Result<_>>()?;

        if shards.len() > 1 {
            let meta = merged_meta(&shards)?;
            for shard in &mut shards {
                let overlay = overlay_for_shard(&meta, shard.table_meta())?;
                shard.rebase(meta.clone(), overlay)?;
            }
        }
        for (i, written) in written {
            if let Some(shard) = shards.get(i) {
                shard.seed(written)?;
            }
        }

        let mut chunk_map = Vec::new();
        for (i, shard) in shards.iter().enumerate() {
            for c in 0..shard.num_chunks() {
                chunk_map.push((i as u32, c as u32));
            }
        }
        Ok(ShardedSource { manifest, shards, chunk_map })
    }

    /// The manifest this source opened against (its snapshot of the shard
    /// map).
    pub fn manifest(&self) -> &ShardManifest {
        &self.manifest
    }

    /// Number of shards.
    pub fn num_shards(&self) -> usize {
        self.shards.len()
    }

    /// One shard's file source (re-based into the unified dictionary
    /// space), for per-shard diagnostics such as
    /// [`FileSource::chunks_resident`]. Its `io_stats()` reports the whole
    /// table: the shards share one cache and one lifetime recorder.
    pub fn shard(&self, i: usize) -> &FileSource {
        &self.shards[i]
    }
}

impl std::fmt::Debug for ShardedSource {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShardedSource")
            .field("shards", &self.shards.len())
            .field("chunks", &self.chunk_map.len())
            .field("rows", &self.table_meta().num_rows())
            .finish()
    }
}

/// Merge per-shard table metadata into one unified [`TableMeta`]:
/// dictionary attributes take the union dictionary (sorted, deduplicated),
/// integer attributes the union range over non-empty shards, and the row
/// count the sum. The schemas and chunk sizes must agree.
fn merged_meta(shards: &[FileSource]) -> Result<TableMeta> {
    let first = &shards[0];
    let schema = first.table_meta().schema().clone();
    let options = first.table_meta().options();
    for s in shards {
        if s.table_meta().schema() != &schema {
            return Err(StorageError::Corrupt("shards disagree on the table schema".into()));
        }
    }
    let num_rows: usize = shards.iter().map(|s| s.table_meta().num_rows()).sum();
    let metas: Vec<ColumnMeta> = (0..schema.arity())
        .map(|attr| -> Result<ColumnMeta> {
            match first.table_meta().meta(attr) {
                ColumnMeta::User { .. } | ColumnMeta::Str { .. } => {
                    let mut values: Vec<&str> = Vec::new();
                    for s in shards {
                        let dict = s.table_meta().global_dict(attr).ok_or_else(|| {
                            StorageError::Corrupt("shards disagree on column encodings".into())
                        })?;
                        values.extend(dict.values().iter().map(|v| v.as_ref()));
                    }
                    let dict = GlobalDict::build(values);
                    Ok(match first.table_meta().meta(attr) {
                        ColumnMeta::User { .. } => ColumnMeta::User { dict },
                        _ => ColumnMeta::Str { dict },
                    })
                }
                ColumnMeta::Int { .. } => {
                    let mut range: Option<(i64, i64)> = None;
                    for s in shards {
                        if s.table_meta().num_rows() == 0 {
                            continue; // An empty shard's (0,0) range is a placeholder.
                        }
                        match s.table_meta().meta(attr) {
                            ColumnMeta::Int { min, max } => {
                                range = Some(match range {
                                    None => (*min, *max),
                                    Some((lo, hi)) => (lo.min(*min), hi.max(*max)),
                                });
                            }
                            _ => {
                                return Err(StorageError::Corrupt(
                                    "shards disagree on column encodings".into(),
                                ))
                            }
                        }
                    }
                    let (min, max) = range.unwrap_or((0, 0));
                    Ok(ColumnMeta::Int { min, max })
                }
            }
        })
        .collect::<Result<_>>()?;
    TableMeta::new(schema, metas, num_rows, options)
}

/// The per-attribute gid remaps carrying one shard's dictionary space into
/// the unified space (`None` for integer attributes and for shards whose
/// dictionary already coincides with the unified one). Remaps are strictly
/// increasing — both dictionaries are sorted — which is what
/// `remap_users` / `remap_gids` require to preserve ordering predicates.
fn overlay_for_shard(unified: &TableMeta, shard: &TableMeta) -> Result<EpochRemaps> {
    (0..unified.schema().arity())
        .map(|attr| -> Result<Option<Arc<Vec<u32>>>> {
            let Some(shard_dict) = shard.global_dict(attr) else {
                return Ok(None);
            };
            let unified_dict = unified
                .global_dict(attr)
                .expect("unified meta has a dictionary wherever shards do");
            let remap: Vec<u32> = shard_dict
                .values()
                .iter()
                .map(|v| {
                    unified_dict.lookup(v).ok_or_else(|| {
                        StorageError::Corrupt(format!(
                            "shard dictionary value {v:?} missing from the unified dictionary"
                        ))
                    })
                })
                .collect::<Result<_>>()?;
            let identity = remap.len() == unified_dict.len()
                && remap.iter().enumerate().all(|(i, &g)| g == i as u32);
            Ok(if identity { None } else { Some(Arc::new(remap)) })
        })
        .collect()
}

impl ChunkSource for ShardedSource {
    fn table_meta(&self) -> &TableMeta {
        self.shards[0].table_meta()
    }

    fn num_chunks(&self) -> usize {
        self.chunk_map.len()
    }

    fn index_entry(&self, idx: usize) -> &ChunkIndexEntry {
        let (shard, local) = self.chunk_map[idx];
        self.shards[shard as usize].index_entry(local as usize)
    }

    fn chunk(&self, idx: usize) -> Result<ChunkRef<'_>> {
        let (shard, local) = self.chunk_map[idx];
        self.shards[shard as usize].chunk(local as usize)
    }

    fn chunk_columns(&self, idx: usize, cols: &[usize]) -> Result<ChunkRef<'_>> {
        let (shard, local) = self.chunk_map[idx];
        self.shards[shard as usize].chunk_columns(local as usize, cols)
    }

    /// The shards share one lifetime recorder and one cache, so the first
    /// shard's view is the table's.
    fn io_stats(&self) -> SourceIoStats {
        self.shards[0].io_stats()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::table::CompressionOptions;
    use cohana_activity::{generate, GeneratorConfig};

    fn temp_dir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join("cohana-shard-test").join(name);
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn small() -> ActivityTable {
        generate(&GeneratorConfig::small())
    }

    #[test]
    fn manifest_round_trips() {
        let m = ShardManifest {
            boundaries: vec!["user-0300".into(), "user-0600".into()],
            files: vec!["a.cohana".into(), "b.cohana".into(), "c.cohana".into()],
            tombstones: vec!["user-0042".into()],
            implicit: false,
        };
        let decoded = ShardManifest::decode(&m.encode()).unwrap();
        assert_eq!(decoded, m);
    }

    #[test]
    fn manifest_bytes_are_pinned() {
        // Written by hand from docs/FORMAT.md: magic "CSHM", version 1,
        // shard count, boundaries, file names, tombstone count,
        // tombstones, magic again; strings are `u32 length | UTF-8`.
        let magic = 0x4353_484Du32.to_le_bytes();
        let mut want = [magic, 1u32.to_le_bytes(), 2u32.to_le_bytes()].concat();
        let put_str = |bytes: &mut Vec<u8>, s: &str| {
            bytes.extend_from_slice(&(s.len() as u32).to_le_bytes());
            bytes.extend_from_slice(s.as_bytes());
        };
        for s in ["m", "a.cohana", "b.cohana"] {
            put_str(&mut want, s);
        }
        want.extend_from_slice(&1u32.to_le_bytes());
        put_str(&mut want, "u1");
        want.extend_from_slice(&magic);
        let m = ShardManifest {
            boundaries: vec!["m".into()],
            files: vec!["a.cohana".into(), "b.cohana".into()],
            tombstones: vec!["u1".into()],
            implicit: false,
        };
        assert_eq!(m.encode(), want);
    }

    #[test]
    fn manifest_rejects_corruption() {
        let m = ShardManifest {
            boundaries: vec!["m".into()],
            files: vec!["a".into(), "b".into()],
            tombstones: vec![],
            implicit: false,
        };
        let mut bytes = m.encode();
        // Bad magic.
        bytes[0] ^= 0xff;
        assert!(matches!(ShardManifest::decode(&bytes).unwrap_err(), StorageError::Corrupt(_)));
        bytes[0] ^= 0xff;
        // Truncation.
        assert!(ShardManifest::decode(&bytes[..bytes.len() - 5]).is_err());
        // Non-increasing boundaries.
        let bad = ShardManifest {
            boundaries: vec!["z".into(), "a".into()],
            files: vec!["a".into(), "b".into(), "c".into()],
            tombstones: vec![],
            implicit: false,
        };
        assert!(ShardManifest::decode(&bad.encode()).is_err());
        // Path traversal in a file name.
        let evil = ShardManifest {
            boundaries: vec![],
            files: vec!["../evil".into()],
            tombstones: vec![],
            implicit: false,
        };
        assert!(ShardManifest::decode(&evil.encode()).is_err());
    }

    #[test]
    fn a_huge_shard_count_is_refused_before_allocating() {
        // Magic, version, and a shard count of 2^20 with nothing behind it.
        let mut bytes = MANIFEST_MAGIC.to_le_bytes().to_vec();
        bytes.extend_from_slice(&MANIFEST_VERSION.to_le_bytes());
        bytes.extend_from_slice(&(1u32 << 20).to_le_bytes());
        assert_eq!(bytes.len(), 12);
        crate::test_alloc::reset_largest();
        let outcome = ShardManifest::decode(&bytes);
        let largest = crate::test_alloc::largest();
        assert!(matches!(outcome, Err(StorageError::Corrupt(_))), "{outcome:?}");
        assert!(largest < 1024, "a {largest}-byte allocation for a 12-byte manifest");
    }

    #[test]
    fn routing_respects_boundaries() {
        let m = ShardManifest {
            boundaries: vec!["g".into(), "p".into()],
            files: vec!["a".into(), "b".into(), "c".into()],
            tombstones: vec![],
            implicit: false,
        };
        assert_eq!(m.route("a"), 0);
        assert_eq!(m.route("f"), 0);
        assert_eq!(m.route("g"), 1); // boundary value belongs to the right range
        assert_eq!(m.route("o"), 1);
        assert_eq!(m.route("p"), 2);
        assert_eq!(m.route("zzz"), 2);
    }

    #[test]
    fn a_shard_count_past_the_user_count_is_clamped() {
        let dir = temp_dir("clamped");
        let t = generate(&GeneratorConfig::new(40));
        crate::test_alloc::reset_largest();
        let outcome = create_sharded(&dir, &t, 1 << 40, CompressionOptions::with_chunk_size(256));
        let largest = crate::test_alloc::largest();
        let manifest = outcome.unwrap();
        assert!(manifest.num_shards() <= 40, "{} shards", manifest.num_shards());
        assert!(largest < 1 << 20, "a {largest}-byte allocation for 40 users");
    }

    #[test]
    fn create_splits_users_across_shards() {
        let dir = temp_dir("create");
        let t = small();
        let manifest =
            create_sharded(&dir, &t, 4, CompressionOptions::with_chunk_size(256)).unwrap();
        assert_eq!(manifest.num_shards(), 4);
        // Every shard file exists and the row counts sum to the table's.
        let mut rows = 0usize;
        for i in 0..manifest.num_shards() {
            let src = FileSource::open(&manifest.shard_path(&dir, i)).unwrap();
            rows += src.table_meta().num_rows();
            assert!(src.table_meta().num_rows() > 0, "shard {i} is empty");
        }
        assert_eq!(rows, t.num_rows());
        // Each user's rows are in exactly the shard routing says.
        let user_idx = t.schema().user_idx();
        for block in t.user_blocks() {
            let user = t.rows()[block.start].get(user_idx).as_str().unwrap();
            let shard = manifest.route(user);
            let src = FileSource::open(&manifest.shard_path(&dir, shard)).unwrap();
            assert!(
                src.table_meta().global_dict(user_idx).unwrap().lookup(user).is_some(),
                "user {user} missing from its routed shard {shard}"
            );
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn parts_run_once_each_on_at_most_the_available_cores() {
        // Counted inside the closure, so the check starts no thread beyond
        // what the helper itself starts. The sleep only widens each part's
        // overlap so an uncapped helper shows; the bound holds at any
        // interleaving.
        let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
        let runs: Vec<AtomicUsize> = (0..64).map(|_| AtomicUsize::new(0)).collect();
        let (live, peak) = (AtomicUsize::new(0), AtomicUsize::new(0));
        let parts: Vec<usize> = (0..64).collect();
        let results = run_parts(&parts, |i, &part| {
            assert_eq!(i, part);
            let now = live.fetch_add(1, Ordering::SeqCst) + 1;
            peak.fetch_max(now, Ordering::SeqCst);
            std::thread::sleep(Duration::from_millis(1));
            runs[i].fetch_add(1, Ordering::SeqCst);
            live.fetch_sub(1, Ordering::SeqCst);
            part * 10
        });
        assert_eq!(results, (0..64).map(|p| p * 10).collect::<Vec<_>>(), "results in part order");
        assert!(runs.iter().all(|r| r.load(Ordering::SeqCst) == 1), "each part runs exactly once");
        let peak = peak.load(Ordering::SeqCst);
        assert!((1..=cores).contains(&peak), "peak concurrency {peak} over {cores} cores");
    }

    #[test]
    fn a_panicking_part_reaches_the_caller() {
        let parts: Vec<usize> = (0..8).collect();
        let caught = std::panic::catch_unwind(|| {
            run_parts(&parts, |i, _| assert_ne!(i, 5, "part 5 fails"));
        });
        let message = caught.unwrap_err();
        let message = message.downcast_ref::<String>().map(String::as_str).unwrap_or("");
        assert!(message.contains("part 5 fails"), "{message}");
    }

    #[test]
    fn sharded_source_concatenates_shards() {
        let dir = temp_dir("source");
        let t = small();
        create_sharded(&dir, &t, 3, CompressionOptions::with_chunk_size(256)).unwrap();
        let sharded = ShardedSource::open(&dir).unwrap();
        assert_eq!(sharded.num_shards(), 3);
        assert_eq!(sharded.table_meta().num_rows(), t.num_rows());
        // The chunks the source serves, taken as one table in its unified
        // dictionary space, decompress to the original rows.
        let meta = sharded.table_meta();
        let chunks = (0..sharded.num_chunks()).map(|i| (*sharded.chunk(i).unwrap()).clone());
        let whole = CompressedTable::from_parts(
            meta.schema().clone(),
            meta.metas().to_vec(),
            chunks.collect(),
            meta.num_rows(),
            meta.options(),
        )
        .unwrap();
        assert_eq!(whole.decompress().unwrap().rows(), t.rows());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn append_routes_and_parallel_appends() {
        let dir = temp_dir("append");
        let t = small();
        // Build from the first half, append the second half.
        let rows = t.rows();
        let blocks: Vec<_> = t.user_blocks().collect();
        let mid_block = blocks.len() / 2;
        let mid = blocks[mid_block].start;
        let first =
            ActivityTable::from_sorted_rows(t.schema().clone(), rows[..mid].to_vec()).unwrap();
        let second =
            ActivityTable::from_sorted_rows(t.schema().clone(), rows[mid..].to_vec()).unwrap();
        // Boundaries from the full user population so both halves route
        // across all shards... first half only covers low users; use 2
        // shards from the first half.
        create_sharded(&dir, &first, 2, CompressionOptions::with_chunk_size(256)).unwrap();
        let stats = append_sharded(&dir, &second).unwrap();
        assert!(stats.shards_touched() >= 1);
        assert_eq!(stats.total().rows_appended, second.num_rows());

        let sharded = ShardedSource::open(&dir).unwrap();
        assert_eq!(sharded.table_meta().num_rows(), t.num_rows());
        // No lock files left behind.
        for entry in std::fs::read_dir(&dir).unwrap() {
            let name = entry.unwrap().file_name();
            assert!(!name.to_string_lossy().ends_with(".lock"), "stale lock {name:?}");
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn a_table_file_reads_as_an_unwritten_one_file_map() {
        let dir = temp_dir("implicit");
        let path = dir.join("flat.cohana");
        let t = small();
        let built = CompressedTable::build(&t, CompressionOptions::with_chunk_size(256)).unwrap();
        persist::write_file(&built, &path).unwrap();

        let map = read_manifest(&path).unwrap();
        assert!(map.boundaries().is_empty() && map.tombstones().is_empty());
        assert_eq!(map.files(), ["flat.cohana"]);
        assert!(!is_sharded(&path));
        assert!(matches!(write_manifest(&path, &map).unwrap_err(), StorageError::Invalid(_)));

        // One shard serves the file's own meta and chunks, untouched.
        let src = ShardedSource::open(&path).unwrap();
        assert_eq!(src.num_shards(), 1);
        assert_eq!(src.table_meta().metas(), built.table_meta().metas());
        assert_eq!(&*src.chunk(1).unwrap(), &built.chunks()[1]);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn shard_lock_is_exclusive() {
        let dir = temp_dir("lock");
        let path = dir.join("shard-0000.cohana");
        std::fs::write(&path, b"x").unwrap();
        let held = ShardLock::acquire(&path, Duration::from_millis(50)).unwrap();
        let denied = ShardLock::acquire(&path, Duration::from_millis(50));
        assert!(matches!(denied.unwrap_err(), StorageError::Busy(_)));
        held.release();
        // Released: can be re-acquired.
        ShardLock::acquire(&path, Duration::from_millis(50)).unwrap();
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn delete_users_removes_rows_and_clears_tombstones() {
        let dir = temp_dir("delete");
        let t = small();
        create_sharded(&dir, &t, 3, CompressionOptions::with_chunk_size(256)).unwrap();
        let user_idx = t.schema().user_idx();
        let victims: Vec<&str> = t
            .user_blocks()
            .take(3)
            .map(|b| t.rows()[b.start].get(user_idx).as_str().unwrap())
            .collect();
        let victim_rows: usize = t
            .rows()
            .iter()
            .filter(|r| victims.contains(&r.get(user_idx).as_str().unwrap()))
            .count();

        let stats = delete_users(&dir, &victims).unwrap();
        assert_eq!(stats.users_deleted, victims.len());
        assert_eq!(stats.rows_deleted, victim_rows);
        assert!(stats.shards_rewritten >= 1);
        assert!(stats.reclaimed_bytes > 0);

        let sharded = ShardedSource::open(&dir).unwrap();
        assert_eq!(sharded.table_meta().num_rows(), t.num_rows() - victim_rows);
        let dict = sharded.table_meta().global_dict(user_idx).unwrap();
        for v in &victims {
            assert!(dict.lookup(v).is_none(), "deleted user {v} still present");
        }
        assert!(read_manifest(&dir).unwrap().tombstones().is_empty());

        // Idempotent: running again deletes nothing.
        let again = delete_users(&dir, &victims).unwrap();
        assert_eq!(again.users_deleted, 0);
        assert_eq!(again.rows_deleted, 0);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn pending_tombstones_survive_crash_and_apply_on_recovery() {
        let dir = temp_dir("crash");
        let t = small();
        create_sharded(&dir, &t, 2, CompressionOptions::with_chunk_size(256)).unwrap();
        let user_idx = t.schema().user_idx();
        let victim = t.rows()[0].get(user_idx).as_str().unwrap();

        // Simulate a crash after step 1 of delete_users: tombstone recorded,
        // no shard rewritten yet.
        let mut manifest = read_manifest(&dir).unwrap();
        manifest.tombstones = vec![victim.to_string()];
        write_manifest(&dir, &manifest).unwrap();
        // The data is still on disk.
        let before = ShardedSource::open(&dir).unwrap();
        assert!(before.table_meta().global_dict(user_idx).unwrap().lookup(victim).is_some());

        // Recovery applies the pending tombstones.
        let stats = apply_pending_tombstones(&dir).unwrap();
        assert_eq!(stats.users_deleted, 1);
        assert!(read_manifest(&dir).unwrap().tombstones().is_empty());
        let after = ShardedSource::open(&dir).unwrap();
        assert!(after.table_meta().global_dict(user_idx).unwrap().lookup(victim).is_none());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn compaction_reclaims_dead_bytes_per_shard() {
        let dir = temp_dir("compact");
        let t = small();
        let rows = t.rows();
        let blocks: Vec<_> = t.user_blocks().collect();
        let mid = blocks[blocks.len() / 2].start;
        let first =
            ActivityTable::from_sorted_rows(t.schema().clone(), rows[..mid].to_vec()).unwrap();
        let second =
            ActivityTable::from_sorted_rows(t.schema().clone(), rows[mid..].to_vec()).unwrap();
        create_sharded(&dir, &first, 2, CompressionOptions::with_chunk_size(256)).unwrap();
        // Appends of overlapping users create dead bytes (returning-user
        // chunk rewrites + superseded footers).
        append_sharded(&dir, &second).unwrap();
        append_sharded(&dir, &{
            // Re-append a copy of some early users shifted in time to force
            // returning-user rewrites.
            let tidx = t.schema().time_idx();
            let shifted: Vec<_> = rows[..mid.min(200)]
                .iter()
                .map(|r| {
                    let mut vals = r.values().to_vec();
                    let shifted_time = vals[tidx].as_int().unwrap() + 10_000_000_000;
                    vals[tidx] = cohana_activity::Value::int(shifted_time);
                    cohana_activity::Tuple::new(vals)
                })
                .collect();
            ActivityTable::from_sorted_rows(t.schema().clone(), shifted).unwrap()
        })
        .unwrap();

        let space = shard_space_stats(&dir).unwrap();
        let dirty: Vec<usize> = (0..space.len()).filter(|&i| space[i].dead_bytes > 0).collect();
        assert!(!dirty.is_empty(), "appends should have left dead bytes somewhere");
        for &i in &dirty {
            let stats = compact_shard(&dir, i).unwrap();
            assert!(stats.reclaimed_bytes > 0, "shard {i} reclaimed nothing");
        }
        let space_after = shard_space_stats(&dir).unwrap();
        for &i in &dirty {
            assert_eq!(space_after[i].dead_bytes, 0, "shard {i} still has dead bytes");
        }
        // Table still reads fully.
        let sharded = ShardedSource::open(&dir).unwrap();
        assert_eq!(sharded.table_meta().num_rows(), t.num_rows() + mid.min(200));
        std::fs::remove_dir_all(&dir).ok();
    }

    use proptest::prelude::*;

    proptest! {
        /// Routing invariant: under any strictly-increasing set of range
        /// boundaries, every user id has exactly one owning shard, and
        /// `route` names it.
        #[test]
        fn prop_every_user_routes_to_exactly_one_shard(
            cuts in proptest::collection::vec("[a-z]{1,8}", 1..8),
            users in proptest::collection::vec("[a-z]{1,8}", 1..64),
        ) {
            let mut boundaries: Vec<String> = cuts;
            boundaries.sort();
            boundaries.dedup();
            let files: Vec<String> =
                (0..=boundaries.len()).map(|i| format!("shard-{i:04}.cohana")).collect();
            let manifest = ShardManifest::new(boundaries.clone(), files).unwrap();
            for user in &users {
                let owner = manifest.route(user);
                prop_assert!(owner < manifest.num_shards());
                // `owner`'s range contains the user...
                if owner > 0 {
                    prop_assert!(boundaries[owner - 1].as_str() <= user.as_str());
                }
                if owner < boundaries.len() {
                    prop_assert!(user.as_str() < boundaries[owner].as_str());
                }
                // ...and it is the only range that does.
                let owners = (0..manifest.num_shards())
                    .filter(|&i| {
                        (i == 0 || boundaries[i - 1].as_str() <= user.as_str())
                            && (i == boundaries.len() || user.as_str() < boundaries[i].as_str())
                    })
                    .count();
                prop_assert_eq!(owners, 1);
            }
        }
    }
}
