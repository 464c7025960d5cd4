//! Engine-managed file-backed tables: a [`ShardedTable`] wraps the storage
//! layer's shard map (a directory's manifest + shard files, or a single
//! table file as its own one-shard map, see [`cohana_storage::shard`]) with
//! the pieces a live engine needs —
//! a current [`ShardedSource`] snapshot for queries, a write lock
//! serializing mutations, and an optional **background maintenance thread**
//! that watches per-shard dead-byte ratios and auto-compacts shards whose
//! ratio crosses the configured threshold (plus finishing any crash-interrupted
//! user deletions).
//!
//! Snapshot semantics are preserved throughout: queries and prepared
//! statements pin the `Arc<ShardedSource>` that was current when they were
//! prepared; every mutation (ingest, compaction, deletion) works on the
//! files via temp-file + rename or strict appends and then swaps a freshly
//! opened source in. An in-flight statement keeps reading its pre-mutation
//! snapshot through the old file handles (old inodes stay alive until the
//! last reader drops them).

use crate::error::EngineError;
use cohana_activity::ActivityTable;
use cohana_storage::shard::{self, ShardedAppendStats};
use cohana_storage::{CompactStats, DeleteStats, FileSpaceStats, ShardedSource, WrittenChunks};
use std::path::{Path, PathBuf};
use std::sync::{Arc, Condvar, Mutex, RwLock, Weak};
use std::time::Duration;

/// Policy of a [`ShardedTable`]'s background maintenance thread.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MaintenanceConfig {
    /// Whether to run the background thread at all. Off by default: plain
    /// opens stay thread-free; long-running processes (the server, the
    /// shell) opt in.
    pub auto_compact: bool,
    /// Compact a shard when its dead-byte ratio (dead bytes / file bytes)
    /// exceeds this.
    pub dead_ratio: f64,
    /// How often the thread polls shard space stats when nothing pokes it
    /// (every ingest pokes it immediately).
    pub interval: Duration,
}

impl Default for MaintenanceConfig {
    fn default() -> Self {
        MaintenanceConfig { auto_compact: false, dead_ratio: 0.3, interval: Duration::from_secs(2) }
    }
}

impl MaintenanceConfig {
    /// Background auto-compaction at the default threshold and interval.
    pub fn enabled() -> Self {
        MaintenanceConfig { auto_compact: true, ..Default::default() }
    }
}

/// What maintenance has done over a [`ShardedTable`]'s lifetime.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct MaintenanceStats {
    /// Completed maintenance passes (manual or background).
    pub passes: u64,
    /// Shard compactions triggered by the dead-ratio threshold.
    pub auto_compactions: u64,
    /// Bytes those compactions reclaimed.
    pub reclaimed_bytes: u64,
    /// Users removed by tombstone recovery during maintenance.
    pub tombstone_users_applied: u64,
    /// Highest per-shard dead-byte ratio observed on the most recent pass.
    pub last_max_dead_ratio: f64,
}

/// Wake-up channel between a [`ShardedTable`] and its maintenance thread.
struct Wake {
    state: Mutex<WakeState>,
    cv: Condvar,
}

#[derive(Default)]
struct WakeState {
    poked: bool,
    stopped: bool,
}

/// One file-backed table under engine management: a shard directory, or a
/// single file as a one-shard table. See the module docs; obtain one via
/// `Cohana::open(path).open()`, or `Cohana::open(path).create_from(&table)`
/// (with `.shards(n)` for a directory).
pub struct ShardedTable {
    /// The shard map's path: the manifest inside a table directory, or the
    /// table file itself.
    manifest: PathBuf,
    cache_bytes: usize,
    config: MaintenanceConfig,
    /// The current query snapshot; swapped whole after every mutation.
    current: RwLock<Arc<ShardedSource>>,
    /// Serializes ingest / compaction / deletion / maintenance passes
    /// within this process (cross-process safety comes from the per-shard
    /// lock files underneath).
    write: Mutex<()>,
    stats: Mutex<MaintenanceStats>,
    wake: Arc<Wake>,
}

impl ShardedTable {
    /// Open a sharded table: finish any crash-interrupted deletions
    /// (pending manifest tombstones), open the query source, and — when the
    /// config says so — start the background maintenance thread. The thread
    /// holds only a [`Weak`] reference and a wake channel, so dropping the
    /// last `Arc<ShardedTable>` stops it promptly.
    pub fn open(
        path: &Path,
        cache_bytes: usize,
        config: MaintenanceConfig,
    ) -> Result<Arc<ShardedTable>, EngineError> {
        let manifest = shard::manifest_path(path);
        let recovered = shard::apply_pending_tombstones(&manifest)?;
        let source = Arc::new(ShardedSource::open_with_budget(&manifest, cache_bytes)?);
        let table = Arc::new(ShardedTable {
            manifest,
            cache_bytes,
            config,
            current: RwLock::new(source),
            write: Mutex::new(()),
            stats: Mutex::new(MaintenanceStats {
                tombstone_users_applied: recovered.users_deleted as u64,
                ..Default::default()
            }),
            wake: Arc::new(Wake { state: Mutex::new(WakeState::default()), cv: Condvar::new() }),
        });
        if config.auto_compact {
            let weak = Arc::downgrade(&table);
            let wake = table.wake.clone();
            let interval = config.interval;
            std::thread::Builder::new()
                .name("cohana-maintenance".into())
                .spawn(move || maintenance_loop(weak, wake, interval))
                .map_err(|e| EngineError::Storage(format!("spawn maintenance thread: {e}")))?;
        }
        Ok(table)
    }

    /// The shard map's path: the manifest file, or the one table file.
    pub fn manifest_path(&self) -> &Path {
        &self.manifest
    }

    /// The maintenance policy this table was opened with.
    pub fn config(&self) -> MaintenanceConfig {
        self.config
    }

    /// The current query snapshot. Statements prepared against it keep it
    /// (and the file handles under it) alive across later mutations.
    pub fn source(&self) -> Arc<ShardedSource> {
        self.current.read().expect("source lock poisoned").clone()
    }

    /// Number of shards in the current snapshot.
    pub fn num_shards(&self) -> usize {
        self.source().num_shards()
    }

    /// Swap in a freshly opened source reflecting the files' current state,
    /// its cache seeded with what the write paths just encoded (`(shard,
    /// chunks)`; empty for a cold reopen).
    fn publish(&self, written: Vec<(usize, WrittenChunks)>) -> Result<(), EngineError> {
        let fresh =
            Arc::new(ShardedSource::open_seeded(&self.manifest, self.cache_bytes, written)?);
        *self.current.write().expect("source lock poisoned") = fresh;
        Ok(())
    }

    /// Ingest a batch: route rows to their range-owning shards, append all
    /// touched shards in parallel (each under its single-writer lock file),
    /// swap in a fresh snapshot that starts with the rewritten chunks
    /// cached, and poke the maintenance thread so it can react to freshly
    /// created dead bytes without waiting out its poll interval. A batch that
    /// reaches no shard (an empty one) changes nothing: the current snapshot,
    /// and everything cached under it, stays.
    pub fn ingest(&self, batch: &ActivityTable) -> Result<ShardedAppendStats, EngineError> {
        let _w = self.write.lock().expect("write lock poisoned");
        let (stats, written) = shard::append_sharded_with_chunks(&self.manifest, batch)?;
        if written.is_empty() {
            return Ok(stats);
        }
        self.publish(written)?;
        drop(_w);
        self.poke();
        Ok(stats)
    }

    /// Compact every shard that has any dead bytes, unconditionally (the
    /// manual path — the background thread applies the dead-ratio threshold
    /// instead). Returns the summed compaction stats.
    pub fn compact(&self) -> Result<CompactStats, EngineError> {
        let _w = self.write.lock().expect("write lock poisoned");
        let space = shard::shard_space_stats(&self.manifest)?;
        let mut total = CompactStats::default();
        let mut written = Vec::new();
        for (i, s) in space.iter().enumerate() {
            if s.dead_bytes == 0 {
                total.rows += s.rows as usize;
                total.chunks_before += s.chunks;
                total.chunks_after += s.chunks;
                total.bytes_before += s.file_bytes;
                total.bytes_after += s.file_bytes;
                continue;
            }
            let (stats, chunks) = shard::compact_shard_with_chunks(&self.manifest, i)?;
            total.bytes_before += stats.bytes_before;
            total.bytes_after += stats.bytes_after;
            total.reclaimed_bytes += stats.reclaimed_bytes;
            total.chunks_before += stats.chunks_before;
            total.chunks_after += stats.chunks_after;
            total.rows += stats.rows;
            written.push((i, chunks));
        }
        if !written.is_empty() {
            self.publish(written)?;
        }
        Ok(total)
    }

    /// Delete every tuple of the given users (GDPR-style retention): the
    /// tombstones are persisted in the manifest first (a one-file table needs
    /// none), the owning shards rewritten, and a fresh snapshot swapped in.
    /// Crash-safe — see [`shard::delete_users`].
    pub fn delete_users(&self, users: &[&str]) -> Result<DeleteStats, EngineError> {
        let _w = self.write.lock().expect("write lock poisoned");
        let stats = shard::delete_users(&self.manifest, users)?;
        self.publish(Vec::new())?;
        Ok(stats)
    }

    /// Per-shard space accounting (file size, dead bytes, dead ratio), read
    /// from the shard footers.
    pub fn shard_space(&self) -> Result<Vec<FileSpaceStats>, EngineError> {
        Ok(shard::shard_space_stats(&self.manifest)?)
    }

    /// Lifetime maintenance counters.
    pub fn maintenance_stats(&self) -> MaintenanceStats {
        *self.stats.lock().expect("stats lock poisoned")
    }

    /// Run one maintenance pass synchronously: finish pending tombstones,
    /// then compact every shard whose dead-byte ratio exceeds the
    /// configured threshold. This is exactly what the background thread
    /// runs; exposed so tests and operators can drive maintenance
    /// deterministically.
    pub fn maintenance_pass(&self) -> Result<MaintenanceStats, EngineError> {
        let _w = self.write.lock().expect("write lock poisoned");
        let recovered = shard::apply_pending_tombstones(&self.manifest)?;
        let space = shard::shard_space_stats(&self.manifest)?;
        let mut written = Vec::new();
        let mut reclaimed = 0u64;
        let mut max_ratio = 0.0f64;
        for (i, s) in space.iter().enumerate() {
            max_ratio = max_ratio.max(s.dead_ratio());
            if s.dead_bytes > 0 && s.dead_ratio() > self.config.dead_ratio {
                let (stats, chunks) = shard::compact_shard_with_chunks(&self.manifest, i)?;
                written.push((i, chunks));
                reclaimed += stats.reclaimed_bytes;
            }
        }
        let compactions = written.len() as u64;
        if compactions > 0 || recovered.shards_rewritten > 0 {
            self.publish(written)?;
        }
        let mut stats = self.stats.lock().expect("stats lock poisoned");
        stats.passes += 1;
        stats.auto_compactions += compactions;
        stats.reclaimed_bytes += reclaimed;
        stats.tombstone_users_applied += recovered.users_deleted as u64;
        stats.last_max_dead_ratio = max_ratio;
        Ok(*stats)
    }

    /// Wake the maintenance thread now (no-op without one).
    fn poke(&self) {
        let mut st = self.wake.state.lock().expect("wake lock poisoned");
        st.poked = true;
        self.wake.cv.notify_all();
    }
}

impl Drop for ShardedTable {
    fn drop(&mut self) {
        // Tell the maintenance thread to exit now instead of discovering
        // the dead Weak only after its next poll interval.
        let mut st = self.wake.state.lock().expect("wake lock poisoned");
        st.stopped = true;
        self.wake.cv.notify_all();
    }
}

impl std::fmt::Debug for ShardedTable {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShardedTable")
            .field("manifest", &self.manifest)
            .field("shards", &self.num_shards())
            .field("auto_compact", &self.config.auto_compact)
            .finish()
    }
}

/// Body of the background maintenance thread: sleep until poked (an ingest
/// happened) or the poll interval elapses, then run one pass. Holding only
/// a [`Weak`], the thread cannot keep the table alive; it exits as soon as
/// the table is dropped (the drop notifies `stopped`) or the upgrade fails.
fn maintenance_loop(weak: Weak<ShardedTable>, wake: Arc<Wake>, interval: Duration) {
    loop {
        {
            let mut st = wake.state.lock().expect("wake lock poisoned");
            if !st.poked && !st.stopped {
                let (guard, _) = wake.cv.wait_timeout(st, interval).expect("wake lock poisoned");
                st = guard;
            }
            if st.stopped {
                return;
            }
            st.poked = false;
        }
        let Some(table) = weak.upgrade() else { return };
        // Maintenance failures (e.g. a cross-process lock timeout) are
        // retried on the next wake-up; they must not kill the thread.
        let _ = table.maintenance_pass();
    }
}
