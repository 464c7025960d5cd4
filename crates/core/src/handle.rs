//! The table-management surface: [`OpenOptions`] (one builder-style entry
//! point for attaching any kind of table to the engine) and [`TableHandle`]
//! (a typed handle carrying the table's lifecycle operations):
//!
//! ```no_run
//! # use cohana_core::{Cohana, EngineOptions};
//! # fn main() -> Result<(), cohana_core::EngineError> {
//! # let batch = cohana_activity::generate(&cohana_activity::GeneratorConfig::small());
//! let engine = Cohana::new(EngineOptions::default());
//! let table = engine
//!     .open("activity.cohana")     // file, directory, or shard manifest
//!     .cache_bytes(64 << 20)       // segment-cache budget
//!     .open()?;                    // -> TableHandle
//! table.ingest(&batch)?;           // lifecycle lives on the handle
//! # Ok(()) }
//! ```
//!
//! `OpenOptions::open` attaches what the path names — a shard directory (or
//! its manifest file), or a single v3/v4 file — as a [`ShardedTable`]: one
//! file is a one-shard table, so ingest, compaction, user deletion and
//! background maintenance work the same on both. With
//! [`OpenOptions::resident`] a single file is loaded fully into memory
//! instead. `OpenOptions::create_from` builds a **new** table (single-file,
//! or range-sharded with [`OpenOptions::shards`]) from an [`ActivityTable`]
//! and attaches it.

use crate::engine::{Cohana, DEFAULT_TABLE};
use crate::error::EngineError;
use crate::query::CohortQuery;
use crate::report::CohortReport;
use crate::session::{Session, Statement};
use crate::sharded::{MaintenanceConfig, MaintenanceStats, ShardedTable};
use cohana_activity::{ActivityTable, Schema};
use cohana_storage::shard;
use cohana_storage::{
    persist, AppendStats, ChunkSource, CompactStats, CompressedTable, CompressionOptions,
    DeleteStats, FileSpaceStats,
};
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// Builder for attaching (or creating) one table. Obtain with
/// [`Cohana::open`]; finish with [`OpenOptions::open`] (existing data) or
/// [`OpenOptions::create_from`] (build from rows). See the module docs.
#[must_use = "OpenOptions does nothing until .open() or .create_from(..) is called"]
pub struct OpenOptions<'e> {
    engine: &'e Cohana,
    path: PathBuf,
    name: String,
    cache_bytes: usize,
    resident: bool,
    shards: Option<usize>,
    chunk_size: usize,
    maintenance: MaintenanceConfig,
}

impl<'e> OpenOptions<'e> {
    pub(crate) fn new(engine: &'e Cohana, path: &Path) -> OpenOptions<'e> {
        OpenOptions {
            engine,
            path: path.to_path_buf(),
            name: DEFAULT_TABLE.to_string(),
            cache_bytes: cohana_storage::DEFAULT_CACHE_BUDGET,
            resident: false,
            shards: None,
            chunk_size: CompressionOptions::default().chunk_size,
            maintenance: MaintenanceConfig::default(),
        }
    }

    /// Catalog name to register under (default: [`DEFAULT_TABLE`]).
    pub fn name(mut self, name: impl Into<String>) -> Self {
        self.name = name.into();
        self
    }

    /// Segment-cache byte budget for lazily attached tables (default:
    /// [`cohana_storage::DEFAULT_CACHE_BUDGET`]), shared by all of a
    /// table's shards.
    pub fn cache_bytes(mut self, bytes: usize) -> Self {
        self.cache_bytes = bytes;
        self
    }

    /// Load the table fully into memory instead of lazily (single-file
    /// tables only).
    pub fn resident(mut self, resident: bool) -> Self {
        self.resident = resident;
        self
    }

    /// For [`OpenOptions::create_from`]: partition the new table into up to
    /// `n` user-id-range shards (fewer when the table has fewer distinct
    /// users). Without this, `create_from` writes one file.
    pub fn shards(mut self, n: usize) -> Self {
        self.shards = Some(n);
        self
    }

    /// For [`OpenOptions::create_from`]: target rows per chunk (default:
    /// the paper's 256 Ki).
    pub fn chunk_size(mut self, rows: usize) -> Self {
        self.chunk_size = rows;
        self
    }

    /// Maintenance policy for file-backed tables: enable background
    /// auto-compaction, set the dead-byte threshold and poll interval.
    /// Ignored for resident tables.
    pub fn maintenance(mut self, config: MaintenanceConfig) -> Self {
        self.maintenance = config;
        self
    }

    /// Attach the existing table the path names — a shard directory (or its
    /// manifest file, sniffed by magic) or a single v3/v4 file as a
    /// one-shard table — lazily as a [`ShardedTable`]; a single file loads
    /// eagerly instead with [`OpenOptions::resident`].
    pub fn open(self) -> Result<TableHandle<'e>, EngineError> {
        let sharded = shard::is_sharded(&self.path);
        if self.path.is_dir() && !sharded {
            // Don't report a bare "is a directory" io error: the only
            // directories we open are sharded tables.
            return Err(EngineError::Storage(format!(
                "{} is a directory but not a sharded table (no valid {} inside)",
                self.path.display(),
                cohana_storage::MANIFEST_FILE,
            )));
        }
        if !self.resident {
            return self.attach();
        }
        if sharded {
            return Err(EngineError::Unsupported(
                "sharded tables are always lazily attached; drop .resident(true)".into(),
            ));
        }
        self.engine.register(&self.name, persist::read_file(&self.path)?);
        self.engine.table(&self.name)
    }

    /// Attach the file or shard directory at the path lazily.
    fn attach(self) -> Result<TableHandle<'e>, EngineError> {
        let table = ShardedTable::open(&self.path, self.cache_bytes, self.maintenance)?;
        self.engine.register_files(&self.name, table);
        self.engine.table(&self.name)
    }

    /// Create a **new** table at the path from an activity table, then
    /// attach it: one v4 file by default, or a shard directory with
    /// [`OpenOptions::shards`].
    pub fn create_from(self, table: &ActivityTable) -> Result<TableHandle<'e>, EngineError> {
        let options = CompressionOptions::with_chunk_size(self.chunk_size);
        if let Some(n) = self.shards {
            if self.resident {
                return Err(EngineError::Unsupported(
                    "sharded tables are always lazily attached; drop .resident(true)".into(),
                ));
            }
            shard::create_sharded(&self.path, table, n, options)?;
        } else {
            let compressed = CompressedTable::build(table, options)?;
            persist::write_file(&compressed, &self.path)?;
            if self.resident {
                self.engine.register(&self.name, compressed);
                return self.engine.table(&self.name);
            }
        }
        self.attach()
    }
}

/// A typed handle on one catalog table: the table's lifecycle — ingest,
/// compaction, deletion, maintenance introspection — lives here instead of
/// on stringly-named engine methods. Handles are cheap name + engine-borrow
/// pairs; hold as many as you like. Obtain with [`Cohana::table`] or from
/// [`OpenOptions::open`] / [`OpenOptions::create_from`].
#[derive(Clone)]
pub struct TableHandle<'e> {
    engine: &'e Cohana,
    name: String,
}

impl<'e> TableHandle<'e> {
    pub(crate) fn new(engine: &'e Cohana, name: String) -> TableHandle<'e> {
        TableHandle { engine, name }
    }

    /// The catalog name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The engine the handle points into.
    pub fn engine(&self) -> &'e Cohana {
        self.engine
    }

    /// The table's schema.
    pub fn schema(&self) -> Result<Schema, EngineError> {
        self.engine
            .schema_of(&self.name)
            .ok_or_else(|| EngineError::UnknownTable(self.name.clone()))
    }

    /// The table's current chunk source (what a statement prepared now
    /// would pin).
    pub fn source(&self) -> Result<Arc<dyn ChunkSource>, EngineError> {
        self.engine.source(&self.name).ok_or_else(|| EngineError::UnknownTable(self.name.clone()))
    }

    /// The underlying [`ShardedTable`] when this table is file-backed (for
    /// per-shard stats like [`cohana_storage::ShardedAppendStats`] that the
    /// aggregated handle methods fold away); `None` for resident tables and
    /// generic sources.
    pub fn sharded_table(&self) -> Option<Arc<ShardedTable>> {
        self.engine.sharded(&self.name)
    }

    /// A session defaulting to this table.
    pub fn session(&self) -> Session<'e> {
        self.engine.session().on_table(self.name.clone())
    }

    /// Prepare a statement against this table (equivalent to
    /// `handle.session().prepare(query)`; see also [`Session::prepare_on`]
    /// to combine a configured session with a handle).
    pub fn prepare(&self, query: &CohortQuery) -> Result<Statement, EngineError> {
        self.session().prepare(query)
    }

    /// Prepare and execute in one call.
    pub fn execute(&self, query: &CohortQuery) -> Result<CohortReport, EngineError> {
        self.session().execute(query)
    }

    /// Ingest a batch of activity tuples, making it queryable by everything
    /// prepared *after* this call.
    ///
    /// * A file-backed table routes the batch by user range and appends all
    ///   touched shards in parallel (a single file is the one shard) via
    ///   [`persist::append`]: new chunks are appended to the file, and chunks
    ///   holding returning users are rewritten at the tail.
    /// * A resident table grows the same way in memory
    ///   ([`CompressedTable::ingest`]) and is swapped.
    /// * An empty batch changes nothing: the snapshot, and whatever its
    ///   source has cached, stays.
    /// * Generic sources registered with [`Cohana::register_source`] are not
    ///   ingestable — the engine does not know what backs them.
    ///
    /// **Snapshot semantics:** the snapshot this publishes starts with the
    /// chunks the write produced already cached (within the cache budget).
    /// Prepared [`Statement`]s pin the chunk source they were planned
    /// against, and growth leaves that source's view of its bytes intact, so
    /// they keep answering from the pre-ingest snapshot; re-prepare to see
    /// the new data.
    pub fn ingest(&self, batch: &ActivityTable) -> Result<AppendStats, EngineError> {
        self.engine.ingest_inner(&self.name, batch)
    }

    /// Compact the table: merge the under-filled chunks appends leave behind,
    /// restore the `(user, time)` primary ordering (and with it the §4.2
    /// pruning quality), and reclaim dead bytes. A file-backed table compacts
    /// every shard that has dead bytes on disk via
    /// [`persist::compact`] (atomic temp-file + rename); a resident table is
    /// rebuilt in memory. Like [`TableHandle::ingest`], the new snapshot
    /// starts warm and prepared statements keep their pre-compact snapshot.
    pub fn compact(&self) -> Result<CompactStats, EngineError> {
        self.engine.compact_inner(&self.name)
    }

    /// The file-backed table behind this handle, or `Unsupported` naming
    /// what needed one.
    fn files(&self, what: &str) -> Result<Arc<ShardedTable>, EngineError> {
        self.engine.sharded(&self.name).ok_or_else(|| {
            EngineError::Unsupported(format!("table {:?} has no backing file to {what}", self.name))
        })
    }

    /// Delete every tuple of the given users (file-backed tables only —
    /// crash-recoverable; see [`ShardedTable::delete_users`]).
    pub fn delete_users(&self, users: &[&str]) -> Result<DeleteStats, EngineError> {
        self.files("delete users from")?.delete_users(users)
    }

    /// Lifetime maintenance counters (file-backed tables only).
    pub fn maintenance_stats(&self) -> Result<MaintenanceStats, EngineError> {
        Ok(self.files("maintain")?.maintenance_stats())
    }

    /// Run one synchronous maintenance pass now (file-backed tables only):
    /// pending tombstones are applied, shards over the dead-ratio threshold
    /// compacted.
    pub fn maintenance_pass(&self) -> Result<MaintenanceStats, EngineError> {
        self.files("maintain")?.maintenance_pass()
    }

    /// Per-shard space accounting (one entry for a single file): file
    /// bytes, dead bytes, dead ratio. Resident tables have no backing file
    /// and report `Unsupported`.
    pub fn space_stats(&self) -> Result<Vec<FileSpaceStats>, EngineError> {
        self.files("measure")?.shard_space()
    }

    /// Number of shards (1 for single-file and resident tables).
    pub fn num_shards(&self) -> usize {
        self.engine.sharded(&self.name).map(|t| t.num_shards()).unwrap_or(1)
    }
}

impl std::fmt::Debug for TableHandle<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TableHandle").field("name", &self.name).finish()
    }
}
