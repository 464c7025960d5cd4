//! The table-management surface: [`OpenOptions`] (one builder-style entry
//! point for attaching any kind of table to the engine) and [`TableHandle`]
//! (a typed handle carrying the table's lifecycle operations).
//!
//! Before this module, table management sprawled flat across the engine:
//! `open_file` / `open_file_with_budget` / `load_file` to attach,
//! stringly-named `ingest(name, ..)` / `compact(name)` to mutate. Those
//! remain as thin deprecated shims; the one current surface is
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
//! `OpenOptions::open` sniffs what the path names: a shard-manifest
//! directory (or the manifest file itself) attaches a sharded table with
//! optional background maintenance; anything else is a single v2–v4 file,
//! attached lazily by default or fully resident with
//! [`OpenOptions::resident`]. `OpenOptions::create_from` builds a **new**
//! table (single-file, or range-sharded with [`OpenOptions::shards`]) from
//! an [`ActivityTable`] and attaches it.

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
    DeleteStats, FileSource, FileSpaceStats,
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
    /// [`cohana_storage::DEFAULT_CACHE_BUDGET`]). A sharded table shares one
    /// budget across all its shards.
    pub fn cache_bytes(mut self, bytes: usize) -> Self {
        self.cache_bytes = bytes;
        self
    }

    /// Load the table fully into memory instead of lazily (single-file
    /// tables only; replaces the old `load_file`).
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

    /// Maintenance policy for sharded tables: enable background
    /// auto-compaction, set the dead-byte threshold and poll interval.
    /// Ignored for single-file tables.
    pub fn maintenance(mut self, config: MaintenanceConfig) -> Self {
        self.maintenance = config;
        self
    }

    /// Attach the existing table the path names: a sharded table (the
    /// directory or its manifest file — sniffed by magic), or a single
    /// v2–v4 file (lazy by default, eager with [`OpenOptions::resident`]).
    pub fn open(self) -> Result<TableHandle<'e>, EngineError> {
        if shard::is_sharded(&self.path) {
            if self.resident {
                return Err(EngineError::Unsupported(
                    "sharded tables are always lazily attached; drop .resident(true)".into(),
                ));
            }
            let table = ShardedTable::open(&self.path, self.cache_bytes, self.maintenance)?;
            self.engine.register_sharded(&self.name, table);
        } else if self.path.is_dir() {
            // Don't let FileSource report a bare "is a directory" io error:
            // the only directories we open are sharded tables.
            return Err(EngineError::Storage(format!(
                "{} is a directory but not a sharded table (no valid {} inside)",
                self.path.display(),
                cohana_storage::MANIFEST_FILE,
            )));
        } else if self.resident {
            let table = persist::read_file(&self.path)?;
            self.engine.register(&self.name, table);
        } else {
            let source = Arc::new(FileSource::open_with_budget(&self.path, self.cache_bytes)?);
            self.engine.register_file(&self.name, source);
        }
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
            let sharded = ShardedTable::open(&self.path, self.cache_bytes, self.maintenance)?;
            self.engine.register_sharded(&self.name, sharded);
        } else {
            let compressed = CompressedTable::build(table, options)?;
            persist::write_file(&compressed, &self.path)?;
            if self.resident {
                self.engine.register(&self.name, compressed);
            } else {
                let source = Arc::new(FileSource::open_with_budget(&self.path, self.cache_bytes)?);
                self.engine.register_file(&self.name, source);
            }
        }
        self.engine.table(&self.name)
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

    /// Whether this table is sharded.
    pub fn is_sharded(&self) -> bool {
        self.engine.sharded(&self.name).is_some()
    }

    /// The underlying [`ShardedTable`] when this table is sharded (for
    /// per-shard stats like [`cohana_storage::ShardedAppendStats`] that the
    /// aggregated handle methods fold away).
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

    /// Ingest a batch of activity tuples. Sharded tables route the batch by
    /// user range and append all touched shards in parallel; single-file
    /// tables append in place; resident tables grow in memory the same way.
    /// The snapshot this publishes starts with the chunks the write produced
    /// already cached (within the cache budget); an empty batch publishes
    /// nothing. Statements prepared before this call keep their snapshot.
    pub fn ingest(&self, batch: &ActivityTable) -> Result<AppendStats, EngineError> {
        self.engine.ingest_inner(&self.name, batch)
    }

    /// Compact the table: merge under-filled chunks, restore primary
    /// ordering, reclaim dead bytes. Sharded tables compact every shard
    /// that has dead bytes. Like [`TableHandle::ingest`], the new snapshot
    /// starts warm.
    pub fn compact(&self) -> Result<CompactStats, EngineError> {
        self.engine.compact_inner(&self.name)
    }

    /// Delete every tuple of the given users (sharded tables only —
    /// tombstone-durable, crash-recoverable; see
    /// [`ShardedTable::delete_users`]).
    pub fn delete_users(&self, users: &[&str]) -> Result<DeleteStats, EngineError> {
        match self.engine.sharded(&self.name) {
            Some(table) => table.delete_users(users),
            None => Err(EngineError::Unsupported(format!(
                "table {:?} is not sharded; user deletion requires a sharded table (open with \
                 .shards(n))",
                self.name
            ))),
        }
    }

    /// Lifetime maintenance counters (sharded tables only).
    pub fn maintenance_stats(&self) -> Result<MaintenanceStats, EngineError> {
        match self.engine.sharded(&self.name) {
            Some(table) => Ok(table.maintenance_stats()),
            None => Err(EngineError::Unsupported(format!(
                "table {:?} is not sharded and has no maintenance thread",
                self.name
            ))),
        }
    }

    /// Run one synchronous maintenance pass now (sharded tables only):
    /// pending tombstones are applied, shards over the dead-ratio threshold
    /// compacted.
    pub fn maintenance_pass(&self) -> Result<MaintenanceStats, EngineError> {
        match self.engine.sharded(&self.name) {
            Some(table) => table.maintenance_pass(),
            None => Err(EngineError::Unsupported(format!(
                "table {:?} is not sharded and has no maintenance pass",
                self.name
            ))),
        }
    }

    /// Per-shard (or single-file) space accounting: file bytes, dead bytes,
    /// dead ratio. Resident tables have no backing file and report
    /// `Unsupported`.
    pub fn space_stats(&self) -> Result<Vec<FileSpaceStats>, EngineError> {
        self.engine.space_stats_inner(&self.name)
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
