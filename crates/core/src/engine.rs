//! The COHANA engine facade: catalog + storage manager + query executor
//! (Figure 4; the parser module lives in the `cohana-sql` crate).
//!
//! The catalog holds three kinds of table: resident ([`CompressedTable`]),
//! file-backed ([`ShardedTable`] — a shard directory, or a single file as a
//! one-shard table, so both share one ingest / compact / delete path), and
//! generic caller-provided [`ChunkSource`]s.

use crate::error::EngineError;
use crate::handle::{OpenOptions, TableHandle};
use crate::plan::{plan_query, PhysicalPlan, PlannerOptions};
use crate::query::CohortQuery;
use crate::report::CohortReport;
use crate::session::Session;
use crate::sharded::ShardedTable;
use cohana_activity::{ActivityTable, Schema};
use cohana_storage::{ChunkSource, CompressedTable, CompressionOptions, StorageError};
use std::collections::HashMap;
use std::path::Path;
use std::sync::{Arc, RwLock};

/// Engine-level options.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EngineOptions {
    /// Planner/optimizer flags.
    pub planner: PlannerOptions,
    /// Worker threads for chunk-parallel execution (1 = serial, matching the
    /// paper's single-stream measurements).
    pub parallelism: usize,
}

impl Default for EngineOptions {
    fn default() -> Self {
        EngineOptions { planner: PlannerOptions::default(), parallelism: 1 }
    }
}

/// The default table name used by [`Cohana::from_activity_table`].
pub const DEFAULT_TABLE: &str = "GameActions";

/// One catalog slot: a fully resident table, a file-backed table (a shard
/// directory, or one file as a one-shard table), or an arbitrary
/// (caller-provided) chunk source. Resident and file-backed tables keep
/// their concrete types so the engine knows how to grow / compact /
/// maintain them; all three kinds execute through [`ChunkSource`].
#[derive(Clone)]
enum CatalogEntry {
    Memory(Arc<CompressedTable>),
    Files(Arc<ShardedTable>),
    Source(Arc<dyn ChunkSource>),
}

impl CatalogEntry {
    fn as_source(&self) -> Arc<dyn ChunkSource> {
        match self {
            CatalogEntry::Memory(table) => table.clone(),
            CatalogEntry::Files(table) => table.source(),
            CatalogEntry::Source(source) => source.clone(),
        }
    }
}

/// The COHANA cohort query engine.
///
/// Holds a catalog of activity tables and executes [`CohortQuery`]s against
/// them. Tables are attached with the builder-style [`Cohana::open`] —
/// lazily file-backed by default (one file or a shard directory, both a
/// [`ShardedTable`]), fully resident with `.resident(true)` — or registered
/// directly ([`Cohana::register`], [`Cohana::register_source`]). Per-table lifecycle
/// (ingest, compaction, deletion, maintenance) lives on the
/// [`TableHandle`] returned by [`Cohana::open`] / [`Cohana::table`].
/// Cloning entries is cheap (tables are shared).
pub struct Cohana {
    catalog: RwLock<HashMap<String, CatalogEntry>>,
    default_table: RwLock<Option<String>>,
    /// Serializes [`TableHandle::ingest`] / [`TableHandle::compact`]: on a
    /// resident table both are read-modify-write sequences (read entry →
    /// rebuild table → swap entry), and two of them interleaving would
    /// silently drop one batch. File-backed tables also serialize on their
    /// own lock. Queries are unaffected — they go through `catalog`'s own
    /// lock.
    write_lock: std::sync::Mutex<()>,
    options: EngineOptions,
}

impl Cohana {
    /// An empty engine with the given options.
    pub fn new(options: EngineOptions) -> Self {
        Cohana {
            catalog: RwLock::new(HashMap::new()),
            default_table: RwLock::new(None),
            write_lock: std::sync::Mutex::new(()),
            options,
        }
    }

    /// Compress an activity table and register it as [`DEFAULT_TABLE`].
    pub fn from_activity_table(
        table: &ActivityTable,
        compression: CompressionOptions,
    ) -> Result<Self, EngineError> {
        let engine = Cohana::new(EngineOptions::default());
        engine.register(DEFAULT_TABLE, CompressedTable::build(table, compression)?);
        Ok(engine)
    }

    /// Engine options.
    pub fn options(&self) -> EngineOptions {
        self.options
    }

    fn insert(&self, name: String, entry: CatalogEntry) {
        self.catalog.write().unwrap().insert(name.clone(), entry);
        let mut default = self.default_table.write().unwrap();
        if default.is_none() {
            *default = Some(name);
        }
    }

    /// Start attaching (or creating) a table at `path`: returns an
    /// [`OpenOptions`] builder carrying the defaults — lazy attachment,
    /// default cache budget, name [`DEFAULT_TABLE`], no background
    /// maintenance. Finish with [`OpenOptions::open`] for existing data
    /// (single file or shard directory, sniffed automatically) or
    /// [`OpenOptions::create_from`] to build a new table from rows.
    ///
    /// ```no_run
    /// # use cohana_core::{Cohana, EngineOptions};
    /// # fn main() -> Result<(), cohana_core::EngineError> {
    /// let engine = Cohana::new(EngineOptions::default());
    /// let table = engine.open("activity.cohana").cache_bytes(64 << 20).open()?;
    /// # Ok(()) }
    /// ```
    pub fn open(&self, path: impl AsRef<Path>) -> OpenOptions<'_> {
        OpenOptions::new(self, path.as_ref())
    }

    /// A [`TableHandle`] on a registered table — the one place per-table
    /// lifecycle (ingest / compact / delete_users / maintenance) lives.
    pub fn table(&self, name: &str) -> Result<TableHandle<'_>, EngineError> {
        if self.catalog.read().unwrap().contains_key(name) {
            Ok(TableHandle::new(self, name.to_string()))
        } else {
            Err(EngineError::UnknownTable(name.to_string()))
        }
    }

    /// A [`TableHandle`] on the default table (the first one registered).
    pub fn default_table(&self) -> Result<TableHandle<'_>, EngineError> {
        let name = self
            .default_table_name()
            .ok_or_else(|| EngineError::UnknownTable("<no tables registered>".into()))?;
        self.table(&name)
    }

    /// Register a fully resident compressed table under a name; the first
    /// registered table becomes the default.
    pub fn register(
        &self,
        name: impl Into<String>,
        table: CompressedTable,
    ) -> Arc<CompressedTable> {
        let arc = Arc::new(table);
        self.insert(name.into(), CatalogEntry::Memory(arc.clone()));
        arc
    }

    /// Register any chunk source (e.g. a shared
    /// [`FileSource`](cohana_storage::FileSource)) under a
    /// name; the first registered table becomes the default.
    pub fn register_source(&self, name: impl Into<String>, source: Arc<dyn ChunkSource>) {
        self.insert(name.into(), CatalogEntry::Source(source));
    }

    /// Register an opened file-backed table (used by [`OpenOptions::open`] /
    /// [`OpenOptions::create_from`]).
    pub(crate) fn register_files(&self, name: &str, table: Arc<ShardedTable>) {
        self.insert(name.to_string(), CatalogEntry::Files(table));
    }

    /// The file-backed table registered under `name`, if that's what it is.
    pub(crate) fn sharded(&self, name: &str) -> Option<Arc<ShardedTable>> {
        match self.catalog.read().unwrap().get(name)? {
            CatalogEntry::Files(table) => Some(table.clone()),
            _ => None,
        }
    }

    /// Fetch a registered **resident** table's concrete form (`None` for
    /// names registered as non-resident sources; use [`Cohana::source`] for
    /// the execution view of any table).
    pub fn resident(&self, name: &str) -> Option<Arc<CompressedTable>> {
        match self.catalog.read().unwrap().get(name)? {
            CatalogEntry::Memory(table) => Some(table.clone()),
            _ => None,
        }
    }

    /// The catalog entry registered under `name`.
    fn entry(&self, name: &str) -> Result<CatalogEntry, EngineError> {
        self.catalog
            .read()
            .unwrap()
            .get(name)
            .cloned()
            .ok_or_else(|| EngineError::UnknownTable(name.into()))
    }

    /// The implementation behind [`TableHandle::ingest`].
    pub(crate) fn ingest_inner(
        &self,
        name: &str,
        batch: &cohana_activity::ActivityTable,
    ) -> Result<cohana_storage::AppendStats, EngineError> {
        let _write = self.write_lock.lock().expect("write lock poisoned");
        match self.entry(name)? {
            // The table manages its own snapshot swap; the catalog entry
            // keeps pointing at the same ShardedTable.
            CatalogEntry::Files(table) => Ok(table.ingest(batch)?.total()),
            CatalogEntry::Memory(table) => {
                let (grown, stats) = table.ingest(batch).map_err(|e| match e {
                    StorageError::Invalid(msg) => EngineError::Unsupported(msg),
                    other => other.into(),
                })?;
                if !batch.is_empty() {
                    self.register(name, grown);
                }
                Ok(stats)
            }
            CatalogEntry::Source(_) => Err(EngineError::Unsupported(format!(
                "table {name:?} is a generic registered source; only resident and file-backed \
                 tables can be ingested into"
            ))),
        }
    }

    /// The implementation behind [`TableHandle::compact`].
    pub(crate) fn compact_inner(
        &self,
        name: &str,
    ) -> Result<cohana_storage::CompactStats, EngineError> {
        let _write = self.write_lock.lock().expect("write lock poisoned");
        match self.entry(name)? {
            CatalogEntry::Files(table) => Ok(table.compact()?),
            CatalogEntry::Memory(table) => {
                let rebuilt = table.compacted()?;
                let stats = cohana_storage::CompactStats {
                    chunks_before: table.chunks().len(),
                    chunks_after: rebuilt.chunks().len(),
                    rows: rebuilt.num_rows(),
                    ..Default::default()
                };
                self.register(name, rebuilt);
                Ok(stats)
            }
            CatalogEntry::Source(_) => Err(EngineError::Unsupported(format!(
                "table {name:?} is a generic registered source and cannot be compacted"
            ))),
        }
    }

    /// Fetch a registered table as a chunk source (resident or lazy).
    pub fn source(&self, name: &str) -> Option<Arc<dyn ChunkSource>> {
        Some(self.catalog.read().unwrap().get(name)?.as_source())
    }

    /// The schema of a registered table, resident or lazy.
    pub fn schema_of(&self, name: &str) -> Option<Schema> {
        Some(self.source(name)?.table_meta().schema().clone())
    }

    /// The engine's default table (the first table registered), if any.
    pub fn default_table_name(&self) -> Option<String> {
        self.default_table.read().unwrap().clone()
    }

    /// Open a [`Session`]: a cheap per-caller handle carrying option
    /// overrides (parallelism, planner flags, default table) that never
    /// touch the shared engine. Sessions prepare [`Statement`]s; statements
    /// execute eagerly or stream per-chunk batches.
    ///
    /// [`Statement`]: crate::Statement
    pub fn session(&self) -> Session<'_> {
        Session::new(self)
    }

    /// Plan a query against the default table (planning only — predicate
    /// compilation happens when a [`Statement`] is prepared).
    ///
    /// [`Statement`]: crate::Statement
    pub fn plan(&self, query: &CohortQuery) -> Result<PhysicalPlan, EngineError> {
        plan_query(query, &self.session().schema()?, self.options.planner)
    }

    /// EXPLAIN: the optimized Figure-5 style plan plus scan projection,
    /// pruning predicate, and parallelism.
    pub fn explain(&self, query: &CohortQuery) -> Result<String, EngineError> {
        self.session().explain(query)
    }

    /// Execute a cohort query against the default table. Convenience for
    /// `self.session().execute(query)` — one-shot callers that don't need
    /// prepared statements or streaming.
    pub fn execute(&self, query: &CohortQuery) -> Result<CohortReport, EngineError> {
        self.session().execute(query)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::agg::AggFunc;
    use cohana_activity::{generate, GeneratorConfig};

    fn engine() -> Cohana {
        let t = generate(&GeneratorConfig::small());
        Cohana::from_activity_table(&t, CompressionOptions::with_chunk_size(256)).unwrap()
    }

    fn q1() -> CohortQuery {
        CohortQuery::builder("launch")
            .cohort_by(["country"])
            .aggregate(AggFunc::user_count())
            .build()
            .unwrap()
    }

    #[test]
    fn execute_q1_nonempty() {
        let report = engine().execute(&q1()).unwrap();
        assert!(report.num_rows() > 0);
        // Sizes over cohorts equal the number of users (everyone launches).
        let total: u64 = report.cohort_sizes.values().sum();
        assert_eq!(total as usize, generate(&GeneratorConfig::small()).num_users());
    }

    #[test]
    fn unknown_table_errors() {
        let e = engine();
        let unknown = e.session().on_table("nope").execute(&q1()).unwrap_err();
        assert!(matches!(unknown, EngineError::UnknownTable(_)));
        let empty = Cohana::new(EngineOptions::default());
        assert!(empty.execute(&q1()).is_err());
    }

    #[test]
    fn explain_contains_operators() {
        let text = engine().explain(&q1()).unwrap();
        assert!(text.contains("γc"));
        assert!(text.contains("TableScan"));
    }

    #[test]
    fn register_and_list() {
        let e = engine();
        assert!(e.resident(DEFAULT_TABLE).is_some());
        let handle = e.table(DEFAULT_TABLE).unwrap();
        assert_eq!(handle.name(), DEFAULT_TABLE);
        assert!(handle.sharded_table().is_none());
        assert!(matches!(e.table("nope").unwrap_err(), EngineError::UnknownTable(_)));
    }

    #[test]
    fn parallel_matches_serial() {
        let t = generate(&GeneratorConfig::small());
        let build = || CompressedTable::build(&t, CompressionOptions::with_chunk_size(128));
        let serial = Cohana::new(EngineOptions { parallelism: 1, ..Default::default() });
        serial.register(DEFAULT_TABLE, build().unwrap());
        let parallel = Cohana::new(EngineOptions { parallelism: 4, ..Default::default() });
        parallel.register(DEFAULT_TABLE, build().unwrap());
        let q = q1();
        let a = serial.execute(&q).unwrap();
        let b = parallel.execute(&q).unwrap();
        assert_eq!(a.rows, b.rows);
    }
}
