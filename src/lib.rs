//! # cohana
//!
//! Facade crate for the COHANA cohort query processing system, a from-scratch
//! Rust reproduction of *"Cohort Query Processing"* (Jiang, Cai, Chen,
//! Jagadish, Ooi, Tan, Tung — VLDB 2016).
//!
//! Cohort analysis groups users into *cohorts* by the circumstances of their
//! *birth* (the first time they performed a chosen birth action) and tracks
//! how each cohort's behaviour evolves with *age*, teasing apart the effect
//! of aging from the effect of social change.
//!
//! This crate re-exports the individual subsystem crates:
//!
//! * [`activity`] — the activity-table data model and workload generator,
//! * [`storage`] — COHANA's compressed, user-clustered columnar storage,
//! * [`engine`] — the cohort algebra, planner, and physical operators,
//! * [`sql`] — the extended SQL front end (`BIRTH FROM`, `AGE ACTIVITIES
//!   IN`, `COHORT BY`),
//! * [`server`] — the concurrent TCP serving layer (`cohana-serve`) and its
//!   blocking client, with admission control and streaming results.
//!
//! ## Quickstart
//!
//! ```
//! use cohana::prelude::*;
//!
//! // Generate a small synthetic mobile-game dataset and compress it.
//! let table = generate(&GeneratorConfig::small());
//! let engine = Cohana::from_activity_table(&table, CompressionOptions::default()).unwrap();
//!
//! // Open a session, prepare Q1 of the paper (country launch cohorts,
//! // user retention by age), execute, and observe what it cost.
//! let session = engine.session();
//! let stmt = session
//!     .prepare_sql(
//!         "SELECT country, COHORTSIZE, AGE, UserCount() \
//!          FROM GameActions BIRTH FROM action = \"launch\" \
//!          COHORT BY country",
//!     )
//!     .unwrap();
//! let report = stmt.execute().unwrap();
//! assert!(report.num_rows() > 0);
//! assert!(report.stats.unwrap().chunks_scanned > 0);
//! ```

pub use cohana_activity as activity;
pub use cohana_core as engine;
pub use cohana_server as server;
pub use cohana_sql as sql;
pub use cohana_storage as storage;

/// Commonly used items in one import.
pub mod prelude {
    pub use cohana_activity::{
        generate, scale_table, ActivityTable, ArrivalModel, GeneratorConfig, Schema, TimeBin,
        Timestamp, Value,
    };
    pub use cohana_core::{
        AggFunc, Cohana, CohortQuery, CohortReport, EngineOptions, MaintenanceConfig, OpenOptions,
        PlannerOptions, QueryStats, QueryStream, ResultBatch, Session, Statement, TableHandle,
    };
    pub use cohana_sql::{parse_cohort_query, SessionSqlExt, SqlAnswer};
    pub use cohana_storage::{
        ChunkSource, CompressedTable, CompressionOptions, FileSource, SourceIoStats,
    };
}
