//! # cohana-core
//!
//! The COHANA cohort query engine (§3–§4 of "Cohort Query Processing",
//! Jiang et al., VLDB 2016): the cohort algebra, a query planner with
//! birth-selection push-down and chunk pruning, and physical operators over
//! the compressed columnar storage of [`cohana_storage`].
//!
//! ## The cohort algebra
//!
//! Given an activity table `D` and a *birth action* `e`:
//!
//! * **birth selection** `σᵇ(C,e)(D)` keeps all tuples of users whose *birth
//!   activity tuple* (the tuple of their first `e`) satisfies `C`;
//! * **age selection** `σᵍ(C,e)(D)` keeps every birth activity tuple and the
//!   *age activity tuples* satisfying `C` (which may reference birth
//!   attributes via `Birth(A)` and the derived `AGE`);
//! * **cohort aggregation** `γᶜ(L,e,fA)(D)` assigns each user to the cohort
//!   identified by the projection of their birth tuple onto `L`, then
//!   reports, per `(cohort, age)`, the cohort size and the aggregate `fA`
//!   over age tuples with positive age.
//!
//! The two selections commute when they share a birth action (Equation 1),
//! which the planner exploits to always evaluate birth selections first and
//! skip all tuples of unqualified users.
//!
//! ## Example
//!
//! The query surface is session-based: open a cheap [`Session`] on a shared
//! engine, [`Session::prepare`] a [`Statement`] once, then execute it
//! eagerly or stream per-chunk batches — each execution reports its own
//! [`QueryStats`].
//!
//! ```
//! use cohana_activity::{generate, GeneratorConfig};
//! use cohana_core::{AggFunc, Cohana, CohortQuery};
//! use cohana_storage::CompressionOptions;
//!
//! let table = generate(&GeneratorConfig::small());
//! let engine = Cohana::from_activity_table(&table, CompressionOptions::default()).unwrap();
//!
//! // Q1: per-country launch cohorts, retained users by age.
//! let q1 = CohortQuery::builder("launch")
//!     .cohort_by(["country"])
//!     .aggregate(AggFunc::user_count())
//!     .build()
//!     .unwrap();
//! let stmt = engine.session().prepare(&q1).unwrap();
//! let report = stmt.execute().unwrap();
//! assert!(report.num_rows() > 0);
//! assert!(report.stats.unwrap().chunks_scanned > 0);
//! ```

pub mod agg;
pub mod analysis;
mod cells;
pub mod engine;
pub mod error;
pub mod exec;
pub mod expr;
pub mod handle;
pub mod naive;
pub mod paper;
pub mod plan;
pub mod query;
pub mod report;
pub mod scan;
pub mod session;
pub mod sharded;
pub mod stats;
pub mod wire;

pub use agg::{AggFunc, AggState, AggValue};
pub use engine::{Cohana, EngineOptions};
pub use error::EngineError;
pub use exec::ResultBatch;
pub use expr::{CmpOp, Expr};
pub use handle::{OpenOptions, TableHandle};
pub use plan::{plan_query, PhysicalPlan, PlanNode, PlannerOptions};
pub use query::{CohortAttr, CohortQuery, CohortQueryBuilder};
pub use report::{CohortReport, ReportRow};
pub use session::{BatchMerger, QueryStream, Session, Statement};
pub use sharded::{MaintenanceConfig, MaintenanceStats, ShardedTable};
pub use stats::QueryStats;
pub use wire::{ReportAssembler, WireBatch, WireCohort};

/// Result alias for this crate.
pub type Result<T> = std::result::Result<T, EngineError>;
