//! # cohana-sql
//!
//! The extended SQL front end for cohort queries (§3.4 of the paper):
//!
//! ```sql
//! SELECT country, COHORTSIZE, AGE, UserCount()
//! FROM GameActions
//! BIRTH FROM action = "launch" AND time BETWEEN "2013-05-21" AND "2013-05-27"
//! AGE ACTIVITIES IN action = "shop" AND country = Birth(country)
//! COHORT BY country
//! ```
//!
//! * `BIRTH FROM action = e [AND C]` names the birth action and an optional
//!   birth selection σᵇ;
//! * `AGE ACTIVITIES IN C` is the optional age selection σᵍ, where `C` may
//!   use `Birth(attr)` and `AGE`;
//! * `COHORT BY` lists the cohort attribute set `L`; `time(day|week|month)`
//!   cohorts by binned birth time;
//! * the `SELECT` list may use the derived `COHORTSIZE` and `AGE` columns
//!   and the aggregates `Sum/Avg/Min/Max/Count/UserCount`;
//! * the order of the `BIRTH FROM` and `AGE ACTIVITIES IN` clauses is
//!   irrelevant, as the paper specifies.
//!
//! Parsing is schema-aware only at the last step: date literals compared
//! against the time attribute are converted to epoch seconds.
//!
//! The [`SessionSqlExt`] extension trait is the entry point: it adds
//! `session.prepare_sql("SELECT …")` (a re-executable, streamable
//! [`cohana_core::Statement`]), one-shot `session.query(…)`, and the
//! dispatching `session.run_sql(…)` — which also understands
//! `EXPLAIN <query>` — to [`cohana_core::session::Session`]. [`mixed`]
//! implements the §3.5 mixed-query extension (a SQL outer query over a
//! cohort sub-query).

pub mod ast;
pub mod error;
pub mod ext;
pub mod lexer;
pub mod mixed;
pub mod parser;
pub mod translate;

pub use ast::{CohortKeyAst, SelectItem, SqlCohortQuery};
pub use error::SqlError;
pub use ext::{SessionSqlExt, SqlAnswer};
pub use mixed::{parse_mixed_query, MixedQuery, MixedResult};
pub use parser::parse_statement;
pub use translate::translate;

use cohana_activity::Schema;
use cohana_core::CohortQuery;

/// Parse an extended-SQL cohort query and translate it against a schema.
pub fn parse_cohort_query(sql: &str, schema: &Schema) -> Result<CohortQuery> {
    let ast = parse_statement(sql)?;
    translate(&ast, schema)
}

/// Result alias for this crate.
pub type Result<T> = std::result::Result<T, SqlError>;
