//! Error type for the cohort query engine.

use std::fmt;

/// Errors raised during planning or executing cohort queries.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EngineError {
    /// A referenced attribute does not exist in the activity table's schema.
    UnknownAttribute(String),
    /// A referenced table is not registered in the catalog.
    UnknownTable(String),
    /// An expression is ill-typed (e.g. comparing a string column with an
    /// integer literal).
    TypeError(String),
    /// The query is structurally invalid (e.g. no aggregates, cohort
    /// attributes including the user or action attribute).
    InvalidQuery(String),
    /// Propagated storage failure.
    Storage(String),
    /// Decoded data contradicts a format invariant the executor relies on
    /// (e.g. a chunk whose action column is not dictionary-encoded).
    Corrupt(String),
    /// Propagated activity-model failure.
    Activity(String),
    /// The operation is not supported on this catalog entry or input (e.g.
    /// ingesting into a generic registered source, or a batch whose schema
    /// differs from the table's).
    Unsupported(String),
}

impl fmt::Display for EngineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EngineError::UnknownAttribute(a) => write!(f, "unknown attribute {a:?}"),
            EngineError::UnknownTable(t) => write!(f, "unknown table {t:?}"),
            EngineError::TypeError(m) => write!(f, "type error: {m}"),
            EngineError::InvalidQuery(m) => write!(f, "invalid query: {m}"),
            EngineError::Storage(m) => write!(f, "storage error: {m}"),
            EngineError::Corrupt(m) => write!(f, "corrupt data: {m}"),
            EngineError::Activity(m) => write!(f, "activity error: {m}"),
            EngineError::Unsupported(m) => write!(f, "unsupported operation: {m}"),
        }
    }
}

impl std::error::Error for EngineError {}

impl From<cohana_storage::StorageError> for EngineError {
    fn from(e: cohana_storage::StorageError) -> Self {
        EngineError::Storage(e.to_string())
    }
}

/// Bytes a [`Reader`](cohana_storage::Reader) refused — a wire payload —
/// are corrupt input, not a storage failure.
impl From<cohana_storage::ReadError> for EngineError {
    fn from(e: cohana_storage::ReadError) -> Self {
        EngineError::Corrupt(e.to_string())
    }
}

impl From<cohana_activity::ActivityError> for EngineError {
    fn from(e: cohana_activity::ActivityError) -> Self {
        match e {
            cohana_activity::ActivityError::UnknownAttribute(a) => EngineError::UnknownAttribute(a),
            other => EngineError::Activity(other.to_string()),
        }
    }
}
