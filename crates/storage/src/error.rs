//! Error type for the storage layer.

use std::fmt;

/// Errors raised while compressing, reading, or persisting activity tables.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StorageError {
    /// The on-disk data is malformed.
    Corrupt(String),
    /// Unsupported format version in the file header.
    BadVersion(u32),
    /// The file is well-formed but this build does not support it (e.g. a
    /// v1 or v2 file, retired formats). The message includes a migration
    /// hint.
    Unsupported(String),
    /// Underlying I/O failure.
    Io(String),
    /// Attempted to read a row or column that does not exist.
    OutOfBounds {
        /// What was indexed.
        what: &'static str,
        /// Requested index.
        index: usize,
        /// Number of valid entries.
        len: usize,
    },
    /// The activity table violated an invariant the format needs.
    Invalid(String),
    /// A single-writer lock could not be acquired within its timeout:
    /// another writer holds the resource (or died holding it — the message
    /// names the lock file to remove after verifying the holder is gone).
    Busy(String),
}

impl StorageError {
    /// Name the chunk a corruption was found in (other kinds pass through
    /// unchanged).
    pub(crate) fn in_chunk(self, chunk: usize) -> StorageError {
        match self {
            StorageError::Corrupt(m) => StorageError::Corrupt(format!("chunk {chunk}: {m}")),
            other => other,
        }
    }

    /// Name the chunk and column a segment-level corruption was found in
    /// (other kinds pass through unchanged).
    pub(crate) fn in_column(self, chunk: usize, column: usize) -> StorageError {
        match self {
            StorageError::Corrupt(m) => {
                StorageError::Corrupt(format!("chunk {chunk}: column {column}: {m}"))
            }
            other => other,
        }
    }
}

impl fmt::Display for StorageError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StorageError::Corrupt(m) => write!(f, "corrupt storage: {m}"),
            StorageError::BadVersion(v) => write!(f, "unsupported format version {v}"),
            StorageError::Unsupported(m) => write!(f, "unsupported operation: {m}"),
            StorageError::Io(m) => write!(f, "io error: {m}"),
            StorageError::OutOfBounds { what, index, len } => {
                write!(f, "{what} index {index} out of bounds (len {len})")
            }
            StorageError::Invalid(m) => write!(f, "invalid input: {m}"),
            StorageError::Busy(m) => write!(f, "resource busy: {m}"),
        }
    }
}

impl std::error::Error for StorageError {}

impl From<std::io::Error> for StorageError {
    fn from(e: std::io::Error) -> Self {
        StorageError::Io(e.to_string())
    }
}
