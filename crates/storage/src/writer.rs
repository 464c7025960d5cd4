//! Incremental ingest: buffering activity batches and growing persisted
//! tables.
//!
//! [`TableWriter`] is the write-side companion of the read-oriented
//! [`CompressedTable`]: it accumulates incoming
//! [`ActivityTable`] batches (which arrive in arbitrary interleavings as
//! live traffic), re-sorts them into the paper's §3 `(user, time, action)`
//! primary order, and encodes them into chunk-sized runs — either as a fresh
//! standalone table ([`TableWriter::build`]) or appended onto an existing v4
//! file, a v3 one migrating first ([`TableWriter::append_to`], which drives
//! [`persist::append`]). Buffering several batches
//! before flushing amortizes the per-append footer rewrite and produces
//! fuller chunks.

use crate::persist::{self, AppendStats};
use crate::table::{CompressedTable, CompressionOptions};
use crate::{Result, StorageError};
use cohana_activity::{ActivityTable, Schema, TableBuilder, Value};
use std::path::Path;

/// Buffers activity batches and encodes them into chunk-sized runs.
#[derive(Debug)]
pub struct TableWriter {
    schema: Schema,
    rows: Vec<Vec<Value>>,
}

impl TableWriter {
    /// An empty writer for the given schema.
    pub fn new(schema: Schema) -> Self {
        TableWriter { schema, rows: Vec::new() }
    }

    /// The schema every pushed batch must match.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// Buffer one batch. The batch may overlap in time and users with
    /// anything buffered before — ordering is restored when the writer
    /// flushes.
    pub fn push_batch(&mut self, batch: &ActivityTable) -> Result<()> {
        if batch.schema() != &self.schema {
            return Err(StorageError::Invalid(
                "batch schema differs from the writer's schema".into(),
            ));
        }
        self.rows.extend(batch.rows().iter().map(|r| r.values().to_vec()));
        Ok(())
    }

    /// Buffer one raw row (arity and types are validated on flush).
    pub fn push_row(&mut self, values: Vec<Value>) {
        self.rows.push(values);
    }

    /// Number of buffered rows.
    pub fn buffered_rows(&self) -> usize {
        self.rows.len()
    }

    /// Whether nothing is buffered.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Drain the buffer into one primary-key-sorted [`ActivityTable`],
    /// rejecting duplicate keys and type mismatches. The writer is left
    /// empty and reusable.
    pub fn take_batch(&mut self) -> Result<ActivityTable> {
        let mut builder = TableBuilder::with_capacity(self.schema.clone(), self.rows.len());
        for values in self.rows.drain(..) {
            builder.push(values).map_err(|e| StorageError::Invalid(e.to_string()))?;
        }
        builder.finish().map_err(|e| StorageError::Invalid(e.to_string()))
    }

    /// Drain the buffer and encode it as a standalone compressed table
    /// (chunk-sized runs of whole users, like
    /// [`CompressedTable::build`]).
    pub fn build(&mut self, options: CompressionOptions) -> Result<CompressedTable> {
        let table = self.take_batch()?;
        CompressedTable::build(&table, options)
    }

    /// Drain the buffer and append it onto an existing v4 file, migrating a
    /// v3 one first (see [`persist::append`] for the on-disk mechanics,
    /// dictionary epochs, and the returning-user rewrite).
    pub fn append_to(&mut self, path: &Path) -> Result<AppendStats> {
        let batch = self.take_batch()?;
        persist::append(path, &batch)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cohana_activity::{generate, GeneratorConfig};

    #[test]
    fn writer_sorts_interleaved_batches() {
        let table = generate(&GeneratorConfig::small());
        let mut w = TableWriter::new(table.schema().clone());
        // Push the rows back-to-front in two batches; the writer restores
        // primary-key order.
        let rows = table.rows();
        let (a, b) = rows.split_at(rows.len() / 2);
        for part in [b, a] {
            for r in part.iter().rev() {
                w.push_row(r.values().to_vec());
            }
        }
        assert_eq!(w.buffered_rows(), table.num_rows());
        let sorted = w.take_batch().unwrap();
        assert_eq!(sorted.rows(), table.rows());
        assert!(w.is_empty(), "take_batch drains the buffer");
    }

    #[test]
    fn writer_build_matches_direct_build() {
        let table = generate(&GeneratorConfig::small());
        let mut w = TableWriter::new(table.schema().clone());
        w.push_batch(&table).unwrap();
        let built = w.build(CompressionOptions::with_chunk_size(256)).unwrap();
        let direct =
            CompressedTable::build(&table, CompressionOptions::with_chunk_size(256)).unwrap();
        assert_eq!(built.chunks(), direct.chunks());
        assert_eq!(built.metas(), direct.metas());
    }

    #[test]
    fn writer_rejects_foreign_schema_and_duplicates() {
        let table = generate(&GeneratorConfig::small());
        use cohana_activity::{Attribute, AttributeRole, ValueType};
        let mut w = TableWriter::new(Schema::game_actions());
        let tiny = Schema::new(vec![
            Attribute::new("u", ValueType::Str, AttributeRole::User),
            Attribute::new("t", ValueType::Int, AttributeRole::Time),
            Attribute::new("a", ValueType::Str, AttributeRole::Action),
        ])
        .unwrap();
        let empty = TableBuilder::new(tiny).finish().unwrap();
        assert!(matches!(w.push_batch(&empty).unwrap_err(), StorageError::Invalid(_)));

        w.push_row(table.rows()[0].values().to_vec());
        w.push_row(table.rows()[0].values().to_vec());
        assert!(matches!(w.take_batch().unwrap_err(), StorageError::Invalid(_)));
    }
}
