//! Dataset construction and caching for benchmarks.
//!
//! All experiments share one scale-1 base dataset (deterministic seed) and
//! derive scaled variants with the paper's scale-factor semantics. Building
//! and compressing large tables is expensive, so everything is cached.

use cohana_activity::{generate, scale_table, ActivityTable, GeneratorConfig};
use cohana_storage::{CompressedTable, CompressionOptions};
use std::collections::HashMap;
use std::sync::Arc;

/// Users in the default scale-1 dataset.
const DEFAULT_USERS: usize = 1_000;

/// Harness configuration.
#[derive(Debug, Clone)]
pub struct BenchConfig {
    /// Users in the scale-1 dataset. The paper's dataset has 57,077 users
    /// and 30 M tuples; the default here (1,000 users, ≈100 K tuples) keeps
    /// every figure laptop-runnable. Override with `--users`.
    pub base_users: usize,
    /// Scale factors to sweep (paper: 1–64; default here 1–8).
    pub scales: Vec<usize>,
    /// Chunk sizes for the Figure 6/7 sweeps (paper: 16K–1M tuples).
    pub chunk_sizes: Vec<usize>,
    /// Measured runs per point (paper: 5).
    pub runs: usize,
}

impl Default for BenchConfig {
    fn default() -> Self {
        BenchConfig {
            base_users: DEFAULT_USERS,
            scales: vec![1, 2, 4, 8],
            chunk_sizes: vec![16 * 1024, 64 * 1024, 256 * 1024, 1024 * 1024],
            runs: 5,
        }
    }
}

impl BenchConfig {
    /// A quick configuration for CI / smoke tests.
    pub fn quick() -> Self {
        BenchConfig {
            base_users: 200,
            scales: vec![1, 2],
            chunk_sizes: vec![4 * 1024, 64 * 1024],
            runs: 2,
        }
    }
}

/// Caches base/scaled/compressed datasets across experiments.
pub struct DatasetCache {
    config: BenchConfig,
    base: Arc<ActivityTable>,
    scaled: HashMap<usize, Arc<ActivityTable>>,
    compressed: HashMap<(usize, usize), Arc<CompressedTable>>,
}

impl DatasetCache {
    /// Build the scale-1 dataset for a configuration.
    pub fn new(config: BenchConfig) -> Self {
        let base = Arc::new(generate(&GeneratorConfig::new(config.base_users)));
        DatasetCache { config, base, scaled: HashMap::new(), compressed: HashMap::new() }
    }

    /// The configuration.
    pub fn config(&self) -> &BenchConfig {
        &self.config
    }

    /// The scale-1 activity table.
    pub fn base(&self) -> Arc<ActivityTable> {
        self.base.clone()
    }

    /// The activity table at a scale factor.
    pub fn at_scale(&mut self, scale: usize) -> Arc<ActivityTable> {
        if scale == 1 {
            return self.base.clone();
        }
        self.scaled.entry(scale).or_insert_with(|| Arc::new(scale_table(&self.base, scale))).clone()
    }

    /// The compressed table at `(scale, chunk_size)`.
    pub fn compressed(&mut self, scale: usize, chunk_size: usize) -> Arc<CompressedTable> {
        if let Some(c) = self.compressed.get(&(scale, chunk_size)) {
            return c.clone();
        }
        let table = self.at_scale(scale);
        let compressed = Arc::new(
            CompressedTable::build(&table, CompressionOptions::with_chunk_size(chunk_size))
                .expect("compression succeeds"),
        );
        self.compressed.insert((scale, chunk_size), compressed.clone());
        compressed
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cache_reuses_instances() {
        let mut c = DatasetCache::new(BenchConfig::quick());
        let a = c.at_scale(2);
        let b = c.at_scale(2);
        assert!(Arc::ptr_eq(&a, &b));
        let x = c.compressed(1, 4096);
        let y = c.compressed(1, 4096);
        assert!(Arc::ptr_eq(&x, &y));
        assert_eq!(a.num_rows(), c.base().num_rows() * 2);
    }

    #[test]
    fn quick_config_is_small() {
        let q = BenchConfig::quick();
        assert!(q.base_users <= 500);
        assert!(q.scales.iter().all(|s| *s <= 4));
    }
}
