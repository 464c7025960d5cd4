//! Regression test for exact per-query I/O attribution under source-level
//! concurrency.
//!
//! The serving layer's per-tenant accounting sums each query's
//! `QueryStats` I/O fields. Every storage event is counted once, on the
//! table's lifetime `IoRecorder` and on the query recorder active on the
//! counting thread, so two sessions decoding on the same source
//! concurrently never swallow each other's bytes: the sum of per-query
//! counters must *equal* what a freshly opened source reports through
//! `io_stats()`, not merely bound it. Checked on a flat file and on a
//! 4-shard table, whose shards share one lifetime recorder.

use cohana_activity::{generate, GeneratorConfig};
use cohana_core::{paper, PlannerOptions, QueryStats, Statement};
use cohana_storage::shard::create_sharded;
use cohana_storage::{
    persist, ChunkSource, CompressedTable, CompressionOptions, FileSource, ShardedSource,
};
use std::sync::{Arc, Barrier};

#[test]
fn concurrent_queries_on_one_source_do_not_double_count_io() {
    let table = generate(&GeneratorConfig::small());
    let options = CompressionOptions::with_chunk_size(256);
    let memory = CompressedTable::build(&table, options).unwrap();
    let path = std::env::temp_dir().join("cohana-io-attribution-test.cohana");
    persist::write_file(&memory, &path).unwrap();
    let dir = std::env::temp_dir().join("cohana-io-attribution-test-shards");
    std::fs::remove_dir_all(&dir).ok();
    create_sharded(&dir, &table, 4, options).unwrap();

    // Zero cache budget: nothing is ever served from cache, so every
    // execution does real I/O and the threads genuinely interleave on the
    // source.
    let flat: Arc<dyn ChunkSource> = Arc::new(FileSource::open_with_budget(&path, 0).unwrap());
    let sharded = ShardedSource::open_with_budget(&dir, 0).unwrap();
    assert_eq!(sharded.num_shards(), 4);
    let sharded: Arc<dyn ChunkSource> = Arc::new(sharded);

    for (name, source) in [("flat", flat), ("4-shard", sharded)] {
        let per_query = run_concurrently(&source);
        let total = source.io_stats();
        for (i, stats) in per_query.iter().enumerate() {
            assert!(stats.bytes_read > 0, "{name} thread {i} did no I/O — test is vacuous");
            assert!(stats.chunks_decoded > 0, "{name} thread {i} decoded no chunks");
        }
        assert_eq!(
            per_query.iter().map(|s| s.bytes_read).sum::<u64>(),
            total.bytes_read,
            "{name}: per-query bytes_read must partition the source's lifetime total exactly"
        );
        assert_eq!(
            per_query.iter().map(|s| s.bytes_decompressed).sum::<u64>(),
            total.bytes_decompressed,
            "{name}: per-query bytes_decompressed must partition the lifetime total exactly"
        );
        assert_eq!(
            per_query.iter().map(|s| s.chunks_decoded).sum::<usize>(),
            total.chunks_decoded,
            "{name}: per-query chunks_decoded must partition the lifetime total exactly"
        );
        assert_eq!(
            per_query.iter().map(|s| s.columns_decoded).sum::<usize>(),
            total.columns_decoded,
            "{name}: per-query columns_decoded must partition the lifetime total exactly"
        );
        assert_eq!(
            per_query.iter().map(|s| s.cache_evictions).sum::<u64>(),
            total.cache_evictions,
            "{name}: per-query cache_evictions must partition the lifetime total exactly"
        );
    }

    std::fs::remove_file(&path).ok();
    std::fs::remove_dir_all(&dir).ok();
}

/// Four threads, released together, each running Q1 three times on
/// `source`, half of them serially and half on parallel workers; returns
/// each thread's summed stats.
fn run_concurrently(source: &Arc<dyn ChunkSource>) -> Vec<QueryStats> {
    let threads = 4;
    let rounds = 3;
    let barrier = Arc::new(Barrier::new(threads));
    let handles: Vec<_> = (0..threads)
        .map(|t| {
            let (source, barrier) = (source.clone(), barrier.clone());
            std::thread::spawn(move || {
                // Mix serial pulls and parallel worker executions.
                let parallelism = if t % 2 == 0 { 1 } else { 3 };
                let stmt =
                    Statement::over(source, &paper::q1(), PlannerOptions::default(), parallelism)
                        .unwrap();
                barrier.wait();
                let mut total = QueryStats::default();
                for _ in 0..rounds {
                    let report = stmt.execute().unwrap();
                    total.absorb(&report.stats.unwrap());
                }
                total
            })
        })
        .collect();
    handles.into_iter().map(|h| h.join().unwrap()).collect()
}
