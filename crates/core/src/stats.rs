//! Per-query execution statistics.
//!
//! [`QueryStats`] is the query-scoped counterpart of the *table-lifetime*
//! [`SourceIoStats`]. The storage layer counts each I/O event once, on the
//! table's lifetime [`IoRecorder`](cohana_storage::IoRecorder) and on the
//! recorder active on the counting thread; every
//! [`QueryStream`](crate::QueryStream) installs its own recorder on the
//! threads that decode for it (the serial pull, or each parallel worker for
//! its whole lifetime), so each event lands in exactly one query. That
//! makes the I/O fields *exact* even when many queries decode on the same
//! source concurrently — the property the serving layer's per-tenant
//! accounting depends on. The executor adds the
//! purely query-level dimensions the storage layer cannot know: how many
//! chunks the planner's §4.2 metadata pruning skipped, how many the stream
//! actually scanned, and the wall time.

use cohana_storage::SourceIoStats;
use std::fmt;
use std::time::Duration;

/// What one query execution cost, measured at the chunk pipeline.
///
/// All counters are exact, including under source-level concurrency: the
/// I/O fields (`chunks_decoded`, `columns_decoded`, `bytes_read`,
/// `bytes_decompressed`, `cache_evictions`) are credited per event to the
/// query whose thread performed it, not inferred from lifetime-counter
/// deltas. Chunks decoded by parallel workers whose batches were never
/// pulled — early termination — are still attributed to the query that
/// caused them.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct QueryStats {
    /// Chunks the source holds.
    pub chunks_total: usize,
    /// Chunks skipped from index metadata alone (§4.2), with zero I/O.
    pub chunks_pruned: usize,
    /// Chunks whose batch was pulled through the stream.
    pub chunks_scanned: usize,
    /// Rows covered by the scanned chunks' fused per-chunk passes. A chunk
    /// whose per-chunk specialized predicates prove it irrelevant without
    /// touching a row contributes 0, so together with `wall_time` this
    /// yields an honest end-to-end scan rate
    /// ([`QueryStats::rows_per_sec`]).
    pub rows_scanned: u64,
    /// Chunk skeletons decoded from backing storage (0 for resident tables,
    /// and less than `chunks_scanned` when the segment cache hits).
    pub chunks_decoded: usize,
    /// Individual column segments decoded (file-backed sources).
    pub columns_decoded: usize,
    /// Payload bytes read from backing storage (on-disk bytes; compressed
    /// for v4 blobs).
    pub bytes_read: u64,
    /// Bytes those blobs decoded to. Equals `bytes_read` on raw (v3)
    /// sources; the gap is what the v4 codecs saved on the disk path.
    pub bytes_decompressed: u64,
    /// Segment-cache entries evicted while this query ran.
    pub cache_evictions: u64,
    /// Result batches the stream yielded (one per scanned chunk).
    pub batches: usize,
    /// User-block morsels the scanned chunks were walked in: each chunk is
    /// tiled the same way at every parallelism. Skipped chunks contribute 0.
    pub morsels_executed: u64,
    /// Total nanoseconds spent running chunks (fetch, decode and scan),
    /// summed over the threads that ran them. `worker_busy_ns / (workers ×
    /// wall_time)` is the workers' utilization; the gap to 1.0 is time they
    /// spent blocked on the channel or idle.
    pub worker_busy_ns: u64,
    /// Wall-clock time from stream creation to exhaustion (or drop).
    pub wall_time: Duration,
}

impl QueryStats {
    /// Attribute recorded source I/O (an
    /// [`IoRecorder`](cohana_storage::IoRecorder) snapshot) to this query.
    pub(crate) fn add_io(&mut self, delta: &SourceIoStats) {
        self.chunks_decoded += delta.chunks_decoded;
        self.columns_decoded += delta.columns_decoded;
        self.bytes_read += delta.bytes_read;
        self.bytes_decompressed += delta.bytes_decompressed;
        self.cache_evictions += delta.cache_evictions;
    }

    /// End-to-end scan rate: rows covered per wall-clock second (0.0 when
    /// no time was measured).
    pub fn rows_per_sec(&self) -> f64 {
        let secs = self.wall_time.as_secs_f64();
        if secs > 0.0 {
            self.rows_scanned as f64 / secs
        } else {
            0.0
        }
    }

    /// Fold another execution's counters into a cumulative total (used by
    /// [`Statement::cumulative_stats`](crate::Statement::cumulative_stats)).
    pub fn absorb(&mut self, other: &QueryStats) {
        self.chunks_total += other.chunks_total;
        self.chunks_pruned += other.chunks_pruned;
        self.chunks_scanned += other.chunks_scanned;
        self.rows_scanned += other.rows_scanned;
        self.chunks_decoded += other.chunks_decoded;
        self.columns_decoded += other.columns_decoded;
        self.bytes_read += other.bytes_read;
        self.bytes_decompressed += other.bytes_decompressed;
        self.cache_evictions += other.cache_evictions;
        self.batches += other.batches;
        self.morsels_executed += other.morsels_executed;
        self.worker_busy_ns += other.worker_busy_ns;
        self.wall_time += other.wall_time;
    }

    /// Whether every counter of `self` is at least the corresponding counter
    /// of `earlier` — the invariant of a statement's cumulative stats across
    /// re-executions.
    pub fn dominates(&self, earlier: &QueryStats) -> bool {
        self.chunks_total >= earlier.chunks_total
            && self.chunks_pruned >= earlier.chunks_pruned
            && self.chunks_scanned >= earlier.chunks_scanned
            && self.rows_scanned >= earlier.rows_scanned
            && self.chunks_decoded >= earlier.chunks_decoded
            && self.columns_decoded >= earlier.columns_decoded
            && self.bytes_read >= earlier.bytes_read
            && self.bytes_decompressed >= earlier.bytes_decompressed
            && self.cache_evictions >= earlier.cache_evictions
            && self.batches >= earlier.batches
            && self.morsels_executed >= earlier.morsels_executed
            && self.worker_busy_ns >= earlier.worker_busy_ns
            && self.wall_time >= earlier.wall_time
    }
}

impl fmt::Display for QueryStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} of {} chunks scanned ({} pruned), {} rows, {} morsels, {} chunks / {} columns \
             decoded, {} bytes read ({} decoded), {} evictions, {:.2}ms busy, {:.1?} \
             ({:.1}M rows/s)",
            self.chunks_scanned,
            self.chunks_total,
            self.chunks_pruned,
            self.rows_scanned,
            self.morsels_executed,
            self.chunks_decoded,
            self.columns_decoded,
            self.bytes_read,
            self.bytes_decompressed,
            self.cache_evictions,
            self.worker_busy_ns as f64 / 1e6,
            self.wall_time,
            self.rows_per_sec() / 1e6,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> QueryStats {
        QueryStats {
            chunks_total: 4,
            chunks_pruned: 1,
            chunks_scanned: 3,
            rows_scanned: 600,
            chunks_decoded: 3,
            columns_decoded: 9,
            bytes_read: 1024,
            bytes_decompressed: 1536,
            cache_evictions: 2,
            batches: 3,
            morsels_executed: 12,
            worker_busy_ns: 4_000_000,
            wall_time: Duration::from_millis(5),
        }
    }

    #[test]
    fn absorb_sums_and_dominates() {
        let one = sample();
        let mut cum = QueryStats::default();
        cum.absorb(&one);
        assert_eq!(cum, one);
        let first = cum;
        cum.absorb(&one);
        assert_eq!(cum.chunks_scanned, 6);
        assert_eq!(cum.bytes_read, 2048);
        assert!(cum.dominates(&first));
        assert!(!first.dominates(&cum));
        assert!(first.dominates(&first));
    }

    #[test]
    fn display_mentions_chunks_rows_and_bytes() {
        let s = sample().to_string();
        assert!(s.contains("3 of 4 chunks"));
        assert!(s.contains("600 rows"));
        assert!(s.contains("12 morsels"));
        assert!(s.contains("1024 bytes"));
        assert!(s.contains("1536 decoded"));
        assert!(s.contains("4.00ms busy"));
        assert!(s.contains("rows/s"));
    }

    #[test]
    fn rows_per_sec_derives_from_rows_and_wall_time() {
        let s = sample();
        assert_eq!(s.rows_per_sec(), 600.0 / 0.005);
        assert_eq!(QueryStats::default().rows_per_sec(), 0.0);
    }
}
