//! One counter set for a table's file I/O.
//!
//! An [`IoRecorder`] holds every I/O counter the storage layer keeps: chunks
//! and column segments decoded, bytes read and the bytes they decoded to,
//! per-codec decode time, and segment-cache evictions. A file-backed table
//! keeps one *lifetime* recorder next to its segment cache, shared by all
//! its shards as the cache is, and a [`FileSource`](crate::FileSource)
//! counts each event by one call, `IoRecorder::count`, on it. That call
//! also credits the same increment to the thread's *active recorder* (a
//! thread-local installed with [`with_recorder`]), so every increment lands
//! in the table's lifetime total and in exactly one query's recorder, no
//! matter how executions interleave. Nothing is attributed by subtracting
//! lifetime snapshots, which over-counts when two queries decode on one
//! source concurrently.
//!
//! The executor installs one recorder per query stream: around each serial
//! chunk run, and for the whole lifetime of each parallel worker thread.
//! Threads with no active recorder (e.g. a cache-warming scan done outside
//! any query) credit only the lifetime recorder.

use crate::source::{CodecDecode, SourceIoStats};
use std::cell::RefCell;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

/// Monotone I/O counters: a table's lifetime total, or one query's share of
/// it while the recorder is installed on the decoding threads (see
/// [`with_recorder`]). Shared across threads via `Arc`; all counters are
/// atomic, so [`IoRecorder::snapshot`] can race with live decodes.
#[derive(Debug, Default)]
pub struct IoRecorder {
    chunks_decoded: AtomicUsize,
    columns_decoded: AtomicUsize,
    bytes_read: AtomicU64,
    /// Per-codec decoded bytes and decode nanoseconds, indexed by codec tag.
    /// `bytes_decompressed` is their byte sum.
    decode_bytes: [AtomicU64; 3],
    decode_nanos: [AtomicU64; 3],
    cache_evictions: AtomicU64,
}

impl IoRecorder {
    /// A fresh all-zero recorder.
    pub fn new() -> IoRecorder {
        IoRecorder::default()
    }

    /// The I/O counted so far. The gauge fields (`cache_resident_bytes`,
    /// `cache_budget_bytes`) describe a cache, not a count, and stay zero.
    pub fn snapshot(&self) -> SourceIoStats {
        let decode: [CodecDecode; 3] = std::array::from_fn(|i| CodecDecode {
            bytes_out: self.decode_bytes[i].load(Ordering::Relaxed),
            nanos: self.decode_nanos[i].load(Ordering::Relaxed),
        });
        SourceIoStats {
            chunks_decoded: self.chunks_decoded.load(Ordering::Relaxed),
            columns_decoded: self.columns_decoded.load(Ordering::Relaxed),
            bytes_read: self.bytes_read.load(Ordering::Relaxed),
            bytes_decompressed: decode.iter().map(|d| d.bytes_out).sum(),
            decode,
            cache_evictions: self.cache_evictions.load(Ordering::Relaxed),
            cache_resident_bytes: 0,
            cache_budget_bytes: 0,
        }
    }

    /// Count one event: apply `bump` to this recorder (a table's lifetime
    /// counters) and to the thread's active query recorder, if one is
    /// installed.
    pub(crate) fn count(&self, bump: impl Fn(&IoRecorder)) {
        bump(self);
        ACTIVE.with(|slot| {
            if let Some(active) = slot.borrow().as_deref() {
                bump(active);
            }
        });
    }

    pub(crate) fn add_chunks_decoded(&self, n: usize) {
        self.chunks_decoded.fetch_add(n, Ordering::Relaxed);
    }

    pub(crate) fn add_columns_decoded(&self, n: usize) {
        self.columns_decoded.fetch_add(n, Ordering::Relaxed);
    }

    pub(crate) fn add_bytes_read(&self, n: u64) {
        self.bytes_read.fetch_add(n, Ordering::Relaxed);
    }

    /// One blob of codec `tag` decoded to `bytes_out` raw bytes (its v3
    /// size, counted in `bytes_decompressed`) in `nanos`.
    pub(crate) fn add_decode(&self, tag: usize, bytes_out: u64, nanos: u64) {
        self.decode_bytes[tag].fetch_add(bytes_out, Ordering::Relaxed);
        self.decode_nanos[tag].fetch_add(nanos, Ordering::Relaxed);
    }

    pub(crate) fn add_cache_evictions(&self, n: u64) {
        self.cache_evictions.fetch_add(n, Ordering::Relaxed);
    }
}

thread_local! {
    static ACTIVE: RefCell<Option<Arc<IoRecorder>>> = const { RefCell::new(None) };
}

/// Run `f` with `recorder` installed as this thread's active recorder,
/// restoring whatever was active before (recorder scopes nest). Every
/// storage event counted on this thread inside `f` — including by code that
/// has never heard of recorders — is credited to `recorder`.
pub fn with_recorder<T>(recorder: &Arc<IoRecorder>, f: impl FnOnce() -> T) -> T {
    struct Restore(Option<Arc<IoRecorder>>);
    impl Drop for Restore {
        fn drop(&mut self) {
            ACTIVE.with(|slot| *slot.borrow_mut() = self.0.take());
        }
    }
    let previous = ACTIVE.with(|slot| slot.borrow_mut().replace(recorder.clone()));
    let _restore = Restore(previous);
    f()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn credits_only_inside_scope() {
        let lifetime = IoRecorder::new();
        let rec = Arc::new(IoRecorder::new());
        lifetime.count(|r| r.add_bytes_read(7)); // no recorder installed
        with_recorder(&rec, || {
            lifetime.count(|r| r.add_bytes_read(5));
            lifetime.count(|r| r.add_chunks_decoded(1));
            lifetime.count(|r| r.add_decode(2, 40, 9));
        });
        lifetime.count(|r| r.add_bytes_read(100)); // scope ended
        let snap = rec.snapshot();
        assert_eq!(snap.bytes_read, 5);
        assert_eq!(snap.chunks_decoded, 1);
        assert_eq!(snap.decode[2], CodecDecode { bytes_out: 40, nanos: 9 });
        assert_eq!(snap.bytes_decompressed, 40);
        assert_eq!(snap.cache_evictions, 0);
        // The lifetime recorder counts every event, inside a scope or not.
        let total = lifetime.snapshot();
        assert_eq!(total.bytes_read, 112);
        assert_eq!(total.chunks_decoded, 1);
        assert_eq!(total.decode, snap.decode);
    }

    #[test]
    fn scopes_nest_and_restore() {
        let lifetime = IoRecorder::new();
        let outer = Arc::new(IoRecorder::new());
        let inner = Arc::new(IoRecorder::new());
        with_recorder(&outer, || {
            lifetime.count(|r| r.add_columns_decoded(1));
            with_recorder(&inner, || lifetime.count(|r| r.add_columns_decoded(10)));
            lifetime.count(|r| r.add_columns_decoded(2));
        });
        assert_eq!(outer.snapshot().columns_decoded, 3);
        assert_eq!(inner.snapshot().columns_decoded, 10);
        assert_eq!(lifetime.snapshot().columns_decoded, 13);
    }

    #[test]
    fn recorders_are_per_thread() {
        let lifetime = Arc::new(IoRecorder::new());
        let rec = Arc::new(IoRecorder::new());
        with_recorder(&rec, || {
            // A thread spawned inside the scope does NOT inherit it.
            let spawned = lifetime.clone();
            std::thread::spawn(move || spawned.count(|r| r.add_bytes_read(999))).join().unwrap();
            lifetime.count(|r| r.add_bytes_read(1));
        });
        assert_eq!(rec.snapshot().bytes_read, 1);
        assert_eq!(lifetime.snapshot().bytes_read, 1000);
    }
}
