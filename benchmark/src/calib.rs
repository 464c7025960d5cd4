//! Machine ceilings and a noise sentinel, measured in the same run as the
//! workload so layer figures can be read against them.
//!
//! Reads here and in the workloads are page-cache-warm (the files were just
//! written), and the engine `fsync`s nothing today, so `seq_read_mbps` is
//! the sandbox's memory-backed figure, not a device's.

use crate::stats::median;
use std::hint::black_box;
use std::io::Read;
use std::path::Path;
use std::time::Instant;

const MEMCPY_BYTES: usize = 64 << 20;
const SPIN_STEPS: u64 = 10_000_000;
const REPEATS: usize = 5;

/// Median wall time of a fixed integer loop, in milliseconds. Taken before
/// and after a workload: the loop's work never changes, so a difference is
/// the machine, not the program.
pub fn spin_ms() -> f64 {
    let samples: Vec<f64> = (0..REPEATS)
        .map(|_| {
            let t = Instant::now();
            let mut x = black_box(0x9E37_79B9_7F4A_7C15u64);
            for i in 0..SPIN_STEPS {
                x = (x ^ i).wrapping_mul(0x0100_0000_01B3).rotate_left(7);
            }
            black_box(x);
            t.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    median(&samples)
}

/// Relative difference between two spin readings.
pub fn drift(before: f64, after: f64) -> f64 {
    (after - before).abs() / before.min(after)
}

/// Median bandwidth of copying a buffer far larger than the caches, in GB/s
/// of bytes copied.
pub fn memcpy_gbps() -> f64 {
    let src = vec![1u8; MEMCPY_BYTES];
    let mut dst = vec![0u8; MEMCPY_BYTES];
    let samples: Vec<f64> = (0..REPEATS)
        .map(|_| {
            let t = Instant::now();
            dst.copy_from_slice(black_box(&src));
            black_box(&mut dst);
            MEMCPY_BYTES as f64 / t.elapsed().as_secs_f64() / 1e9
        })
        .collect();
    median(&samples)
}

/// Median bandwidth of re-reading every regular file under `path` (a table
/// file or a shard directory) front to back, in MB/s.
pub fn seq_read_mbps(path: &Path) -> std::io::Result<f64> {
    let files: Vec<_> = if path.is_dir() {
        let mut files = Vec::new();
        for entry in std::fs::read_dir(path)? {
            let entry = entry?;
            if entry.file_type()?.is_file() {
                files.push(entry.path());
            }
        }
        files.sort();
        files
    } else {
        vec![path.to_path_buf()]
    };
    let mut buf = vec![0u8; 1 << 20];
    let mut samples = Vec::with_capacity(REPEATS);
    for _ in 0..REPEATS {
        let t = Instant::now();
        let mut bytes = 0usize;
        for file in &files {
            let mut f = std::fs::File::open(file)?;
            loop {
                let n = f.read(&mut buf)?;
                if n == 0 {
                    break;
                }
                bytes += n;
                black_box(&buf[..n]);
            }
        }
        samples.push(bytes as f64 / t.elapsed().as_secs_f64() / 1e6);
    }
    Ok(median(&samples))
}

/// Peak resident set of this process so far (`VmHWM`), in MB; 0 where
/// `/proc` does not say.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}
