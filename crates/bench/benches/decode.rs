//! Decode throughput of the v4 per-blob codecs, measured on the packed
//! column sections of the default-generator dataset.
//!
//! Every non-user column of every chunk is block-decoded back to values,
//! then assigned to the codec the v4 writer would select for it (smallest
//! encoding, raw on ties) — so each group times a codec on the sections
//! real files actually store under it, not on columns it would never win.
//! Each selected section is encoded in both stream layouts: the legacy
//! single-state rANS stream and the 4-way interleaved one the encoder now
//! emits for large sections. The timed groups decode those sections
//! through `decode_section_into` (the scratch path — no `BitPacked`
//! repack), with `Throughput::Bytes` set to the sections' *decoded* size,
//! so the report's `bytes_per_sec` is decoded-bytes-out per second:
//!
//! - `decode/delta`, `decode/ans`: the interleaved layout (what new files
//!   contain).
//! - `decode/delta_single`, `decode/ans_single`: the pre-interleaving
//!   layout (what old files contain) — the baseline the interleaving win
//!   is measured against.
//! - `decode/raw`: the v3 path (header parse + one `unpack_range` sweep)
//!   over every section, the ceiling no entropy codec can beat.
//!
//! After the timed groups it appends one `decode/speedup` JSON line with
//! directly-timed interleaved-over-single ratios per codec (stable even
//! in smoke mode, where criterion runs a single iteration); CI asserts
//! the line and its floor.
//!
//! Last come three `decode/column_fetch/<codec>` lines: what a lazy column
//! fetch pays per blob, end to end — footer record and blob bytes in,
//! range-proved `ChunkColumn` (packed words, codes checked against the
//! blob's own dictionary or range) out — over the blobs a v4 file of the
//! same table actually stores under each codec, as `persist::inspect` times
//! them (best of a few walks). The entropy loop above is one part of that;
//! packing and the bounds proof ride in the same loop, and this is the line
//! that shows it if a second pass over the values ever comes back.
//!
//! Full mode uses a ~560K-row table; smoke mode (`COHANA_BENCH_SMOKE=1`,
//! CI) shrinks it to a bit-rot check.

use cohana_activity::{generate, GeneratorConfig};
use cohana_storage::{
    codec::{decode_section_into, encode_section, raw_section_len},
    persist, Codec, CompressedTable, CompressionOptions,
};
use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use std::time::Instant;

/// One encoded section plus what its decoder must be told.
struct Section {
    bytes: Vec<u8>,
    expected_raw: u64,
    expected_len: u64,
    /// Decoded output size — `width u8 | len u64 | words…`, the same
    /// "bytes the blob decodes to" unit the io-stats layer counts.
    raw_bytes: u64,
}

/// Encode every column's values with `codec` in the given stream layout.
fn encode_all(columns: &[&(Vec<u64>, u8)], codec: Codec, ways: usize) -> Vec<Section> {
    columns
        .iter()
        .filter_map(|(values, width)| {
            let bytes = encode_section(values, *width, codec, ways)?;
            let raw = raw_section_len(*width, values.len() as u64);
            Some(Section {
                bytes,
                expected_raw: raw,
                expected_len: values.len() as u64,
                raw_bytes: raw,
            })
        })
        .collect()
}

/// The codec the v4 writer would store this column under: smallest
/// encoding wins, earlier codec on ties — the same rule as
/// `codec::encode_array`, with each entropy codec in its auto-selected
/// (interleaved) layout.
fn selected_codec(values: &[u64], width: u8) -> Codec {
    let mut best = (Codec::Raw, raw_section_len(width, values.len() as u64) as usize);
    for codec in [Codec::Delta, Codec::Ans] {
        if let Some(bytes) = encode_section(values, width, codec, 4) {
            if bytes.len() < best.1 {
                best = (codec, bytes.len());
            }
        }
    }
    best.0
}

/// Decode every section once into the shared scratch vector.
fn decode_all(codec: Codec, sections: &[Section], scratch: &mut Vec<u64>) -> u64 {
    let mut sink = 0u64;
    for s in sections {
        decode_section_into(codec, &s.bytes, s.expected_raw, Some(s.expected_len), scratch)
            .expect("bench sections decode");
        sink = sink.wrapping_add(scratch.last().copied().unwrap_or(0));
    }
    sink
}

/// Directly-timed decoded-bytes/s over a few repetitions (best-of), for
/// the speedup line: criterion's smoke mode runs one iteration, too noisy
/// to assert a ratio on.
fn measure_mbps(codec: Codec, sections: &[Section], total: u64) -> f64 {
    let mut scratch = Vec::new();
    let reps = if std::env::var_os("COHANA_BENCH_SMOKE").is_some() { 3 } else { 10 };
    let mut best = f64::MAX;
    for _ in 0..reps {
        let start = Instant::now();
        std::hint::black_box(decode_all(codec, sections, &mut scratch));
        best = best.min(start.elapsed().as_secs_f64());
    }
    total as f64 / best / 1e6
}

fn bench_decode(c: &mut Criterion) {
    let smoke = std::env::var_os("COHANA_BENCH_SMOKE").is_some();
    let users = if smoke { 200 } else { 6_000 };
    let table = generate(&GeneratorConfig::new(users));
    let compressed =
        CompressedTable::build(&table, CompressionOptions::with_chunk_size(16 * 1024)).unwrap();
    let schema = compressed.schema().clone();

    // Block-decode every non-user column of every chunk back to plain
    // values — the arrays the codecs actually see at write time.
    let mut columns: Vec<(Vec<u64>, u8)> = Vec::new();
    for chunk in compressed.chunks() {
        for (attr, col) in chunk.columns().iter().enumerate() {
            let Some(col) = col else { continue };
            if attr == schema.user_idx() {
                continue;
            }
            let packed = col.packed();
            let mut values = vec![0u64; packed.len()];
            packed.unpack_range(0, packed.len(), &mut values);
            columns.push((values, packed.width()));
        }
    }

    let all: Vec<&(Vec<u64>, u8)> = columns.iter().collect();
    let delta_cols: Vec<&(Vec<u64>, u8)> =
        all.iter().copied().filter(|(v, w)| selected_codec(v, *w) == Codec::Delta).collect();
    let ans_cols: Vec<&(Vec<u64>, u8)> =
        all.iter().copied().filter(|(v, w)| selected_codec(v, *w) == Codec::Ans).collect();

    let cases: Vec<(&str, Codec, Vec<Section>)> = vec![
        ("delta", Codec::Delta, encode_all(&delta_cols, Codec::Delta, 4)),
        ("delta_single", Codec::Delta, encode_all(&delta_cols, Codec::Delta, 1)),
        ("ans", Codec::Ans, encode_all(&ans_cols, Codec::Ans, 4)),
        ("ans_single", Codec::Ans, encode_all(&ans_cols, Codec::Ans, 1)),
        ("raw", Codec::Raw, encode_all(&all, Codec::Raw, 1)),
    ];

    let mut g = c.benchmark_group("decode");
    let mut scratch = Vec::new();
    for (name, codec, sections) in &cases {
        let total: u64 = sections.iter().map(|s| s.raw_bytes).sum();
        eprintln!(
            "# decode/{name}: {} sections, {} encoded bytes, {total} decoded bytes",
            sections.len(),
            sections.iter().map(|s| s.bytes.len()).sum::<usize>()
        );
        g.throughput(Throughput::Bytes(total));
        g.bench_function(*name, |b| {
            b.iter(|| std::hint::black_box(decode_all(*codec, sections, &mut scratch)))
        });
    }
    g.finish();

    // The interleaving win, timed directly so the ratio holds still even
    // under smoke mode's single criterion iteration.
    let mut speedups = Vec::new();
    for (multi, single, codec) in
        [("delta", "delta_single", Codec::Delta), ("ans", "ans_single", Codec::Ans)]
    {
        let m = cases.iter().find(|c| c.0 == multi).unwrap();
        let s = cases.iter().find(|c| c.0 == single).unwrap();
        let total: u64 = m.2.iter().map(|x| x.raw_bytes).sum();
        let m_mbps = measure_mbps(codec, &m.2, total);
        let s_mbps = measure_mbps(codec, &s.2, total);
        let ratio = m_mbps / s_mbps.max(f64::MIN_POSITIVE);
        eprintln!(
            "# decode/speedup {}: interleaved {m_mbps:.0} MB/s vs single-state {s_mbps:.0} MB/s \
             ({ratio:.2}x)",
            codec.name()
        );
        speedups.push(format!(
            "\"{}_mbps\": {m_mbps:.1}, \"{}_single_mbps\": {s_mbps:.1}, \
             \"{}_speedup\": {ratio:.3}",
            codec.name(),
            codec.name(),
            codec.name()
        ));
    }
    record_line(&format!("{{\"bench\": \"decode/speedup\", {}}}", speedups.join(", ")));

    record_column_fetch(&compressed, smoke);
}

/// Write the table as a v4 file and report, per codec, the cost of turning
/// its blobs into validated columns (see the module docs).
fn record_column_fetch(compressed: &CompressedTable, smoke: bool) {
    let dir = std::env::temp_dir().join("cohana-bench-decode");
    std::fs::create_dir_all(&dir).expect("create temp dir");
    let path = dir.join(format!("column-fetch-{}.cohana", std::process::id()));
    persist::write_file(compressed, &path).expect("write v4 file");
    let walks = if smoke { 3 } else { 10 };
    let mut best = persist::inspect(&path).expect("inspect v4 file").codecs;
    for _ in 1..walks {
        let again = persist::inspect(&path).expect("inspect v4 file").codecs;
        for (b, a) in best.iter_mut().zip(again) {
            b.decode_nanos = b.decode_nanos.min(a.decode_nanos);
        }
    }
    std::fs::remove_file(&path).ok();
    for (tag, stats) in best.iter().enumerate() {
        let name = Codec::from_tag(tag as u8).expect("codec tag").name();
        let bytes_per_sec = stats.decode_mbps() * 1e6;
        eprintln!(
            "# decode/column_fetch/{name}: {} blobs, {} decoded bytes, {:.0} MB/s",
            stats.blobs,
            stats.uncompressed_bytes,
            bytes_per_sec / 1e6
        );
        record_line(&format!(
            "{{\"bench\": \"decode/column_fetch/{name}\", \"blobs\": {}, \
             \"uncompressed_bytes\": {}, \"decode_ns\": {}, \"bytes_per_sec\": {bytes_per_sec:.1}}}",
            stats.blobs, stats.uncompressed_bytes, stats.decode_nanos
        ));
    }
}

/// Append one extra JSON line to the same report file the criterion shim
/// writes (bench binaries run sequentially, so appending is race-free).
fn record_line(line: &str) {
    let Some(path) = std::env::var_os("COHANA_BENCH_REPORT") else { return };
    if let Ok(mut f) =
        std::fs::OpenOptions::new().create(true).append(true).open(std::path::Path::new(&path))
    {
        use std::io::Write;
        let _ = writeln!(f, "{line}");
    }
}

criterion_group!(benches, bench_decode);
criterion_main!(benches);
