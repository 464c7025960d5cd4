//! The per-value bound is enforced where a column is decoded: hand-crafted
//! blobs whose codes leave their own header's range must be refused by every
//! read path, and hostile bytes through the same entry point must neither
//! panic nor allocate out of proportion.

use super::*;
use crate::bitpack::bits_for;
use crate::source::{ChunkSource, FileSource};
use crate::test_alloc;
use cohana_activity::{generate, GeneratorConfig};

/// 16 Ki-row chunks: large enough that every entropy-coded crafted blob
/// below stays strictly smaller than its raw form, which the v4 footer
/// requires of any non-raw blob.
fn table() -> CompressedTable {
    let t = generate(&GeneratorConfig::new(200));
    CompressedTable::build(&t, CompressionOptions::with_chunk_size(16 * 1024)).unwrap()
}

fn attr_named(table: &CompressedTable, name: &str) -> usize {
    table.schema().attributes().iter().position(|a| a.name == name).expect("attribute exists")
}

/// Bytes of a column blob's raw head: the tag, then the chunk dictionary or
/// the integer range.
fn header_len(col: &ChunkColumn) -> usize {
    match col {
        ChunkColumn::Str { dict, .. } => 5 + 4 * dict.len(),
        ChunkColumn::Int { .. } => 17,
    }
}

/// How a crafted section is stored.
#[derive(Debug, Clone, Copy)]
enum Section {
    Coded(Codec),
    /// ANS whose table also lists this symbol, which no value equals.
    AnsListingUnused(u16),
}

/// A column blob for chunk 0's `attr` carrying `values` instead of the
/// column's own codes, under the column's real header: `(blob, codec,
/// uncompressed)` as the footer must record them.
fn crafted_blob(
    table: &CompressedTable,
    attr: usize,
    values: &[u64],
    section: Section,
) -> (Vec<u8>, Codec, u64) {
    let col = table.chunks()[0].column_required(attr);
    // The column's real header is the head of its blob.
    let header_len = header_len(col);
    let mut written = Vec::new();
    write_column_blob_v4(&mut written, col, &mut SectionEncoder::default());
    let mut blob = written[..header_len].to_vec();
    let listed = match section {
        Section::AnsListingUnused(sym) => sym as u64,
        Section::Coded(_) => 0,
    };
    let top = values.iter().copied().max().unwrap_or(0).max(listed);
    let width = bits_for(top).max(col.packed().width());
    let (codec, bytes) = match section {
        Section::Coded(codec) => (
            codec,
            codec::encode_section(values, width, codec, 4).expect("codec applies to the column"),
        ),
        Section::AnsListingUnused(sym) => {
            (Codec::Ans, codec::encode_ans_listing_unused(values, width, 4, sym))
        }
    };
    blob.extend_from_slice(&bytes);
    let uncompressed = header_len as u64 + codec::raw_section_len(width, values.len() as u64);
    if codec != Codec::Raw {
        assert!((blob.len() as u64) < uncompressed, "crafted {codec:?} blob must beat raw");
    }
    (blob, codec, uncompressed)
}

/// `table` serialized with chunk 0's `attr` blob swapped for a crafted one;
/// every other byte, and the whole footer apart from that blob's record, is
/// what the writer produces.
fn image_with_blob(
    table: &CompressedTable,
    attr: usize,
    (blob, codec, uncompressed): (Vec<u8>, Codec, u64),
) -> Vec<u8> {
    let schema = table.schema();
    let mut head = Vec::new();
    head.u32(MAGIC);
    head.u32(VERSION);
    let mut layouts = write_blobs(&mut head, &table.chunks()[..1], schema, 0);
    let old = layouts[0].cols[attr];
    let mut bytes = head[..old.offset as usize].to_vec();
    bytes.extend_from_slice(&blob);
    bytes.extend_from_slice(&head[(old.offset + old.len) as usize..]);
    layouts[0].cols[attr] =
        BlobLoc { offset: old.offset, len: blob.len() as u64, codec, uncompressed };
    for loc in &mut layouts[0].cols[attr + 1..] {
        if loc.len > 0 {
            loc.offset = loc.offset - old.len + blob.len() as u64;
        }
    }
    let mut rest = Vec::new();
    layouts.extend(write_blobs(&mut rest, &table.chunks()[1..], schema, bytes.len() as u64));
    bytes.extend_from_slice(&rest);
    let footer_at = bytes.len();
    write_footer(&mut bytes, table.table_meta(), &layouts, table.index_entries(), &[], &[]);
    write_tail(&mut bytes, footer_at);
    bytes
}

/// What the three read paths make of chunk 0's `attr`: the lazy projected
/// fetch, the lazy whole-chunk fetch and the eager load.
fn read_paths(bytes: &[u8], attr: usize, tag: &str) -> [Result<()>; 3] {
    let dir = std::env::temp_dir().join("cohana-range-tests");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join(format!("{tag}-{}.cohana", std::process::id()));
    std::fs::write(&path, bytes).unwrap();
    let projected =
        FileSource::open(&path).and_then(|src| src.chunk_columns(0, &[attr]).map(|_| ()));
    let whole = FileSource::open(&path).and_then(|src| src.chunk(0).map(|_| ()));
    let eager = read_file(&path).map(|_| ());
    std::fs::remove_file(&path).ok();
    [projected, whole, eager]
}

fn assert_all_refuse(bytes: &[u8], attr: usize, what: &str, tag: &str) {
    for (path, outcome) in
        ["projected", "whole-chunk", "eager"].iter().zip(read_paths(bytes, attr, tag))
    {
        match outcome {
            Err(StorageError::Corrupt(msg)) => {
                let named = msg.contains("chunk 0") && msg.contains(&format!("column {attr}"));
                assert!(named && msg.contains(what), "{tag}, {path}: weak message: {msg}");
            }
            other => panic!("{tag}, {path}: expected Corrupt, got {other:?}"),
        }
    }
}

/// The column's own codes with the middle one replaced.
fn codes_with(table: &CompressedTable, attr: usize, bad: u64) -> Vec<u64> {
    let mut values = table.chunks()[0].column_required(attr).packed().to_vec();
    let mid = values.len() / 2;
    values[mid] = bad;
    values
}

#[test]
fn str_code_equal_to_dict_len_is_refused_on_every_path() {
    let t = table();
    // `action` is what real files store under ANS, `country` under delta.
    for (name, codec) in [("action", Codec::Raw), ("country", Codec::Delta), ("action", Codec::Ans)]
    {
        let attr = attr_named(&t, name);
        let dict_len = t.chunks()[0].column_required(attr).dict().unwrap().len() as u64;
        let tag = format!("str-{}", codec.name());
        // One past the last valid code is refused ...
        let blob = crafted_blob(&t, attr, &codes_with(&t, attr, dict_len), Section::Coded(codec));
        assert_all_refuse(&image_with_blob(&t, attr, blob), attr, "code out of range", &tag);
        // ... the last valid code, through the same crafting, is not.
        let blob =
            crafted_blob(&t, attr, &codes_with(&t, attr, dict_len - 1), Section::Coded(codec));
        for outcome in read_paths(&image_with_blob(&t, attr, blob), attr, &tag) {
            outcome.unwrap_or_else(|e| panic!("{tag}: in-range code refused: {e}"));
        }
    }
}

#[test]
fn int_delta_past_the_chunk_range_is_refused_on_every_path() {
    let t = table();
    // `time` is what real files store under delta, `gold` under ANS.
    for (name, codec) in [("gold", Codec::Raw), ("time", Codec::Delta), ("gold", Codec::Ans)] {
        let attr = attr_named(&t, name);
        let (min, max) = t.chunks()[0].column_required(attr).int_range().unwrap();
        let span = (max - min) as u64;
        let tag = format!("int-{}", codec.name());
        let blob = crafted_blob(&t, attr, &codes_with(&t, attr, span + 1), Section::Coded(codec));
        assert_all_refuse(&image_with_blob(&t, attr, blob), attr, "delta out of range", &tag);
        let blob = crafted_blob(&t, attr, &codes_with(&t, attr, span), Section::Coded(codec));
        for outcome in read_paths(&image_with_blob(&t, attr, blob), attr, &tag) {
            outcome.unwrap_or_else(|e| panic!("{tag}: in-range delta refused: {e}"));
        }
    }
}

#[test]
fn ans_symbol_listed_but_never_produced_is_accepted_on_every_path() {
    // The bound is on values produced: a table entry past the dictionary
    // that the stream never decodes to constrains nothing.
    let t = table();
    for (name, tag) in [("action", "ans-unused-str"), ("gold", "ans-unused-int")] {
        let attr = attr_named(&t, name);
        let col = t.chunks()[0].column_required(attr);
        let limit = match col {
            ChunkColumn::Str { dict, .. } => dict.len() as u64,
            ChunkColumn::Int { min, max, .. } => (max - min) as u64 + 1,
        };
        let values = col.packed().to_vec();
        let section = Section::AnsListingUnused(limit as u16 + 3);
        let bytes = image_with_blob(&t, attr, crafted_blob(&t, attr, &values, section));
        for outcome in read_paths(&bytes, attr, tag) {
            outcome.unwrap_or_else(|e| panic!("{tag}: unused table symbol refused: {e}"));
        }
        // And the same values come back.
        let back = from_bytes(&bytes).unwrap();
        assert_eq!(back.chunks()[0].column_required(attr).packed().to_vec(), values);
    }
}

#[test]
fn v4_image_bytes_are_pinned() {
    // The read path changed, the writer must not have: these are the
    // length and FNV-1a hash of the same images written before the
    // decoders learned to pack (`disk_bytes_per_row` is exact).
    fn fnv1a(bytes: &[u8]) -> u64 {
        bytes
            .iter()
            .fold(0xcbf2_9ce4_8422_2325, |h, &b| (h ^ b as u64).wrapping_mul(0x100_0000_01b3))
    }
    let large = to_bytes(&table());
    assert_eq!((large.len(), fnv1a(&large)), PINNED_LARGE);
    let small = generate(&GeneratorConfig::small());
    let small = CompressedTable::build(&small, CompressionOptions::with_chunk_size(256)).unwrap();
    let small = to_bytes(&small);
    assert_eq!((small.len(), fnv1a(&small)), PINNED_SMALL);
}

const PINNED_LARGE: (usize, u64) = (101_255, 9_977_741_581_841_170_640);
const PINNED_SMALL: (usize, u64) = (57_868, 14_100_017_372_010_422_421);

/// Length and FNV-1a hash of an image.
fn pin(bytes: &[u8]) -> (usize, u64) {
    let hash = bytes
        .iter()
        .fold(0xcbf2_9ce4_8422_2325, |h, &b| (h ^ b as u64).wrapping_mul(0x100_0000_01b3));
    (bytes.len(), hash)
}

/// The repo benchmark's table: 6 000 users at seed 7, 64 Ki-row chunks.
fn benchmark_shape() -> (ActivityTable, CompressionOptions) {
    let rows = generate(&GeneratorConfig { seed: 7, ..GeneratorConfig::new(6000) });
    (rows, CompressionOptions::with_chunk_size(64 * 1024))
}

/// The benchmark's ingest split: the rows of the first `head_share` of time,
/// then `batches` equal later time slices, each in primary-key order.
fn split_by_time(
    table: &ActivityTable,
    head_share: f64,
    batches: usize,
) -> (ActivityTable, Vec<ActivityTable>) {
    let tidx = table.schema().time_idx();
    let mut order: Vec<usize> = (0..table.num_rows()).collect();
    order.sort_by_key(|&r| table.rows()[r].get(tidx).as_int().expect("time is an int"));
    let (head, tail) = order.split_at((table.num_rows() as f64 * head_share) as usize);
    let part = |rows: &[usize]| {
        let mut rows = rows.to_vec();
        rows.sort_unstable();
        let tuples = rows.iter().map(|&r| table.rows()[r].clone()).collect();
        ActivityTable::from_sorted_rows(table.schema().clone(), tuples).unwrap()
    };
    let per = tail.len().div_ceil(batches).max(1);
    (part(head), tail.chunks(per).map(part).collect())
}

// The pins below are the images the writer produced at commit 6178c26,
// before it chose codecs from one stats pass instead of encoding every
// candidate. Unoptimized builds take minutes over these tables; `cargo test
// --release -p cohana-storage --lib -- persist::` runs them.

#[test]
#[cfg_attr(debug_assertions, ignore)]
fn benchmark_table_bytes_are_pinned() {
    let (rows, options) = benchmark_shape();
    let image = to_bytes(&CompressedTable::build(&rows, options).unwrap());
    assert_eq!(pin(&image), PINNED_BENCHMARK);
}

#[test]
#[cfg_attr(debug_assertions, ignore)]
fn ingested_and_compacted_file_bytes_are_pinned() {
    let (rows, options) = benchmark_shape();
    let (head, batches) = split_by_time(&rows, 0.5, 10);
    let dir = std::env::temp_dir().join("cohana-range-tests");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join(format!("ingest-pin-{}.cohana", std::process::id()));
    write_file(&CompressedTable::build(&head, options).unwrap(), &path).unwrap();
    for batch in &batches {
        append(&path, batch).unwrap();
    }
    let ingested = pin(&std::fs::read(&path).unwrap());
    compact(&path).unwrap();
    let compacted = pin(&std::fs::read(&path).unwrap());
    std::fs::remove_file(&path).ok();
    assert_eq!([ingested, compacted], PINNED_INGESTED_COMPACTED);
}

const PINNED_BENCHMARK: (usize, u64) = (2_723_858, 9_949_755_615_502_182_034);
/// The file after ten appends (dead bytes, epoch footer) and after one
/// compaction, which is byte-identical to the build-once image above.
const PINNED_INGESTED_COMPACTED: [(usize, u64); 2] =
    [(22_500_730, 12_507_712_857_348_463_524), PINNED_BENCHMARK];

/// One real blob per codec from a 64 Ki-row chunk.
fn real_blobs() -> Vec<(Vec<u8>, BlobLoc)> {
    let t = generate(&GeneratorConfig::new(700));
    let t = CompressedTable::build(&t, CompressionOptions::with_chunk_size(64 * 1024)).unwrap();
    let chunk = &t.chunks()[0];
    assert!(chunk.num_rows() >= 64 * 1024);
    let mut found: Vec<(Vec<u8>, BlobLoc)> = Vec::new();
    let mut encoder = SectionEncoder::default();
    for col in chunk.columns().iter().flatten() {
        let mut buf = Vec::new();
        let (codec, uncompressed) = write_column_blob_v4(&mut buf, col, &mut encoder);
        if found.iter().all(|(_, loc)| loc.codec != codec) {
            let loc = BlobLoc { offset: 0, len: buf.len() as u64, codec, uncompressed };
            found.push((buf, loc));
        }
    }
    if found.iter().all(|(_, loc)| loc.codec != Codec::Raw) {
        // Every column of a chunk this size compresses; the raw form of
        // one of them (its header, then its packed array as is) is still
        // what a v3 file (or a tie) stores.
        let col = chunk.columns().iter().flatten().next().unwrap();
        let mut written = Vec::new();
        write_column_blob_v4(&mut written, col, &mut SectionEncoder::default());
        let mut buf = Vec::new();
        buf.bytes(&written[..header_len(col)]);
        write_packed(&mut buf, col.packed());
        let loc = BlobLoc::raw(0, buf.len() as u64);
        found.push((buf, loc));
    }
    assert_eq!(found.len(), 3, "one blob per codec");
    found
}

/// Decode hostile bytes under an honest footer record: the outcome is
/// `Corrupt` or a column whose codes are all in range, and no single
/// allocation exceeds a small multiple of what the record declares.
fn assert_contained(blob: &[u8], loc: &BlobLoc, what: &str) {
    // The 32 KiB slot table and the frequency vectors are the decoders'
    // only allocations that do not scale with the section.
    let cap = 4 * loc.uncompressed as usize + 64 * 1024;
    let loc = BlobLoc { len: blob.len() as u64, ..*loc };
    test_alloc::reset_largest();
    let outcome = decode_column_blob_loc(blob, &loc);
    let largest = test_alloc::largest();
    assert!(largest <= cap, "{what}: a {largest}-byte allocation for a {cap}-byte cap");
    match outcome {
        Err(StorageError::Corrupt(_)) => {}
        Err(other) => panic!("{what}: expected Corrupt, got {other:?}"),
        Ok(col) => col
            .check_code_range(col.packed().max_value())
            .unwrap_or_else(|e| panic!("{what}: accepted with {e}")),
    }
}

#[test]
fn truncations_and_bit_flips_of_real_blobs_stay_contained() {
    // An unoptimized decode of 64 Ki values takes milliseconds, so debug
    // builds sample the sweep (a stride coprime to 8 still visits every bit
    // position of a byte); `cargo test --release` runs all of it.
    let stride = if cfg!(debug_assertions) { 53 } else { 1 };
    for (blob, loc) in real_blobs() {
        let name = loc.codec.name();
        assert_contained(&blob, &loc, &format!("{name} intact"));
        let head = blob.len().min(2048);
        // Every prefix of the first 2 KiB and of the last 64 bytes, and a
        // sample of the cuts in between (a cut costs a decode up to it).
        let cuts = (0..head)
            .chain((head..blob.len().saturating_sub(64)).step_by(4099))
            .chain(blob.len().saturating_sub(64)..blob.len());
        for cut in cuts.step_by(stride) {
            assert_contained(&blob[..cut], &loc, &format!("{name} cut at {cut}"));
        }
        for bit in (0..head * 8).step_by(stride) {
            let mut flipped = blob.clone();
            flipped[bit / 8] ^= 1 << (bit % 8);
            assert_contained(&flipped, &loc, &format!("{name} bit {bit} flipped"));
        }
    }
}
