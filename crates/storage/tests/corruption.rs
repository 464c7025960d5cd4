//! Robustness: deserializing corrupted or truncated table images must fail
//! gracefully (an `Err`, never a panic, never an out-of-bounds read) — for
//! the v3/v4 column-addressable formats (v4 adds per-blob codec tags and
//! uncompressed lengths), on both the eager (`from_bytes`) and lazy
//! (`FileSource`, whole-chunk and projected per-column) read paths. The
//! random sweeps also run over the retired v1 and v2 images, which every
//! entry point refuses from their header — a flipped or cut byte must not
//! get a panic out of them either. The v1–v3 images are the golden ones in
//! `fixtures/`.

use cohana_activity::{generate, GeneratorConfig};
use cohana_storage::codec::encode_section;
use cohana_storage::persist::{from_bytes, to_bytes};
use cohana_storage::{
    ChunkColumn, ChunkSource, Codec, CompressedTable, CompressionOptions, FileSource, StorageError,
};
use proptest::prelude::*;

mod fixtures;

/// The table the golden images hold.
fn compressed() -> CompressedTable {
    from_bytes(fixtures::V3).unwrap()
}

/// The table's image in the requested format version.
fn image(version: u32) -> Vec<u8> {
    match version {
        1 => fixtures::V1.to_vec(),
        2 => fixtures::V2.to_vec(),
        3 => fixtures::V3.to_vec(),
        4 => to_bytes(&compressed()).to_vec(),
        v => panic!("no image for version {v}"),
    }
}

/// Open `bytes` as a temp file with a lazy `FileSource` and touch every
/// chunk — once fully and once through a narrow projection; any outcome but
/// a panic is fine.
fn exercise_lazy(bytes: &[u8], tag: &str) {
    let dir = std::env::temp_dir().join("cohana-corruption-test");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join(format!("corrupt-{tag}-{:x}.cohana", bytes.len()));
    std::fs::write(&path, bytes).unwrap();
    if let Ok(src) = FileSource::open(&path) {
        let time_idx = src.table_meta().schema().time_idx();
        for i in 0..src.num_chunks() {
            let _ = src.chunk(i);
            let _ = src.chunk_columns(i, &[time_idx]);
        }
    }
    std::fs::remove_file(&path).ok();
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

    #[test]
    fn random_single_byte_flip_never_panics(
        version in prop::sample::select(vec![1u32, 2, 3, 4]),
        pos in 0usize..60_000,
        xor in 1u8..=255,
    ) {
        let mut bytes = image(version);
        let pos = pos % bytes.len();
        bytes[pos] ^= xor;
        // Either it still parses (the flip hit padding/payload that decodes
        // to different values) or it errors; both are fine. Any panic fails
        // the test.
        if let Ok(table) = from_bytes(&bytes) {
            // A successfully parsed table must stay internally
            // consistent enough to decompress or cleanly error.
            let _ = table.decompress();
        }
        if version >= 2 {
            exercise_lazy(&bytes, "flip");
        }
    }

    #[test]
    fn random_truncation_never_panics(
        version in prop::sample::select(vec![1u32, 2, 3, 4]),
        cut_fraction in 0.0f64..1.0,
    ) {
        let bytes = image(version);
        let cut = ((bytes.len() as f64) * cut_fraction) as usize;
        prop_assert!(from_bytes(&bytes[..cut]).is_err());
        if version >= 2 {
            exercise_lazy(&bytes[..cut], "cut");
        }
    }

    #[test]
    fn random_garbage_never_panics(garbage in proptest::collection::vec(any::<u8>(), 0..2_000)) {
        let _ = from_bytes(&garbage);
        exercise_lazy(&garbage, "garbage");
    }
}

#[test]
fn valid_images_roundtrip_every_version() {
    for version in [3, 4] {
        let bytes = image(version);
        let table = from_bytes(&bytes).unwrap();
        assert!(table.num_rows() > 0, "v{version}");
        assert_eq!(table.decompress().unwrap().num_rows(), table.num_rows(), "v{version}");
    }
}

#[test]
fn bad_magic_rejected_every_version() {
    for version in [1, 2, 3, 4] {
        let mut bytes = image(version);
        bytes[0] ^= 0xFF;
        assert!(from_bytes(&bytes).is_err(), "v{version}");
    }
}

#[test]
fn footer_past_eof_names_the_offset_every_footered_version() {
    // A tail claiming a footer longer than the file (the signature of a
    // truncated or torn-append image) must produce a corruption error that
    // names the impossible offset — not a bare UnexpectedEof, and never a
    // slice panic. Both the eager and the lazy open paths report it.
    for version in [3, 4] {
        let mut bytes = image(version);
        let tail = bytes.len() - 12;
        let bogus_len = bytes.len() as u64 * 2;
        bytes[tail..tail + 8].copy_from_slice(&bogus_len.to_le_bytes());
        match from_bytes(&bytes).unwrap_err() {
            StorageError::Corrupt(msg) => {
                assert!(msg.contains("would start at offset"), "v{version}: weak message: {msg}")
            }
            other => panic!("v{version}: expected Corrupt, got {other:?}"),
        }
        let dir = std::env::temp_dir().join("cohana-corruption-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(format!("footer-eof-v{version}.cohana"));
        std::fs::write(&path, &bytes).unwrap();
        match FileSource::open(&path).unwrap_err() {
            StorageError::Corrupt(msg) => {
                assert!(msg.contains("would start at offset"), "v{version}: weak message: {msg}")
            }
            other => panic!("v{version}: expected Corrupt, got {other:?}"),
        }
        std::fs::remove_file(&path).ok();
    }
}

#[test]
fn lazy_decode_of_tampered_chunk_errors_not_panics() {
    // Flip bytes inside the payload region only: the footer parses fine, so
    // FileSource::open succeeds, and the corruption must surface as a
    // per-segment decode error (or a changed-but-consistent payload), never
    // a panic — on both the whole-chunk and the projected fetch.
    for version in [3, 4] {
        let bytes = image(version);
        let dir = std::env::temp_dir().join("cohana-corruption-test");
        std::fs::create_dir_all(&dir).unwrap();
        for pos in [9usize, 40, 200, 1000] {
            let mut tampered = bytes.clone();
            if pos >= tampered.len() / 2 {
                continue;
            }
            tampered[pos] ^= 0x5A;
            let path = dir.join(format!("tamper-v{version}-{pos}.cohana"));
            std::fs::write(&path, &tampered).unwrap();
            if let Ok(src) = FileSource::open(&path) {
                let time_idx = src.table_meta().schema().time_idx();
                for i in 0..src.num_chunks() {
                    let _ = src.chunk(i);
                    let _ = src.chunk_columns(i, &[time_idx]);
                }
            }
            std::fs::remove_file(&path).ok();
        }
    }
}

#[test]
fn v4_interleaved_blob_truncation_and_tamper_never_panic() {
    // Sections with >= 64 entropy-coded symbols are written in the
    // interleaved rANS layout (sub-tag `0x80 | ways`, 64-bit lane states,
    // shared 32-bit renorm words), so a v4 image of this dataset carries
    // interleaved streams in its delta/ANS blobs — pin that premise by the
    // footer summary's blob counts, then sweep truncations and payload
    // byte-flips over the whole image: every outcome must be an error or a
    // consistent decode, never a panic or an oversized allocation.
    let c = compressed();
    let bytes = cohana_storage::persist::to_bytes(&c).to_vec();
    let dir = std::env::temp_dir().join("cohana-corruption-test");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("interleaved-premise.cohana");
    std::fs::write(&path, &bytes).unwrap();
    let info = cohana_storage::persist::inspect(&path).unwrap();
    std::fs::remove_file(&path).ok();
    let entropy_blobs = info.codecs[1].blobs + info.codecs[2].blobs;
    assert!(entropy_blobs > 0, "dataset must produce entropy-coded (interleaved) blobs");

    for denom in 1..=8usize {
        let cut = bytes.len() * denom / 9;
        assert!(from_bytes(&bytes[..cut]).is_err());
        exercise_lazy(&bytes[..cut], "ilv-cut");
    }
    // Flips spread across the payload half hit state prefixes, renorm
    // words, and the sub-tag byte itself on some position. (The random
    // proptest above covers the same ground statistically; this sweep is
    // the deterministic fixed-seed floor. Sparse on purpose — the suite
    // runs unoptimized under `cargo test`.)
    for pos in (9..bytes.len() / 2).step_by(997) {
        let mut tampered = bytes.clone();
        tampered[pos] ^= 0x81;
        if let Ok(table) = from_bytes(&tampered) {
            let _ = table.decompress();
        }
        exercise_lazy(&tampered, "ilv-flip");
    }
}

#[test]
fn v3_tampered_column_stats_detected_on_projected_fetch() {
    tampered_column_stats_detected(3);
}

#[test]
fn v4_tampered_column_stats_detected_on_projected_fetch() {
    tampered_column_stats_detected(4);
}

fn tampered_column_stats_detected(version: u32) {
    // Stats live at the end of each footer entry; flipping footer bytes
    // must surface as an open-time or fetch-time error, never a silent
    // wrong answer the executor would prune by. Either the footer parse
    // rejects the image or the decoded payload disagrees with the stats.
    let bytes = image(version);
    let tail = bytes.len() - 12;
    let footer_len = u64::from_le_bytes(bytes[tail..tail + 8].try_into().unwrap()) as usize;
    let footer_start = tail - footer_len;
    let dir = std::env::temp_dir().join("cohana-corruption-test");
    std::fs::create_dir_all(&dir).unwrap();
    let mut seen_reject = false;
    for frac in [2usize, 3, 4, 5] {
        let pos = footer_start + footer_len - footer_len / frac;
        let mut tampered = bytes.clone();
        tampered[pos] ^= 0x10;
        let path = dir.join(format!("stats-tamper-v{version}-{frac}.cohana"));
        std::fs::write(&path, &tampered).unwrap();
        match FileSource::open(&path) {
            Err(_) => seen_reject = true,
            Ok(src) => {
                // Exercise both the full fetch and a narrow projected fetch
                // of a non-time, non-action column, so per-column stats
                // verification runs on exactly the chunk_columns path.
                let schema = src.table_meta().schema();
                let other = (0..schema.arity())
                    .find(|&i| {
                        i != schema.user_idx() && i != schema.time_idx() && i != schema.action_idx()
                    })
                    .expect("schema has a plain column");
                for i in 0..src.num_chunks() {
                    if src.chunk(i).is_err() || src.chunk_columns(i, &[other]).is_err() {
                        seen_reject = true;
                    }
                }
            }
        }
        std::fs::remove_file(&path).ok();
    }
    assert!(seen_reject, "no tampering detected anywhere in the v{version} footer");
}

// ------------------------------------------------- per-value range checks
//
// The reader proves every code within its own column header while it
// decodes (see `persist`'s module docs). These craft, through public
// functions only and without moving a byte of the footer, images whose
// codes leave that range; `crates/storage/src/persist/range_tests.rs` holds
// the cases that need a rebuilt footer (delta sections, an ANS symbol that
// is listed but never produced).

/// The one value past a column's own header: a chunk id equal to the
/// dictionary's size, a delta one past `max - min`.
fn first_invalid_code(col: &ChunkColumn) -> u64 {
    match col {
        ChunkColumn::Str { dict, .. } => dict.len() as u64,
        ChunkColumn::Int { min, max, .. } => (max - min) as u64 + 1,
    }
}

/// Offset of `needle` in `image` if it occurs exactly once.
fn find_once(image: &[u8], needle: &[u8]) -> Option<usize> {
    let mut hits = image.windows(needle.len()).enumerate().filter(|(_, w)| *w == needle);
    let first = hits.next()?.0;
    hits.next().is_none().then_some(first)
}

/// Eager load, lazy whole-chunk fetch and lazy projected fetch of one
/// chunk column must all refuse `bytes` with a `Corrupt` that names the
/// chunk and the column and says a value is out of range.
fn assert_every_path_refuses(bytes: &[u8], ci: usize, attr: usize, tag: &str) {
    let dir = std::env::temp_dir().join("cohana-corruption-test");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join(format!("range-{tag}.cohana"));
    std::fs::write(&path, bytes).unwrap();
    let src = FileSource::open(&path).expect("the footer is untouched");
    let outcomes = [
        ("eager", cohana_storage::persist::read_file(&path).map(|_| ())),
        ("whole-chunk", src.chunk(ci).map(|_| ())),
        ("projected", src.chunk_columns(ci, &[attr]).map(|_| ())),
    ];
    std::fs::remove_file(&path).ok();
    for (name, outcome) in outcomes {
        match outcome {
            Err(StorageError::Corrupt(msg)) => assert!(
                msg.contains(&format!("chunk {ci}"))
                    && msg.contains(&format!("column {attr}"))
                    && msg.contains("out of range"),
                "{tag}, {name}: weak message: {msg}"
            ),
            other => panic!("{tag}, {name}: expected Corrupt, got {other:?}"),
        }
    }
}

#[test]
fn raw_lane_past_its_header_is_refused_by_every_read_path() {
    // A raw section is `width | len | words`; re-packing the column's own
    // codes with one of them replaced gives a section of the same length,
    // so it can be patched over the original in place.
    let c = compressed();
    for version in [3u32, 4] {
        let image = image(version);
        let (mut str_done, mut int_done) = (false, false);
        for (ci, chunk) in c.chunks().iter().enumerate() {
            for (attr, col) in chunk.columns().iter().enumerate() {
                let Some(col) = col else { continue };
                let is_str = col.dict().is_some();
                if if is_str { str_done } else { int_done } {
                    continue;
                }
                let width = col.packed().width();
                let bad = first_invalid_code(col);
                if width == 64 || bad >> width != 0 {
                    continue; // the invalid code does not fit this column's lanes
                }
                let mut values = col.packed().to_vec();
                let honest = encode_section(&values, width, Codec::Raw, 1).unwrap();
                // Absent when v4 stored this blob under an entropy codec.
                let Some(at) = find_once(&image, &honest) else { continue };
                let mid = values.len() / 2;
                values[mid] = bad;
                let crafted = encode_section(&values, width, Codec::Raw, 1).unwrap();
                assert_eq!(crafted.len(), honest.len());
                let mut bytes = image.clone();
                bytes[at..at + crafted.len()].copy_from_slice(&crafted);
                let kind = if is_str { "str" } else { "int" };
                assert_every_path_refuses(&bytes, ci, attr, &format!("v{version}-raw-{kind}"));
                if is_str {
                    str_done = true;
                } else {
                    int_done = true;
                }
            }
        }
        assert!(str_done && int_done, "v{version}: no raw string/integer blob could be crafted");
    }
}

#[test]
fn ans_table_symbol_past_the_column_bound_is_refused_when_it_occurs() {
    // An ANS section is `0x84 | width | len u64 | n u16 | (sym u16, freq
    // u16) x n | stream`. Renaming the table's top symbol to the first
    // invalid code changes no length, and every value that was the top
    // code now decodes past the column's bound. (With this generator the
    // ANS-coded columns whose lanes have room for that code are integer
    // ones: `action`'s 16 entries fill its 4 bits.)
    let t = generate(&GeneratorConfig::new(200));
    let c = CompressedTable::build(&t, CompressionOptions::with_chunk_size(16 * 1024)).unwrap();
    let image = to_bytes(&c).to_vec();
    let mut crafted_any = false;
    'search: for (ci, chunk) in c.chunks().iter().enumerate() {
        for (attr, col) in chunk.columns().iter().enumerate() {
            let Some(col) = col else { continue };
            let width = col.packed().width();
            let bad = first_invalid_code(col);
            if bad >> width != 0 {
                continue;
            }
            let values = col.packed().to_vec();
            let Some(honest) = encode_section(&values, width, Codec::Ans, 4) else { continue };
            let Some(at) = find_once(&image, &honest) else { continue };
            let n = u16::from_le_bytes([honest[10], honest[11]]) as usize;
            let top_at = at + 12 + 4 * (n - 1);
            let top = u16::from_le_bytes([image[top_at], image[top_at + 1]]) as u64;
            assert_eq!(top, bad - 1, "the top code occurs, so the table lists it");
            let mut bytes = image.clone();
            bytes[top_at..top_at + 2].copy_from_slice(&(bad as u16).to_le_bytes());
            assert_every_path_refuses(&bytes, ci, attr, "v4-ans");
            crafted_any = true;
            break 'search;
        }
    }
    assert!(crafted_any, "no ANS-coded blob could be crafted");
}
