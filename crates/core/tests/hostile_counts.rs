//! Every count-prefixed field of untrusted input — in a v4 table image, a
//! shard `MANIFEST` and a wire BATCH — set to the largest value its width
//! can hold must be refused as corrupt, and refused before anything is
//! allocated for it: no single allocation may exceed the input's length
//! plus 1 KiB. The storage unit tests' allocator records the largest
//! request per thread.

use cohana_activity::{generate, GeneratorConfig, TableBuilder};
use cohana_core::{EngineError, WireBatch};
use cohana_storage::{persist, shard, CompressedTable, CompressionOptions, StorageError};
use std::path::PathBuf;

#[path = "../../storage/src/test_alloc.rs"]
mod test_alloc;

#[global_allocator]
static ALLOC: test_alloc::LargestRequest = test_alloc::LargestRequest;

fn temp_path(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("cohana-hostile-counts-test");
    std::fs::create_dir_all(&dir).unwrap();
    dir.join(format!("{name}-{}", std::process::id()))
}

/// How a count field is stored.
#[derive(Clone, Copy)]
enum Width {
    /// Little-endian, this many bytes.
    Fixed(usize),
    /// An LEB128 varint.
    Varint,
}

/// Which decoder reads an input.
#[derive(Clone, Copy)]
enum Input {
    Image,
    Manifest,
    Batch,
}

/// `bytes` with the field at `at` set to the largest value of its width.
fn maxed(bytes: &[u8], at: usize, width: Width) -> Vec<u8> {
    let mut out = bytes.to_vec();
    match width {
        Width::Fixed(n) => out[at..at + n].fill(0xff),
        Width::Varint => {
            assert!(out[at] < 0x80, "a one-byte varint to replace");
            let mut max = vec![0xff; 9];
            max.push(0x01);
            out.splice(at..at + 1, max);
        }
    }
    out
}

/// A v4 image with the dictionary-epoch extension, and the offsets of its
/// count fields: `(field, offset, width)`. The file holds the users with an
/// even last digit, then has the odd ones appended: no chunk is rewritten,
/// and the new user ids sort in between the old ones, so the old chunks
/// keep an epoch whose user remap is not the identity.
fn image() -> (Vec<u8>, Vec<(&'static str, usize, Width)>) {
    let rows = generate(&GeneratorConfig::small());
    let uidx = rows.schema().user_idx();
    let part = |odd: u8| {
        let mut b = TableBuilder::new(rows.schema().clone());
        for t in rows.rows() {
            if t.get(uidx).as_str().unwrap().bytes().last().unwrap() % 2 == odd {
                b.push(t.values().to_vec()).unwrap();
            }
        }
        b.finish().unwrap()
    };
    let path = temp_path("image.cohana");
    let head = CompressedTable::build(&part(0), CompressionOptions::with_chunk_size(256));
    persist::write_file(&head.unwrap(), &path).unwrap();
    assert_eq!(persist::append(&path, &part(1)).unwrap().chunks_rewritten, 0);
    let bytes = std::fs::read(&path).unwrap();
    std::fs::remove_file(&path).ok();
    let fields = image_count_fields(&bytes);
    (bytes, fields)
}

/// Walk a v4 footer (`docs/FORMAT.md`) to its count fields, and chunk 0's
/// first string column blob to its chunk dictionary's.
fn image_count_fields(image: &[u8]) -> Vec<(&'static str, usize, Width)> {
    let mut at = {
        let tail = image.len() - 12;
        tail - u64::from_le_bytes(image[tail..tail + 8].try_into().unwrap()) as usize
    };
    let mut take = |n: usize| {
        let field = at;
        at += n;
        let mut v = [0u8; 8];
        v[..n.min(8)].copy_from_slice(&image[field..field + n.min(8)]);
        (field, u64::from_le_bytes(v) as usize)
    };
    let mut fields = Vec::new();
    take(8); // chunk size
    let (field, arity) = take(2);
    fields.push(("schema arity", field, Width::Fixed(2)));
    for _ in 0..arity {
        let (_, name) = take(4);
        take(name + 2);
    }
    let (mut kinds, mut dict) = (Vec::new(), None);
    for _ in 0..arity {
        let (_, kind) = take(1);
        kinds.push(kind);
        if kind == 2 {
            take(16);
            continue;
        }
        let (field, n) = take(4);
        dict.get_or_insert(field);
        for _ in 0..n {
            let (_, len) = take(4);
            take(len);
        }
    }
    fields.push(("dictionary count", dict.expect("a dictionary"), Width::Fixed(4)));
    take(8); // rows
    let (field, chunks) = take(4);
    fields.push(("footer chunk count", field, Width::Fixed(4)));
    let mut str_blob = None;
    for ci in 0..chunks {
        take(25); // the RLE blob's record
        for &kind in &kinds {
            let (_, offset) = take(8);
            take(17);
            if ci == 0 && kind == 1 {
                str_blob.get_or_insert(offset);
            }
        }
        take(32); // rows, users, time bounds
        let (field, n_actions) = take(4);
        if ci == 0 {
            fields.push(("action-gid count", field, Width::Fixed(4)));
        }
        take(4 * n_actions);
        for &kind in &kinds {
            take([1, 5, 17][kind]);
        }
    }
    let (field, epochs) = take(4);
    fields.push(("epoch count", field, Width::Fixed(4)));
    take(4 * chunks);
    'epochs: for _ in 0..epochs {
        for _ in 0..arity {
            if take(1).1 == 1 {
                fields.push(("remap length", take(4).0, Width::Fixed(4)));
                break 'epochs;
            }
        }
    }
    let str_blob = str_blob.expect("a string column");
    fields.push(("chunk-dictionary gid count", str_blob + 1, Width::Fixed(4)));
    fields
}

/// A two-shard manifest with one tombstone, and the offsets of its shard
/// and tombstone counts.
fn manifest() -> (Vec<u8>, Vec<(&'static str, usize, Width)>) {
    let magic = 0x4353_484Du32.to_le_bytes(); // "CSHM"
    let mut bytes = [magic, 1u32.to_le_bytes()].concat();
    let shards = bytes.len();
    bytes.extend_from_slice(&2u32.to_le_bytes());
    let put_str = |bytes: &mut Vec<u8>, s: &str| {
        bytes.extend_from_slice(&(s.len() as u32).to_le_bytes());
        bytes.extend_from_slice(s.as_bytes());
    };
    for s in ["m", "a.cohana", "b.cohana"] {
        put_str(&mut bytes, s);
    }
    let tombstones = bytes.len();
    bytes.extend_from_slice(&1u32.to_le_bytes());
    put_str(&mut bytes, "u1");
    bytes.extend_from_slice(&magic);
    let fields = vec![
        ("manifest shard count", shards, Width::Fixed(4)),
        ("manifest tombstone count", tombstones, Width::Fixed(4)),
    ];
    (bytes, fields)
}

/// A one-cohort BATCH of one COUNT cell, and the offsets of its string,
/// cohort and cell counts (each a one-byte varint here).
fn batch() -> (Vec<u8>, Vec<(&'static str, usize, Width)>) {
    // chunk, rows, morsels; arity 1, one aggregate of kind COUNT (tag 4);
    // one string "a"; one cohort keyed by string 0 of size 1; one cell at
    // age 1 with count 1.
    let bytes = vec![0, 0, 0, 1, 1, 4, 1, 1, b'a', 1, 2, 0, 1, 1, 1, 1];
    let fields = vec![
        ("BATCH string count", 6, Width::Varint),
        ("BATCH cohort count", 9, Width::Varint),
        ("BATCH cell count", 13, Width::Varint),
    ];
    (bytes, fields)
}

/// Decode `bytes` as `input`: whether it is refused as corrupt. Only the
/// decode itself counts towards the largest request.
fn refused_as_corrupt(input: Input, bytes: &[u8]) -> bool {
    match input {
        Input::Image => {
            test_alloc::reset_largest();
            matches!(persist::from_bytes(bytes), Err(StorageError::Corrupt(_)))
        }
        Input::Manifest => {
            let path = temp_path("MANIFEST");
            std::fs::write(&path, bytes).unwrap();
            test_alloc::reset_largest();
            let outcome = shard::read_manifest(&path);
            std::fs::remove_file(&path).ok();
            matches!(outcome, Err(StorageError::Corrupt(_)))
        }
        Input::Batch => {
            test_alloc::reset_largest();
            matches!(WireBatch::decode(bytes), Err(EngineError::Corrupt(_)))
        }
    }
}

#[test]
fn every_count_field_at_its_maximum_is_refused_without_allocating_it() {
    let inputs = [(Input::Image, image()), (Input::Manifest, manifest()), (Input::Batch, batch())];
    // The intact inputs decode, so every offset above points into a valid
    // input.
    assert!(persist::from_bytes(&inputs[0].1 .0).is_ok());
    let path = temp_path("MANIFEST");
    std::fs::write(&path, &inputs[1].1 .0).unwrap();
    let intact = shard::read_manifest(&path).unwrap();
    std::fs::remove_file(&path).ok();
    assert_eq!((intact.num_shards(), intact.tombstones().len()), (2, 1));
    let intact = WireBatch::decode(&inputs[2].1 .0).unwrap();
    assert_eq!((intact.num_cohorts(), intact.num_cells()), (1, 1));

    let mut rows = 0;
    for (input, (bytes, fields)) in &inputs {
        for &(field, at, width) in fields {
            let crafted = maxed(bytes, at, width);
            let corrupt = refused_as_corrupt(*input, &crafted);
            let largest = test_alloc::largest();
            assert!(corrupt, "{field}: not refused as corrupt");
            let cap = crafted.len() + 1024;
            assert!(largest <= cap, "{field}: a {largest}-byte request, cap {cap}");
            rows += 1;
        }
    }
    assert_eq!(rows, 12, "every count field has its row");
}
