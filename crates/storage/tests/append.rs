//! Integration tests for incremental ingest at the storage layer: appending
//! batches to v4 files (a v3 file migrates to v4 on its first append),
//! dictionary-epoch remapping, warm snapshots over what a write produced,
//! and compaction.

use cohana_activity::{
    generate, ActivityTable, AttributeRole, GeneratorConfig, Schema, TableBuilder, Value, ValueType,
};
use cohana_storage::{
    persist, shard, Chunk, ChunkColumn, ChunkSource, ColumnMeta, CompressedTable,
    CompressionOptions, FileSource, GlobalDict, ShardedSource, StorageError, UserRle,
    DEFAULT_CACHE_BUDGET,
};
use proptest::prelude::*;
use std::path::PathBuf;

mod fixtures;

/// The chunk size of every table here, the golden images' included.
const CHUNK: usize = 256;

fn temp_path(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("cohana-append-test");
    std::fs::create_dir_all(&dir).unwrap();
    dir.join(name)
}

fn base_table() -> ActivityTable {
    generate(&GeneratorConfig::small())
}

/// Split a table's rows into `k` batches by a row-index round-robin over
/// users (no user spans batches).
fn split_by_user(table: &ActivityTable, k: usize) -> Vec<ActivityTable> {
    let mut builders: Vec<TableBuilder> =
        (0..k).map(|_| TableBuilder::new(table.schema().clone())).collect();
    for (bi, block) in table.user_blocks().enumerate() {
        for row in block.range() {
            builders[bi % k].push(table.rows()[row].values().to_vec()).unwrap();
        }
    }
    builders.into_iter().map(|b| b.finish().unwrap()).collect()
}

/// Split a table's rows into `k` contiguous time slices: users active across
/// the whole observation window return in every later batch.
fn split_by_time(table: &ActivityTable, k: usize) -> Vec<ActivityTable> {
    let tidx = table.schema().time_idx();
    let mut order: Vec<usize> = (0..table.num_rows()).collect();
    order.sort_by_key(|&r| table.rows()[r].get(tidx).as_int().unwrap());
    let per = table.num_rows().div_ceil(k);
    order
        .chunks(per)
        .map(|rows| {
            let mut b = TableBuilder::new(table.schema().clone());
            for &r in rows {
                b.push(table.rows()[r].values().to_vec()).unwrap();
            }
            b.finish().unwrap()
        })
        .collect()
}

/// Write the first batch as a fresh file, append the rest, and return the
/// path plus the per-append stats.
fn build_by_appends(name: &str, batches: &[ActivityTable]) -> (PathBuf, Vec<persist::AppendStats>) {
    let path = temp_path(name);
    let first =
        CompressedTable::build(&batches[0], CompressionOptions::with_chunk_size(CHUNK)).unwrap();
    persist::write_file(&first, &path).unwrap();
    let stats = batches[1..].iter().map(|b| persist::append(&path, b).unwrap()).collect();
    (path, stats)
}

#[test]
fn user_sliced_appends_never_rewrite_and_roundtrip() {
    let table = base_table();
    let batches = split_by_user(&table, 3);
    let (path, stats) = build_by_appends("user-sliced.cohana", &batches);
    for s in &stats {
        assert_eq!(s.chunks_rewritten, 0, "user-disjoint batches are pure appends");
        assert!(s.bytes_appended > 0);
        assert!(s.dead_bytes > 0, "superseded footers become dead bytes");
    }
    // Eager read-back decompresses to exactly the build-once table.
    let eager = persist::read_file(&path).unwrap();
    assert_eq!(eager.decompress().unwrap().rows(), table.rows());
    // Merged dictionaries equal the build-once dictionaries (sorted, no
    // gid drift).
    let once = CompressedTable::build(&table, CompressionOptions::with_chunk_size(CHUNK)).unwrap();
    assert_eq!(eager.metas(), once.metas());
    std::fs::remove_file(&path).ok();
}

#[test]
fn time_sliced_appends_rewrite_returning_users_and_roundtrip() {
    let table = base_table();
    let batches = split_by_time(&table, 4);
    let (path, stats) = build_by_appends("time-sliced.cohana", &batches);
    assert!(
        stats.iter().any(|s| s.chunks_rewritten > 0),
        "time slices revisit users, forcing chunk rewrites"
    );
    let eager = persist::read_file(&path).unwrap();
    assert_eq!(eager.decompress().unwrap().rows(), table.rows());
    // No user is split across chunks — the §4.1 invariant survives appends.
    let mut seen = std::collections::HashSet::new();
    for chunk in eager.chunks() {
        for run in chunk.user_rle().runs() {
            assert!(seen.insert(run.user_gid), "user {} split across chunks", run.user_gid);
        }
    }
    // The lazy path agrees with the eager one, chunk by chunk.
    let src = FileSource::open(&path).unwrap();
    assert_eq!(src.num_chunks(), eager.chunks().len());
    for i in 0..src.num_chunks() {
        assert_eq!(&*src.chunk(i).unwrap(), &eager.chunks()[i]);
        assert_eq!(src.index_entry(i), &eager.index_entries()[i]);
    }
    std::fs::remove_file(&path).ok();
}

#[test]
fn append_onto_empty_file() {
    let schema = base_table().schema().clone();
    let empty = TableBuilder::new(schema).finish().unwrap();
    let path = temp_path("from-empty.cohana");
    let c = CompressedTable::build(&empty, CompressionOptions::with_chunk_size(CHUNK)).unwrap();
    persist::write_file(&c, &path).unwrap();

    let table = base_table();
    let stats = persist::append(&path, &table).unwrap();
    assert_eq!(stats.chunks_before, 0);
    assert!(stats.chunks_after > 0);
    let eager = persist::read_file(&path).unwrap();
    assert_eq!(eager.decompress().unwrap().rows(), table.rows());
    std::fs::remove_file(&path).ok();
}

#[test]
fn empty_batch_append_is_a_noop() {
    let table = base_table();
    let path = temp_path("noop.cohana");
    let c = CompressedTable::build(&table, CompressionOptions::with_chunk_size(CHUNK)).unwrap();
    persist::write_file(&c, &path).unwrap();
    let before = std::fs::read(&path).unwrap();
    let empty = TableBuilder::new(table.schema().clone()).finish().unwrap();
    let stats = persist::append(&path, &empty).unwrap();
    assert_eq!(stats.rows_appended, 0);
    assert_eq!(stats.chunks_before, stats.chunks_after);
    assert_eq!(std::fs::read(&path).unwrap(), before, "no bytes written");
    std::fs::remove_file(&path).ok();
}

#[test]
fn append_rejects_v1_and_v2_files() {
    let table = base_table();
    for (name, bytes) in [("reject-v1.cohana", fixtures::V1), ("reject-v2.cohana", fixtures::V2)] {
        let path = temp_path(name);
        std::fs::write(&path, bytes).unwrap();
        let before = std::fs::read(&path).unwrap();
        let err = persist::append(&path, &table).unwrap_err();
        match &err {
            StorageError::Unsupported(msg) => {
                assert!(msg.contains("re-save"), "error should carry a migration hint: {msg}")
            }
            other => panic!("expected Unsupported, got {other:?}"),
        }
        // A rejected append must not touch the file.
        assert_eq!(std::fs::read(&path).unwrap(), before);
        assert!(matches!(persist::compact(&path).unwrap_err(), StorageError::Unsupported(_)));
        std::fs::remove_file(&path).ok();
    }
}

#[test]
fn append_rejects_duplicate_keys_and_foreign_schema() {
    let table = base_table();
    let batches = split_by_time(&table, 2);
    let path = temp_path("conflict.cohana");
    let c = CompressedTable::build(&table, CompressionOptions::with_chunk_size(CHUNK)).unwrap();
    persist::write_file(&c, &path).unwrap();
    let before = std::fs::read(&path).unwrap();

    // Re-appending the same rows collides on every primary key; so does a
    // batch of new tuples hiding a single existing one. Either way nothing
    // is written.
    let mut one_collision = TableBuilder::new(table.schema().clone());
    let tidx = table.schema().time_idx();
    for row in batches[1].rows() {
        let mut later = row.values().to_vec();
        later[tidx] = Value::int(later[tidx].as_int().unwrap() + 1_000_000_000);
        one_collision.push(later).unwrap();
    }
    let existing = &table.rows()[table.num_rows() / 2];
    one_collision.push(existing.values().to_vec()).unwrap();
    for batch in [table.clone(), one_collision.finish().unwrap()] {
        match persist::append(&path, &batch).unwrap_err() {
            StorageError::Invalid(msg) => {
                assert!(msg.starts_with("append batch conflicts with existing data: "), "{msg}")
            }
            other => panic!("expected Invalid, got {other:?}"),
        }
        assert_eq!(std::fs::read(&path).unwrap(), before, "a rejected append wrote bytes");
    }

    let narrower = Schema::new(table.schema().attributes()[..3].to_vec()).unwrap();
    let foreign = TableBuilder::new(narrower).finish().unwrap();
    assert!(matches!(persist::append(&path, &foreign).unwrap_err(), StorageError::Invalid(_)));
    assert_eq!(std::fs::read(&path).unwrap(), before);
    std::fs::remove_file(&path).ok();
}

/// Every chunk obeys the bound `CompressedTable::build` gives: it closed at
/// the first user boundary at or past the chunk size.
fn assert_chunk_bound(table: &CompressedTable, chunk_size: usize) {
    for (ci, chunk) in table.chunks().iter().enumerate() {
        let last = chunk.user_rle().run(chunk.num_users() - 1);
        assert!(
            chunk.num_rows() - (last.count as usize) < chunk_size,
            "chunk {ci} holds {} rows, {} of its last user: past the {chunk_size}-row target",
            chunk.num_rows(),
            last.count
        );
    }
}

#[test]
fn twenty_appends_to_one_user_set_never_outgrow_the_chunk_bound() {
    let table = base_table();
    let batches = split_by_time(&table, 21);
    let (path, stats) = build_by_appends("twenty.cohana", &batches);
    assert_eq!(stats.len(), 20);
    assert!(stats.iter().all(|s| s.chunks_rewritten > 0), "every slice revisits users");
    let eager = persist::read_file(&path).unwrap();
    assert_chunk_bound(&eager, CHUNK);
    // Re-cut chunks stay full, so the table has about as many chunks as
    // building it once would give it, not one more per append.
    let once = CompressedTable::build(&table, CompressionOptions::with_chunk_size(CHUNK)).unwrap();
    assert!(eager.chunks().len() <= once.chunks().len() + 20, "{}", eager.chunks().len());
    assert_eq!(eager.decompress().unwrap().rows(), table.rows());
    std::fs::remove_file(&path).ok();
}

#[test]
fn append_stats_on_a_two_chunk_file() {
    // Users a, b fill chunk 0 and c, d chunk 1 (two tuples each, four rows
    // per chunk). The batch brings two more tuples of `a` and a new user
    // `e`: chunk 0 goes through the splice and is re-cut into [a] (four
    // rows: full) and [b, e]; chunk 1 is not touched.
    let schema = Schema::game_actions();
    let row = |user: &str, time: i64| {
        vec![
            Value::str(user),
            Value::int(time),
            Value::str("launch"),
            Value::str("Australia"),
            Value::str("Sydney"),
            Value::str("dwarf"),
            Value::int(1),
            Value::int(0),
        ]
    };
    let table_of = |rows: &[(&str, i64)]| {
        let mut b = TableBuilder::new(schema.clone());
        for (user, time) in rows {
            b.push(row(user, *time)).unwrap();
        }
        b.finish().unwrap()
    };
    let base =
        table_of(&[("a", 1), ("a", 2), ("b", 1), ("b", 2), ("c", 1), ("c", 2), ("d", 1), ("d", 2)]);
    let path = temp_path("two-chunks.cohana");
    let c = CompressedTable::build(&base, CompressionOptions::with_chunk_size(4)).unwrap();
    assert_eq!(c.chunks().len(), 2);
    persist::write_file(&c, &path).unwrap();
    let len_before = std::fs::metadata(&path).unwrap().len();

    let stats =
        persist::append(&path, &table_of(&[("a", 3), ("a", 4), ("e", 1), ("e", 2)])).unwrap();
    let len_after = std::fs::metadata(&path).unwrap().len();
    assert_eq!(stats.rows_appended, 4);
    assert_eq!((stats.chunks_before, stats.chunks_rewritten, stats.chunks_after), (2, 1, 3));
    assert_eq!(stats.bytes_appended, len_after - len_before);
    assert_eq!(stats.file_bytes, len_after);
    // Dead bytes are what the new footer no longer references — the old
    // footer and tail, and chunk 0's old blobs — as a fresh parse of the
    // file counts them.
    let space = persist::file_space_stats(&path).unwrap();
    assert_eq!(stats.dead_bytes, space.dead_bytes);
    assert!(stats.dead_bytes > 0 && stats.dead_bytes < len_before);
    assert_eq!((space.rows, space.chunks), (12, 3));

    let users_of = |chunk: &cohana_storage::Chunk| -> Vec<u32> {
        chunk.user_rle().runs().map(|r| r.user_gid).collect()
    };
    let eager = persist::read_file(&path).unwrap();
    // Gids in the merged dictionary: a=0 … e=4. The surviving chunk first.
    let chunks: Vec<Vec<u32>> = eager.chunks().iter().map(users_of).collect();
    assert_eq!(chunks, [vec![2, 3], vec![0], vec![1, 4]]);
    std::fs::remove_file(&path).ok();
}

/// A source seeded with what a write produced serves, chunk for chunk, what
/// a cold open of the same file decodes — having decoded nothing itself.
fn assert_seeded_matches_cold(seeded: &dyn ChunkSource, cold: &dyn ChunkSource) {
    assert_eq!(seeded.num_chunks(), cold.num_chunks());
    for i in 0..cold.num_chunks() {
        let (warm, decoded) = (seeded.chunk(i).unwrap(), cold.chunk(i).unwrap());
        assert_eq!(warm.user_rle(), decoded.user_rle(), "chunk {i}: user column");
        assert_eq!(warm.columns(), decoded.columns(), "chunk {i}: columns");
        assert_eq!(seeded.index_entry(i), cold.index_entry(i));
    }
    let io = seeded.io_stats();
    assert_eq!((io.chunks_decoded, io.columns_decoded, io.bytes_read), (0, 0, 0));
    assert!(cold.io_stats().columns_decoded > 0);
}

#[test]
fn a_seeded_source_equals_a_cold_open_of_a_flat_file() {
    let table = base_table();
    let batches = split_by_time(&table, 3);
    let path = temp_path("seeded.cohana");
    let first =
        CompressedTable::build(&batches[0], CompressionOptions::with_chunk_size(CHUNK)).unwrap();
    persist::write_file(&first, &path).unwrap();

    // Every user returns in a later time slice, so the append rewrites every
    // chunk and the seeded source has nothing left to decode.
    // The file is its own one-shard map: shard 0 is the file.
    let seeded_open =
        |budget, written| ShardedSource::open_seeded(&path, budget, vec![(0, written)]);
    let (stats, written) = persist::append_with_chunks(&path, &batches[1]).unwrap();
    assert_eq!(stats.chunks_rewritten, stats.chunks_before);
    let seeded = seeded_open(DEFAULT_CACHE_BUDGET, written).unwrap();
    assert_seeded_matches_cold(&seeded, &FileSource::open(&path).unwrap());

    // The budget holds: a zero-budget source retains nothing and decodes on
    // demand like any other.
    let (_, written) = persist::append_with_chunks(&path, &batches[2]).unwrap();
    let unseeded = seeded_open(0, written).unwrap();
    assert_eq!(
        (unseeded.io_stats().cache_resident_bytes, unseeded.shard(0).chunks_resident()),
        (0, 0)
    );
    unseeded.chunk(0).unwrap();
    assert!(unseeded.io_stats().columns_decoded > 0);

    let (_, written) = persist::compact_with_chunks(&path).unwrap();
    let seeded = seeded_open(DEFAULT_CACHE_BUDGET, written).unwrap();
    assert_seeded_matches_cold(&seeded, &FileSource::open(&path).unwrap());
    let io = seeded.io_stats();
    assert!(io.cache_resident_bytes <= io.cache_budget_bytes);

    // What one file's write produced seeds no other footer: written against
    // the pre-compact file, offered to the compacted one.
    let stale = temp_path("seeded-stale.cohana");
    std::fs::write(&stale, persist::to_bytes(&first)).unwrap();
    let (_, written) = persist::append_with_chunks(&stale, &batches[1]).unwrap();
    let other = seeded_open(DEFAULT_CACHE_BUDGET, written).unwrap();
    assert_eq!(other.io_stats().cache_resident_bytes, 0);
    std::fs::remove_file(&path).ok();
    std::fs::remove_file(&stale).ok();
}

#[test]
fn a_seeded_source_equals_a_cold_open_of_a_sharded_table() {
    let table = base_table();
    let batches = split_by_time(&table, 2);
    let dir = std::env::temp_dir().join("cohana-append-test").join("seeded-shards");
    std::fs::remove_dir_all(&dir).ok();
    let options = CompressionOptions::with_chunk_size(CHUNK);
    shard::create_sharded(&dir, &batches[0], 4, options).unwrap();

    // Each shard's segments pass through its overlay into the unified
    // dictionaries (every shard has its own user dictionary at least).
    let (stats, written) = shard::append_sharded_with_chunks(&dir, &batches[1]).unwrap();
    assert_eq!(stats.shards_touched(), 4);
    assert_eq!(stats.total().chunks_rewritten, stats.total().chunks_before);
    let seeded = ShardedSource::open_seeded(&dir, DEFAULT_CACHE_BUDGET, written).unwrap();
    assert_seeded_matches_cold(&seeded, &ShardedSource::open(&dir).unwrap());

    let written = (0..4).map(|i| (i, shard::compact_shard_with_chunks(&dir, i).unwrap().1));
    let seeded = ShardedSource::open_seeded(&dir, DEFAULT_CACHE_BUDGET, written.collect()).unwrap();
    assert_seeded_matches_cold(&seeded, &ShardedSource::open(&dir).unwrap());
    assert_eq!(
        ShardedSource::open_with_budget(&dir, 0).unwrap().io_stats().cache_resident_bytes,
        0
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn compact_reclaims_dead_bytes_and_restores_build_once_image() {
    let table = base_table();
    let batches = split_by_time(&table, 4);
    let (path, stats) = build_by_appends("compact.cohana", &batches);
    let appended_size = std::fs::metadata(&path).unwrap().len();
    assert!(stats.last().unwrap().dead_bytes > 0);

    let cstats = persist::compact(&path).unwrap();
    assert_eq!(cstats.bytes_before, appended_size);
    assert_eq!(cstats.rows, table.num_rows());
    assert!(cstats.reclaimed_bytes > 0, "compaction reclaims dead bytes");
    assert!(cstats.bytes_after < cstats.bytes_before);

    // Compaction restores the exact build-once image: same primary order,
    // same chunking, same dictionaries, same codec selections — byte for
    // byte, in the current (v4) format.
    let bytes = std::fs::read(&path).unwrap();
    assert_eq!(&bytes[4..8], 4u32.to_le_bytes());
    let once = CompressedTable::build(&table, CompressionOptions::with_chunk_size(CHUNK)).unwrap();
    assert_eq!(bytes, persist::to_bytes(&once).to_vec());
    std::fs::remove_file(&path).ok();
}

/// The golden images' rows, and `k` time slices of new activity by the same
/// users one observation window later: every user returns, so every append
/// rewrites chunks.
fn fixture_and_later_slices(k: usize) -> (ActivityTable, Vec<ActivityTable>) {
    let rows = persist::from_bytes(fixtures::V3).unwrap().decompress().unwrap();
    let tidx = rows.schema().time_idx();
    let (lo, hi) = rows.int_range(tidx).unwrap();
    let mut later = TableBuilder::new(rows.schema().clone());
    for row in rows.rows() {
        let mut values = row.values().to_vec();
        values[tidx] = Value::int(values[tidx].as_int().unwrap() + (hi - lo + 1));
        later.push(values).unwrap();
    }
    (rows, split_by_time(&later.finish().unwrap(), k))
}

/// One table holding the rows of all of `tables`.
fn union(tables: &[&ActivityTable]) -> ActivityTable {
    let mut b = TableBuilder::new(tables[0].schema().clone());
    for row in tables.iter().flat_map(|t| t.rows()) {
        b.push(row.values().to_vec()).unwrap();
    }
    b.finish().unwrap()
}

#[test]
fn v3_files_migrate_to_v4_on_their_first_append() {
    let (rows, batches) = fixture_and_later_slices(2);
    let path = temp_path("v3-migrate.cohana");
    std::fs::write(&path, fixtures::V3).unwrap();

    // An empty batch writes nothing, so the file stays v3.
    let empty = TableBuilder::new(rows.schema().clone()).finish().unwrap();
    persist::append(&path, &empty).unwrap();
    assert_eq!(std::fs::read(&path).unwrap(), fixtures::V3);

    // A real one compacts the file into its v4 build-once image and grows
    // that: the file is v4 and holds the fixture rows plus the batch.
    let stats = persist::append(&path, &batches[0]).unwrap();
    assert_eq!(stats.rows_appended, batches[0].num_rows());
    assert!(stats.chunks_rewritten > 0, "every fixture user returns");
    let bytes = std::fs::read(&path).unwrap();
    assert_eq!(&bytes[4..8], 4u32.to_le_bytes());
    let grown = union(&[&rows, &batches[0]]);
    assert_eq!(persist::from_bytes(&bytes).unwrap().decompress().unwrap().rows(), grown.rows());

    // Compacting it lands on the exact build-once image of those rows.
    persist::compact(&path).unwrap();
    let once = CompressedTable::build(&grown, CompressionOptions::with_chunk_size(CHUNK)).unwrap();
    assert_eq!(std::fs::read(&path).unwrap(), persist::to_bytes(&once).to_vec());
    std::fs::remove_file(&path).ok();
}

#[test]
fn v4_appends_match_v3_appends_decoded() {
    // The same batches appended to the v3 fixture and to the v4 image of its
    // table give the same file, byte for byte: the v3 file's migration is
    // that v4 image.
    let (rows, batches) = fixture_and_later_slices(3);
    let v3_path = temp_path("parity-v3.cohana");
    let v4_path = temp_path("parity-v4.cohana");
    std::fs::write(&v3_path, fixtures::V3).unwrap();
    let v4_image = persist::to_bytes(&persist::from_bytes(fixtures::V3).unwrap());
    std::fs::write(&v4_path, &v4_image).unwrap();
    for b in &batches {
        persist::append(&v3_path, b).unwrap();
        persist::append(&v4_path, b).unwrap();
    }
    assert_eq!(std::fs::read(&v3_path).unwrap(), std::fs::read(&v4_path).unwrap());
    let v3 = persist::read_file(&v3_path).unwrap();
    let v4 = persist::read_file(&v4_path).unwrap();
    assert_eq!(v3.chunks(), v4.chunks());
    assert_eq!(v3.metas(), v4.metas());
    let all: Vec<&ActivityTable> = std::iter::once(&rows).chain(&batches).collect();
    assert_eq!(v4.decompress().unwrap().rows(), union(&all).rows());
    std::fs::remove_file(&v3_path).ok();
    std::fs::remove_file(&v4_path).ok();
}

#[test]
fn open_snapshot_survives_append_and_compact() {
    let table = base_table();
    let batches = split_by_time(&table, 2);
    let path = temp_path("snapshot.cohana");
    let first =
        CompressedTable::build(&batches[0], CompressionOptions::with_chunk_size(CHUNK)).unwrap();
    persist::write_file(&first, &path).unwrap();

    let src = FileSource::open(&path).unwrap();
    persist::append(&path, &batches[1]).unwrap();
    persist::compact(&path).unwrap();
    // The old handle still reads the pre-append image: the append left the
    // old footer's bytes untouched and the compact replaced the path via
    // rename, keeping the old inode alive through the open fd.
    assert_eq!(src.table_meta().num_rows(), batches[0].num_rows());
    for i in 0..src.num_chunks() {
        assert_eq!(&*src.chunk(i).unwrap(), &first.chunks()[i]);
    }
    std::fs::remove_file(&path).ok();
}

#[test]
fn truncated_appended_file_reports_named_corruption() {
    let table = base_table();
    let batches = split_by_time(&table, 2);
    let (path, _) = build_by_appends("truncated.cohana", &batches);
    let bytes = std::fs::read(&path).unwrap();
    // A tail whose footer length reaches past the start of the file must
    // name the impossible offset, not panic or report a bare UnexpectedEof.
    let mut crafted = bytes.clone();
    let tail = crafted.len() - 12;
    crafted[tail..tail + 8].copy_from_slice(&u64::MAX.to_le_bytes());
    match persist::from_bytes(&crafted).unwrap_err() {
        StorageError::Corrupt(msg) => {
            assert!(msg.contains("would start at offset"), "unhelpful message: {msg}")
        }
        other => panic!("expected Corrupt, got {other:?}"),
    }
    // Any truncation of an appended image errors cleanly (the tail magic or
    // the footer bounds catch it), never panics.
    for cut in [bytes.len() - 1, bytes.len() - 13, bytes.len() / 2, 9] {
        assert!(persist::from_bytes(&bytes[..cut]).is_err(), "cut at {cut} should fail");
    }
    std::fs::remove_file(&path).ok();
}

/// One generated tuple: `(user, time, action)` is the primary key, the rest
/// rides along; `batch` says which append brings it.
#[derive(Debug, Clone)]
struct Event {
    user: u8,
    time: i64,
    action: u8,
    dims: u8,
    measure: i64,
    batch: usize,
}

fn events(batches: usize) -> impl Strategy<Value = Vec<Event>> {
    // Few users, times and actions: a user's tuples land in several batches
    // in no time order (later, earlier and interleaved arrivals), often at
    // a time they already have under another action; a user whose tuples
    // all fall into late batches is brand new there.
    let event = (0u8..24, 0i64..12, 0u8..3, 0u8..12, -50i64..50, 0..batches).prop_map(
        |(user, time, action, dims, measure, batch)| Event {
            user,
            time,
            action,
            dims,
            measure,
            batch,
        },
    );
    proptest::collection::vec(event, 1..400)
}

fn event_table(events: &[&Event]) -> ActivityTable {
    const ACTIONS: [&str; 3] = ["launch", "shop", "fight"];
    const PLACES: [(&str, &str); 4] =
        [("China", "Beijing"), ("China", "Shanghai"), ("Australia", "Sydney"), ("Fiji", "Suva")];
    const ROLES: [&str; 3] = ["dwarf", "wizard", "bandit"];
    let mut b = TableBuilder::new(Schema::game_actions());
    for e in events {
        let (country, city) = PLACES[e.dims as usize % 4];
        b.push(vec![
            Value::str(format!("user-{:03}", e.user)),
            Value::int(1_000 * e.time),
            Value::str(ACTIONS[e.action as usize]),
            Value::str(country),
            Value::str(city),
            Value::str(ROLES[e.dims as usize % 3]),
            Value::int(e.measure),
            Value::int(e.measure * e.measure),
        ])
        .unwrap();
    }
    b.finish().unwrap()
}

/// §4.1's layout of `table` encoded row by row from public constructors
/// alone, sharing nothing with the columnar assembler every build and
/// rewrite runs: a chunk closes at the first user boundary at or past
/// `chunk_size` rows, a string cell's gid comes from a dictionary built over
/// the column's distinct values, and each chunk is made by `UserRle::from_rows`,
/// `ChunkColumn::from_gids` / `from_ints` and `Chunk::new`.
fn row_oracle(table: &ActivityTable, chunk_size: usize) -> (Vec<Chunk>, Vec<ColumnMeta>) {
    let schema = table.schema();
    let user_idx = schema.user_idx();
    let metas: Vec<ColumnMeta> = schema
        .attributes()
        .iter()
        .enumerate()
        .map(|(idx, attr)| match (attr.role, attr.vtype) {
            (AttributeRole::User, _) => {
                ColumnMeta::User { dict: GlobalDict::build(table.distinct_strings(idx)) }
            }
            (_, ValueType::Str) => {
                ColumnMeta::Str { dict: GlobalDict::build(table.distinct_strings(idx)) }
            }
            (_, ValueType::Int) => {
                let (min, max) = table.int_range(idx).unwrap_or((0, 0));
                ColumnMeta::Int { min, max }
            }
        })
        .collect();
    let chunk = |rows: std::ops::Range<usize>| {
        let gids = |idx: usize| -> Vec<u32> {
            let dict = metas[idx].dict().unwrap();
            rows.clone()
                .map(|r| dict.lookup(table.rows()[r].get(idx).as_str().unwrap()).unwrap())
                .collect()
        };
        let columns = metas
            .iter()
            .enumerate()
            .map(|(idx, meta)| match meta {
                ColumnMeta::User { .. } => None,
                ColumnMeta::Str { .. } => Some(ChunkColumn::from_gids(&gids(idx))),
                ColumnMeta::Int { .. } => Some(ChunkColumn::from_ints(
                    &rows
                        .clone()
                        .map(|r| table.rows()[r].get(idx).as_int().unwrap())
                        .collect::<Vec<_>>(),
                )),
            })
            .collect();
        Chunk::new(UserRle::from_rows(&gids(user_idx)), columns).unwrap()
    };
    let (mut chunks, mut start, mut end) = (Vec::new(), 0, 0);
    for block in table.user_blocks() {
        if end - start >= chunk_size {
            chunks.push(chunk(start..end));
            start = end;
        }
        end += block.len;
    }
    if end > start {
        chunks.push(chunk(start..end));
    }
    (chunks, metas)
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: if cfg!(debug_assertions) { 16 } else { 512 },
        ..ProptestConfig::default()
    })]

    /// Any way of cutting a table into a first build and K appends — new
    /// users, returning users whose tuples arrive later, earlier or
    /// interleaved, equal times that differ only in action — decodes to the
    /// rows of building the union once, chunk bound intact; and compacting it
    /// gives the build-once image byte for byte.
    #[test]
    fn any_batch_sequence_appends_to_the_build_once_table(
        events in events(5),
        chunk_size in 1usize..40,
    ) {
        let mut unique = std::collections::BTreeMap::new();
        for e in &events {
            unique.entry((e.user, e.time, e.action)).or_insert(e);
        }
        let all: Vec<&Event> = unique.values().copied().collect();
        let union = event_table(&all);
        let options = CompressionOptions::with_chunk_size(chunk_size);
        let once = persist::to_bytes(&CompressedTable::build(&union, options).unwrap());
        let batches: Vec<ActivityTable> = (0..5)
            .map(|k| event_table(&all.iter().copied().filter(|e| e.batch == k).collect::<Vec<_>>()))
            .collect();

        let first = CompressedTable::build(&batches[0], options).unwrap();
        let path = temp_path("prop.cohana");
        persist::write_file(&first, &path).unwrap();
        let mut rows = batches[0].num_rows();
        for batch in &batches[1..] {
            let stats = persist::append(&path, batch).unwrap();
            rows += batch.num_rows();
            prop_assert_eq!(stats.rows_appended, batch.num_rows());
            let grown = persist::read_file(&path).unwrap();
            prop_assert_eq!(grown.num_rows(), rows);
            prop_assert_eq!(grown.chunks().len(), stats.chunks_after);
            assert_chunk_bound(&grown, chunk_size);
            grown.validate_consistency().unwrap();
        }
        let appended = persist::read_file(&path).unwrap();
        prop_assert_eq!(appended.decompress().unwrap().rows(), union.rows());

        // A tuple already in the file is refused, whichever batch brought
        // it, and the refusal writes nothing.
        let image = std::fs::read(&path).unwrap();
        let again = batches.iter().rev().find(|b| !b.is_empty()).unwrap();
        prop_assert!(matches!(persist::append(&path, again), Err(StorageError::Invalid(_))));
        prop_assert_eq!(&std::fs::read(&path).unwrap(), &image);

        persist::compact(&path).unwrap();
        prop_assert_eq!(&std::fs::read(&path).unwrap(), &once.to_vec());
        std::fs::remove_file(&path).ok();
    }

    /// The one encoder against the row oracle: `build` cuts, encodes and
    /// decodes any table exactly as `row_oracle` does.
    #[test]
    fn build_equals_the_row_oracle(
        events in events(1),
        chunk_size in prop::sample::select(vec![1usize, 2, 7, 64, 1024]),
    ) {
        let mut unique = std::collections::BTreeMap::new();
        for e in &events {
            unique.entry((e.user, e.time, e.action)).or_insert(e);
        }
        let table = event_table(&unique.into_values().collect::<Vec<_>>());
        let built = CompressedTable::build(&table, CompressionOptions::with_chunk_size(chunk_size))
            .unwrap();
        let (chunks, metas) = row_oracle(&table, chunk_size);
        prop_assert_eq!(built.chunks(), &chunks[..]);
        prop_assert_eq!(built.metas(), &metas[..]);
        prop_assert_eq!(built.decompress().unwrap().rows(), table.rows());
    }
}
