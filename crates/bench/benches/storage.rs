//! Storage-layer microbenchmarks: bit-packing random access, dictionary
//! lookups, table compression and decompression — the primitives behind
//! Figure 7 and the TableScan — plus the footer-indexed formats' headline
//! trade-offs: eager whole-file loading vs. O(footer) lazy opening with
//! on-demand decode on a Q2-style selective query, and §4.2 chunk pruning
//! made visible by cohort-clustered arrival.
//!
//! CI runs this bench in smoke mode (`COHANA_BENCH_SMOKE=1`, one iteration
//! per bench) so format or harness bit-rot fails the workflow.

use cohana_activity::{generate, GeneratorConfig, SECONDS_PER_DAY};
use cohana_core::{paper, plan_query, PlannerOptions, Statement};
use cohana_storage::{
    bitpack::BitPacked, persist, ChunkSource, CompressedTable, CompressionOptions, FileSource,
    GlobalDict,
};
use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use std::sync::Arc;
use std::time::Duration;

fn bench_bitpack(c: &mut Criterion) {
    let values: Vec<u64> = (0..65_536u64).map(|i| (i * 2_654_435_761) % 1_000).collect();
    let packed = BitPacked::from_slice(&values);

    let mut g = c.benchmark_group("bitpack");
    g.measurement_time(Duration::from_millis(900)).warm_up_time(Duration::from_millis(200));
    g.bench_function("pack_64k", |b| {
        b.iter(|| BitPacked::from_slice(std::hint::black_box(&values)))
    });
    g.bench_function("random_get_64k", |b| {
        let mut i = 0usize;
        b.iter(|| {
            i = (i * 16_807 + 7) % values.len();
            std::hint::black_box(packed.get(i))
        })
    });
    g.bench_function("sequential_decode_64k", |b| {
        b.iter(|| {
            let mut sum = 0u64;
            for v in packed.iter() {
                sum = sum.wrapping_add(v);
            }
            std::hint::black_box(sum)
        })
    });
    g.finish();
}

fn bench_dict(c: &mut Criterion) {
    let words: Vec<String> = (0..4_096).map(|i| format!("value-{i:05}")).collect();
    let dict = GlobalDict::build(words.iter().map(|s| s.as_str()));

    let mut g = c.benchmark_group("dict");
    g.measurement_time(Duration::from_millis(900)).warm_up_time(Duration::from_millis(200));
    g.bench_function("lookup_hit", |b| {
        let mut i = 0usize;
        b.iter(|| {
            i = (i + 997) % words.len();
            std::hint::black_box(dict.lookup(&words[i]))
        })
    });
    g.bench_function("lookup_miss_rank", |b| {
        b.iter(|| std::hint::black_box(dict.rank("value-99999x")))
    });
    g.finish();
}

fn bench_compress(c: &mut Criterion) {
    let table = generate(&GeneratorConfig::new(300));
    let compressed =
        CompressedTable::build(&table, CompressionOptions::with_chunk_size(16 * 1024)).unwrap();

    let mut g = c.benchmark_group("table");
    g.sample_size(10)
        .measurement_time(Duration::from_secs(2))
        .warm_up_time(Duration::from_millis(300));
    g.bench_function("compress_300u", |b| {
        b.iter(|| {
            CompressedTable::build(
                std::hint::black_box(&table),
                CompressionOptions::with_chunk_size(16 * 1024),
            )
            .unwrap()
        })
    });
    g.bench_function("decompress_300u", |b| {
        b.iter_batched(|| compressed.clone(), |ct| ct.decompress().unwrap(), BatchSize::SmallInput)
    });
    g.bench_function("persist_roundtrip_300u", |b| {
        b.iter(|| {
            let bytes = cohana_storage::persist::to_bytes(std::hint::black_box(&compressed));
            cohana_storage::persist::from_bytes(&bytes).unwrap()
        })
    });
    g.finish();
}

/// Eager vs. lazy access to a persisted table: cold open alone, and cold
/// open followed by a selective Q2 query (birth date range). The lazy path
/// reads only the footer at open and, thanks to index-entry pruning and
/// projection pushdown, reads and decodes only the chunk columns the query
/// touches.
///
/// On the default generator every chunk's time range overlaps the Q2 birth
/// window (chunks are user-clustered and users span the whole observation
/// period), so the structural wins here are the O(footer) open and the
/// per-column fetch; [`bench_pruning_cohort_clustered`] shows chunk pruning
/// proper on time-clustered data.
fn bench_lazy_vs_eager(c: &mut Criterion) {
    let table = generate(&GeneratorConfig::new(300));
    let compressed =
        CompressedTable::build(&table, CompressionOptions::with_chunk_size(4 * 1024)).unwrap();
    let dir = std::env::temp_dir().join("cohana-storage-bench");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("bench-table.cohana");
    persist::write_file(&compressed, &path).unwrap();
    let query = paper::q2();
    let plan = plan_query(&query, compressed.schema(), PlannerOptions::default()).unwrap();

    let mut g = c.benchmark_group("v3_open");
    g.sample_size(20)
        .measurement_time(Duration::from_secs(2))
        .warm_up_time(Duration::from_millis(300));
    g.bench_function("eager_open", |b| {
        b.iter(|| persist::read_file(std::hint::black_box(&path)).unwrap())
    });
    g.bench_function("lazy_open", |b| {
        b.iter(|| FileSource::open(std::hint::black_box(&path)).unwrap())
    });
    g.bench_function("eager_open_plus_q2", |b| {
        b.iter(|| {
            let t = persist::read_file(&path).unwrap();
            Statement::with_plan(Arc::new(t), plan.clone(), 1).unwrap().execute().unwrap()
        })
    });
    g.bench_function("lazy_open_plus_q2", |b| {
        b.iter(|| {
            let src = FileSource::open(&path).unwrap();
            Statement::with_plan(Arc::new(src), plan.clone(), 1).unwrap().execute().unwrap()
        })
    });
    g.finish();
    std::fs::remove_file(&path).ok();
}

/// §4.2 chunk pruning made visible (the ROADMAP item): cohort-clustered
/// arrival gives chunks disjoint time bounds, so a birth date-range query
/// (Q5 over the first five days) skips most chunks entirely — no I/O, no
/// decode — while the same query on the default early-skew data touches
/// every chunk.
fn bench_pruning_cohort_clustered(c: &mut Criterion) {
    let cfg = GeneratorConfig::cohort_clustered(300);
    let table = generate(&cfg);
    let compressed =
        CompressedTable::build(&table, CompressionOptions::with_chunk_size(4 * 1024)).unwrap();
    let dir = std::env::temp_dir().join("cohana-storage-bench");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("bench-clustered.cohana");
    persist::write_file(&compressed, &path).unwrap();
    let start = cfg.start.secs();
    let query = paper::q5(start, start + 5 * SECONDS_PER_DAY);
    let plan = plan_query(&query, compressed.schema(), PlannerOptions::default()).unwrap();

    let mut g = c.benchmark_group("pruning_clustered");
    g.sample_size(20)
        .measurement_time(Duration::from_secs(2))
        .warm_up_time(Duration::from_millis(300));
    g.bench_function("eager_open_plus_q5_early", |b| {
        b.iter(|| {
            let t = persist::read_file(&path).unwrap();
            Statement::with_plan(Arc::new(t), plan.clone(), 1).unwrap().execute().unwrap()
        })
    });
    g.bench_function("lazy_open_plus_q5_early", |b| {
        b.iter(|| {
            let src = FileSource::open(&path).unwrap();
            Statement::with_plan(Arc::new(src), plan.clone(), 1).unwrap().execute().unwrap()
        })
    });
    g.finish();

    let src = Arc::new(FileSource::open(&path).unwrap());
    Statement::with_plan(src.clone(), plan.clone(), 1).unwrap().execute().unwrap();
    let io = src.io_stats();
    eprintln!(
        "# pruning_clustered/q5 io: decoded {} of {} chunks, read {} bytes",
        io.chunks_decoded,
        src.num_chunks(),
        io.bytes_read
    );
    std::fs::remove_file(&path).ok();
}

criterion_group!(
    benches,
    bench_bitpack,
    bench_dict,
    bench_compress,
    bench_lazy_vs_eager,
    bench_pruning_cohort_clustered
);
criterion_main!(benches);
