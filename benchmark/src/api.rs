//! Every call into the engine lives in this file, so a PR that reshapes an
//! internal module never has to edit the benchmark: the surface used is
//! `Cohana::open(..)` builders, `TableHandle`, `Session`/`Statement`/
//! `QueryStream`, `paper::*`, `CohortQuery::builder`/`to_sql`, `WireBatch`/
//! `ReportAssembler`, `Server`/`Client`, `ChunkSource`, `BitPacked`,
//! `codec::{encode_section, decode_section_into}`, `parse_cohort_query`,
//! `naive_execute` and `generate`.

use cohana_activity::{generate, GeneratorConfig, Timestamp};
use cohana_core::naive::naive_execute;
use cohana_core::{paper, AggFunc, EngineOptions, ReportAssembler};
use cohana_server::{Client, ServerConfig};
use cohana_sql::parse_cohort_query;
use cohana_storage::codec::{decode_section_into, encode_section};
use cohana_storage::{BitPacked, Codec};
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

pub use cohana_activity::ActivityTable;
pub use cohana_core::{
    Cohana, CohortQuery, CohortReport, QueryStats, ResultBatch, Statement, TableHandle, WireBatch,
};
pub use cohana_server::{AdmissionStats, Server};
pub use cohana_storage::{AppendStats, ChunkSource, CompactStats, SourceIoStats};

pub type Error = Box<dyn std::error::Error + Send + Sync>;
pub type Result<T> = std::result::Result<T, Error>;

/// Rows per chunk of every table the benchmark builds: small enough that the
/// scaled-down tables still have a dozen chunks to prune, cache and evict.
pub const CHUNK_ROWS: usize = 64 * 1024;

/// The generated activity rows for `users` users; the seed is the only
/// source of variation between runs.
pub fn generate_rows(users: usize, seed: u64) -> ActivityTable {
    generate(&GeneratorConfig { seed, ..GeneratorConfig::new(users) })
}

/// Q1–Q8 of the paper, then the wide-result query QW. Q5/Q6 use the window's
/// first two weeks, a different range from Q2's, so no two queries are
/// duplicates.
pub fn queries() -> Vec<CohortQuery> {
    let day = |s: &str| Timestamp::parse(s).expect("valid date").secs();
    let (d1, d2) = (day("2013-05-19"), day("2013-06-01"));
    let qw = CohortQuery::builder("launch")
        .cohort_by(["country", "city", "role"])
        .aggregate(AggFunc::user_count())
        .aggregate(AggFunc::sum("gold"))
        .build()
        .expect("QW is valid");
    vec![
        paper::q1(),
        paper::q2(),
        paper::q3(),
        paper::q4(),
        paper::q5(d1, d2),
        paper::q6(d1, d2),
        paper::q7(7),
        paper::q8(7),
        qw,
    ]
}

/// The reference evaluator the engine's answers are pinned to.
pub fn naive(table: &ActivityTable, query: &CohortQuery) -> Result<CohortReport> {
    Ok(naive_execute(table, query)?)
}

/// The rows of the first `users` users (tables are sorted by user, so this
/// is a row prefix).
pub fn user_prefix(table: &ActivityTable, users: usize) -> Result<ActivityTable> {
    let end = table.user_blocks().take(users).last().map_or(0, |b| b.start + b.len);
    Ok(ActivityTable::from_sorted_rows(table.schema().clone(), table.rows()[..end].to_vec())?)
}

/// Split a table into the rows of its first `head_share` of time and
/// `batches` equal later time slices. Later slices revisit users of earlier
/// ones, which is what forces chunk rewrites on ingest. Every row lands in
/// exactly one part and each part keeps primary-key order.
pub fn split_by_time(
    table: &ActivityTable,
    head_share: f64,
    batches: usize,
) -> Result<(ActivityTable, Vec<ActivityTable>)> {
    let tidx = table.schema().time_idx();
    let mut order: Vec<usize> = (0..table.num_rows()).collect();
    order.sort_by_key(|&r| table.rows()[r].get(tidx).as_int().expect("time is an int"));
    let head_rows = (table.num_rows() as f64 * head_share) as usize;
    let (head, tail) = order.split_at(head_rows);
    let part = |rows: &[usize]| -> Result<ActivityTable> {
        let mut rows = rows.to_vec();
        rows.sort_unstable();
        let tuples = rows.iter().map(|&r| table.rows()[r].clone()).collect();
        Ok(ActivityTable::from_sorted_rows(table.schema().clone(), tuples)?)
    };
    let per = tail.len().div_ceil(batches.max(1)).max(1);
    Ok((part(head)?, tail.chunks(per).map(part).collect::<Result<_>>()?))
}

/// A fresh engine at the given query parallelism.
pub fn engine(parallelism: usize) -> Arc<Cohana> {
    Arc::new(Cohana::new(EngineOptions { parallelism, ..EngineOptions::default() }))
}

/// Build `rows` into one v4 file at `path` and attach it lazily with a
/// `cache_bytes` segment cache.
pub fn create_file<'e>(
    engine: &'e Cohana,
    path: &Path,
    name: &str,
    rows: &ActivityTable,
    cache_bytes: usize,
) -> Result<TableHandle<'e>> {
    Ok(engine
        .open(path)
        .name(name)
        .chunk_size(CHUNK_ROWS)
        .cache_bytes(cache_bytes)
        .create_from(rows)?)
}

/// Attach the file at `path` lazily with a `cache_bytes` segment cache.
pub fn open_file<'e>(
    engine: &'e Cohana,
    path: &Path,
    name: &str,
    cache_bytes: usize,
) -> Result<TableHandle<'e>> {
    Ok(engine.open(path).name(name).cache_bytes(cache_bytes).open()?)
}

/// Load the file at `path` fully into memory.
pub fn open_resident<'e>(engine: &'e Cohana, path: &Path, name: &str) -> Result<TableHandle<'e>> {
    Ok(engine.open(path).name(name).resident(true).open()?)
}

/// Build `rows` into a `shards`-way sharded table directory at `path` with
/// the default (fitting) cache and no background maintenance, so compaction
/// happens only when the harness asks for it.
pub fn create_sharded<'e>(
    engine: &'e Cohana,
    path: &Path,
    name: &str,
    rows: &ActivityTable,
    shards: usize,
) -> Result<TableHandle<'e>> {
    Ok(engine.open(path).name(name).chunk_size(CHUNK_ROWS).shards(shards).create_from(rows)?)
}

/// Attach the sharded table directory at `path`.
pub fn open_sharded<'e>(engine: &'e Cohana, path: &Path, name: &str) -> Result<TableHandle<'e>> {
    Ok(engine.open(path).name(name).open()?)
}

/// The handle of a registered table.
pub fn table<'e>(engine: &'e Cohana, name: &str) -> Result<TableHandle<'e>> {
    Ok(engine.table(name)?)
}

/// The chunk source a statement prepared now would pin.
pub fn source(table: &TableHandle<'_>) -> Result<Arc<dyn ChunkSource>> {
    Ok(table.source()?)
}

pub fn ingest(table: &TableHandle<'_>, batch: &ActivityTable) -> Result<AppendStats> {
    Ok(table.ingest(batch)?)
}

pub fn compact(table: &TableHandle<'_>) -> Result<CompactStats> {
    Ok(table.compact()?)
}

/// Prepare every query of a pass against a table.
pub fn prepare_all(
    table: &TableHandle<'_>,
    queries: &[CohortQuery],
    parallelism: usize,
) -> Result<Vec<Statement>> {
    let session = table.session().with_parallelism(parallelism);
    queries.iter().map(|q| Ok(session.prepare(q)?)).collect()
}

/// One timed `Session::prepare`.
pub fn time_prepare(table: &TableHandle<'_>, query: &CohortQuery) -> Result<Duration> {
    let session = table.session();
    let t = Instant::now();
    std::hint::black_box(session.prepare(query)?);
    Ok(t.elapsed())
}

/// One timed `parse_cohort_query` of the query's own SQL rendering.
pub fn time_parse(table: &TableHandle<'_>, sql: &str) -> Result<Duration> {
    let schema = table.schema()?;
    let t = Instant::now();
    std::hint::black_box(parse_cohort_query(sql, &schema)?);
    Ok(t.elapsed())
}

/// Run a prepared statement to its report.
pub fn execute(stmt: &Statement) -> Result<CohortReport> {
    Ok(stmt.execute()?)
}

/// What a file-backed or sharded table occupies on disk, summed over its
/// files.
pub struct DiskUsage {
    pub file_bytes: u64,
    pub dead_bytes: u64,
    pub live_rows: u64,
}

impl DiskUsage {
    pub fn bytes_per_row(&self) -> f64 {
        self.file_bytes as f64 / self.live_rows.max(1) as f64
    }
}

pub fn disk_usage(table: &TableHandle<'_>) -> Result<DiskUsage> {
    let space = table.space_stats()?;
    Ok(DiskUsage {
        file_bytes: space.iter().map(|s| s.file_bytes).sum(),
        dead_bytes: space.iter().map(|s| s.dead_bytes).sum(),
        live_rows: space.iter().map(|s| s.rows).sum(),
    })
}

/// `Q1`'s total cohort size: every user launches, so this is the number of
/// users the table holds and can only grow under ingest.
pub fn total_cohort_size(report: &CohortReport) -> u64 {
    report.cohort_sizes.values().sum()
}

/// Columns the statement's scan fetches.
pub fn projected_columns(stmt: &Statement) -> Vec<usize> {
    stmt.plan().projected_idxs.clone()
}

/// When one chunk's fetch and pull ran, and how long the source's codecs
/// worked inside the fetch.
pub struct ChunkTiming {
    pub fetch: (Instant, Instant),
    pub decode_nanos: u64,
    pub pull: (Instant, Instant),
}

/// Run one execution step by step: ahead of each pull, fetch the next live
/// chunk's projected columns through the source. The serial stream touches
/// one chunk per pull and finds the columns just fetched in the cache, so
/// read+decode time lands in the fetch and scan time in the pull.
pub fn stream_stepwise(
    stmt: &Statement,
    live: &[usize],
    source: &dyn ChunkSource,
    cols: &[usize],
) -> Result<(Vec<ResultBatch>, Vec<ChunkTiming>)> {
    let mut stream = stmt.stream();
    let mut batches = Vec::with_capacity(live.len());
    let mut timings = Vec::with_capacity(live.len());
    for &idx in live {
        let decoded_before = decode_nanos(&source.io_stats());
        let fetch_start = Instant::now();
        std::hint::black_box(source.chunk_columns(idx, cols)?.num_rows());
        let fetch_end = Instant::now();
        let decode_nanos = decode_nanos(&source.io_stats()) - decoded_before;
        let pull_start = Instant::now();
        let batch = stream.next().ok_or("stream ended before its live chunks did")??;
        let pull_end = Instant::now();
        if batch.chunk_index() != idx {
            return Err("stream pulled a different chunk than the one fetched".into());
        }
        batches.push(batch);
        timings.push(ChunkTiming {
            fetch: (fetch_start, fetch_end),
            decode_nanos,
            pull: (pull_start, pull_end),
        });
    }
    if stream.next().is_some() {
        return Err("stream yielded more batches than live chunks".into());
    }
    Ok((batches, timings))
}

/// The chunks a statement scans (the ones its plan does not prune), in pull
/// order, found by running it once.
pub fn live_chunks(stmt: &Statement) -> Result<Vec<usize>> {
    stmt.stream().map(|b| Ok(b?.chunk_index())).collect()
}

/// Nanoseconds the source spent inside its codecs so far.
fn decode_nanos(stats: &SourceIoStats) -> u64 {
    stats.decode.iter().map(|d| d.nanos).sum()
}

/// Merge pulled batches into the report (`Statement::report_from_batches`).
pub fn merge_report(stmt: &Statement, batches: Vec<ResultBatch>) -> Result<CohortReport> {
    Ok(stmt.report_from_batches(batches)?)
}

/// Encode pulled batches into their wire frames.
pub fn encode_batches(stmt: &Statement, batches: &[ResultBatch]) -> Vec<Vec<u8>> {
    batches.iter().map(|b| stmt.wire_batch(b).encode()).collect()
}

/// Decode wire frames, as a client does on receipt.
pub fn decode_frames(frames: &[Vec<u8>]) -> Result<Vec<WireBatch>> {
    frames.iter().map(|f| Ok(WireBatch::decode(f)?)).collect()
}

/// Assemble decoded batches into the report, as a client does.
pub fn assemble(stmt: &Statement, batches: &[WireBatch]) -> Result<CohortReport> {
    let query = stmt.query();
    let mut asm = ReportAssembler::new(
        query.cohort_by.iter().map(|c| c.to_string()).collect(),
        query.aggregates.iter().map(|a| a.header()).collect(),
    );
    for batch in batches {
        asm.push(batch)?;
    }
    Ok(asm.finish())
}

/// The SQL text a client sends for a query.
pub fn sql_of(query: &CohortQuery) -> String {
    query.to_sql()
}

/// A loopback server over `engine` admitting `cap` concurrent queries.
pub fn serve(engine: Arc<Cohana>, cap: usize) -> Result<Server> {
    Ok(Server::start(engine, ServerConfig { admission_cap: cap, ..ServerConfig::default() })?)
}

pub fn admission(server: &Server) -> AdmissionStats {
    server.admission_stats()
}

/// One client connection with every query of the pass prepared on it.
pub struct Connection {
    client: Client,
    prepared: Vec<cohana_server::Prepared>,
}

impl Connection {
    pub fn open(server: &Server, tenant: &str, sql: &[String]) -> Result<Connection> {
        let mut client = Client::connect(server.local_addr(), tenant)?;
        let prepared = sql.iter().map(|s| Ok(client.prepare(s)?)).collect::<Result<_>>()?;
        Ok(Connection { client, prepared })
    }

    /// Execute prepared query `q` and collect its report; also returns the
    /// server-side stats and the time the query waited for admission.
    pub fn query(&mut self, q: usize) -> Result<(CohortReport, QueryStats, Duration)> {
        self.query_stepwise(q, |_, _| ())
    }

    /// Like [`Connection::query`], reporting when each batch was folded into
    /// the report, so assembly can be told apart from waiting on the socket.
    pub fn query_stepwise(
        &mut self,
        q: usize,
        mut assembled: impl FnMut(Instant, Instant),
    ) -> Result<(CohortReport, QueryStats, Duration)> {
        let prepared = &self.prepared[q];
        let mut asm =
            ReportAssembler::new(prepared.cohort_attrs().to_vec(), prepared.agg_names().to_vec());
        let mut stream = self.client.execute(prepared)?;
        while let Some(batch) = stream.next_batch()? {
            let start = Instant::now();
            asm.push(&batch)?;
            assembled(start, Instant::now());
        }
        let exec = stream.stats().ok_or("server sent no stats")?;
        Ok((asm.finish(), exec.stats, exec.queue_wait))
    }
}

/// One bit-packed column segment of a table, with what is needed to replay
/// it through the codecs.
pub struct PackedColumn {
    pub width: u8,
    pub values: Vec<u64>,
    packed: BitPacked,
}

/// The bit-packed segments of up to `max_chunks` chunks of a table (every
/// non-user column of each).
pub fn packed_columns(source: &dyn ChunkSource, max_chunks: usize) -> Result<Vec<PackedColumn>> {
    let mut out = Vec::new();
    for idx in 0..source.num_chunks().min(max_chunks) {
        let chunk = source.chunk(idx)?;
        for column in chunk.columns().iter().flatten() {
            let packed = column.packed().clone();
            out.push(PackedColumn { width: packed.width(), values: packed.to_vec(), packed });
        }
    }
    Ok(out)
}

impl PackedColumn {
    /// Unpack the whole segment into `out` (`BitPacked::unpack_range`).
    pub fn unpack_into(&self, out: &mut Vec<u64>) {
        out.resize(self.packed.len(), 0);
        self.packed.unpack_range(0, self.packed.len(), out);
    }

    /// Bytes the packed words occupy.
    pub fn packed_bytes(&self) -> usize {
        self.packed.packed_bytes()
    }

    /// Encode the segment with codec `tag` (0 raw, 1 delta, 2 ans) the way
    /// the v4 writer does; `None` when the codec does not apply to it.
    pub fn encode(&self, tag: usize) -> Option<Vec<u8>> {
        encode_section(&self.values, self.width, CODECS[tag], 4)
    }

    /// Decode a section produced by [`PackedColumn::encode`] and check it
    /// reproduces the values.
    pub fn decode_checked(&self, tag: usize, section: &[u8], out: &mut Vec<u64>) -> Result<()> {
        let raw = 9 + self.packed_bytes() as u64;
        out.clear();
        decode_section_into(CODECS[tag], section, raw, Some(self.values.len() as u64), out)?;
        if *out != self.values {
            return Err("codec replay did not reproduce the column".into());
        }
        Ok(())
    }
}

/// In `SourceIoStats::decode` index order.
const CODECS: [Codec; 3] = [Codec::Raw, Codec::Delta, Codec::Ans];

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    fn keys(table: &ActivityTable) -> Vec<(String, i64, String)> {
        (0..table.num_rows())
            .map(|r| {
                let (user, time, action) = table.key(r);
                (user.to_string(), time, action.to_string())
            })
            .collect()
    }

    #[test]
    fn time_split_loses_and_duplicates_no_row() {
        let table = generate_rows(40, 11);
        let (head, batches) = split_by_time(&table, 0.5, 10).unwrap();
        assert_eq!(batches.len(), 10);
        assert_eq!(head.num_rows(), table.num_rows() / 2);
        // Equal slices: sizes differ by at most the rounding of the last one.
        let per = batches[0].num_rows();
        assert!(batches.iter().all(|b| b.num_rows() <= per && b.num_rows() + 10 > per));

        let mut all = keys(&head);
        let mut last_head_time = all.iter().map(|k| k.1).max().unwrap();
        for batch in &batches {
            // Parts are valid tables (sorted, unique keys) and time slices:
            // nothing in a later part is earlier than an earlier part's end.
            batch.validate().unwrap();
            let batch_keys = keys(batch);
            assert!(batch_keys.iter().all(|k| k.1 >= last_head_time));
            last_head_time = batch_keys.iter().map(|k| k.1).max().unwrap();
            all.extend(batch_keys);
        }
        assert_eq!(all.len(), table.num_rows());
        let unique: BTreeSet<_> = all.iter().cloned().collect();
        assert_eq!(unique.len(), table.num_rows(), "primary keys are unique across parts");
        assert_eq!(unique, keys(&table).into_iter().collect::<BTreeSet<_>>());
        // Later slices revisit users of the head: that is what makes ingest
        // rewrite chunks.
        let head_users: BTreeSet<_> = keys(&head).into_iter().map(|k| k.0).collect();
        assert!(keys(&batches[0]).iter().any(|k| head_users.contains(&k.0)));
    }

    #[test]
    fn user_prefix_is_whole_users() {
        let table = generate_rows(40, 11);
        let prefix = user_prefix(&table, 7).unwrap();
        assert_eq!(prefix.num_users(), 7);
        assert_eq!(keys(&prefix), keys(&table)[..prefix.num_rows()]);
        assert_eq!(user_prefix(&table, 1_000).unwrap().num_rows(), table.num_rows());
    }

    #[test]
    fn the_pass_has_nine_distinct_queries_that_round_trip_through_sql() {
        let queries = queries();
        let sql: BTreeSet<String> = queries.iter().map(sql_of).collect();
        assert_eq!((queries.len(), sql.len()), (9, 9));
        let schema = generate_rows(2, 1).schema().clone();
        for query in &queries {
            assert_eq!(&parse_cohort_query(&sql_of(query), &schema).unwrap(), query);
        }
    }
}
