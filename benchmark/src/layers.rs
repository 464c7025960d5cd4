//! The traced run: the harness drives each query step by step through the
//! engine's public calls, recording a span per call, and probes single
//! layers directly. Everything here is measured from outside the engine.

use crate::api::{self, ChunkSource, CohortReport, Result, Statement};
use crate::calib;
use crate::stats::median;
use crate::trace::{layer_self_times, Span, Tracer, HARNESS};
use crate::workloads::{
    self, elapsed_s, ms, run_cycle, Cycle, Fixture, IngestPlan, Samples, Tally, Workload,
};
use std::collections::BTreeMap;
use std::time::Instant;

/// Index of Q4 and QW in a pass: the cheapest query exposes the per-request
/// floor, the widest result exposes merge, encode and socket.
const Q4: usize = 3;
const QW: usize = 8;

/// Share of a traced run's measured time spent untraced, to have a `pass_ms`
/// to hold the traced one against.
const UNTRACED_SHARE: f64 = 0.3;

/// What replaying one execution's batches through the wire format cost.
#[derive(Debug, Clone, Copy, Default)]
pub struct WireReplay {
    pub encode_ns: u64,
    pub decode_ns: u64,
    pub assemble_ns: u64,
    pub bytes: usize,
    pub result_rows: usize,
}

pub struct Traced {
    pub report: CohortReport,
    pub merge_ns: u64,
    pub wire: Option<WireReplay>,
}

fn ns(start: Instant, end: Instant) -> u64 {
    (end - start).as_nanos() as u64
}

/// Execute one prepared statement step by step under a root span named
/// `root_name`: per live chunk a fetch through the source (`source`, with
/// the codec time the source reports as a derived `codec` child) and a
/// stream pull (`exec`); then, with `with_wire`, encode → decode → assemble
/// (`wire`); then the merge into the report (`merge`).
pub fn traced_query(
    tracer: &mut Tracer,
    root_name: &'static str,
    query_id: u32,
    stmt: &Statement,
    live: &[usize],
    source: &dyn ChunkSource,
    with_wire: bool,
) -> Result<Traced> {
    let cols = api::projected_columns(stmt);
    let root = tracer.open(None, query_id, root_name, HARNESS);
    let (batches, timings) = api::stream_stepwise(stmt, live, source, &cols)?;
    for t in &timings {
        let fetch =
            tracer.record(Some(root), query_id, "chunk_columns", "source", t.fetch.0, t.fetch.1);
        tracer.derived(fetch, "decode", "codec", t.decode_nanos);
        tracer.record(Some(root), query_id, "pull", "exec", t.pull.0, t.pull.1);
    }
    let wire = if with_wire {
        let t0 = Instant::now();
        let frames = api::encode_batches(stmt, &batches);
        let t1 = Instant::now();
        let decoded = api::decode_frames(&frames)?;
        let t2 = Instant::now();
        let assembled = api::assemble(stmt, &decoded)?;
        let t3 = Instant::now();
        tracer.record(Some(root), query_id, "encode", "wire", t0, t1);
        tracer.record(Some(root), query_id, "decode", "wire", t1, t2);
        tracer.record(Some(root), query_id, "assemble", "wire", t2, t3);
        Some((
            WireReplay {
                encode_ns: ns(t0, t1),
                decode_ns: ns(t1, t2),
                assemble_ns: ns(t2, t3),
                bytes: frames.iter().map(Vec::len).sum(),
                result_rows: assembled.num_rows(),
            },
            assembled,
        ))
    } else {
        None
    };
    let t0 = Instant::now();
    let report = api::merge_report(stmt, batches)?;
    let t1 = Instant::now();
    tracer.record(Some(root), query_id, "report_from_batches", "merge", t0, t1);
    tracer.close(root);
    if let Some((_, assembled)) = &wire {
        if *assembled != report {
            return Err("the wire round trip changed the report".into());
        }
    }
    Ok(Traced { report, merge_ns: ns(t0, t1), wire: wire.map(|(w, _)| w) })
}

/// One served execution under a `root_name` root: a timed `roundtrip` span
/// (`server`) around the socket exchange, with the client's per-batch
/// assembly as timed children and, as derived children, what the server
/// reports it spent executing plus what the same batches cost to encode and
/// decode in process. The round trip's self time is what the serving layer
/// adds: framing, socket, admission, thread hand-off. Returns the report,
/// that self time and the admission wait, in nanoseconds.
fn traced_roundtrip(
    tracer: &mut Tracer,
    root_name: &'static str,
    query_id: u32,
    conn: &mut api::Connection,
    q: usize,
    replay: &WireReplay,
) -> Result<(CohortReport, u64, u64)> {
    let root = tracer.open(None, query_id, root_name, HARNESS);
    let trip = tracer.open(Some(root), query_id, "roundtrip", "server");
    let mut pushes = Vec::new();
    let (report, stats, queue_wait) = conn.query_stepwise(q, |s, e| pushes.push((s, e)))?;
    tracer.close(trip);
    tracer.close(root);
    let mut covered = 0;
    for (start, end) in pushes {
        tracer.record(Some(trip), query_id, "assemble", "wire", start, end);
        covered += ns(start, end);
    }
    tracer.derived(trip, "server_busy", "exec", stats.worker_busy_ns);
    tracer.derived(trip, "encode", "wire", replay.encode_ns);
    tracer.derived(trip, "decode", "wire", replay.decode_ns);
    covered += stats.worker_busy_ns + replay.encode_ns + replay.decode_ns;
    let overhead = tracer.spans[trip].duration().saturating_sub(covered);
    Ok((report, overhead, queue_wait.as_nanos() as u64))
}

/// Everything the traced run collects on the way to the per-layer metrics.
pub struct LayerRun {
    pub tracer: Tracer,
    /// Root span name the layer shares are taken over.
    pub root: &'static str,
    pub tally: Tally,
    /// Untraced samples: engine counters, and the `pass_ms` the traced one
    /// is held against.
    pub untraced: Samples,
    /// Summed `root` durations of each traced pass, in ms.
    pub traced_pass_ms: Vec<f64>,
    /// Per query index: merge and wire-replay costs.
    pub merge_ns: Vec<Vec<u64>>,
    pub wire: Vec<Vec<WireReplay>>,
    pub overhead_q4_ns: Vec<u64>,
    pub queue_wait_ns: Vec<u64>,
    pub ingest_cycle: Option<Cycle>,
    pub metrics: BTreeMap<&'static str, f64>,
}

impl LayerRun {
    fn new(root: &'static str, queries: usize) -> LayerRun {
        LayerRun {
            tracer: Tracer::new(Instant::now()),
            root,
            tally: Tally::default(),
            untraced: Samples::new(queries),
            traced_pass_ms: Vec::new(),
            merge_ns: vec![Vec::new(); queries],
            wire: vec![Vec::new(); queries],
            overhead_q4_ns: Vec::new(),
            queue_wait_ns: Vec::new(),
            ingest_cycle: None,
            metrics: BTreeMap::new(),
        }
    }

    fn note(&mut self, q: usize, traced: &Traced) {
        self.merge_ns[q].push(traced.merge_ns);
        if let Some(wire) = traced.wire {
            self.wire[q].push(wire);
        }
    }
}

/// In-process statements on the probe table with each one's live chunks.
struct Prepared {
    stmts: Vec<Statement>,
    live: Vec<Vec<usize>>,
    source: std::sync::Arc<dyn ChunkSource>,
}

impl Prepared {
    fn on_probe_table(fx: &Fixture) -> Result<Prepared> {
        let table = fx.table()?;
        let stmts = api::prepare_all(&table, &fx.queries, 1)?;
        let live = stmts.iter().map(api::live_chunks).collect::<Result<_>>()?;
        Ok(Prepared { stmts, live, source: api::source(&table)? })
    }
}

/// One step-by-step pass over the probe table under roots named `root`.
fn traced_pass(
    fx: &Fixture,
    prepared: &Prepared,
    run: &mut LayerRun,
    root: &'static str,
    with_wire: bool,
    next_id: &mut u32,
) -> Result<f64> {
    let mut pass_ns = 0;
    for (q, stmt) in prepared.stmts.iter().enumerate() {
        *next_id += 1;
        let start = Instant::now();
        let traced = traced_query(
            &mut run.tracer,
            root,
            *next_id,
            stmt,
            &prepared.live[q],
            &*prepared.source,
            with_wire,
        )?;
        pass_ns += ns(start, Instant::now());
        run.tally.check(traced.report == fx.reference[q]);
        run.note(q, &traced);
    }
    Ok(pass_ns as f64 / 1e6)
}

/// The traced run of one workload, `seconds` long, plus the layer probes.
pub fn run(fx: &Fixture, seconds: f64) -> Result<LayerRun> {
    let n = fx.queries.len();
    let untraced_s = seconds * UNTRACED_SHARE;
    let traced_s = seconds - untraced_s;
    let spin_before = calib::spin_ms();
    let memcpy = calib::memcpy_gbps();
    let mut next_id = 0u32;
    let prepared = Prepared::on_probe_table(fx)?;

    let mut run = match fx.workload {
        Workload::ResidentScan | Workload::ColdFileScan => {
            let mut run = LayerRun::new("query", n);
            run.untraced = workloads::run_scan(fx, untraced_s)?;
            let start = Instant::now();
            while elapsed_s(start) < traced_s {
                let pass = traced_pass(fx, &prepared, &mut run, "query", false, &mut next_id)?;
                run.traced_pass_ms.push(pass);
            }
            run
        }
        Workload::ServedMix => {
            let mut run = LayerRun::new("query", n);
            // One client, like the traced passes it is held against.
            run.untraced = workloads::run_served(fx, 1, untraced_s)?;
            let server = fx.server.as_ref().ok_or("served_mix needs its server")?;
            let mut conn = api::Connection::open(server, "traced", &fx.sql)?;
            let start = Instant::now();
            while elapsed_s(start) < traced_s {
                // In process first, for what each query's batches cost to
                // encode and decode; then the same query over the socket.
                traced_pass(fx, &prepared, &mut run, "replay", true, &mut next_id)?;
                let mut pass_ns = 0;
                for q in 0..n {
                    next_id += 1;
                    let replay = *run.wire[q].last().expect("replayed above");
                    let t = Instant::now();
                    let (report, overhead, wait) =
                        traced_roundtrip(&mut run.tracer, "query", next_id, &mut conn, q, &replay)?;
                    pass_ns += ns(t, Instant::now());
                    run.tally.check(report == fx.reference[q]);
                    run.queue_wait_ns.push(wait);
                    if q == Q4 {
                        run.overhead_q4_ns.push(overhead);
                    }
                }
                run.traced_pass_ms.push(pass_ns as f64 / 1e6);
            }
            run
        }
        Workload::IngestQuery => {
            let mut run = LayerRun::new("cycle", n);
            let plan = fx.ingest.as_ref().ok_or("ingest_query needs its plan")?;
            let (untraced, tally) =
                workloads::pooled_readers(workloads::run_ingest(fx, untraced_s)?, n);
            run.untraced = untraced;
            run.tally.absorb(tally);
            let start = Instant::now();
            loop {
                let t = Instant::now();
                let cycle = run_cycle(fx, plan, Some(&mut run.tracer))?;
                run.tally.absorb(cycle.tally);
                run.tally.absorb(cycle.reader.tally);
                run.ingest_cycle = Some(cycle);
                if elapsed_s(start) + elapsed_s(t) / 2.0 >= traced_s {
                    break;
                }
            }
            // The reader's traced passes: one per nine `query` roots.
            let roots: Vec<&Span> = run
                .tracer
                .spans
                .iter()
                .filter(|s| s.parent.is_none() && s.name == "query")
                .collect();
            let passes = roots
                .chunks_exact(n)
                .map(|pass| pass.iter().map(|s| s.duration() as f64 / 1e6).sum())
                .collect();
            run.traced_pass_ms = passes;
            run
        }
    };
    let untraced_tally = run.untraced.tally;
    run.tally.absorb(untraced_tally);

    probe_layers(fx, &prepared, &mut run, &mut next_id)?;
    let spin_after = calib::spin_ms();
    let m = &mut run.metrics;
    m.insert("calib.memcpy_gbps", memcpy);
    m.insert("calib.seq_read_mbps", calib::seq_read_mbps(&fx.data_path)?);
    m.insert("calib.spin_ms", spin_before);
    m.insert("calib.spin_drift_share", calib::drift(spin_before, spin_after));
    m.insert("proc.peak_rss_mb", calib::peak_rss_mb());
    derive_metrics(fx.workload, &prepared, &mut run, memcpy);
    Ok(run)
}

/// Probes that time one layer's public calls directly, the same on every
/// workload (on its probe table), so each layer figure has one definition.
fn probe_layers(
    fx: &Fixture,
    prepared: &Prepared,
    run: &mut LayerRun,
    next_id: &mut u32,
) -> Result<()> {
    const REPEATS: usize = 20;
    let table = fx.table()?;

    // sql + plan: per query, so nothing per execution (statements are
    // prepared once) hides in them.
    let (mut parse_us, mut prepare_us) = (Vec::new(), Vec::new());
    for (query, sql) in fx.queries.iter().zip(&fx.sql) {
        for _ in 0..REPEATS {
            parse_us.push(api::time_parse(&table, sql)?.as_secs_f64() * 1e6);
            prepare_us.push(api::time_prepare(&table, query)?.as_secs_f64() * 1e6);
        }
    }
    run.metrics.insert("sql.parse_us", median(&parse_us));
    run.metrics.insert("plan.prepare_us", median(&prepare_us));

    // bitpack + codec, on the table's own columns.
    let columns = api::packed_columns(&*prepared.source, 2)?;
    let mut scratch = Vec::new();
    let (mut values, mut unpack_ns) = (0u64, 0u64);
    let mut replay = [(0u64, 0u64); 3];
    for column in &columns {
        for _ in 0..3 {
            let t = Instant::now();
            column.unpack_into(&mut scratch);
            unpack_ns += t.elapsed().as_nanos() as u64;
            values += scratch.len() as u64;
            std::hint::black_box(&scratch);
        }
        for (tag, (bytes, nanos)) in replay.iter_mut().enumerate() {
            let Some(section) = column.encode(tag) else { continue };
            let t = Instant::now();
            column.decode_checked(tag, &section, &mut scratch)?;
            *nanos += t.elapsed().as_nanos() as u64;
            *bytes += 9 + column.packed_bytes() as u64;
        }
    }
    let per_value = unpack_ns as f64 / values.max(1) as f64;
    run.metrics.insert("bitpack.unpack_ns_per_value", per_value);
    run.metrics.insert("bitpack.unpack_gbps", 8.0 / per_value);
    for (tag, name) in ["codec.raw_replay_mbps", "codec.delta_replay_mbps", "codec.ans_replay_mbps"]
        .into_iter()
        .enumerate()
    {
        let (bytes, nanos) = replay[tag];
        run.metrics.insert(name, bytes as f64 * 1e3 / nanos.max(1) as f64);
    }

    // exec at parallelism 2, against the same passes at 1.
    let mut p1 = Samples::new(fx.queries.len());
    let mut p2 = Samples::new(fx.queries.len());
    let stmts2 = api::prepare_all(&table, &fx.queries, 2)?;
    for _ in 0..5 {
        for (stmts, samples) in [(&prepared.stmts, &mut p1), (&stmts2, &mut p2)] {
            for (q, stmt) in stmts.iter().enumerate() {
                let t = Instant::now();
                let mut report = api::execute(stmt)?;
                samples.query_ms[q].push(ms(t.elapsed()));
                samples.stats[q].absorb(&report.stats.take().unwrap_or_default());
                run.tally.check(report == fx.reference[q]);
            }
        }
    }
    let total = |s: &Samples| -> f64 { s.query_ms.iter().map(|v| median(v)).sum() };
    let busy: u64 = p2.stats.iter().map(|s| s.worker_busy_ns).sum();
    let wall: f64 = p2.stats.iter().map(|s| s.wall_time.as_secs_f64() * 1e9).sum();
    run.metrics.insert("exec.p2_speedup", total(&p1) / total(&p2));
    run.metrics.insert("exec.p2_utilization", busy as f64 / (2.0 * wall));

    // merge + wire: replay passes (served_mix already made them).
    if fx.workload != Workload::ServedMix {
        for _ in 0..3 {
            traced_pass(fx, prepared, run, "replay", true, next_id)?;
        }
    }

    // server: where the workload has none, round trips of Q4 on a loopback
    // server over the same table.
    let admission = match &fx.server {
        Some(server) => api::admission(server),
        None => {
            let server = api::serve(fx.engine.clone(), 2)?;
            let mut conn = api::Connection::open(&server, "probe", &fx.sql)?;
            for _ in 0..REPEATS {
                *next_id += 1;
                let replay = *run.wire[Q4].last().expect("replayed above");
                let (report, overhead, wait) =
                    traced_roundtrip(&mut run.tracer, "probe", *next_id, &mut conn, Q4, &replay)?;
                run.tally.check(report == fx.reference[Q4]);
                run.overhead_q4_ns.push(overhead);
                run.queue_wait_ns.push(wait);
            }
            api::admission(&server)
        }
    };
    run.metrics.insert("server.peak_active", admission.peak_active as f64);
    run.metrics.insert("server.refused", admission.rejected_total as f64);

    // ingest: one cycle (ingest_query traced its own).
    if run.ingest_cycle.is_none() {
        let plan = IngestPlan::build(&fx.rows, fx.scratch.path())?;
        let cycle = run_cycle(fx, &plan, None)?;
        run.tally.absorb(cycle.tally);
        run.tally.absorb(cycle.reader.tally);
        run.ingest_cycle = Some(cycle);
    }
    Ok(())
}

fn median_ms(nanos: &[u64]) -> f64 {
    median(&nanos.iter().map(|&n| n as f64 / 1e6).collect::<Vec<_>>())
}

/// Turn what the run collected into the named per-layer metrics.
fn derive_metrics(workload: Workload, prepared: &Prepared, run: &mut LayerRun, memcpy_gbps: f64) {
    let mut m = std::mem::take(&mut run.metrics);
    let untraced = &run.untraced;
    let passes = untraced.passes().max(1) as f64;

    // plan + exec, from the counters the engine attached to each untraced
    // execution.
    let pruned = [
        "plan.pruned_share_q1",
        "plan.pruned_share_q2",
        "plan.pruned_share_q3",
        "plan.pruned_share_q4",
    ];
    let per_row =
        ["exec.ns_per_row_q1", "exec.ns_per_row_q2", "exec.ns_per_row_q3", "exec.ns_per_row_q4"];
    for q in 0..4 {
        let s = &untraced.stats[q];
        m.insert(pruned[q], s.chunks_pruned as f64 / s.chunks_total.max(1) as f64);
        m.insert(per_row[q], s.worker_busy_ns as f64 / s.rows_scanned.max(1) as f64);
    }
    let rows: u64 = untraced.stats.iter().map(|s| s.rows_scanned).sum();
    let engine_s: f64 = untraced.stats.iter().map(|s| s.wall_time.as_secs_f64()).sum();
    m.insert("exec.rows_per_s", rows as f64 / engine_s.max(f64::MIN_POSITIVE));
    for (q, name) in [(4, "exec.q5_ms"), (5, "exec.q6_ms"), (6, "exec.q7_ms"), (7, "exec.q8_ms")] {
        m.insert(name, median(&untraced.query_ms[q]));
    }

    // source + codec.
    let sum = |f: fn(&api::QueryStats) -> u64| untraced.stats.iter().map(f).sum::<u64>() as f64;
    let decompressed = sum(|s| s.bytes_decompressed) / passes;
    // Chunk fetches of the step-by-step passes over the workload's own
    // table: the in-process replays where the queries themselves went over
    // the socket.
    let fetch_root = if workload == Workload::ServedMix { "replay" } else { "query" };
    let spans = &run.tracer.spans;
    let fetches = spans.iter().filter(|s| {
        s.name == "chunk_columns" && s.parent.is_some_and(|p| spans[p].name == fetch_root)
    });
    let roots = spans.iter().filter(|s| s.parent.is_none() && s.name == fetch_root).count();
    let fetch_ms = fetches.map(|s| s.duration() as f64 / 1e6).sum::<f64>()
        / (roots as f64 / prepared.stmts.len() as f64).max(1.0);
    m.insert("source.read_decode_ms_per_pass", fetch_ms);
    m.insert("source.bytes_read_per_pass", sum(|s| s.bytes_read) / passes);
    m.insert("source.bytes_decompressed_per_pass", decompressed);
    m.insert("source.evictions_per_pass", sum(|s| s.cache_evictions) / passes);
    let io = prepared.source.io_stats();
    let requested: f64 = untraced
        .stats
        .iter()
        .zip(&prepared.stmts)
        .map(|(s, stmt)| (s.chunks_scanned * api::projected_columns(stmt).len()) as f64)
        .sum();
    // Share of the column segments the scans asked for that needed no read
    // and decode: cache hits, or everything on a resident table.
    let hit_share = if requested == 0.0 {
        0.0
    } else {
        (1.0 - sum(|s| s.columns_decoded as u64) / requested).max(0.0)
    };
    m.insert("source.cache_hit_share", hit_share);
    let decompress_gbps = decompressed / (fetch_ms * 1e6).max(f64::MIN_POSITIVE);
    m.insert("source.decompress_share_of_memcpy", decompress_gbps / memcpy_gbps);
    for (tag, name) in
        ["codec.raw_mbps", "codec.delta_mbps", "codec.ans_mbps"].into_iter().enumerate()
    {
        m.insert(name, io.decode[tag].mbps());
    }
    m.insert("bitpack.unpack_share_of_memcpy", m["bitpack.unpack_gbps"] / memcpy_gbps);

    // merge + wire, on the wide-result query; bytes over the whole pass.
    m.insert("merge.report_ms", median_ms(&run.merge_ns[QW]));
    let qw: Vec<_> = run.wire[QW].clone();
    m.insert("wire.encode_ms", median_ms(&qw.iter().map(|w| w.encode_ns).collect::<Vec<_>>()));
    m.insert(
        "wire.decode_assemble_ms",
        median_ms(&qw.iter().map(|w| w.decode_ns + w.assemble_ns).collect::<Vec<_>>()),
    );
    let replays: Vec<&WireReplay> = run.wire.iter().flatten().collect();
    let bytes: usize = replays.iter().map(|w| w.bytes).sum();
    let result_rows: usize = replays.iter().map(|w| w.result_rows).sum();
    m.insert("wire.bytes_per_query", bytes as f64 / replays.len().max(1) as f64);
    m.insert("wire.bytes_per_result_row", bytes as f64 / result_rows.max(1) as f64);

    // server.
    m.insert("server.overhead_ms", median_ms(&run.overhead_q4_ns));
    let waits: Vec<u64> = if untraced.queue_wait_ms.is_empty() {
        run.queue_wait_ns.clone()
    } else {
        untraced.queue_wait_ms.iter().map(|ms| (ms * 1e6) as u64).collect()
    };
    m.insert("server.queue_wait_ms", median_ms(&waits));

    // ingest.
    if let Some(c) = &run.ingest_cycle {
        let q1 = &c.reader.query_ms[0];
        let during_compaction = c
            .reader
            .q1_spans
            .iter()
            .zip(q1)
            .filter(|((start, end), _)| {
                c.compact_spans.iter().any(|(cs, ce)| start < ce && end > cs)
            })
            .map(|(_, &ms)| ms)
            .fold(0.0, f64::max);
        m.insert("ingest.rows_per_s", c.rows_ingested as f64 / c.writer_s);
        m.insert("ingest.append_ms_first", c.append_ms[0]);
        m.insert("ingest.append_ms_last", c.append_ms[c.append_ms.len() - 1]);
        m.insert(
            "ingest.chunks_rewritten_per_batch",
            c.chunks_rewritten.iter().sum::<usize>() as f64 / c.chunks_rewritten.len() as f64,
        );
        m.insert(
            "ingest.write_amp",
            (c.bytes_appended + c.compact_bytes_out) as f64 / c.final_bytes.max(1) as f64,
        );
        m.insert("ingest.compact_ms", median(&c.compact_ms));
        m.insert("ingest.reclaimed_bytes", c.reclaimed_bytes as f64);
        m.insert("ingest.dead_ratio_peak", c.dead_ratio_peak);
        m.insert("ingest.reader_stall_ms", during_compaction - median(q1));
    }

    // trace: layer self times as shares of the root spans' time.
    let (layers, total) = layer_self_times(&run.tracer.spans, run.root);
    let share = |layer: &str| layers.get(layer).copied().unwrap_or(0) as f64 / total.max(1) as f64;
    for (name, layer) in [
        ("trace.share_source", "source"),
        ("trace.share_codec", "codec"),
        ("trace.share_exec", "exec"),
        ("trace.share_merge", "merge"),
        ("trace.share_wire", "wire"),
        ("trace.share_server", "server"),
        ("trace.share_ingest", "ingest"),
        ("trace.unattributed_share", HARNESS),
    ] {
        m.insert(name, share(layer));
    }
    let untraced_pass = median(&untraced.pass_ms);
    let traced_pass = median(&run.traced_pass_ms);
    m.insert("trace.overhead_share", traced_pass / untraced_pass.max(f64::MIN_POSITIVE) - 1.0);
    run.metrics = m;
}
