//! The repo benchmark. See `README.md` for the workloads, the metrics and
//! the commands; `BENCHMARK.json` at the repository root is the contract the
//! driver runs this against.

mod api;
mod calib;
mod compare;
mod json;
mod layers;
mod metrics;
mod stats;
mod trace;
mod workloads;

use api::Result;
use json::Json;
use metrics::{MetricDef, END_TO_END, PER_LAYER};
use stats::{median, summarize, Summary};
use std::path::{Path, PathBuf};
use std::time::Instant;
use workloads::{Fixture, Scale, Tally, Workload};

const USAGE: &str = "\
usage: cohana-benchmark [--workload NAME] [--seed N] [--seconds S] [--trace 0|1]
                        [--quick] [--out DIR]
       cohana-benchmark compare DIR_A DIR_B

Without --workload every workload runs, untraced then traced. --trace 0
prints the end-to-end metrics, --trace 1 the per-layer ones (and writes
out/trace-<workload>.json). --quick is a smoke test on 400 users, under 10 s.
Result files go to --out (default: out/results under the benchmark).
workloads: resident_scan cold_file_scan served_mix ingest_query";

struct Options {
    workload: Option<Workload>,
    seed: u64,
    seconds: f64,
    trace: Option<bool>,
    quick: bool,
    out: Option<PathBuf>,
}

fn parse_options(args: &[String]) -> std::result::Result<Options, String> {
    let mut o =
        Options { workload: None, seed: 1, seconds: 10.0, trace: None, quick: false, out: None };
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = || it.next().ok_or(format!("{arg} needs a value"));
        match arg.as_str() {
            "--workload" => {
                let name = value()?;
                o.workload =
                    Some(Workload::from_name(name).ok_or(format!("unknown workload {name}"))?);
            }
            "--seed" => o.seed = value()?.parse().map_err(|_| "--seed needs a whole number")?,
            "--seconds" => {
                o.seconds = value()?.parse().map_err(|_| "--seconds needs a number")?;
                if o.seconds.is_nan() || o.seconds <= 0.0 {
                    return Err("--seconds must be positive".into());
                }
            }
            "--trace" => {
                o.trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            "--quick" => o.quick = true,
            "--out" => o.out = Some(PathBuf::from(value()?)),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if o.quick {
        o.seconds = o.seconds.min(0.2);
    }
    Ok(o)
}

/// The benchmark's own directory: `benchmark/` under the current directory
/// when run from a checkout's root, as the driver does, else where it was
/// built.
fn benchmark_dir() -> PathBuf {
    let here = PathBuf::from("benchmark");
    if here.join("Cargo.toml").is_file() {
        here
    } else {
        PathBuf::from(env!("CARGO_MANIFEST_DIR"))
    }
}

/// The checked-out commit, read from `.git` beside the benchmark (the
/// driver's checkouts have none).
fn git_commit(bench_dir: &Path) -> String {
    let git = bench_dir.join("../.git");
    let head = std::fs::read_to_string(git.join("HEAD")).unwrap_or_default();
    let head = head.trim();
    let commit = match head.strip_prefix("ref: ") {
        Some(reference) => std::fs::read_to_string(git.join(reference)).unwrap_or_default(),
        None => head.to_string(),
    };
    match commit.trim() {
        "" => "unknown".into(),
        commit => commit.into(),
    }
}

/// One metric as reported: the value, and for timings the sample behind it.
struct Reported {
    def: &'static MetricDef,
    value: f64,
    sample: Option<Summary>,
}

struct RunOutput {
    workload: Workload,
    seed: u64,
    traced: bool,
    tally: Tally,
    metrics: Vec<Reported>,
    notes: Vec<String>,
}

impl RunOutput {
    fn correct(&self) -> bool {
        self.tally.failed == 0
    }

    /// The line the driver reads: exactly `correct`, `attempted`, `failed`
    /// and `metrics`.
    fn contract_line(&self) -> String {
        Json::obj([
            ("correct", Json::Bool(self.correct())),
            ("attempted", Json::Num(self.tally.attempted as f64)),
            ("failed", Json::Num(self.tally.failed as f64)),
            (
                "metrics",
                Json::obj(self.metrics.iter().map(|m| {
                    let body = [("value", Json::Num(m.value)), ("unit", Json::str(m.def.unit))];
                    (m.def.name, Json::obj(body))
                })),
            ),
        ])
        .render()
    }

    /// The full machine-readable record of the run.
    fn document(&self, options: &Options, scale: Scale, commit: &str) -> Json {
        let nproc = std::thread::available_parallelism().map_or(0, usize::from);
        Json::obj([
            ("workload", Json::str(self.workload.name())),
            ("seed", Json::Num(self.seed as f64)),
            ("trace", Json::Num(f64::from(u8::from(self.traced)))),
            ("seconds", Json::Num(options.seconds)),
            ("users", Json::Num(scale.users as f64)),
            ("nproc", Json::Num(nproc as f64)),
            ("git_commit", Json::str(commit)),
            ("correct", Json::Bool(self.correct())),
            ("attempted", Json::Num(self.tally.attempted as f64)),
            ("failed", Json::Num(self.tally.failed as f64)),
            (
                "failed_share",
                Json::Num(self.tally.failed as f64 / self.tally.attempted.max(1) as f64),
            ),
            ("notes", Json::Arr(self.notes.iter().map(Json::str).collect())),
            (
                "metrics",
                Json::obj(self.metrics.iter().map(|m| {
                    let mut body = vec![
                        ("value", Json::Num(m.value)),
                        ("unit", Json::str(m.def.unit)),
                        ("better", Json::str(m.def.better.as_str())),
                    ];
                    if let Some(s) = &m.sample {
                        body.push(("samples", Json::Num(s.n as f64)));
                        body.push(("q1", Json::Num(s.q1)));
                        body.push(("q3", Json::Num(s.q3)));
                        if let Some((p, v)) = s.tail {
                            body.push(("tail_percentile", Json::Num(p)));
                            body.push(("tail_value", Json::Num(v)));
                        }
                    }
                    (m.def.name, Json::obj(body))
                })),
            ),
        ])
    }

    fn print_table(&self) {
        eprintln!(
            "\n{} seed {} trace {}: {} attempted, {} failed",
            self.workload.name(),
            self.seed,
            u8::from(self.traced),
            self.tally.attempted,
            self.tally.failed
        );
        for m in &self.metrics {
            let detail = m.sample.as_ref().map_or(String::new(), |s| {
                let tail = s.tail.map_or(String::new(), |(p, v)| format!(", p{p} {v:.4}"));
                format!("  (n={}, quartiles {:.4}..{:.4}{tail})", s.n, s.q1, s.q3)
            });
            eprintln!("  {:<38} {:>16.4} {:<6}{detail}", m.def.name, m.value, m.def.unit);
        }
        for note in &self.notes {
            eprintln!("  note: {note}");
        }
    }
}

const SANDBOX_NOTE: &str = "reads are page-cache-warm and the engine fsyncs nothing today: \
                            latencies are this sandbox's, not a device's";

/// Whether the machine changed speed under the run: two readings of the
/// same fixed loop more than 5 % apart.
fn noise_note(drift_share: f64) -> Option<String> {
    (drift_share > 0.05).then(|| {
        format!("NOISY: the fixed spin loop drifted {:.1} % over the run", drift_share * 100.0)
    })
}

/// The untraced run: set up (several times, for a steady `setup_s`), then
/// the closed-loop measured phase, then the end-to-end metrics.
fn run_end_to_end(
    workload: Workload,
    scale: Scale,
    options: &Options,
    out_dir: &Path,
) -> Result<RunOutput> {
    let spin_before = calib::spin_ms();
    let mut tally = Tally::default();
    let (mut setup_s, mut load) = (Vec::new(), Vec::new());
    let mut fixture: Option<Fixture> = None;
    for _ in 0..scale.setups {
        // Tear the previous set-up down outside the timed region.
        drop(fixture.take());
        let t = Instant::now();
        let fx = workloads::setup(workload, scale, options.seed, out_dir)?;
        setup_s.push(workloads::elapsed_s(t));
        load.extend(fx.load_rows_per_s);
        tally.absorb(fx.checks);
        fixture = Some(fx);
    }
    let fx = fixture.expect("at least one set-up");

    let n = fx.queries.len();
    let (samples, load_rows_per_s, disk_bytes_per_row) = match workload {
        Workload::ResidentScan | Workload::ColdFileScan => {
            (workloads::run_scan(&fx, options.seconds)?, median(&load), fx.disk_bytes_per_row)
        }
        Workload::ServedMix => (
            workloads::run_served(&fx, workloads::SERVED_CLIENTS, options.seconds)?,
            median(&load),
            fx.disk_bytes_per_row,
        ),
        Workload::IngestQuery => {
            let cycles = workloads::run_ingest(&fx, options.seconds)?;
            let rate = workloads::ingest_rows_per_s(&cycles);
            let disk: Vec<f64> =
                cycles.iter().map(|c| c.final_bytes as f64 / c.final_rows.max(1) as f64).collect();
            let (readers, cycle_tally) = workloads::pooled_readers(cycles, n);
            tally.absorb(cycle_tally);
            (readers, rate, Some(median(&disk)))
        }
    };
    tally.absorb(samples.tally);
    let spin_after = calib::spin_ms();

    let timing = |values: &[f64]| -> (f64, Option<Summary>) {
        let s = summarize(values);
        (s.median, Some(s))
    };
    // Beside a writer that follows a fixed schedule the reader's latencies
    // form many peaks (the half table alone ... beside a compaction), and a
    // median that falls between two peaks moves 20 % between identical
    // runs; the mean over the whole schedule moves 4-7 %.
    let latency = |values: &[f64]| -> (f64, Option<Summary>) {
        let (median, sample) = timing(values);
        match workload {
            Workload::IngestQuery => (values.iter().sum::<f64>() / values.len() as f64, sample),
            _ => (median, sample),
        }
    };
    let value_of = |name: &str| -> (f64, Option<Summary>) {
        match name {
            "q1_ms" => latency(&samples.query_ms[0]),
            "q2_ms" => latency(&samples.query_ms[1]),
            "q3_ms" => latency(&samples.query_ms[2]),
            "q4_ms" => latency(&samples.query_ms[3]),
            "qw_ms" => latency(&samples.query_ms[8]),
            "pass_ms" => latency(&samples.pass_ms),
            "queries_per_s" => (samples.queries_done() as f64 / samples.wall_s, None),
            "load_rows_per_s" => (load_rows_per_s, None),
            "disk_bytes_per_row" => (disk_bytes_per_row.unwrap_or(0.0), None),
            "setup_s" => timing(&setup_s),
            other => unreachable!("unlisted end-to-end metric {other}"),
        }
    };
    let metrics = END_TO_END
        .iter()
        .map(|def| {
            let (value, sample) = value_of(def.name);
            Reported { def, value, sample }
        })
        .collect();
    let mut notes = vec![
        SANDBOX_NOTE.to_string(),
        format!("fixed spin loop: {spin_before:.3} ms before, {spin_after:.3} ms after"),
    ];
    notes.extend(noise_note(calib::drift(spin_before, spin_after)));
    Ok(RunOutput { workload, seed: options.seed, traced: false, tally, metrics, notes })
}

/// The traced run: one set-up, then the step-by-step passes and the layer
/// probes; writes the spans to `out/trace-<workload>.json`.
fn run_traced(
    workload: Workload,
    scale: Scale,
    options: &Options,
    bench_dir: &Path,
    out_dir: &Path,
) -> Result<RunOutput> {
    let fx = workloads::setup(workload, scale, options.seed, out_dir)?;
    let run = layers::run(&fx, options.seconds)?;
    let mut tally = fx.checks;
    tally.absorb(run.tally);

    let trace_path = bench_dir.join("out").join(format!("trace-{}.json", workload.name()));
    let trace_doc = Json::obj([
        ("workload", Json::str(workload.name())),
        ("seed", Json::Num(options.seed as f64)),
        ("root", Json::str(run.root)),
        ("spans", trace::to_json(&run.tracer.spans)),
    ]);
    std::fs::write(&trace_path, trace_doc.render())?;

    let metrics = PER_LAYER
        .iter()
        .map(|def| Reported {
            def,
            // A layer the workload never enters reports 0.
            value: run.metrics.get(def.name).copied().unwrap_or(0.0),
            sample: None,
        })
        .collect();
    let mut notes = vec![
        SANDBOX_NOTE.to_string(),
        format!("{} spans written to {}", run.tracer.spans.len(), trace_path.display()),
        format!(
            "untraced pass {:.3} ms, traced pass {:.3} ms",
            median(&run.untraced.pass_ms),
            median(&run.traced_pass_ms)
        ),
    ];
    notes.extend(noise_note(run.metrics.get("calib.spin_drift_share").copied().unwrap_or(0.0)));
    Ok(RunOutput { workload, seed: options.seed, traced: true, tally, metrics, notes })
}

fn run(options: &Options) -> Result<bool> {
    let bench_dir = benchmark_dir();
    let out_dir = bench_dir.join("out");
    let results_dir = options.out.clone().unwrap_or_else(|| out_dir.join("results"));
    std::fs::create_dir_all(&results_dir)?;
    let scale = if options.quick { Scale::QUICK } else { Scale::FULL };
    let commit = git_commit(&bench_dir);

    let workloads: Vec<Workload> = options.workload.map_or(Workload::ALL.to_vec(), |w| vec![w]);
    let modes: Vec<bool> = options.trace.map_or(vec![false, true], |t| vec![t]);
    let mut outputs = Vec::new();
    for &workload in &workloads {
        for &traced in &modes {
            let output = if traced {
                run_traced(workload, scale, options, &bench_dir, &out_dir)?
            } else {
                run_end_to_end(workload, scale, options, &out_dir)?
            };
            output.print_table();
            let file =
                format!("{}-seed{}-trace{}.json", workload.name(), options.seed, u8::from(traced));
            std::fs::write(
                results_dir.join(file),
                output.document(options, scale, &commit).render(),
            )?;
            outputs.push(output);
        }
    }
    let correct = outputs.iter().all(RunOutput::correct);
    match outputs.as_slice() {
        // One workload in one mode: the driver's contract line.
        [only] if options.workload.is_some() && options.trace.is_some() => {
            println!("{}", only.contract_line())
        }
        all => println!(
            "{}",
            Json::Arr(all.iter().map(|o| o.document(options, scale, &commit)).collect()).render()
        ),
    }
    Ok(correct)
}

fn main() -> std::process::ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match args.first().map(String::as_str) {
        Some("compare") if args.len() == 3 => {
            compare::compare(Path::new(&args[1]), Path::new(&args[2])).map(|report| {
                print!("{}", report.table);
                report.all_unchanged_or_improved
            })
        }
        Some("-h" | "--help" | "compare") => {
            eprintln!("{USAGE}");
            return std::process::ExitCode::from(2);
        }
        _ => match parse_options(&args) {
            Ok(options) => run(&options),
            Err(message) => {
                eprintln!("{message}\n{USAGE}");
                return std::process::ExitCode::from(2);
            }
        },
    };
    match outcome {
        Ok(true) => std::process::ExitCode::SUCCESS,
        Ok(false) => std::process::ExitCode::FAILURE,
        Err(e) => {
            eprintln!("error: {e}");
            std::process::ExitCode::FAILURE
        }
    }
}
