//! `cohana-bench` — regenerate the paper's tables and figures.
//!
//! ```text
//! cohana-bench --exp all                 # every experiment, default config
//! cohana-bench --exp fig11 --scales 1,2,4,8
//! cohana-bench --exp fig6 --users 2000 --full
//! cohana-bench --exp table3 --quick --out results/
//! ```
//!
//! Results print as aligned tables and are written as CSV + JSON into the
//! output directory (default `results/`).

use cohana_bench::datasets::{BenchConfig, DatasetCache};
use cohana_bench::experiments;
use cohana_bench::report::ExperimentResult;
use std::path::PathBuf;
use std::process::ExitCode;

const USAGE: &str = "\
cohana-bench — regenerate the tables and figures of 'Cohort Query Processing'

USAGE:
    cohana-bench [OPTIONS]

OPTIONS:
    --exp <id>        experiment to run: table2, table3, fig6, fig7, fig8,
                      fig9, fig10, fig11, ablation, parallel, all
                      [default: all]
    --users <n>       users in the scale-1 dataset        [default: 1000]
    --scales <list>   comma-separated scale factors       [default: 1,2,4,8]
    --chunks <list>   comma-separated chunk sizes         [default: 16384,65536,262144,1048576]
    --runs <n>        measured runs per point             [default: 5]
    --quick           tiny configuration for smoke tests
    --full            the paper's full scale sweep (1..64); slow
    --out <dir>       output directory for CSV/JSON       [default: results]
    --help            show this help
";

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("error: {msg}");
            eprintln!("{USAGE}");
            ExitCode::FAILURE
        }
    }
}

fn run() -> Result<(), String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut exp = "all".to_string();
    let mut config = BenchConfig::default();
    let mut out_dir = PathBuf::from("results");

    let mut i = 0;
    while i < args.len() {
        let next = |i: &mut usize| -> Result<String, String> {
            *i += 1;
            args.get(*i).cloned().ok_or_else(|| format!("missing value for {}", args[*i - 1]))
        };
        match args[i].as_str() {
            "--exp" => exp = next(&mut i)?,
            "--users" => {
                config.base_users =
                    next(&mut i)?.parse().map_err(|_| "bad --users value".to_string())?
            }
            "--scales" => {
                config.scales = parse_list(&next(&mut i)?)?;
            }
            "--chunks" => {
                config.chunk_sizes = parse_list(&next(&mut i)?)?;
            }
            "--runs" => {
                config.runs = next(&mut i)?.parse().map_err(|_| "bad --runs value".to_string())?
            }
            "--quick" => {
                config = BenchConfig::quick();
            }
            "--full" => {
                config.scales = vec![1, 2, 4, 8, 16, 32, 64];
            }
            "--out" => out_dir = PathBuf::from(next(&mut i)?),
            "--help" | "-h" => {
                println!("{USAGE}");
                return Ok(());
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
        i += 1;
    }

    eprintln!(
        "# dataset: {} users at scale 1, scales {:?}, {} runs/point",
        config.base_users, config.scales, config.runs
    );
    let mut cache = DatasetCache::new(config);
    eprintln!(
        "# scale-1 table: {} tuples, {} users",
        cache.base().num_rows(),
        cache.base().num_users()
    );

    let results: Vec<ExperimentResult> = match exp.as_str() {
        "table2" => vec![experiments::table2(&mut cache)],
        "table3" => vec![experiments::table3(&mut cache)],
        "fig6" => vec![experiments::fig6(&mut cache)],
        "fig7" => vec![experiments::fig7(&mut cache)],
        "fig8" => vec![experiments::fig8(&mut cache)],
        "fig9" => vec![experiments::fig9(&mut cache)],
        "fig10" => vec![experiments::fig10(&mut cache)],
        "fig11" => vec![experiments::fig11(&mut cache)],
        "ablation" => vec![experiments::ablation(&mut cache)],
        "parallel" => vec![experiments::parallel(&mut cache)],
        "all" => experiments::all(&mut cache),
        other => return Err(format!("unknown experiment {other:?}")),
    };

    for r in &results {
        println!("{}", r.pretty());
        r.write_to(&out_dir).map_err(|e| format!("writing results: {e}"))?;
    }
    eprintln!("# wrote {} result file pair(s) to {}", results.len(), out_dir.display());
    Ok(())
}

fn parse_list(s: &str) -> Result<Vec<usize>, String> {
    s.split(',')
        .map(|p| p.trim().parse::<usize>().map_err(|_| format!("bad list element {p:?}")))
        .collect()
}
