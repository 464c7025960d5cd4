//! `cohana-shell` — an interactive cohort-SQL shell over a synthetic or
//! user-provided activity dataset.
//!
//! ```text
//! cohana-shell [--users N] [--load FILE.cohana] [--open FILE.cohana]
//!              [--cache-bytes N[k|m|g]] [--csv FILE.csv]
//!
//! cohana> SELECT country, COHORTSIZE, AGE, UserCount()
//!     ... FROM GameActions BIRTH FROM action = "launch"
//!     ... COHORT BY country;
//! cohana> EXPLAIN SELECT ... ;        -- show the optimized plan
//! cohana> .stats                      -- per-query stats of the last query
//! cohana> .stats source               -- lifetime source/cache counters
//! cohana> .pivot SELECT ... ;         -- render as a cohort matrix
//! cohana> .connect HOST:PORT          -- route queries to a cohana-serve
//! cohana> .schema | .save FILE | .help | .quit
//! ```
//!
//! Statements end with `;`. `WITH … AS (…) SELECT …` mixed queries (§3.5)
//! and `EXPLAIN <query>` are supported. Every statement runs through one
//! [`Session`] on the shared engine — or, after `.connect HOST:PORT
//! [tenant]`, over the wire through a remote `cohana-serve` (`.disconnect`
//! returns to the local engine; `.stats server` shows the remote tenant and
//! admission counters).

use cohana::engine::QueryStats;
use cohana::prelude::*;
use cohana::server::{Client, ClientError};
use cohana::sql::{SessionSqlExt, SqlAnswer};
use std::io::{BufRead, Write};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut users = 1_000usize;
    let mut load: Option<String> = None;
    let mut open: Option<String> = None;
    let mut csv: Option<String> = None;
    let mut cache_bytes = cohana::storage::DEFAULT_CACHE_BUDGET;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--users" => {
                i += 1;
                users = args.get(i).and_then(|v| v.parse().ok()).unwrap_or_else(|| {
                    eprintln!("bad --users value");
                    std::process::exit(2);
                });
            }
            "--load" => {
                i += 1;
                load = args.get(i).cloned();
            }
            "--open" => {
                i += 1;
                open = args.get(i).cloned();
            }
            "--cache-bytes" => {
                i += 1;
                cache_bytes = args.get(i).and_then(|v| parse_bytes(v)).unwrap_or_else(|| {
                    eprintln!("bad --cache-bytes value (expected e.g. 1048576, 64m, 2g)");
                    std::process::exit(2);
                });
            }
            "--csv" => {
                i += 1;
                csv = args.get(i).cloned();
            }
            "--help" | "-h" => {
                println!(
                    "usage: cohana-shell [--users N] [--load FILE.cohana] \
                     [--open FILE.cohana] [--cache-bytes N[k|m|g]] [--csv FILE.csv]\n\
                     --load reads the whole file into memory; --open reads only the\n\
                     footer and fetches chunk columns on demand as queries touch them\n\
                     (v3/v4 files), keeping at most --cache-bytes of decoded segments\n\
                     resident."
                );
                return;
            }
            other => {
                eprintln!("unknown argument {other:?}");
                std::process::exit(2);
            }
        }
        i += 1;
    }

    let engine = Cohana::new(Default::default());
    if let Some(path) = open {
        // Works for single files and sharded table directories alike; an
        // interactive shell is long-lived, so let background maintenance
        // keep the table compacted.
        let opened = engine
            .open(&path)
            .cache_bytes(cache_bytes)
            .maintenance(cohana::engine::MaintenanceConfig::enabled())
            .open()
            .and_then(|handle| Ok((handle.num_shards(), handle.source()?)));
        match opened {
            Ok((shards, src)) => eprintln!(
                "opened {path} lazily: {} tuples in {} chunks across {shards} shard(s) \
                 (0 decoded, cache budget {} bytes)",
                src.table_meta().num_rows(),
                src.num_chunks(),
                cache_bytes,
            ),
            Err(e) => {
                eprintln!("cannot open {path}: {e}");
                std::process::exit(1);
            }
        }
    } else if let Some(path) = load {
        let loaded = engine
            .open(&path)
            .resident(true)
            .open()
            .and_then(|handle| Ok(handle.source()?.table_meta().num_rows()));
        match loaded {
            Ok(rows) => eprintln!("loaded {rows} tuples from {path}"),
            Err(e) => {
                eprintln!("cannot load {path}: {e}");
                std::process::exit(1);
            }
        }
    } else if let Some(path) = csv {
        let file = match std::fs::File::open(&path) {
            Ok(f) => f,
            Err(e) => {
                eprintln!("cannot open {path}: {e}");
                std::process::exit(1);
            }
        };
        let table = match cohana::activity::csv::read_csv(Schema::game_actions(), file) {
            Ok(t) => t,
            Err(e) => {
                eprintln!("cannot parse {path}: {e}");
                std::process::exit(1);
            }
        };
        let compressed = CompressedTable::build(&table, CompressionOptions::default())
            .expect("compression succeeds");
        eprintln!("loaded {} tuples ({} users) from {path}", table.num_rows(), table.num_users());
        engine.register("GameActions", compressed);
    } else {
        eprintln!("generating a synthetic dataset with {users} users…");
        let table = generate(&GeneratorConfig::new(users));
        let compressed = CompressedTable::build(&table, CompressionOptions::default())
            .expect("compression succeeds");
        eprintln!("ready: {} tuples, {} users", table.num_rows(), table.num_users());
        engine.register("GameActions", compressed);
    }
    eprintln!("type .help for commands; statements end with `;`\n");

    let session = engine.session();
    let mut remote: Option<Client> = None;
    let mut last_stats: Option<QueryStats> = None;
    let stdin = std::io::stdin();
    let mut buffer = String::new();
    let interactive = atty_stdin();
    loop {
        if interactive {
            if buffer.is_empty() {
                print!("cohana> ");
            } else {
                print!("    ... ");
            }
            std::io::stdout().flush().ok();
        }
        let mut line = String::new();
        match stdin.lock().read_line(&mut line) {
            Ok(0) => break,
            Ok(_) => {}
            Err(_) => break,
        }
        let trimmed = line.trim();
        if buffer.is_empty() && trimmed.starts_with('.') {
            if !meta_command(&session, trimmed, &mut remote, &mut last_stats) {
                break;
            }
            continue;
        }
        buffer.push_str(&line);
        if !buffer.trim_end().ends_with(';') {
            continue;
        }
        let stmt = buffer.trim().trim_end_matches(';').trim().to_string();
        buffer.clear();
        if stmt.is_empty() {
            continue;
        }
        if remote.is_some() {
            run_remote_statement(&mut remote, &stmt, &mut last_stats);
        } else {
            run_statement(&session, &stmt, Render::Table, &mut last_stats);
        }
    }
}

/// Run one SQL statement over the wire through the connected server.
/// `EXPLAIN <query>` prints the server's plan without executing. A
/// connection-level failure drops the remote session back to local mode.
fn run_remote_statement(
    remote: &mut Option<Client>,
    stmt: &str,
    last_stats: &mut Option<QueryStats>,
) {
    let client = remote.as_mut().expect("caller checked remote mode");
    let started = std::time::Instant::now();
    let trimmed = stmt.trim();
    let explain_body = trimmed
        .get(..8)
        .filter(|head| head.eq_ignore_ascii_case("EXPLAIN "))
        .map(|_| trimmed[8..].trim());
    let outcome = match explain_body {
        Some(body) => client.prepare(body).map(|prepared| {
            println!("{}", prepared.explain());
            *last_stats = None;
        }),
        None => client.query(trimmed).map(|report| {
            println!("{}", report.pretty());
            println!("({} rows in {:.1?})", report.num_rows(), started.elapsed());
            *last_stats = report.stats;
        }),
    };
    if let Err(e) = outcome {
        eprintln!("error: {e}");
        *last_stats = None;
        if matches!(e, ClientError::Io(_) | ClientError::Desynced) {
            eprintln!("connection lost; back to the local engine");
            *remote = None;
        }
    }
}

/// Best-effort interactivity detection without extra dependencies: honour
/// an explicit override, default to showing prompts.
fn atty_stdin() -> bool {
    std::env::var("COHANA_SHELL_NO_PROMPT").is_err()
}

/// Parse a byte count with an optional k/m/g suffix (powers of 1024).
fn parse_bytes(s: &str) -> Option<usize> {
    let lower = s.trim().to_ascii_lowercase();
    let (digits, mult) = match lower.strip_suffix(['k', 'm', 'g']) {
        Some(d) => match lower.as_bytes()[lower.len() - 1] {
            b'k' => (d, 1usize << 10),
            b'm' => (d, 1 << 20),
            _ => (d, 1 << 30),
        },
        None => (lower.as_str(), 1),
    };
    digits.parse::<usize>().ok().and_then(|n| n.checked_mul(mult))
}

enum Render {
    Table,
    Pivot,
}

/// Run one SQL statement through the session, remembering its per-query
/// stats for `.stats`.
fn run_statement(
    session: &Session<'_>,
    stmt: &str,
    render: Render,
    last_stats: &mut Option<QueryStats>,
) {
    let started = std::time::Instant::now();
    match session.run_sql(stmt) {
        Ok(SqlAnswer::Plan(text)) => {
            println!("{text}");
            // EXPLAIN executes nothing: leaving stats from an earlier
            // query would misattribute them to this statement.
            *last_stats = None;
        }
        Ok(SqlAnswer::Mixed(res)) => {
            println!("{}", res.pretty());
            println!("({} rows in {:.1?})", res.num_rows(), started.elapsed());
            *last_stats = res.stats;
        }
        Ok(SqlAnswer::Report(report)) => {
            match render {
                Render::Table => println!("{}", report.pretty()),
                Render::Pivot => println!("{}", report.pivot(0)),
            }
            println!("({} rows in {:.1?})", report.num_rows(), started.elapsed());
            *last_stats = report.stats;
        }
        Err(e) => {
            eprintln!("error: {e}");
            // Don't let `.stats` report an earlier query as the last one.
            *last_stats = None;
        }
    }
}

/// Handle a `.command`; returns false to quit.
fn meta_command(
    session: &Session<'_>,
    cmd: &str,
    remote: &mut Option<Client>,
    last_stats: &mut Option<QueryStats>,
) -> bool {
    let engine = session.engine();
    let (name, rest) = match cmd.split_once(' ') {
        Some((n, r)) => (n, r.trim()),
        None => (cmd, ""),
    };
    match name {
        ".quit" | ".exit" => return false,
        ".help" => {
            println!(
                ".schema            show the activity table schema\n\
                 .stats             per-query stats of the last query\n\
                 .stats source      lifetime storage/cache counters\n\
                 .explain <query>   show the optimized plan (or: EXPLAIN <query>;)\n\
                 .pivot <query>;    run and render as a cohort matrix\n\
                 .ingest <file.csv> append new activity records to the table\n\
                 .compact           merge appended chunks, restore sort order\n\
                 .delete <user>...  erase users (file-backed tables; crash-safe)\n\
                 .stats shards      per-shard space + maintenance counters\n\
                 .save <file>       persist the compressed table\n\
                 .connect H:P [t]   route queries to a cohana-serve (tenant t)\n\
                 .disconnect        return to the local engine\n\
                 .stats server      remote tenant + admission counters\n\
                 .quit              exit"
            );
        }
        ".schema" => {
            if let Some(schema) = engine.schema_of("GameActions") {
                for a in schema.attributes() {
                    println!("{:<10} {:<8} {:?}", a.name, a.vtype.name(), a.role);
                }
            }
        }
        ".connect" => {
            let mut parts = rest.split_whitespace();
            let (addr, tenant) = (parts.next(), parts.next().unwrap_or("shell"));
            match addr {
                None => eprintln!("usage: .connect HOST:PORT [tenant]"),
                Some(addr) => match Client::connect(addr, tenant) {
                    Ok(client) => {
                        println!(
                            "connected to {} ({}, default table {}) as tenant {tenant:?}",
                            addr,
                            client.banner(),
                            client.default_table()
                        );
                        *remote = Some(client);
                    }
                    Err(e) => eprintln!("cannot connect to {addr}: {e}"),
                },
            }
        }
        ".disconnect" => {
            if remote.take().is_some() {
                println!("disconnected; back to the local engine");
            } else {
                eprintln!("not connected");
            }
        }
        ".stats" if rest == "server" => match remote.as_mut() {
            None => eprintln!("not connected; .connect HOST:PORT first"),
            Some(client) => match client.server_stats() {
                Ok(s) => {
                    println!(
                        "tenant: {} queries, cumulative {}\n\
                         admission: {}/{} active (peak {}), {} queued (max {}), \
                         {} admitted, {} refused, total queue wait {:.1?}",
                        s.queries,
                        s.stats,
                        s.admission.active,
                        s.admission.cap,
                        s.admission.peak_active,
                        s.admission.queued,
                        s.admission.max_queue_depth,
                        s.admission.admitted_total,
                        s.admission.rejected_total,
                        s.admission.total_queue_wait,
                    );
                }
                Err(e) => eprintln!("error: {e}"),
            },
        },
        ".stats" if rest == "source" => source_stats(engine),
        ".stats" if rest == "shards" => shard_stats(engine),
        ".stats" => match last_stats {
            Some(stats) => println!("last query: {stats}"),
            None => println!(
                "no stats for the last statement (none run yet, or it failed); \
                 `.stats source` shows lifetime counters"
            ),
        },
        ".explain" => match session.explain_sql(rest.trim_end_matches(';')) {
            Ok(text) => println!("{text}"),
            Err(e) => eprintln!("error: {e}"),
        },
        ".pivot" => run_statement(session, rest.trim_end_matches(';'), Render::Pivot, last_stats),
        ".ingest" => {
            if rest.is_empty() {
                eprintln!("usage: .ingest FILE.csv");
            } else {
                ingest_csv(engine, rest);
            }
        }
        ".compact" => match engine.table("GameActions").and_then(|t| t.compact()) {
            Ok(s) => println!(
                "compacted: {} -> {} chunks over {} rows, reclaimed {} of {} bytes",
                s.chunks_before, s.chunks_after, s.rows, s.reclaimed_bytes, s.bytes_before
            ),
            Err(e) => eprintln!("error: {e}"),
        },
        ".delete" => {
            if rest.is_empty() {
                eprintln!("usage: .delete USER [USER...]");
            } else {
                let users: Vec<&str> = rest.split_whitespace().collect();
                match engine.table("GameActions").and_then(|t| t.delete_users(&users)) {
                    Ok(s) => println!(
                        "deleted {} users ({} rows) by rewriting {} shard(s); \
                         queries prepared from now on no longer see them",
                        s.users_deleted, s.rows_deleted, s.shards_rewritten
                    ),
                    Err(e) => eprintln!("error: {e}"),
                }
            }
        }
        ".save" => {
            if rest.is_empty() {
                eprintln!("usage: .save FILE");
            } else if let Some(t) = engine.resident("GameActions") {
                match cohana::storage::persist::write_file(&t, std::path::Path::new(rest)) {
                    Ok(()) => println!("saved to {rest}"),
                    Err(e) => eprintln!("error: {e}"),
                }
            } else {
                eprintln!("table is file-backed already; copy the source file instead");
            }
        }
        other => eprintln!("unknown command {other:?}; try .help"),
    }
    true
}

/// `.ingest FILE.csv`: parse new activity records against the table's
/// schema and append them (in place for file-backed tables, rebuilding for
/// resident ones). Queries prepared afterwards see the new data.
fn ingest_csv(engine: &Cohana, path: &str) {
    let Some(schema) = engine.schema_of("GameActions") else {
        eprintln!("no GameActions table registered");
        return;
    };
    let file = match std::fs::File::open(path) {
        Ok(f) => f,
        Err(e) => {
            eprintln!("cannot open {path}: {e}");
            return;
        }
    };
    let batch = match cohana::activity::csv::read_csv(schema, file) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("cannot parse {path}: {e}");
            return;
        }
    };
    match engine.table("GameActions").and_then(|t| t.ingest(&batch)) {
        Ok(s) => {
            println!(
                "ingested {} rows: {} -> {} chunks ({} rewritten for returning users)",
                s.rows_appended, s.chunks_before, s.chunks_after, s.chunks_rewritten
            );
            if s.dead_bytes > 0 {
                println!("{} dead bytes in the file; run .compact to reclaim them", s.dead_bytes);
            }
        }
        Err(e) => eprintln!("error: {e}"),
    }
}

/// Per-shard space accounting plus maintenance counters (`.stats shards`).
fn shard_stats(engine: &Cohana) {
    let handle = match engine.table("GameActions") {
        Ok(h) => h,
        Err(e) => {
            eprintln!("error: {e}");
            return;
        }
    };
    match handle.space_stats() {
        Ok(space) => {
            for (i, s) in space.iter().enumerate() {
                println!(
                    "shard {i:>4}: {:>10} bytes, {:>8} dead ({:>5.1}%), {} rows in {} chunks",
                    s.file_bytes,
                    s.dead_bytes,
                    s.dead_ratio() * 100.0,
                    s.rows,
                    s.chunks,
                );
            }
        }
        Err(e) => eprintln!("error: {e}"),
    }
    if let Ok(m) = handle.maintenance_stats() {
        println!(
            "maintenance: {} passes, {} auto-compactions reclaiming {} bytes, \
             {} tombstoned users applied, last max dead ratio {:.1}%",
            m.passes,
            m.auto_compactions,
            m.reclaimed_bytes,
            m.tombstone_users_applied,
            m.last_max_dead_ratio * 100.0,
        );
    }
}

/// Lifetime counters of the backing table or source (`.stats source`).
fn source_stats(engine: &Cohana) {
    if let Some(t) = engine.resident("GameActions") {
        let s = cohana::storage::StorageStats::of(&t);
        println!(
            "{} tuples, {} users, {} chunks, {:.2} MB compressed ({:.2} bytes/tuple)",
            s.num_rows,
            s.num_users,
            s.num_chunks,
            s.total_bytes() as f64 / (1024.0 * 1024.0),
            s.bytes_per_tuple()
        );
    } else if let Some(src) = engine.source("GameActions") {
        let meta = src.table_meta();
        let io = src.io_stats();
        println!(
            "{} tuples, {} users, {} chunks (file-backed)\n\
             io: {} chunks / {} columns decoded, {} bytes read from disk, {} bytes decoded\n\
             cache: {} of {} bytes resident (decoded), {} evictions",
            meta.num_rows(),
            meta.num_users(),
            src.num_chunks(),
            io.chunks_decoded,
            io.columns_decoded,
            io.bytes_read,
            io.bytes_decompressed,
            io.cache_resident_bytes,
            io.cache_budget_bytes,
            io.cache_evictions,
        );
        let decode: Vec<String> = ["raw", "delta", "ans"]
            .iter()
            .zip(io.decode)
            .filter(|(_, d)| d.bytes_out > 0)
            .map(|(name, d)| format!("{name} {:.0} MB/s", d.mbps()))
            .collect();
        if !decode.is_empty() {
            println!("decode: {}", decode.join(", "));
        }
    }
}
