//! Multi-threaded throughput of the embedded store across thread counts,
//! isolation levels, and durability modes.
//!
//! ```text
//! cargo run -p wsi-bench --release --bin store_concurrency
//! cargo run -p wsi-bench --release --bin store_concurrency -- 5000 200
//! #                                            ops per thread ^    ^ WAL flush delay (µs)
//! cargo run -p wsi-bench --release --bin store_concurrency -- --no-obs
//! ```
//!
//! Each configuration runs `threads` workers, every worker performing
//! read-two-write-one transactions over its own key range (no conflicts:
//! the numbers measure the commit path, not abort/retry behaviour). With
//! two read rows per write row, the oracle's conflict-check load exposes
//! the paper's §6.3 asymmetry directly: WSI checks the read set (two
//! `lastCommit` loads per transaction) where SI checks the write set (one),
//! so `rows_checked` under WSI is ≈ 2× SI at identical workload. The
//! optional simulated flush delay models a replication round-trip, which is
//! what makes group-commit batching visible in the `Sync` rows: throughput
//! should fall far less than the per-commit delay would predict, and the
//! WAL batch factor should grow with the thread count.
//!
//! `--no-obs` disables the metrics registry and span sampling, giving the
//! baseline for the observability layer's overhead budget (≤ 5%).
//!
//! Results go to stdout as a table and to `BENCH_store_concurrency.json`;
//! unless `--no-obs` is given, each configuration's full metrics snapshot
//! goes to `BENCH_store_concurrency_metrics.json` and the last
//! configuration's Prometheus text to `BENCH_store_concurrency_metrics.prom`.

use std::fmt::Write as _;
use std::thread;
use std::time::Instant;

use wsi_core::IsolationLevel;
use wsi_store::{Db, DbOptions, Durability};
use wsi_wal::LedgerConfig;

const THREAD_COUNTS: [usize; 5] = [1, 2, 4, 8, 16];
const KEYS_PER_THREAD: usize = 64;

struct Row {
    threads: usize,
    isolation: IsolationLevel,
    durability: Durability,
    commits: u64,
    elapsed_us: u128,
    rows_checked: u64,
    rows_recorded: u64,
    wal_records: u64,
    wal_flushes: u64,
    batch_factor: f64,
    /// Full registry snapshot rendered as JSON (empty with `--no-obs`).
    metrics_json: String,
    /// Prometheus exposition text (empty with `--no-obs`).
    prometheus: String,
}

impl Row {
    fn throughput_tps(&self) -> f64 {
        if self.elapsed_us == 0 {
            0.0
        } else {
            self.commits as f64 / (self.elapsed_us as f64 / 1e6)
        }
    }
}

fn dur_name(durability: Durability) -> &'static str {
    match durability {
        Durability::None => "none",
        Durability::Batched => "batched",
        Durability::Sync => "sync",
    }
}

fn bench_one(
    threads: usize,
    isolation: IsolationLevel,
    durability: Durability,
    ops_per_thread: usize,
    flush_delay_us: u64,
    obs: bool,
) -> Row {
    let wal = LedgerConfig::default_replicated().with_flush_delay_us(flush_delay_us);
    let mut options = DbOptions::new(isolation).with_obs(obs);
    match durability {
        Durability::None => {}
        Durability::Batched => options = options.durable_batched(wal),
        Durability::Sync => options = options.durable(wal),
    }
    let db = Db::open(options);

    let started = Instant::now();
    thread::scope(|s| {
        for t in 0..threads {
            let db = db.clone();
            s.spawn(move || {
                for i in 0..ops_per_thread {
                    // Read-two-write-one over a private key range: the §6.3
                    // workload shape (|R_r| = 2·|R_w|) without conflicts.
                    let key = format!("t{t}/k{}", i % KEYS_PER_THREAD);
                    let other = format!("t{t}/k{}", (i + 1) % KEYS_PER_THREAD);
                    db.run(64, |txn| {
                        let n: u64 = txn
                            .get(key.as_bytes())
                            .map(|v| u64::from_le_bytes(v.as_ref().try_into().unwrap()))
                            .unwrap_or(0);
                        let m: u64 = txn
                            .get(other.as_bytes())
                            .map(|v| u64::from_le_bytes(v.as_ref().try_into().unwrap()))
                            .unwrap_or(0);
                        txn.put(key.as_bytes(), &(n + m + 1).to_le_bytes());
                        Ok(())
                    })
                    .expect("disjoint key ranges cannot conflict");
                }
            });
        }
    });
    db.flush_wal().expect("no bookie failures injected");
    let elapsed_us = started.elapsed().as_micros();

    let stats = db.stats();
    Row {
        threads,
        isolation,
        durability,
        commits: (threads * ops_per_thread) as u64,
        elapsed_us,
        rows_checked: stats.oracle.rows_checked,
        rows_recorded: stats.oracle.rows_recorded,
        wal_records: stats.wal.records,
        wal_flushes: stats.wal.flushes,
        batch_factor: stats.wal.batch_factor(),
        metrics_json: db
            .obs_snapshot()
            .map(|s| s.render_json())
            .unwrap_or_default(),
        prometheus: db.render_prometheus().unwrap_or_default(),
    }
}

fn main() {
    let mut obs = true;
    let mut positional = Vec::new();
    for arg in std::env::args().skip(1) {
        match arg.as_str() {
            "--no-obs" => obs = false,
            other => positional.push(other.to_string()),
        }
    }
    let mut positional = positional.into_iter();
    let ops_per_thread: usize = positional
        .next()
        .map(|a| a.parse().expect("ops per thread must be a number"))
        .unwrap_or(2_000);
    let flush_delay_us: u64 = positional
        .next()
        .map(|a| a.parse().expect("flush delay must be microseconds"))
        .unwrap_or(0);

    println!(
        "# store concurrency: {ops_per_thread} ops/thread, {flush_delay_us} µs flush delay, obs {}",
        if obs { "on" } else { "off" }
    );
    println!(
        "{:>7} {:>4} {:>8} {:>10} {:>12} {:>10} {:>12} {:>8}",
        "threads", "iso", "dur", "commits", "tps", "checked", "wal_flushes", "batchf"
    );

    let mut rows = Vec::new();
    for durability in [Durability::None, Durability::Batched, Durability::Sync] {
        for isolation in [IsolationLevel::Snapshot, IsolationLevel::WriteSnapshot] {
            for threads in THREAD_COUNTS {
                let row = bench_one(
                    threads,
                    isolation,
                    durability,
                    ops_per_thread,
                    flush_delay_us,
                    obs,
                );
                println!(
                    "{:>7} {:>4} {:>8} {:>10} {:>12.0} {:>10} {:>12} {:>8.2}",
                    row.threads,
                    row.isolation.short_name(),
                    dur_name(row.durability),
                    row.commits,
                    row.throughput_tps(),
                    row.rows_checked,
                    row.wal_flushes,
                    row.batch_factor,
                );
                rows.push(row);
            }
        }
    }

    let mut json = String::from("[\n");
    for (i, row) in rows.iter().enumerate() {
        let _ = write!(
            json,
            "  {{\"threads\": {}, \"isolation\": \"{}\", \"durability\": \"{}\", \
             \"commits\": {}, \"elapsed_us\": {}, \"throughput_tps\": {:.1}, \
             \"rows_checked\": {}, \"rows_recorded\": {}, \
             \"wal_records\": {}, \"wal_flushes\": {}, \"batch_factor\": {:.3}}}{}",
            row.threads,
            row.isolation.short_name(),
            dur_name(row.durability),
            row.commits,
            row.elapsed_us,
            row.throughput_tps(),
            row.rows_checked,
            row.rows_recorded,
            row.wal_records,
            row.wal_flushes,
            row.batch_factor,
            if i + 1 == rows.len() { "\n" } else { ",\n" },
        );
    }
    json.push(']');
    json.push('\n');
    let path = "BENCH_store_concurrency.json";
    match std::fs::write(path, &json) {
        Ok(()) => println!("\n-> {path}"),
        Err(e) => eprintln!("warning: cannot write {path}: {e}"),
    }

    if obs {
        // Per-configuration registry snapshots, keyed by the same fields as
        // the results array.
        let mut metrics = String::from("[\n");
        for (i, row) in rows.iter().enumerate() {
            let _ = write!(
                metrics,
                "  {{\"threads\": {}, \"isolation\": \"{}\", \"durability\": \"{}\", \
                 \"metrics\": {}}}{}",
                row.threads,
                row.isolation.short_name(),
                dur_name(row.durability),
                if row.metrics_json.is_empty() {
                    "null"
                } else {
                    &row.metrics_json
                },
                if i + 1 == rows.len() { "\n" } else { ",\n" },
            );
        }
        metrics.push(']');
        metrics.push('\n');
        let path = "BENCH_store_concurrency_metrics.json";
        match std::fs::write(path, &metrics) {
            Ok(()) => println!("-> {path}"),
            Err(e) => eprintln!("warning: cannot write {path}: {e}"),
        }

        if let Some(last) = rows.last() {
            let path = "BENCH_store_concurrency_metrics.prom";
            match std::fs::write(path, &last.prometheus) {
                Ok(()) => println!("-> {path}"),
                Err(e) => eprintln!("warning: cannot write {path}: {e}"),
            }
        }
    }
}
