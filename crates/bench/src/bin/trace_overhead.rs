//! Flight-recorder overhead: the always-on journal must stay cheap.
//!
//! ```text
//! cargo run -p wsi-bench --release --bin trace_overhead
//! cargo run -p wsi-bench --release --bin trace_overhead -- 8000 4
//! #                                       ops per thread ^    ^ threads
//! ```
//!
//! Runs identical transactional workloads against two [`wsi_store::Db`]
//! instances that differ in exactly one bit: `DbOptions::with_journal`.
//! Both keep the metrics layer on, so the ratio isolates the cost of the
//! seqlock ring writes themselves. Three workload shapes cover the event
//! mix, and each produces the *same event sequence on every run* — the
//! abort-heavy shape manufactures its conflicts deterministically inside
//! each thread rather than hoping the scheduler interleaves a hot set,
//! so the ratio measures the journal and not scheduler luck:
//!
//! * `commit-heavy` — disjoint-key read-modify-writes: begin, per-row
//!   verdicts, commit on every transaction.
//! * `abort-heavy`  — every iteration stages a guaranteed read-write
//!   conflict (read a key, let a rival commit to it, then try to commit):
//!   conflict verdicts with culprit payloads and abort events dominate.
//! * `read-only`    — the single-event fast path (one read-only commit;
//!   begin is journaled only on a first write).
//!
//! Cells run round-robin, best-of-5 (interleaving spreads scheduler noise
//! across both arms instead of penalizing one).
//! The acceptance gate is the geometric mean of the journal-on/journal-off
//! throughput ratios: **≥ 0.95** (≤ 5% overhead), and the process exits
//! nonzero when it regresses, so CI can run this directly.
//!
//! Artifacts: `BENCH_trace_overhead.json` (per-cell results plus the gate
//! summary) and `TRACE_flight_recorder.json` (a Chrome `trace_event`
//! export of a small journaled run — load it in `chrome://tracing` or
//! Perfetto; `scripts/bench_smoke.sh` validates its schema).

use std::fmt::Write as _;
use std::sync::Arc;
use std::thread;
use std::time::Instant;

use wsi_core::IsolationLevel;
use wsi_store::{Db, DbOptions};

const REPEATS: usize = 5;
const GATE_MIN_RATIO: f64 = 0.95;

#[derive(Clone, Copy, PartialEq, Eq)]
enum Shape {
    CommitHeavy,
    AbortHeavy,
    ReadOnly,
}

impl Shape {
    const ALL: [Shape; 3] = [Shape::CommitHeavy, Shape::AbortHeavy, Shape::ReadOnly];

    fn name(self) -> &'static str {
        match self {
            Shape::CommitHeavy => "commit-heavy",
            Shape::AbortHeavy => "abort-heavy",
            Shape::ReadOnly => "read-only",
        }
    }

    /// Per-shape op multiplier: read-only transactions run ~5× faster than
    /// the write shapes, so they get more ops to keep every cell's wall
    /// time in the same regime — a cell that finishes in single-digit
    /// milliseconds measures the scheduler, not the journal.
    fn ops_multiplier(self) -> u64 {
        match self {
            Shape::CommitHeavy | Shape::AbortHeavy => 1,
            Shape::ReadOnly => 8,
        }
    }
}

fn open_db(journal: bool) -> Db {
    Db::open(DbOptions::new(IsolationLevel::WriteSnapshot).with_journal(journal))
}

/// Runs one workload shape and returns (elapsed µs, transactions).
fn run_shape(db: &Db, shape: Shape, threads: usize, ops_per_thread: u64) -> (u128, u64) {
    // Seed the key space so reads observe real versions.
    {
        let mut txn = db.begin();
        for k in 0u64..64 {
            txn.put(k.to_be_bytes().as_slice(), b"seed");
        }
        txn.commit().expect("seeding cannot conflict");
    }
    let db = db.clone();
    let started = Instant::now();
    thread::scope(|s| {
        for t in 0..threads {
            let db = db.clone();
            s.spawn(move || {
                for i in 0..ops_per_thread {
                    match shape {
                        Shape::CommitHeavy => {
                            // Private key range: every transaction commits.
                            let k = (t as u64) << 32 | (i % 1024);
                            let mut txn = db.begin();
                            let _ = txn.get(k.to_be_bytes().as_slice());
                            txn.put(k.to_be_bytes().as_slice(), b"v");
                            txn.commit().expect("disjoint keys commit");
                        }
                        Shape::AbortHeavy => {
                            // Deterministic conflict, private key per thread:
                            // the victim reads k, a rival then commits to k,
                            // so the victim's commit always aborts with a
                            // read-write verdict naming the rival.
                            let k = (t as u64) << 32 | (i % 1024);
                            let mut victim = db.begin();
                            let _ = victim.get(k.to_be_bytes().as_slice());
                            let mut rival = db.begin();
                            rival.put(k.to_be_bytes().as_slice(), b"r");
                            rival.commit().expect("rival is unopposed");
                            victim.put(k.to_be_bytes().as_slice(), b"v");
                            let _ = victim.commit(); // the abort is the point
                        }
                        Shape::ReadOnly => {
                            let k = i % 64;
                            let mut txn = db.begin();
                            let _ = txn.get(k.to_be_bytes().as_slice());
                            let _ = txn.commit();
                        }
                    }
                }
            });
        }
    });
    let txns_per_op = if shape == Shape::AbortHeavy { 2 } else { 1 };
    (
        started.elapsed().as_micros(),
        threads as u64 * ops_per_thread * txns_per_op,
    )
}

struct Cell {
    shape: Shape,
    journal: bool,
    best_elapsed_us: u128,
    txns: u64,
}

impl Cell {
    fn throughput(&self) -> f64 {
        if self.best_elapsed_us == 0 {
            0.0
        } else {
            self.txns as f64 / (self.best_elapsed_us as f64 / 1e6)
        }
    }
}

fn main() {
    let mut args = std::env::args().skip(1);
    let ops_per_thread: u64 = args
        .next()
        .map(|a| a.parse().expect("ops per thread must be a number"))
        .unwrap_or(8_000);
    let threads: usize = args
        .next()
        .map(|a| a.parse().expect("threads must be a number"))
        .unwrap_or_else(|| {
            // Oversubscribing a small box serializes both arms behind the
            // scheduler and drowns the signal; default to the hardware.
            std::thread::available_parallelism()
                .map(|n| n.get().min(4))
                .unwrap_or(1)
        });

    println!(
        "# trace overhead: {ops_per_thread} txns/thread x {threads} threads, \
         journal on vs off, best of {REPEATS}"
    );

    let mut cells: Vec<Cell> = Shape::ALL
        .iter()
        .flat_map(|&shape| {
            [false, true].map(|journal| Cell {
                shape,
                journal,
                best_elapsed_us: u128::MAX,
                txns: 0,
            })
        })
        .collect();

    // Round-robin repeats: each round touches every cell once, so a slow
    // stretch of wall clock degrades both journal arms alike. Fresh Db per
    // sample — the journal ring wraps silently, so reuse is fine, but a
    // fresh version store keeps GC pressure identical across arms.
    for _ in 0..REPEATS {
        for cell in &mut cells {
            let db = Arc::new(open_db(cell.journal));
            let ops = ops_per_thread * cell.shape.ops_multiplier();
            let (elapsed, txns) = run_shape(&db, cell.shape, threads, ops);
            cell.txns = txns;
            cell.best_elapsed_us = cell.best_elapsed_us.min(elapsed);
        }
    }

    println!(
        "{:>13} {:>8} {:>10} {:>12}",
        "shape", "journal", "txns", "tps"
    );
    for cell in &cells {
        println!(
            "{:>13} {:>8} {:>10} {:>12.0}",
            cell.shape.name(),
            if cell.journal { "on" } else { "off" },
            cell.txns,
            cell.throughput(),
        );
    }

    // Per-shape on/off ratio and the geometric mean across shapes.
    let mut ratios: Vec<(Shape, f64)> = Vec::new();
    for &shape in &Shape::ALL {
        let tps = |journal: bool| {
            cells
                .iter()
                .find(|c| c.shape == shape && c.journal == journal)
                .map(Cell::throughput)
                .unwrap_or(0.0)
        };
        let off = tps(false);
        let ratio = if off > 0.0 { tps(true) / off } else { 0.0 };
        ratios.push((shape, ratio));
    }
    let geomean = (ratios
        .iter()
        .map(|(_, r)| r.max(f64::MIN_POSITIVE).ln())
        .sum::<f64>()
        / ratios.len() as f64)
        .exp();
    let overhead_pct = (1.0 - geomean) * 100.0;
    let pass = geomean >= GATE_MIN_RATIO;

    for (shape, ratio) in &ratios {
        println!("{:>13} on/off ratio: {ratio:.3}", shape.name());
    }
    println!(
        "\ngeomean on/off ratio: {geomean:.3} ({overhead_pct:+.1}% overhead, gate >= {GATE_MIN_RATIO}) -> {}",
        if pass { "PASS" } else { "FAIL" }
    );

    // A small journaled run exported as a Chrome trace, for the smoke
    // script's schema validation and for eyeballing in Perfetto.
    let db = open_db(true);
    let _ = run_shape(&db, Shape::AbortHeavy, 2, 64);
    let trace = db
        .journal_chrome_trace()
        .expect("journal enabled for the trace export");
    let trace_path = "TRACE_flight_recorder.json";
    match std::fs::write(trace_path, &trace) {
        Ok(()) => println!("-> {trace_path}"),
        Err(e) => eprintln!("warning: cannot write {trace_path}: {e}"),
    }

    let mut json = String::from("{\n  \"results\": [\n");
    for (i, cell) in cells.iter().enumerate() {
        let _ = write!(
            json,
            "    {{\"shape\": \"{}\", \"journal\": {}, \"threads\": {}, \"txns\": {}, \
             \"elapsed_us\": {}, \"throughput_tps\": {:.1}}}{}",
            cell.shape.name(),
            cell.journal,
            threads,
            cell.txns,
            cell.best_elapsed_us,
            cell.throughput(),
            if i + 1 == cells.len() { "\n" } else { ",\n" },
        );
    }
    let _ = write!(
        json,
        "  ],\n  \"summary\": {{\n    \"ops_per_thread\": {ops_per_thread},\n    \
         \"threads\": {threads},\n    \"repeats\": {REPEATS},\n"
    );
    for (shape, ratio) in &ratios {
        let _ = writeln!(json, "    \"ratio_{}\": {ratio:.4},", shape.name());
    }
    let _ = write!(
        json,
        "    \"geomean_on_off_ratio\": {geomean:.4},\n    \
         \"overhead_pct\": {overhead_pct:.2},\n    \
         \"gate_min_ratio\": {GATE_MIN_RATIO},\n    \"pass\": {pass}\n  }}\n}}\n"
    );
    let path = "BENCH_trace_overhead.json";
    match std::fs::write(path, &json) {
        Ok(()) => println!("-> {path}"),
        Err(e) => eprintln!("warning: cannot write {path}: {e}"),
    }

    if !pass {
        eprintln!("trace overhead gate failed: journal costs more than 5% geomean");
        std::process::exit(1);
    }
}
