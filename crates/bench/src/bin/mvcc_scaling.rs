//! Data-plane throughput of the embedded store across threads ×
//! contention × read/write mix × client think time.
//!
//! ```text
//! cargo run -p wsi-bench --release --bin mvcc_scaling
//! cargo run -p wsi-bench --release --bin mvcc_scaling -- 1500 40
//! #                                     ops per thread ^    ^ think (µs)
//! ```
//!
//! This drives the full embedded stack — `begin`/snapshot, version-store
//! reads, commit apply with eager stamping — so the store's
//! synchronization sits exactly where it sits in production: readers take
//! no lock, writers publish with one CAS per key, hot chains migrate into
//! packed multi-version nodes.
//! There is one version store, so there is no backend axis; what decides
//! between designs is `txn_e2e` (EXPERIMENTS.md, "Why there is one store").
//! This bench keeps watch on the store against *itself*.
//!
//! Mixes (all WSI; writers don't read, so nothing ever conflict-aborts and
//! every cell measures pure data-plane cost):
//!
//! * `read-heavy`  — 9 in 10 ops take a snapshot and do 4 point reads; the
//!   10th commits a 64-key batch.
//! * `write-heavy` — every other op is the 64-key batch commit.
//!
//! Contention: `low` gives each thread a private 8 K key range (the scaling
//! case); `high` points every thread at the same 2 K hot keys.
//!
//! Regimes: `raw` (back-to-back ops, best-of-N round-robin repeats) and
//! `think` (each op follows a client think-time sleep, modelling the
//! paper's deployment of many concurrent clients per region server; sleeps
//! overlap, so an 8-thread cell keeps ~8 requests in flight on any host).
//!
//! Acceptance bars (the `summary` block; both compare the store with
//! itself, so they hold on any host):
//!
//! * **clients overlap** — read-heavy low-contention, think regime: 8
//!   clients reach ≥ 4× one client's throughput. Nothing in the store
//!   serializes disjoint-key clients, so their sleeps must overlap.
//! * **the single-thread raw floor** — read-heavy high-contention, raw
//!   regime: 8 saturated threads on the same 2 K hot keys keep ≥ 0.8× the
//!   single-thread throughput. Contended chain heads, migration and
//!   pruning may eat what extra cores add, but must not collapse below
//!   what one thread does alone.
//!
//! Results go to stdout and `BENCH_mvcc_scaling.json` (a `results` array
//! plus a `summary` with the host's `nproc`, every cell's 8t/1t ratio and
//! the two bars).

use std::fmt::Write as _;
use std::thread;
use std::time::{Duration, Instant};

use wsi_core::IsolationLevel;
use wsi_store::{Db, DbOptions};

const THREAD_COUNTS: [usize; 4] = [1, 2, 4, 8];
/// Private key range per thread under low contention.
const RANGE_PER_THREAD: u64 = 8 * 1024;
/// Shared hot range under high contention.
const HOT_RANGE: u64 = 2 * 1024;
/// Point reads per read op (one snapshot each op).
const READS_PER_OP: usize = 4;
/// Keys per write-batch commit.
const WRITE_BATCH: u64 = 64;
/// Think regime: 8 overlapped clients vs one, read-heavy low-contention.
const BAR_THINK_8T_VS_1T: f64 = 4.0;
/// Raw regime: 8 saturated threads vs one, read-heavy high-contention.
const BAR_RAW_HOT_8T_VS_1T: f64 = 0.8;

#[derive(Clone, Copy, PartialEq)]
enum Contention {
    Low,
    High,
}

impl Contention {
    fn name(self) -> &'static str {
        match self {
            Contention::Low => "low",
            Contention::High => "high",
        }
    }

    fn range_of(self, t: usize) -> (u64, u64) {
        match self {
            Contention::Low => (t as u64 * RANGE_PER_THREAD, RANGE_PER_THREAD),
            Contention::High => (0, HOT_RANGE),
        }
    }

    fn keys_needed(self, threads: usize) -> u64 {
        match self {
            Contention::Low => threads as u64 * RANGE_PER_THREAD,
            Contention::High => HOT_RANGE,
        }
    }
}

#[derive(Clone, Copy, PartialEq)]
enum Mix {
    ReadHeavy,
    WriteHeavy,
}

impl Mix {
    fn name(self) -> &'static str {
        match self {
            Mix::ReadHeavy => "read-heavy",
            Mix::WriteHeavy => "write-heavy",
        }
    }

    /// Every `write_every`-th op commits the write batch.
    fn write_every(self) -> u64 {
        match self {
            Mix::ReadHeavy => 10,
            Mix::WriteHeavy => 2,
        }
    }
}

fn key(n: u64) -> Vec<u8> {
    format!("k{n:08x}").into_bytes()
}

/// Full-period xorshift64*; the bench carries its own RNG so cells are
/// deterministic and dependency-free.
fn xorshift(state: &mut u64) -> u64 {
    let mut x = *state;
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    *state = x;
    x.wrapping_mul(0x2545_F491_4F6C_DD1D)
}

struct Row {
    contention: Contention,
    mix: Mix,
    think_us: u64,
    threads: usize,
    ops: u64,
    reads: u64,
    writes: u64,
    elapsed_us: u128,
}

impl Row {
    fn throughput(&self) -> f64 {
        if self.elapsed_us == 0 {
            0.0
        } else {
            self.ops as f64 / (self.elapsed_us as f64 / 1e6)
        }
    }
}

fn bench_one(
    contention: Contention,
    mix: Mix,
    think_us: u64,
    threads: usize,
    ops_per_thread: u64,
) -> Row {
    let db = Db::open(DbOptions::new(IsolationLevel::WriteSnapshot).with_obs(false));
    // Pre-compute every key byte-string the cell can touch (so the timed
    // loops never pay `format!`), then pre-populate in chunked commits.
    let total_keys = contention.keys_needed(threads);
    let keys: Vec<Vec<u8>> = (0..total_keys).map(key).collect();
    let mut next = 0usize;
    while next < keys.len() {
        let mut txn = db.begin();
        for k in &keys[next..(next + 4096).min(keys.len())] {
            txn.put(k, b"initial-value");
        }
        txn.commit().expect("setup commit");
        next += 4096;
    }

    let keys = &keys;
    let started = Instant::now();
    let (reads, writes) = thread::scope(|s| {
        let handles: Vec<_> = (0..threads)
            .map(|t| {
                let db = db.clone();
                s.spawn(move || {
                    let (base, range) = contention.range_of(t);
                    let mut rng = 0x9E37_79B9u64 + t as u64 * 0x1234_5677 + 1;
                    let mut reads = 0u64;
                    let mut writes = 0u64;
                    for i in 0..ops_per_thread {
                        if think_us > 0 {
                            thread::sleep(Duration::from_micros(think_us));
                        }
                        if i % mix.write_every() == 0 {
                            // The apply path: one commit CAS-publishing a
                            // 64-key batch.
                            let mut txn = db.begin();
                            for _ in 0..WRITE_BATCH {
                                let n = base + xorshift(&mut rng) % range;
                                txn.put(&keys[n as usize], i.to_be_bytes().as_slice());
                            }
                            txn.commit().expect("writers never read: no conflicts");
                            writes += 1;
                        } else {
                            let snap = db.snapshot();
                            for _ in 0..READS_PER_OP {
                                let n = base + xorshift(&mut rng) % range;
                                std::hint::black_box(snap.get(&keys[n as usize]));
                            }
                            reads += 1;
                        }
                    }
                    (reads, writes)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().unwrap())
            .fold((0u64, 0u64), |(r, w), (hr, hw)| (r + hr, w + hw))
    });
    let elapsed_us = started.elapsed().as_micros();
    Row {
        contention,
        mix,
        think_us,
        threads,
        ops: threads as u64 * ops_per_thread,
        reads,
        writes,
        elapsed_us,
    }
}

/// A cell's 8-thread throughput over its 1-thread throughput.
fn scaling_8t_vs_1t(rows: &[Row], contention: Contention, mix: Mix, think_us: u64) -> f64 {
    let throughput = |threads: usize| {
        rows.iter()
            .find(|r| {
                r.contention == contention
                    && r.mix == mix
                    && r.think_us == think_us
                    && r.threads == threads
            })
            .map_or(0.0, Row::throughput)
    };
    throughput(8) / throughput(1)
}

fn main() {
    let mut args = std::env::args().skip(1);
    let ops_per_thread: u64 = args
        .next()
        .map(|a| a.parse().expect("ops per thread must be a number"))
        .unwrap_or(1_500);
    let think_us: u64 = args
        .next()
        .map(|a| a.parse().expect("think time must be microseconds"))
        .unwrap_or(40);

    println!(
        "# mvcc scaling: {ops_per_thread} ops/thread, think {think_us} µs, WSI, \
         {READS_PER_OP} reads/op, {WRITE_BATCH}-key write batches"
    );
    println!(
        "{:>10} {:>12} {:>6} {:>7} {:>8} {:>8} {:>8} {:>12}",
        "contention", "mix", "think", "threads", "ops", "reads", "writes", "tps"
    );

    // Cells run round-robin: repeats of every cell
    // interleave across the whole run so a slow stretch of wall-clock can't
    // systematically penalize one cell. Raw cells are tens-of-milliseconds
    // scale, so a single hypervisor-steal window can swallow a whole
    // repeat: they get extra ops and best-of-5. Think cells are
    // sleep-dominated and get best-of-2.
    struct Cell {
        contention: Contention,
        mix: Mix,
        think_us: u64,
        threads: usize,
        ops: u64,
        repeats: usize,
        best: Option<Row>,
    }
    let mut cells = Vec::new();
    for contention in [Contention::Low, Contention::High] {
        for mix in [Mix::ReadHeavy, Mix::WriteHeavy] {
            for think in [0, think_us] {
                for threads in THREAD_COUNTS {
                    let (ops, repeats) = if think == 0 {
                        (ops_per_thread * 2, 5)
                    } else {
                        (ops_per_thread, 2)
                    };
                    cells.push(Cell {
                        contention,
                        mix,
                        think_us: think,
                        threads,
                        ops,
                        repeats,
                        best: None,
                    });
                }
            }
        }
    }
    let max_repeats = cells.iter().map(|c| c.repeats).max().unwrap_or(1);
    for round in 0..max_repeats {
        for cell in &mut cells {
            if round >= cell.repeats {
                continue;
            }
            let row = bench_one(
                cell.contention,
                cell.mix,
                cell.think_us,
                cell.threads,
                cell.ops,
            );
            if cell
                .best
                .as_ref()
                .is_none_or(|best| row.elapsed_us < best.elapsed_us)
            {
                cell.best = Some(row);
            }
        }
    }
    let rows: Vec<Row> = cells
        .into_iter()
        .map(|c| c.best.expect("every cell ran at least once"))
        .collect();
    for row in &rows {
        println!(
            "{:>10} {:>12} {:>6} {:>7} {:>8} {:>8} {:>8} {:>12.0}",
            row.contention.name(),
            row.mix.name(),
            row.think_us,
            row.threads,
            row.ops,
            row.reads,
            row.writes,
            row.throughput(),
        );
    }

    println!("\n8 threads vs 1, per cell:");
    let mut ratios_json = String::new();
    for contention in [Contention::Low, Contention::High] {
        for mix in [Mix::ReadHeavy, Mix::WriteHeavy] {
            for (regime, think) in [("raw", 0), ("think", think_us)] {
                let ratio = scaling_8t_vs_1t(&rows, contention, mix, think);
                let name = format!(
                    "{}_{}_{regime}_8t_vs_1t",
                    mix.name().replace('-', "_"),
                    contention.name()
                );
                println!("  {name}: {ratio:.2}x");
                let _ = write!(ratios_json, ",\n    \"{name}\": {ratio:.3}");
            }
        }
    }
    let bars = [
        (
            "read_heavy_low_think_8t_vs_1t",
            scaling_8t_vs_1t(&rows, Contention::Low, Mix::ReadHeavy, think_us),
            BAR_THINK_8T_VS_1T,
        ),
        (
            "read_heavy_high_raw_8t_vs_1t",
            scaling_8t_vs_1t(&rows, Contention::High, Mix::ReadHeavy, 0),
            BAR_RAW_HOT_8T_VS_1T,
        ),
    ];
    for (name, value, bar) in bars {
        println!("{name}: {value:.2}x (acceptance bar: ≥{bar})");
    }

    let nproc = thread::available_parallelism().map_or(0, |n| n.get());
    let mut json = String::from("{\n  \"results\": [\n");
    for (i, row) in rows.iter().enumerate() {
        let _ = write!(
            json,
            "    {{\"contention\": \"{}\", \"mix\": \"{}\", \"think_us\": {}, \
             \"threads\": {}, \"ops\": {}, \"reads\": {}, \"writes\": {}, \
             \"elapsed_us\": {}, \"throughput_tps\": {:.1}}}{}",
            row.contention.name(),
            row.mix.name(),
            row.think_us,
            row.threads,
            row.ops,
            row.reads,
            row.writes,
            row.elapsed_us,
            row.throughput(),
            if i + 1 == rows.len() { "\n" } else { ",\n" },
        );
    }
    let _ = write!(
        json,
        "  ],\n  \"summary\": {{\n    \"nproc\": {nproc},\n    \
         \"ops_per_thread\": {ops_per_thread},\n    \
         \"think_us\": {think_us},\n    \
         \"bar_read_heavy_low_think_8t_vs_1t\": {BAR_THINK_8T_VS_1T},\n    \
         \"bar_read_heavy_high_raw_8t_vs_1t\": {BAR_RAW_HOT_8T_VS_1T}{ratios_json}\n  }}\n}}\n"
    );
    let path = "BENCH_mvcc_scaling.json";
    match std::fs::write(path, &json) {
        Ok(()) => println!("\n-> {path}"),
        Err(e) => eprintln!("warning: cannot write {path}: {e}"),
    }

    // Acceptance gate: a full-scale run (the default arguments, the one that
    // refreshes the committed artifact) must clear both bars, or exit
    // nonzero so a regressed artifact can't be committed silently. Reduced
    // runs (tier1/bench_smoke scratch smokes pass explicit small op counts)
    // are liveness checks, not measurements, and skip the gate.
    if ops_per_thread >= 1500 {
        let failed: Vec<String> = bars
            .iter()
            .filter(|(_, value, bar)| value < bar)
            .map(|(name, value, bar)| format!("{name} = {value:.3} (bar ≥{bar})"))
            .collect();
        if !failed.is_empty() {
            eprintln!(
                "\nacceptance FAILED: {} — likely host noise at this cell \
                 scale; rerun on a quiet host before committing the artifact",
                failed.join(", ")
            );
            std::process::exit(1);
        }
    }
}
