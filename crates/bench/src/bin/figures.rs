//! Regenerates every table and figure of the paper's evaluation (§6).
//!
//! ```text
//! cargo run -p wsi-bench --release --bin figures            # everything
//! cargo run -p wsi-bench --release --bin figures -- fig5    # one experiment
//! ```
//!
//! Prints each figure's data series (one row per measured point) together
//! with the paper's reference numbers, and writes CSV files under
//! `results/`.

use std::fs;
use std::io::Write as _;

use wsi_bench::{render_refs, render_series, PaperRef};
use wsi_cluster::experiments;
use wsi_sim::metrics::Series;

const SEED: u64 = 20120410; // EuroSys'12, April 10

fn write_csv(name: &str, series: &[Series]) {
    write_rows(
        name,
        "label,load,tps,latency_ms,abort_rate",
        series.iter().map(Series::to_csv),
    );
}

/// Writes `results/<name>.csv`: the `header` line, then each row as given
/// (every row ends in its own newline).
fn write_rows(name: &str, header: &str, rows: impl Iterator<Item = String>) {
    let _ = fs::create_dir_all("results");
    let path = format!("results/{name}.csv");
    let mut body = format!("{header}\n");
    body.extend(rows);
    if let Err(e) = fs::write(&path, body) {
        eprintln!("warning: cannot write {path}: {e}");
    } else {
        println!("  -> {path}");
    }
}

fn peak(series: &[Series], label: &str) -> f64 {
    series
        .iter()
        .find(|s| s.label == label)
        .map(Series::peak_tps)
        .unwrap_or(0.0)
}

fn max_abort(series: &[Series], label: &str) -> f64 {
    series
        .iter()
        .find(|s| s.label == label)
        .map(|s| s.points.iter().map(|p| p.abort_rate).fold(0.0, f64::max))
        .unwrap_or(0.0)
}

fn m1() {
    println!("# M1 (§6.2): per-operation latency breakdown");
    let ops = experiments::microbench(SEED);
    let refs = [
        PaperRef {
            what: "start-timestamp request (ms)",
            paper: 0.17,
            measured: ops.start_ms,
        },
        PaperRef {
            what: "random read (ms)",
            paper: 38.8,
            measured: ops.read_ms,
        },
        PaperRef {
            what: "write (ms)",
            paper: 1.13,
            measured: ops.write_ms,
        },
        PaperRef {
            what: "commit request (ms)",
            paper: 4.1,
            measured: ops.commit_ms,
        },
    ];
    print!("{}", render_refs(&refs));
    println!();
}

fn fig5() {
    println!(
        "# Figure 5: overhead on the status oracle (complex workload, 100 outstanding txns/client)"
    );
    let series = experiments::fig5(SEED);
    print!("{}", render_series("latency vs throughput", &series));
    let refs = [
        PaperRef {
            what: "WSI saturated TPS",
            paper: 92_000.0,
            measured: peak(&series, "wsi"),
        },
        PaperRef {
            what: "SI saturated TPS",
            paper: 104_000.0,
            measured: peak(&series, "si"),
        },
    ];
    print!("{}", render_refs(&refs));
    write_csv("fig5", &series);
    println!();
}

fn fig6() {
    println!("# Figure 6: performance with uniform distribution (complex workload)");
    let series = experiments::fig6(SEED);
    print!("{}", render_series("latency vs throughput", &series));
    let refs = [PaperRef {
        what: "WSI saturated TPS",
        paper: 391.0,
        measured: peak(&series, "wsi"),
    }];
    print!("{}", render_refs(&refs));
    write_csv("fig6", &series);
    println!();
}

fn fig7_8() {
    println!(
        "# Figures 7 & 8: performance and abort rate with zipfian distribution (mixed workload)"
    );
    let series = experiments::fig7_fig8(SEED);
    print!("{}", render_series("latency/abort vs throughput", &series));
    let refs = [
        PaperRef {
            what: "WSI saturated TPS (Fig. 7)",
            paper: 461.0,
            measured: peak(&series, "wsi"),
        },
        PaperRef {
            what: "WSI max abort rate (Fig. 8)",
            paper: 0.20,
            measured: max_abort(&series, "wsi"),
        },
        PaperRef {
            what: "SI max abort rate (Fig. 8)",
            paper: 0.19,
            measured: max_abort(&series, "si"),
        },
    ];
    print!("{}", render_refs(&refs));
    write_csv("fig7_fig8", &series);
    println!();
}

fn fig9_10() {
    println!("# Figures 9 & 10: performance and abort rate with zipfianLatest (mixed workload)");
    let series = experiments::fig9_fig10(SEED);
    print!("{}", render_series("latency/abort vs throughput", &series));
    let refs = [
        PaperRef {
            what: "WSI saturated TPS (Fig. 9)",
            paper: 361.0,
            measured: peak(&series, "wsi"),
        },
        PaperRef {
            what: "WSI max abort rate (Fig. 10)",
            paper: 0.21,
            measured: max_abort(&series, "wsi"),
        },
        PaperRef {
            what: "SI max abort rate (Fig. 10)",
            paper: 0.19,
            measured: max_abort(&series, "si"),
        },
    ];
    print!("{}", render_refs(&refs));
    write_csv("fig9_fig10", &series);
    println!();
}

fn ablations() {
    println!("# Ablation A1: Algorithm 3 memory bound (abort rate vs lastCommit capacity NR)");
    let series = experiments::ablation_nr(SEED);
    print!("{}", render_series("NR sweep (load column = NR)", &series));
    write_csv("ablation_nr", &series);
    println!();

    println!("# Ablation A2: region routing under zipfianLatest (sequential-key hotspot)");
    let series = experiments::ablation_routing(SEED);
    print!(
        "{}",
        render_series("hashed vs range-partitioned keys", &series)
    );
    write_csv("ablation_routing", &series);
    println!();

    println!("# Ablation A4: commit-timestamp deployment (§2.2) — replica vs query vs write-back");
    println!(
        "{:<16} {:>8} {:>10} {:>12} {:>12}",
        "mode", "clients", "tps", "latency_ms", "oracle_cpu"
    );
    let points = experiments::ablation_commit_info(SEED);
    for p in &points {
        println!(
            "{:<16} {:>8} {:>10.1} {:>12.2} {:>12.4}",
            p.mode, p.clients, p.tps, p.latency_ms, p.oracle_cpu
        );
    }
    write_rows(
        "ablation_commit_info",
        "mode,clients,tps,latency_ms,oracle_cpu",
        points.iter().map(|p| {
            format!(
                "{},{},{:.3},{:.3},{:.6}\n",
                p.mode, p.clients, p.tps, p.latency_ms, p.oracle_cpu
            )
        }),
    );
    println!();

    println!("# Ablation A3: analytical read sets (§5.2) — enumerated vs compact ranges");
    println!(
        "{:<12} {:>20} {:>18} {:>20} {:>14}",
        "scan_width", "enumerated_abort", "range_abort", "enumerated_entries", "range_entries"
    );
    let points = experiments::analytical_read_sets(SEED);
    for p in &points {
        println!(
            "{:<12} {:>20.3} {:>18.3} {:>20} {:>14}",
            p.scan_width,
            p.enumerated_abort_rate,
            p.range_abort_rate,
            p.enumerated_entries,
            p.range_entries
        );
    }
    write_rows(
        "ablation_read_sets",
        "scan_width,enumerated_abort_rate,range_abort_rate,enumerated_entries,range_entries",
        points.iter().map(|p| {
            format!(
                "{},{:.3},{:.3},{},{}\n",
                p.scan_width,
                p.enumerated_abort_rate,
                p.range_abort_rate,
                p.enumerated_entries,
                p.range_entries
            )
        }),
    );
    println!();
}

/// Extension experiment: SI vs WSI vs Cahill-style SSI on identical
/// schedules — abort rates and serializability, oracle-level.
fn ssi_comparison() {
    use wsi_core::{CommitRequest, IsolationLevel, RowId, StatusOracleCore, Timestamp};
    use wsi_history::{dsg, History, Op, TxnId};
    use wsi_sim::{SimRng, Zipfian};

    const TXNS: usize = 20_000;
    const OVERLAP: usize = 8; // concurrent lifetimes
    const ROWS: u64 = 10_000;

    println!("# Extension E1: SI vs WSI vs SSI (§7.1) on identical zipfian schedules");
    println!(
        "{:<6} {:>10} {:>12} {:>14} {:>22}",
        "level", "commits", "aborts", "abort_rate", "serializable?"
    );

    // Pre-generate the schedule so every level sees identical requests.
    let mut rng = SimRng::new(SEED);
    let mut zipf = Zipfian::new(ROWS);
    let schedule: Vec<(Vec<u64>, Vec<u64>)> = (0..TXNS)
        .map(|_| {
            let n = rng.between(0, 10);
            let mut reads = Vec::new();
            let mut writes = Vec::new();
            for _ in 0..n {
                let row = zipf.next(&mut rng);
                if rng.chance(0.5) {
                    if !writes.contains(&row) {
                        writes.push(row);
                    }
                } else if !reads.contains(&row) {
                    reads.push(row);
                }
            }
            (reads, writes)
        })
        .collect();

    for level in [
        IsolationLevel::Snapshot,
        IsolationLevel::WriteSnapshot,
        IsolationLevel::SerializableSnapshot,
    ] {
        let mut oracle = StatusOracleCore::unbounded(level);
        let mut commits = 0u64;
        let mut aborts = 0u64;
        let mut ops: Vec<Op> = Vec::new();
        let mut pending: Vec<(Timestamp, usize)> = Vec::new();
        for (i, (reads, _)) in schedule.iter().enumerate() {
            let ts = oracle.begin();
            // Record reads at begin time: the snapshot is taken here, and
            // the recorded history must reflect the real concurrency.
            let txn = TxnId(i as u32 + 1);
            for &r in reads {
                ops.push(Op::Read(txn, r.to_string()));
            }
            pending.push((ts, i));
            if pending.len() >= OVERLAP || i == schedule.len() - 1 {
                for (ts, idx) in pending.drain(..) {
                    let (reads, writes) = &schedule[idx];
                    let txn = TxnId(idx as u32 + 1);
                    for &w in writes {
                        ops.push(Op::Write(txn, w.to_string()));
                    }
                    let outcome = oracle.commit(CommitRequest::new(
                        ts,
                        reads.iter().map(|&r| RowId(r)).collect(),
                        writes.iter().map(|&r| RowId(r)).collect(),
                    ));
                    if outcome.is_committed() {
                        commits += 1;
                        ops.push(Op::Commit(txn));
                    } else {
                        aborts += 1;
                        ops.push(Op::Abort(txn));
                    }
                }
            }
        }
        // Serializability ground truth on a sampled prefix (the DSG check
        // is quadratic in committed transactions, so keep it to a few
        // hundred transactions).
        let sample = History::new(ops.into_iter().take(2_000).collect());
        let serializable = dsg::is_serializable(&sample);
        println!(
            "{:<6} {:>10} {:>12} {:>14.4} {:>22}",
            level.short_name(),
            commits,
            aborts,
            aborts as f64 / (commits + aborts) as f64,
            if serializable {
                "yes"
            } else {
                "NO (anomalies)"
            }
        );
    }
    println!("\nSSI admits more serializable histories than WSI (no single-edge aborts)");
    println!("but keeps whole read/write sets of recent transactions resident and");
    println!("double-checks both edge directions per commit; WSI needs one probe per");
    println!("read row against lastCommit (§7.1 trade-off).");
    println!();
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let wanted = |name: &str| args.is_empty() || args.iter().any(|a| a == name);
    let started = std::time::Instant::now();

    if wanted("m1") {
        m1();
    }
    if wanted("fig5") {
        fig5();
    }
    if wanted("fig6") {
        fig6();
    }
    if wanted("fig7") || wanted("fig8") {
        fig7_8();
    }
    if wanted("fig9") || wanted("fig10") {
        fig9_10();
    }
    if wanted("ablations") {
        ablations();
    }
    if wanted("ssi") {
        ssi_comparison();
    }

    println!("done in {:.1}s", started.elapsed().as_secs_f64());
    let _ = std::io::stdout().flush();
}
