//! The paper's experiments, one function per table/figure.
//!
//! Each returns labelled [`Series`] ready for the `wsi-bench` figure
//! harness. Client sweeps follow the paper: powers of two from 1 to 64 for
//! the oracle stress test (§6.3), and 5, 10, 20, …, 640 for the HBase
//! experiments (§6.4).

use wsi_core::IsolationLevel;
use wsi_sim::metrics::Series;
use wsi_workload::{KeyDistribution, Mix};

use crate::{config::ClusterConfig, runner::OpLatencySummary, Runner};

/// The client sweep of the HBase experiments (§6.4).
pub const HBASE_CLIENTS: [usize; 8] = [5, 10, 20, 40, 80, 160, 320, 640];

/// The client sweep of the status-oracle stress test (§6.3).
pub const ORACLE_CLIENTS: [usize; 7] = [1, 2, 4, 8, 16, 32, 64];

fn levels() -> [IsolationLevel; 2] {
    [IsolationLevel::WriteSnapshot, IsolationLevel::Snapshot]
}

/// §6.2 microbenchmark: per-operation latency with one client.
///
/// Paper numbers: start 0.17 ms, random read 38.8 ms, write 1.13 ms,
/// commit 4.1 ms.
pub fn microbench(seed: u64) -> OpLatencySummary {
    let mut cfg = ClusterConfig::hbase(
        IsolationLevel::WriteSnapshot,
        1,
        KeyDistribution::Uniform,
        Mix::Complex,
        seed,
    );
    // One lightly-loaded client over the full 20 M-row table with a cold
    // cache: every random read is a miss, as in the paper's cold 100 GB
    // table ("a random read, therefore, causes an IO operation").
    cfg.prewarm = false;
    cfg.warmup = wsi_sim::SimTime::from_secs(2);
    cfg.measure = wsi_sim::SimTime::from_secs(30);
    Runner::new(cfg).run().ops
}

/// Figure 5: status-oracle latency vs throughput, SI vs WSI.
pub fn fig5(seed: u64) -> Vec<Series> {
    levels()
        .iter()
        .map(|&level| {
            let mut series = Series::new(level.short_name());
            for &clients in &ORACLE_CLIENTS {
                let result = Runner::new(ClusterConfig::fig5(level, clients, seed)).run();
                series.push(result.to_point(clients as f64));
            }
            series
        })
        .collect()
}

/// One HBase sweep (shared engine for Figures 6–10).
fn hbase_sweep(
    distribution: KeyDistribution,
    mix: Mix,
    seed: u64,
    clients: &[usize],
) -> Vec<Series> {
    levels()
        .iter()
        .map(|&level| {
            let mut series = Series::new(level.short_name());
            for &n in clients {
                let cfg = ClusterConfig::hbase(level, n, distribution, mix, seed);
                let result = Runner::new(cfg).run();
                series.push(result.to_point(n as f64));
            }
            series
        })
        .collect()
}

/// Figure 6: latency vs throughput with the uniform distribution
/// (complex workload; §6.4 "each transaction updates n rows, randomly
/// selected with a uniform distribution on 20M rows").
pub fn fig6(seed: u64) -> Vec<Series> {
    hbase_sweep(KeyDistribution::Uniform, Mix::Complex, seed, &HBASE_CLIENTS)
}

/// Figures 7 and 8: performance and abort rate under the zipfian
/// distribution (mixed workload). One simulation produces both figures —
/// Figure 7 reads `(tps, latency_ms)`, Figure 8 reads `(tps, abort_rate)`.
pub fn fig7_fig8(seed: u64) -> Vec<Series> {
    hbase_sweep(KeyDistribution::Zipfian, Mix::Mixed, seed, &HBASE_CLIENTS)
}

/// Figures 9 and 10: performance and abort rate under zipfianLatest.
pub fn fig9_fig10(seed: u64) -> Vec<Series> {
    hbase_sweep(
        KeyDistribution::ZipfianLatest,
        Mix::Mixed,
        seed,
        &HBASE_CLIENTS,
    )
}

/// Ablation A1 — Algorithm 3's memory bound: abort rate vs `lastCommit`
/// capacity `NR` under the oracle stress workload.
///
/// Appendix A argues that with memory for the last ~50 seconds of commits,
/// `T_max` aborts vanish; shrinking `NR` below the concurrency window makes
/// them dominate. Each point runs the Figure 5 configuration with a bounded
/// table; `load` is `NR`, `abort_rate` includes the pessimistic aborts.
pub fn ablation_nr(seed: u64) -> Vec<Series> {
    let mut series = Series::new("wsi_bounded");
    for &capacity in &[100usize, 1_000, 10_000, 100_000, 1_000_000] {
        let mut cfg = ClusterConfig::fig5(IsolationLevel::WriteSnapshot, 8, seed);
        cfg.oracle.last_commit_capacity = Some(capacity);
        let result = Runner::new(cfg).run();
        series.push(result.to_point(capacity as f64));
    }
    // Reference point: the unbounded oracle (Algorithm 2).
    let unbounded = Runner::new(ClusterConfig::fig5(IsolationLevel::WriteSnapshot, 8, seed)).run();
    let mut reference = Series::new("wsi_unbounded");
    reference.push(unbounded.to_point(f64::INFINITY));
    vec![series, reference]
}

/// Ablation A2 — region routing under zipfianLatest: HBase-native range
/// partitioning funnels all fresh-key traffic into the tail region (the
/// classic sequential-key hotspot), while YCSB's hashed keys scatter it.
pub fn ablation_routing(seed: u64) -> Vec<Series> {
    use wsi_kvstore::Routing;
    [Routing::Hash, Routing::Range]
        .iter()
        .map(|&routing| {
            let label = match routing {
                Routing::Hash => "hashed_keys",
                Routing::Range => "range_partitioned",
            };
            let mut series = Series::new(label);
            for &clients in &[10usize, 40, 160] {
                let mut cfg = ClusterConfig::hbase(
                    IsolationLevel::WriteSnapshot,
                    clients,
                    KeyDistribution::ZipfianLatest,
                    Mix::Mixed,
                    seed,
                );
                cfg.routing = routing;
                let result = Runner::new(cfg).run();
                series.push(result.to_point(clients as f64));
            }
            series
        })
        .collect()
}

/// Ablation A4 — commit-timestamp deployment (§2.2 / Appendix A): client
/// replica (the paper's configuration) vs per-read oracle status queries vs
/// write-back into the data servers. Reported per mode at a moderate load.
pub fn ablation_commit_info(seed: u64) -> Vec<CommitInfoPoint> {
    use crate::config::CommitInfo;
    let mut out = Vec::new();
    for &(mode, label) in &[
        (CommitInfo::ClientReplica, "client_replica"),
        (CommitInfo::QueryOracle, "query_oracle"),
        (CommitInfo::WriteBack, "write_back"),
    ] {
        for &clients in &[20usize, 80, 320] {
            let mut cfg = ClusterConfig::hbase(
                IsolationLevel::WriteSnapshot,
                clients,
                KeyDistribution::Zipfian,
                Mix::Mixed,
                seed,
            );
            cfg.commit_info = mode;
            let result = Runner::new(cfg).run();
            out.push(CommitInfoPoint {
                mode: label,
                clients,
                tps: result.tps,
                latency_ms: result.mean_latency_ms,
                oracle_cpu: result.oracle_cpu_utilization,
            });
        }
    }
    out
}

/// One row of the commit-info deployment ablation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CommitInfoPoint {
    /// Deployment mode label.
    pub mode: &'static str,
    /// Client count.
    pub clients: usize,
    /// Committed transactions per second.
    pub tps: f64,
    /// Mean transaction latency.
    pub latency_ms: f64,
    /// Status-oracle critical-section utilization — the §2.2 concern: the
    /// query mode multiplies oracle load by the read rate.
    pub oracle_cpu: f64,
}

/// Ablation A3 — analytical transactions (§5.2): enumerated vs compact
/// (range) read sets.
///
/// An OLTP stream runs against the oracle while periodic analytical
/// transactions scan a fraction of the key space. Enumerating the scanned
/// rows makes the commit request huge; the range representation is a few
/// bytes but over-approximates (it may cover rows the scan never actually
/// returned). Reported per scan width: the analytical abort probability
/// under both representations and the request sizes in row entries.
///
/// The enumerated scan is a commit request to the oracle. The range verdict
/// needs no oracle support: the range `[lo, lo + width)` conflicts exactly
/// when an OLTP row committed during the scan falls inside it, and only a
/// scan that passes commits.
pub fn analytical_read_sets(seed: u64) -> Vec<AnalyticalPoint> {
    use wsi_core::{CommitRequest, RowId, StatusOracleCore};
    use wsi_sim::SimRng;

    const ROWS: u64 = 1_000_000;
    const OLTP_BETWEEN_SCANS: usize = 200;
    const SCANS: usize = 200;

    let mut out = Vec::new();
    for &width in &[100u64, 1_000, 10_000, 100_000] {
        let mut aborts_enumerated = 0u32;
        let mut aborts_range = 0u32;
        for mode in 0..2 {
            let mut oracle = StatusOracleCore::unbounded(IsolationLevel::WriteSnapshot);
            let mut rng = SimRng::new(seed ^ width ^ mode);
            for _ in 0..SCANS {
                let scan_start = oracle.begin();
                let lo = rng.below(ROWS - width);
                let scanned = lo..lo + width;
                // Concurrent OLTP traffic commits during the scan.
                let mut range_hit = false;
                for _ in 0..OLTP_BETWEEN_SCANS {
                    let t = oracle.begin();
                    let row = RowId(rng.below(ROWS));
                    let committed = oracle
                        .commit(CommitRequest::new(t, vec![row], vec![row]))
                        .is_committed();
                    range_hit |= committed && scanned.contains(&row.0);
                }
                let write = vec![RowId(ROWS + 1)];
                if mode == 0 {
                    // The scan "actually read" half of the rows in its range.
                    let reads: Vec<RowId> = scanned.step_by(2).map(RowId).collect();
                    let req = CommitRequest::new(scan_start, reads, write);
                    aborts_enumerated += u32::from(oracle.commit(req).is_aborted());
                } else if range_hit {
                    aborts_range += 1;
                    oracle.abort(scan_start);
                } else {
                    let _ = oracle.commit(CommitRequest::new(scan_start, vec![], write));
                }
            }
        }
        out.push(AnalyticalPoint {
            scan_width: width,
            enumerated_abort_rate: f64::from(aborts_enumerated) / SCANS as f64,
            range_abort_rate: f64::from(aborts_range) / SCANS as f64,
            enumerated_entries: width / 2,
            range_entries: 1,
        });
    }
    out
}

/// One row of the analytical-read-set ablation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AnalyticalPoint {
    /// Rows covered by the scan's range.
    pub scan_width: u64,
    /// Abort probability with the enumerated read set.
    pub enumerated_abort_rate: f64,
    /// Abort probability with the compact range read set.
    pub range_abort_rate: f64,
    /// Row entries submitted when enumerating.
    pub enumerated_entries: u64,
    /// Entries submitted with the range representation.
    pub range_entries: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    // Experiment smoke tests run shrunk sweeps (full sweeps live in the
    // bench harness); they assert the headline *shapes*, not magnitudes.

    #[test]
    fn fig5_si_and_wsi_are_comparable_until_saturation() {
        let mut series = fig5_small();
        let wsi = series.remove(0);
        let si = series.remove(0);
        assert_eq!(wsi.label, "wsi");
        assert_eq!(si.label, "si");
        // At the lowest load the latencies are within 30%.
        let (w0, s0) = (&wsi.points[0], &si.points[0]);
        assert!((w0.latency_ms - s0.latency_ms).abs() / s0.latency_ms < 0.3);
        // SI's peak throughput is >= WSI's (2× memory-item loads).
        assert!(si.peak_tps() >= wsi.peak_tps() * 0.98);
    }

    fn fig5_small() -> Vec<Series> {
        [IsolationLevel::WriteSnapshot, IsolationLevel::Snapshot]
            .iter()
            .map(|&level| {
                let mut s = Series::new(level.short_name());
                for &clients in &[1usize, 8] {
                    let mut cfg = ClusterConfig::fig5(level, clients, 3);
                    cfg.warmup = wsi_sim::SimTime::from_ms(500);
                    cfg.measure = wsi_sim::SimTime::from_secs(1);
                    s.push(Runner::new(cfg).run().to_point(clients as f64));
                }
                s
            })
            .collect()
    }

    #[test]
    fn analytical_ranges_trade_size_for_aborts() {
        let points = analytical_read_sets(3);
        for p in &points {
            // The compact representation is orders of magnitude smaller...
            assert_eq!(p.range_entries, 1);
            assert!(p.enumerated_entries >= 50);
            // ...but over-approximates: it can only add aborts.
            assert!(
                p.range_abort_rate >= p.enumerated_abort_rate - 0.05,
                "width {}: range {} vs enumerated {}",
                p.scan_width,
                p.range_abort_rate,
                p.enumerated_abort_rate
            );
        }
        // Wider scans conflict more (§5.2: "the larger the read set, the
        // higher is the probability of a read-write conflict").
        let first = &points[0];
        let last = points.last().unwrap();
        assert!(last.range_abort_rate > first.range_abort_rate);
    }

    #[test]
    fn zipfian_beats_uniform_throughput() {
        // §6.5: cache locality gives zipfian better throughput and latency.
        let mk = |dist| {
            let mut cfg =
                ClusterConfig::hbase(IsolationLevel::WriteSnapshot, 40, dist, Mix::Mixed, 5);
            // Full-size key space: the cache (≈2 M rows) must not cover it,
            // otherwise the uniform workload would be fully cached too.
            cfg.warmup = wsi_sim::SimTime::from_secs(2);
            cfg.measure = wsi_sim::SimTime::from_secs(8);
            Runner::new(cfg).run()
        };
        let uniform = mk(KeyDistribution::Uniform);
        let zipf = mk(KeyDistribution::Zipfian);
        assert!(
            zipf.tps > uniform.tps,
            "zipf {} vs uniform {}",
            zipf.tps,
            uniform.tps
        );
        assert!(zipf.cache_hit_rate > uniform.cache_hit_rate);
    }
}
