//! The discrete-event transaction-lifecycle machine.
//!
//! Each in-flight transaction (a *slot*) walks the lifecycle of the
//! lock-free scheme:
//!
//! ```text
//! client ──start req──▶ oracle ──ts──▶ client
//! client ──read/write──▶ region server (per row, sequential)  [data phase]
//! client ──commit(R_r,R_w)──▶ oracle ──(after WAL durable)──▶ client
//! ```
//!
//! Every hop pays the one-way network latency; every server resource is a
//! FIFO station, so queueing delay — and thus the latency-vs-throughput
//! curves — emerges from arrival order. Closed-loop slots start their next
//! transaction the moment the previous decision arrives.

use std::collections::HashMap;

use wsi_core::{CommitRequest, RowId, Timestamp};
use wsi_kvstore::DataCluster;
use wsi_oracle::{FlushResult, OracleServer};
use wsi_sim::{
    metrics::{LatencyStats, Point},
    EventQueue, SimRng, SimTime,
};
use wsi_workload::{TxnTemplate, WorkloadGenerator};

use crate::config::{ClusterConfig, CommitInfo};

/// Mean per-operation latencies, the §6.2 microbenchmark table.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OpLatencySummary {
    /// Start-timestamp request (paper: 0.17 ms).
    pub start_ms: f64,
    /// Random read (paper: 38.8 ms cold).
    pub read_ms: f64,
    /// Write (paper: 1.13 ms).
    pub write_ms: f64,
    /// Commit request (paper: 4.1 ms).
    pub commit_ms: f64,
}

/// Aggregated outcome of one simulation run.
#[derive(Debug, Clone)]
pub struct RunResult {
    /// Committed transactions inside the measurement window.
    pub committed: u64,
    /// Aborted transactions inside the window.
    pub aborted: u64,
    /// Committed transactions per second.
    pub tps: f64,
    /// Mean end-to-end latency of committed transactions, ms.
    pub mean_latency_ms: f64,
    /// 99th-percentile latency, ms.
    pub p99_latency_ms: f64,
    /// `aborted / (committed + aborted)`.
    pub abort_rate: f64,
    /// Mean region-server cache hit rate (0 when no data phase).
    pub cache_hit_rate: f64,
    /// Status-oracle critical-section utilization.
    pub oracle_cpu_utilization: f64,
    /// Per-operation latency means.
    pub ops: OpLatencySummary,
}

impl RunResult {
    /// Collapses into a figure point at the given swept load value.
    pub fn to_point(&self, load: f64) -> Point {
        Point {
            load,
            tps: self.tps,
            latency_ms: self.mean_latency_ms,
            abort_rate: self.abort_rate,
        }
    }
}

#[derive(Debug, Clone, Copy)]
enum Ev {
    /// Start-timestamp request arrives at the oracle.
    StartAtOracle { slot: usize },
    /// Start-timestamp response arrives back at the client.
    ClientHasTs { slot: usize },
    /// A data operation arrives at its region server.
    OpAtServer { slot: usize },
    /// The operation's response arrives back at the client.
    ClientOpDone { slot: usize },
    /// A version-status query (no client commit-table replica) arrives at
    /// the oracle.
    StatusQueryAtOracle { slot: usize },
    /// The commit request arrives at the oracle.
    CommitAtOracle { slot: usize },
    /// The commit decision arrives back at the client.
    CommitDecided { slot: usize, committed: bool },
    /// The oracle's WAL batch deadline (5 ms time trigger).
    FlushDeadline,
}

struct Slot {
    template: TxnTemplate,
    start_ts: Timestamp,
    began: SimTime,
    op_idx: usize,
    op_sent: SimTime,
    commit_sent: SimTime,
}

/// One simulated experiment run.
pub struct Runner {
    cfg: ClusterConfig,
    q: EventQueue<Ev>,
    oracle: OracleServer,
    data: DataCluster,
    workload: WorkloadGenerator,
    slots: Vec<Slot>,
    pending_commits: HashMap<u64, usize>,
    scheduled_flush: Option<SimTime>,
    end: SimTime,
    warm_end: SimTime,
    // Measurement.
    latency: LatencyStats,
    committed: u64,
    aborted: u64,
    lat_start: LatencyStats,
    lat_read: LatencyStats,
    lat_write: LatencyStats,
    lat_commit: LatencyStats,
}

impl Runner {
    /// Builds the cluster and seeds the initial transactions.
    pub fn new(cfg: ClusterConfig) -> Self {
        let rng = SimRng::new(cfg.seed);
        let mut data = DataCluster::with_routing(
            cfg.servers,
            cfg.workload.rows,
            cfg.server,
            &rng.fork(1),
            cfg.routing,
        );
        // Pre-warm the caches to their steady state: the paper benchmarks a
        // long-running cluster, and LRU needs millions of accesses to reach
        // steady state under zipf(0.99) — too many to simulate per point.
        // The most popular rows (by the workload's own notion of popularity)
        // are resident; under the uniform distribution popularity is flat,
        // so an arbitrary slice of the same size is resident.
        if cfg.data_phase && cfg.prewarm {
            let budget = (cfg.servers * cfg.server.cache_rows) as u64;
            let rows = cfg.workload.rows;
            match cfg.workload.distribution {
                wsi_workload::KeyDistribution::Uniform | wsi_workload::KeyDistribution::Zipfian => {
                    // Zipfian popularity rank == row id.
                    data.prewarm(0..budget.min(rows));
                }
                wsi_workload::KeyDistribution::ZipfianLatest => {
                    // Hot rows are the most recently inserted.
                    let lo = rows.saturating_sub(budget);
                    data.prewarm((lo..rows).rev());
                }
            }
        }
        let oracle = OracleServer::new(cfg.oracle);
        let workload = WorkloadGenerator::new(cfg.workload, rng.fork(2));
        let total_slots = cfg.clients * cfg.outstanding_per_client;
        let warm_end = cfg.warmup;
        let end = cfg.warmup + cfg.measure;
        let mut runner = Runner {
            q: EventQueue::new(),
            oracle,
            data,
            workload,
            slots: Vec::with_capacity(total_slots),
            pending_commits: HashMap::new(),
            scheduled_flush: None,
            end,
            warm_end,
            latency: LatencyStats::new(),
            committed: 0,
            aborted: 0,
            lat_start: LatencyStats::new(),
            lat_read: LatencyStats::new(),
            lat_write: LatencyStats::new(),
            lat_commit: LatencyStats::new(),
            cfg,
        };
        for i in 0..total_slots {
            runner.slots.push(Slot {
                template: runner.workload.next_txn(),
                start_ts: Timestamp::ZERO,
                began: SimTime::ZERO,
                op_idx: 0,
                op_sent: SimTime::ZERO,
                commit_sent: SimTime::ZERO,
            });
            // Stagger arrivals slightly so time zero is not a thundering herd.
            let at = SimTime::from_us((i as u64 % 997) * 3);
            runner.slots[i].began = at;
            runner
                .q
                .schedule(at + runner.cfg.one_way_net, Ev::StartAtOracle { slot: i });
        }
        runner
    }

    /// Runs to completion and summarizes.
    pub fn run(mut self) -> RunResult {
        while let Some((now, ev)) = self.q.pop() {
            if now > self.end {
                break;
            }
            self.handle(now, ev);
        }
        self.finish()
    }

    fn in_window(&self, now: SimTime) -> bool {
        now >= self.warm_end && now < self.end
    }

    fn handle(&mut self, now: SimTime, ev: Ev) {
        match ev {
            Ev::StartAtOracle { slot } => {
                let resp = self.oracle.handle_start(now);
                self.slots[slot].start_ts = resp.ts;
                self.q
                    .schedule(resp.done + self.cfg.one_way_net, Ev::ClientHasTs { slot });
            }
            Ev::ClientHasTs { slot } => {
                let s = &mut self.slots[slot];
                if now >= self.warm_end {
                    self.lat_start.record(now - s.began);
                }
                s.op_idx = 0;
                if self.cfg.data_phase && s.template.ops() > 0 {
                    s.op_sent = now;
                    self.q
                        .schedule(now + self.cfg.one_way_net, Ev::OpAtServer { slot });
                } else {
                    s.commit_sent = now;
                    self.q
                        .schedule(now + self.cfg.one_way_net, Ev::CommitAtOracle { slot });
                }
            }
            Ev::OpAtServer { slot } => {
                let (is_read, row) = {
                    let s = &self.slots[slot];
                    let reads = s.template.reads.len();
                    if s.op_idx < reads {
                        (true, s.template.reads[s.op_idx])
                    } else {
                        (false, s.template.writes[s.op_idx - reads])
                    }
                };
                let done = if is_read {
                    let out = self.data.read(row, now);
                    if self.cfg.commit_info == CommitInfo::QueryOracle {
                        // No local replica: resolve the version's writer via
                        // a status query — client receives the read, asks the
                        // oracle, waits for the answer (§2.2 fallback). The
                        // query is its own event so it reaches the oracle's
                        // queue in arrival order.
                        let at_oracle = out.done + self.cfg.one_way_net + self.cfg.one_way_net;
                        self.q.schedule(at_oracle, Ev::StatusQueryAtOracle { slot });
                        return;
                    }
                    out.done
                } else {
                    // Rows at or beyond the preloaded key space are inserts.
                    let insert = row >= self.cfg.workload.rows;
                    self.data.write(row, now, insert)
                };
                self.q
                    .schedule(done + self.cfg.one_way_net, Ev::ClientOpDone { slot });
            }
            Ev::ClientOpDone { slot } => {
                let (finished_reads, more) = {
                    let s = &mut self.slots[slot];
                    let was_read = s.op_idx < s.template.reads.len();
                    s.op_idx += 1;
                    (was_read, s.op_idx < s.template.ops())
                };
                let op_latency = now - self.slots[slot].op_sent;
                if now >= self.warm_end {
                    if finished_reads {
                        self.lat_read.record(op_latency);
                    } else {
                        self.lat_write.record(op_latency);
                    }
                }
                let s = &mut self.slots[slot];
                if more {
                    s.op_sent = now;
                    self.q
                        .schedule(now + self.cfg.one_way_net, Ev::OpAtServer { slot });
                } else {
                    s.commit_sent = now;
                    self.q
                        .schedule(now + self.cfg.one_way_net, Ev::CommitAtOracle { slot });
                }
            }
            Ev::StatusQueryAtOracle { slot } => {
                let done = self.oracle.handle_status_query(now);
                self.q
                    .schedule(done + self.cfg.one_way_net, Ev::ClientOpDone { slot });
            }
            Ev::CommitAtOracle { slot } => {
                let s = &self.slots[slot];
                let req = CommitRequest::new(
                    s.start_ts,
                    s.template.reads.iter().map(|&r| RowId(r)).collect(),
                    s.template.writes.iter().map(|&r| RowId(r)).collect(),
                );
                let start_ts = s.start_ts;
                let resp = self.oracle.handle_commit(now, req);
                if let Some(ready) = resp.ready {
                    // Read-only fast path: immediate response.
                    self.q.schedule(
                        ready + self.cfg.one_way_net,
                        Ev::CommitDecided {
                            slot,
                            committed: resp.outcome.is_committed(),
                        },
                    );
                } else {
                    self.pending_commits.insert(start_ts.raw(), slot);
                    if let Some(flush) = resp.flush {
                        self.dispatch_flush(flush);
                    } else {
                        self.ensure_flush_scheduled(now);
                    }
                }
            }
            Ev::FlushDeadline => {
                self.scheduled_flush = None;
                if let Some(deadline) = self.oracle.next_flush_deadline() {
                    if deadline <= now {
                        let flush = self.oracle.flush(now);
                        self.dispatch_flush(flush);
                    } else {
                        self.ensure_flush_scheduled(now);
                    }
                }
            }
            Ev::CommitDecided { slot, committed } => {
                let commit_latency = now - self.slots[slot].commit_sent;
                let txn_latency = now - self.slots[slot].began;
                if self.in_window(now) {
                    self.lat_commit.record(commit_latency);
                    if committed {
                        self.committed += 1;
                        self.latency.record(txn_latency);
                    } else {
                        self.aborted += 1;
                    }
                }
                if committed && self.cfg.data_phase && self.cfg.commit_info == CommitInfo::WriteBack
                {
                    // Write the commit timestamp back beside the data: one
                    // extra (asynchronous) server write per modified row.
                    let writes = self.slots[slot].template.writes.clone();
                    for row in writes {
                        let _ = self.data.write(row, now, false);
                    }
                }
                // Closed loop: begin the next transaction immediately.
                let s = &mut self.slots[slot];
                s.template = self.workload.next_txn();
                s.began = now;
                s.op_idx = 0;
                self.q
                    .schedule(now + self.cfg.one_way_net, Ev::StartAtOracle { slot });
            }
        }
    }

    fn dispatch_flush(&mut self, flush: FlushResult) {
        for (start_ts, outcome) in flush.decisions {
            if let Some(slot) = self.pending_commits.remove(&start_ts.raw()) {
                self.q.schedule(
                    flush.ready + self.cfg.one_way_net,
                    Ev::CommitDecided {
                        slot,
                        committed: outcome.is_committed(),
                    },
                );
            }
        }
    }

    fn ensure_flush_scheduled(&mut self, now: SimTime) {
        let Some(deadline) = self.oracle.next_flush_deadline() else {
            return;
        };
        let at = deadline.max(now);
        if self.scheduled_flush != Some(at) {
            self.q.schedule(at, Ev::FlushDeadline);
            self.scheduled_flush = Some(at);
        }
    }

    fn finish(mut self) -> RunResult {
        let decided = self.committed + self.aborted;
        let elapsed = self.end - self.warm_end;
        RunResult {
            committed: self.committed,
            aborted: self.aborted,
            tps: self.committed as f64 / elapsed.as_secs_f64(),
            mean_latency_ms: self.latency.mean_ms(),
            p99_latency_ms: self.latency.p99_ms(),
            abort_rate: if decided == 0 {
                0.0
            } else {
                self.aborted as f64 / decided as f64
            },
            cache_hit_rate: self.data.mean_cache_hit_rate(),
            oracle_cpu_utilization: self.oracle.cpu_utilization(self.end),
            ops: OpLatencySummary {
                start_ms: self.lat_start.mean_ms(),
                read_ms: self.lat_read.mean_ms(),
                write_ms: self.lat_write.mean_ms(),
                commit_ms: self.lat_commit.mean_ms(),
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wsi_core::IsolationLevel;
    use wsi_workload::{KeyDistribution, Mix};

    fn small_hbase(level: IsolationLevel, clients: usize) -> ClusterConfig {
        let mut cfg =
            ClusterConfig::hbase(level, clients, KeyDistribution::Uniform, Mix::Complex, 7);
        cfg.workload.rows = 100_000;
        cfg.warmup = SimTime::from_secs(1);
        cfg.measure = SimTime::from_secs(4);
        cfg
    }

    #[test]
    fn closed_loop_run_completes_and_measures() {
        let result = Runner::new(small_hbase(IsolationLevel::WriteSnapshot, 4)).run();
        assert!(result.committed > 10, "committed {}", result.committed);
        assert!(result.tps > 1.0);
        assert!(result.mean_latency_ms > 1.0);
        assert!(result.p99_latency_ms >= result.mean_latency_ms);
    }

    #[test]
    fn uniform_low_load_has_near_zero_aborts() {
        // §6.4: "the probability of accessing the same row by two
        // transactions is low and the abort rate will be close to zero."
        let result = Runner::new(small_hbase(IsolationLevel::WriteSnapshot, 4)).run();
        assert!(result.abort_rate < 0.02, "abort rate {}", result.abort_rate);
    }

    #[test]
    fn determinism_same_seed_same_result() {
        let a = Runner::new(small_hbase(IsolationLevel::Snapshot, 3)).run();
        let b = Runner::new(small_hbase(IsolationLevel::Snapshot, 3)).run();
        assert_eq!(a.committed, b.committed);
        assert_eq!(a.aborted, b.aborted);
        assert_eq!(a.mean_latency_ms, b.mean_latency_ms);
    }

    #[test]
    fn fig5_mode_reaches_high_throughput() {
        let cfg = ClusterConfig::fig5(IsolationLevel::WriteSnapshot, 4, 11);
        let result = Runner::new(cfg).run();
        assert!(result.tps > 10_000.0, "oracle-only tps {}", result.tps);
        assert!(result.ops.read_ms == 0.0, "no data phase expected");
    }

    #[test]
    fn more_clients_do_not_reduce_throughput_much() {
        let few = Runner::new(small_hbase(IsolationLevel::WriteSnapshot, 2)).run();
        let many = Runner::new(small_hbase(IsolationLevel::WriteSnapshot, 16)).run();
        assert!(
            many.tps > few.tps * 1.5,
            "few {} many {}",
            few.tps,
            many.tps
        );
    }
}
