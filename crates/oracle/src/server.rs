//! The simulated status-oracle server.

use wsi_core::{CommitOutcome, CommitRequest, IsolationLevel, StatusOracleCore, Timestamp};
use wsi_sim::{SimTime, Station};

use crate::config::OracleConfig;

// Bytes one decision adds to the pending WAL batch, which is all the size
// trigger reads: a tag byte and u64 timestamps. A commit carries its start
// and commit timestamps and a u32 row count (the simulation logs no rows),
// an abort its start timestamp, a timestamp reservation its upper bound.
const COMMIT_RECORD_BYTES: usize = 21;
const ABORT_RECORD_BYTES: usize = 9;
const RESERVATION_RECORD_BYTES: usize = 9;

/// Response to a start-timestamp request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StartResponse {
    /// The issued start timestamp.
    pub ts: Timestamp,
    /// When the response leaves the oracle.
    pub done: SimTime,
}

/// Response to a commit request.
#[derive(Debug, Clone)]
pub struct CommitResponse {
    /// The oracle's decision.
    pub outcome: CommitOutcome,
    /// When the critical section finished (decision made in memory).
    pub cpu_done: SimTime,
    /// When the response may leave the oracle. For write transactions this
    /// is `None` until the WAL batch carrying the decision is durable — the
    /// caller collects it from the [`FlushResult`] that includes this
    /// transaction. Read-only commits respond immediately.
    pub ready: Option<SimTime>,
    /// If appending this record tripped a batch trigger, the flush it
    /// caused (containing this and all previously pending decisions).
    pub flush: Option<FlushResult>,
}

/// A durable WAL batch: when it is durable and which decisions it carries.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FlushResult {
    /// When the batch write is acknowledged by the ledger quorum.
    pub ready: SimTime,
    /// `(start_ts, outcome)` of every transaction whose decision this batch
    /// makes durable.
    pub decisions: Vec<(Timestamp, CommitOutcome)>,
}

/// The status oracle with its integrated timestamp oracle (§6.2, §A).
///
/// [`StatusOracleCore`] makes the decisions; the server charges virtual
/// time: a single-server [`Station`] models the critical section and a
/// pipelined station models BookKeeper. The WAL is modelled as time only:
/// each decision adds its record's size to the pending batch, and nothing is
/// stored.
#[derive(Debug)]
pub struct OracleServer {
    config: OracleConfig,
    core: StatusOracleCore,
    cpu: Station,
    wal_station: Station,
    /// Decisions whose records sit in the unflushed batch.
    pending: Vec<(Timestamp, CommitOutcome)>,
    /// Virtual time of the last batch trigger.
    last_trigger: SimTime,
    /// Bytes accumulated since the last trigger.
    pending_bytes: usize,
    /// Highest timestamp covered by a durable reservation record.
    ts_reserved_upto: Timestamp,
}

impl OracleServer {
    /// Creates a fresh oracle.
    pub fn new(config: OracleConfig) -> Self {
        let core = match config.last_commit_capacity {
            Some(cap) => StatusOracleCore::bounded(config.level, cap),
            None => StatusOracleCore::unbounded(config.level),
        };
        OracleServer {
            core,
            cpu: Station::new(1), // the critical section (§6.3)
            wal_station: Station::new(config.wal_pipeline),
            pending: Vec::new(),
            last_trigger: SimTime::ZERO,
            pending_bytes: 0,
            ts_reserved_upto: Timestamp::ZERO,
            config,
        }
    }

    /// Handles a start-timestamp request arriving at `now`.
    ///
    /// Timestamps come from in-memory reservations: when the counter nears
    /// the reserved bound, a reservation record goes into the WAL batch —
    /// but the response never waits for it ("the timestamp oracle could
    /// reserve thousands of timestamps per each write into the write-ahead
    /// log", §6.2). A crash simply wastes the unissued remainder.
    pub fn handle_start(&mut self, now: SimTime) -> StartResponse {
        let done = self.cpu.submit(now, self.config.start_request);
        let ts = self.core.begin();
        if ts >= self.ts_reserved_upto {
            let upto = Timestamp(ts.raw() + self.config.ts_reservation);
            self.pending_bytes += RESERVATION_RECORD_BYTES;
            self.ts_reserved_upto = upto;
        }
        StartResponse { ts, done }
    }

    /// Handles a transaction-status query arriving at `now` (§2.2: readers
    /// without a local commit-timestamp replica must ask the oracle whether
    /// a version's writer committed). Costs one critical-section slot.
    pub fn handle_status_query(&mut self, now: SimTime) -> SimTime {
        self.cpu.submit(now, self.config.start_request)
    }

    /// Handles a commit request arriving at `now` (Algorithms 1–3, then the
    /// WAL batch).
    pub fn handle_commit(&mut self, now: SimTime, req: CommitRequest) -> CommitResponse {
        let checked = self
            .config
            .level
            .checked_rows(&req.read_rows, &req.write_rows)
            .len();
        let items = match self.config.level {
            // SI (and SSI's SI base) checks and updates the same |R_w|
            // items; they stay hot in the processor cache, so they are
            // charged once.
            IsolationLevel::Snapshot | IsolationLevel::SerializableSnapshot => checked,
            // WSI loads |R_r| items to check and |R_w| items to update.
            IsolationLevel::WriteSnapshot => checked + req.write_rows.len(),
        };
        let read_only = req.is_read_only();
        let service = if read_only {
            // §5.1: the oracle "commits without performing any computation".
            self.config.start_request
        } else {
            self.config.commit_service(items)
        };
        let cpu_done = self.cpu.submit(now, service);
        let start_ts = req.start_ts;
        let outcome = self.core.commit(req);

        if read_only {
            return CommitResponse {
                outcome,
                cpu_done,
                ready: Some(cpu_done),
                flush: None,
            };
        }

        // Log the decision; the response waits for durability.
        self.pending_bytes += match outcome {
            CommitOutcome::Committed(_) => COMMIT_RECORD_BYTES,
            CommitOutcome::Aborted(_) => ABORT_RECORD_BYTES,
        };
        self.pending.push((start_ts, outcome));

        // Batch trigger check (Appendix A): size, or ≥ 5 ms since the last
        // trigger. A lone commit in an idle oracle flushes immediately —
        // which is why §6.2 measures 4.1 ms (≈ one quorum write), not
        // 4.1 + 5 ms.
        let trip_size = self.pending_bytes >= self.config.batch.max_bytes;
        let trip_time =
            cpu_done.saturating_sub(self.last_trigger).as_us() >= self.config.batch.max_delay_us;
        let flush = if trip_size || trip_time {
            Some(self.flush(cpu_done))
        } else {
            None
        };
        CommitResponse {
            outcome,
            cpu_done,
            ready: None,
            flush,
        }
    }

    /// The deadline by which the pending batch must flush (the 5 ms time
    /// trigger), if anything is pending. The simulation schedules a flush
    /// event here unless a size trigger fires first.
    pub fn next_flush_deadline(&self) -> Option<SimTime> {
        // Every record has a non-zero size, so no pending bytes means no
        // pending decision or reservation.
        if self.pending_bytes == 0 {
            None
        } else {
            Some(SimTime::from_us(
                self.last_trigger.as_us() + self.config.batch.max_delay_us,
            ))
        }
    }

    /// Flushes the pending batch at `now`, returning when it is durable and
    /// which decisions it carries. Call via the size trigger (from
    /// [`OracleServer::handle_commit`]'s return), or at
    /// [`OracleServer::next_flush_deadline`].
    pub fn flush(&mut self, now: SimTime) -> FlushResult {
        self.last_trigger = now;
        self.pending_bytes = 0;
        let decisions = std::mem::take(&mut self.pending);
        let ready = self.wal_station.submit(now, self.config.wal_write);
        FlushResult { ready, decisions }
    }

    /// CPU (critical-section) utilization over `elapsed`.
    pub fn cpu_utilization(&self, elapsed: SimTime) -> f64 {
        self.cpu.utilization(elapsed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wsi_core::RowId;

    fn cfg(level: IsolationLevel) -> OracleConfig {
        OracleConfig::paper_default(level)
    }

    fn rows(ids: &[u64]) -> Vec<RowId> {
        ids.iter().map(|&i| RowId(i)).collect()
    }

    #[test]
    fn lone_commit_latency_is_one_wal_write() {
        let mut o = OracleServer::new(cfg(IsolationLevel::WriteSnapshot));
        let now = SimTime::from_ms(100); // long after the last trigger
        let s = o.handle_start(now);
        let resp = o.handle_commit(
            SimTime::from_ms(101),
            CommitRequest::new(s.ts, rows(&[1]), rows(&[2])),
        );
        let flush = resp.flush.expect("idle oracle flushes immediately");
        let latency = flush.ready - SimTime::from_ms(101);
        let ms = latency.as_ms_f64();
        assert!((3.9..4.3).contains(&ms), "commit latency {ms} ms");
        assert_eq!(flush.decisions.len(), 1);
        assert!(flush.decisions[0].1.is_committed());
    }

    #[test]
    fn back_to_back_commits_batch_until_deadline() {
        let mut o = OracleServer::new(cfg(IsolationLevel::WriteSnapshot));
        // Commit 1 at t=6 ms: immediate flush (≥ 5 ms since trigger at 0).
        let s1 = o.handle_start(SimTime::from_ms(6));
        let r1 = o.handle_commit(
            SimTime::from_ms(6),
            CommitRequest::new(s1.ts, vec![], rows(&[1])),
        );
        assert!(r1.flush.is_some());
        // Commit 2 arrives 1 ms later: batched, no immediate flush.
        let s2 = o.handle_start(SimTime::from_ms(7));
        let r2 = o.handle_commit(
            SimTime::from_ms(7),
            CommitRequest::new(s2.ts, vec![], rows(&[2])),
        );
        assert!(r2.flush.is_none());
        let deadline = o.next_flush_deadline().expect("pending record");
        assert!(deadline.as_ms_f64() >= 11.0, "deadline {deadline}");
        let flush = o.flush(deadline);
        assert_eq!(flush.decisions.len(), 1);
    }

    #[test]
    fn size_trigger_flushes_a_full_batch() {
        let mut o = OracleServer::new(cfg(IsolationLevel::WriteSnapshot));
        let mut flushed = None;
        let now = SimTime::from_ms(6);
        // Abort records are 9 bytes, commit records 21; pack until 1 KB.
        for i in 0..60 {
            let s = o.handle_start(now);
            let r = o.handle_commit(now, CommitRequest::new(s.ts, vec![], rows(&[i])));
            if let Some(f) = r.flush {
                if !f.decisions.is_empty() && f.decisions.len() > 1 {
                    flushed = Some(f);
                    break;
                }
            }
        }
        let f = flushed.expect("size trigger must fire within 60 commits");
        assert!(
            f.decisions.len() > 10,
            "batched {} decisions",
            f.decisions.len()
        );
    }

    #[test]
    fn read_only_commit_responds_immediately_without_wal() {
        let mut o = OracleServer::new(cfg(IsolationLevel::WriteSnapshot));
        let s = o.handle_start(SimTime::from_ms(1));
        let bytes_before = o.pending_bytes;
        let r = o.handle_commit(SimTime::from_ms(1), CommitRequest::read_only(s.ts));
        assert!(r.outcome.is_committed());
        assert_eq!(r.ready, Some(r.cpu_done));
        assert_eq!(o.pending_bytes, bytes_before);
    }

    #[test]
    fn wsi_critical_section_costs_more_than_si() {
        let mut wsi = OracleServer::new(cfg(IsolationLevel::WriteSnapshot));
        let mut si = OracleServer::new(cfg(IsolationLevel::Snapshot));
        let now = SimTime::from_ms(10);
        let req = |ts| CommitRequest::new(ts, rows(&[1, 2, 3, 4, 5]), rows(&[6, 7, 8, 9, 10]));
        let sw = wsi.handle_start(now);
        let ss = si.handle_start(now);
        let rw = wsi.handle_commit(now, req(sw.ts));
        let rs = si.handle_commit(now, req(ss.ts));
        let wsi_cpu = rw.cpu_done - now;
        let si_cpu = rs.cpu_done - now;
        assert!(wsi_cpu > si_cpu, "wsi {wsi_cpu} vs si {si_cpu}");
    }

    #[test]
    fn start_requests_do_not_wait_for_persistence() {
        let mut o = OracleServer::new(cfg(IsolationLevel::WriteSnapshot));
        let r = o.handle_start(SimTime::from_ms(1));
        // Done within the critical-section cost, no WAL wait.
        assert!((r.done - SimTime::from_ms(1)).as_us() <= 2);
        let reserved = o.ts_reserved_upto;
        assert!(reserved > r.ts);
        // Subsequent starts ride the existing reservation: one record.
        for _ in 0..100 {
            o.handle_start(SimTime::from_ms(2));
        }
        assert_eq!(o.ts_reserved_upto, reserved);
        assert_eq!(o.pending_bytes, RESERVATION_RECORD_BYTES);
    }

    #[test]
    fn decisions_add_their_record_sizes_to_the_batch() {
        // A tag byte and u64 timestamps; a commit adds a u32 row count.
        assert_eq!(COMMIT_RECORD_BYTES, 1 + 8 + 8 + 4);
        assert_eq!(ABORT_RECORD_BYTES, 1 + 8);
        assert_eq!(RESERVATION_RECORD_BYTES, 1 + 8);
        let mut o = OracleServer::new(cfg(IsolationLevel::Snapshot));
        // Inside the first 5 ms, so no time trigger empties the batch.
        let now = SimTime::from_ms(1);
        let t1 = o.handle_start(now).ts;
        let t2 = o.handle_start(now).ts;
        assert!(o
            .handle_commit(now, CommitRequest::new(t1, vec![], rows(&[1])))
            .outcome
            .is_committed());
        assert!(o
            .handle_commit(now, CommitRequest::new(t2, vec![], rows(&[1])))
            .outcome
            .is_aborted());
        assert_eq!(
            o.pending_bytes,
            RESERVATION_RECORD_BYTES + COMMIT_RECORD_BYTES + ABORT_RECORD_BYTES
        );
    }
}
