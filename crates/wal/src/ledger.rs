//! The write path of the replicated log: buffering, quorum acks, recovery.

use std::collections::BTreeMap;

use bytes::{BufMut, Bytes, BytesMut};

use crate::bookie::Bookie;

/// Sequence number of a record in the ledger (0-based, dense).
pub type SeqNo = u64;

/// Errors surfaced by the ledger write path.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WalError {
    /// Fewer than `ack_quorum` bookies accepted the batch; durability cannot
    /// be claimed. The buffered records are retained for retry.
    QuorumLost {
        /// Bookies that acknowledged the write.
        acks: usize,
        /// The quorum that was required.
        required: usize,
    },
}

impl std::fmt::Display for WalError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WalError::QuorumLost { acks, required } => {
                write!(f, "write quorum lost: {acks} acks, {required} required")
            }
        }
    }
}

impl std::error::Error for WalError {}

/// Configuration of a [`Ledger`]: the replication shape. When to flush is
/// the owner's call; the embedded store flushes every group-commit round.
#[derive(Debug, Clone, Copy)]
pub struct LedgerConfig {
    /// Number of storage replicas (the paper's deployment uses 2 BookKeeper
    /// machines; 3 with `ack_quorum = 2` is the common production shape).
    pub replicas: usize,
    /// Acks required before a batch counts as durable.
    pub ack_quorum: usize,
    /// Simulated per-flush replication latency, in wall-clock microseconds.
    ///
    /// Zero (the default) keeps flushes instantaneous. Tests and benchmarks
    /// set it to model a real quorum round-trip, e.g. to demonstrate that an
    /// embedder's critical sections do not extend over the flush.
    pub flush_delay_us: u64,
}

impl LedgerConfig {
    /// A 3-replica, quorum-2 ledger.
    pub fn default_replicated() -> Self {
        LedgerConfig {
            replicas: 3,
            ack_quorum: 2,
            flush_delay_us: 0,
        }
    }

    /// A single-replica ledger for embedded use.
    pub fn local_sync() -> Self {
        LedgerConfig {
            replicas: 1,
            ack_quorum: 1,
            flush_delay_us: 0,
        }
    }

    /// Sets the simulated per-flush replication latency.
    #[must_use]
    pub fn with_flush_delay_us(mut self, flush_delay_us: u64) -> Self {
        self.flush_delay_us = flush_delay_us;
        self
    }
}

/// Cumulative write-path counters: a plain-value view of [`LedgerObs`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LedgerStats {
    /// Records appended.
    pub records: u64,
    /// Physical batch writes issued to the ensemble.
    pub flushes: u64,
    /// Total payload bytes appended.
    pub payload_bytes: u64,
}

impl LedgerStats {
    /// Average records per physical flush — the paper's "batching factor".
    pub fn batch_factor(&self) -> f64 {
        if self.flushes == 0 {
            0.0
        } else {
            self.records as f64 / self.flushes as f64
        }
    }
}

/// The counts of a [`Ledger`], kept once, as [`wsi_obs`] series.
///
/// Every append and flush counts here and nowhere else; [`Ledger::stats`]
/// reads them. `Clone` shares the underlying atomics, so an embedder can
/// keep a handle and read WAL metrics without reaching into the ledger
/// (which usually lives behind the commit pipeline's lock).
#[derive(Debug, Clone, Default)]
pub struct LedgerObs {
    /// Records appended.
    pub records: wsi_obs::Counter,
    /// Physical batch writes issued.
    pub flushes: wsi_obs::Counter,
    /// Total payload bytes appended.
    pub payload_bytes: wsi_obs::Counter,
    /// Flush attempts that failed to reach the ack quorum.
    pub quorum_losses: wsi_obs::Counter,
    /// Wall-clock latency of each successful flush, in microseconds.
    pub flush_us: wsi_obs::Histogram,
    /// Records per physical flush (the paper's "batching factor" as a
    /// distribution, not just a mean).
    pub batch_records: wsi_obs::Histogram,
}

impl LedgerObs {
    /// Registers every series in `registry` under `wal_*` names.
    pub fn register_in(&self, registry: &wsi_obs::Registry) {
        registry.register_counter("wal_records_total", &self.records);
        registry.register_counter("wal_flushes_total", &self.flushes);
        registry.register_counter("wal_payload_bytes_total", &self.payload_bytes);
        registry.register_counter("wal_quorum_losses_total", &self.quorum_losses);
        registry.register_histogram("wal_flush_us", &self.flush_us);
        registry.register_histogram("wal_batch_records", &self.batch_records);
    }

    /// The counts as a plain value.
    pub fn stats(&self) -> LedgerStats {
        LedgerStats {
            records: self.records.get(),
            flushes: self.flushes.get(),
            payload_bytes: self.payload_bytes.get(),
        }
    }

    /// Fresh series that start at these counts, for a copy of the log: the
    /// copy counts on from the original and reports nowhere else.
    fn continued(&self) -> LedgerObs {
        let obs = LedgerObs::default();
        obs.records.set(self.records.get());
        obs.flushes.set(self.flushes.get());
        obs.payload_bytes.set(self.payload_bytes.get());
        obs.quorum_losses.set(self.quorum_losses.get());
        obs
    }
}

/// A replicated, batched, append-only log (one BookKeeper ledger).
///
/// Appends buffer in memory; [`Ledger::flush`] writes the buffered records
/// as one replicated entry.
/// A record is *durable* — safe to act on, e.g. to expose a commit decision
/// to a client — only once `durable_upto() >= seq`.
///
/// The log can be truncated at its front once an embedder has made the
/// records there redundant (a checkpoint): [`Ledger::truncate_before`]
/// raises the ledger's *base*, the bookies drop the entries wholly below
/// it, and [`Ledger::recover`] starts there.
///
/// A clone is a point-in-time copy of the log: its counts start from the
/// original's and move only with its own appends and flushes.
#[derive(Debug)]
pub struct Ledger {
    config: LedgerConfig,
    bookies: Vec<Bookie>,
    /// Records below this sequence number are truncated away.
    base: SeqNo,
    next_seq: SeqNo,
    /// Buffered records awaiting flush, with the seq of the first one.
    buffer: Vec<Bytes>,
    buffer_first_seq: SeqNo,
    durable: Option<SeqNo>,
    obs: LedgerObs,
}

impl Clone for Ledger {
    fn clone(&self) -> Self {
        Ledger {
            config: self.config,
            bookies: self.bookies.clone(),
            base: self.base,
            next_seq: self.next_seq,
            buffer: self.buffer.clone(),
            buffer_first_seq: self.buffer_first_seq,
            durable: self.durable,
            obs: self.obs.continued(),
        }
    }
}

impl Ledger {
    /// Opens a fresh ledger with `config.replicas` healthy bookies.
    ///
    /// # Panics
    ///
    /// Panics if `replicas == 0` or `ack_quorum` is zero or larger than
    /// `replicas`.
    pub fn open(config: LedgerConfig) -> Self {
        assert!(config.replicas > 0, "ledger needs at least one replica");
        assert!(
            (1..=config.replicas).contains(&config.ack_quorum),
            "ack quorum must be in 1..=replicas"
        );
        Ledger {
            bookies: (0..config.replicas).map(|_| Bookie::new()).collect(),
            config,
            base: 0,
            next_seq: 0,
            buffer: Vec::new(),
            buffer_first_seq: 0,
            durable: None,
            obs: LedgerObs::default(),
        }
    }

    /// Opens a fresh ledger whose log continues a truncated one: its base,
    /// and its first record's sequence number, is `base`. A replacement
    /// ensemble restores a recovered log this way with every sequence
    /// number intact.
    ///
    /// # Panics
    ///
    /// As [`Ledger::open`].
    pub fn open_at(config: LedgerConfig, base: SeqNo) -> Self {
        let mut ledger = Ledger::open(config);
        ledger.base = base;
        ledger.next_seq = base;
        ledger
    }

    /// The ledger's series.
    pub fn obs(&self) -> &LedgerObs {
        &self.obs
    }

    /// Appends a record to the buffer and returns its sequence number.
    /// `_now_us` is the caller's clock; the ledger keeps no time (the
    /// argument goes with its last caller, ROADMAP item 17).
    ///
    /// The record is **not durable** until a flush covering it succeeds.
    pub fn append(&mut self, payload: Bytes, _now_us: u64) -> SeqNo {
        if self.buffer.is_empty() {
            self.buffer_first_seq = self.next_seq;
        }
        let seq = self.next_seq;
        self.next_seq += 1;
        self.obs.records.inc();
        self.obs.payload_bytes.add(payload.len() as u64);
        self.buffer.push(payload);
        seq
    }

    /// Flushes all buffered records as one replicated entry. `_now_us` is
    /// the caller's clock; the ledger keeps no time (see [`Ledger::append`]).
    ///
    /// On success returns the new durable watermark (the seq of the last
    /// record in the batch). On quorum loss the buffer is retained and the
    /// durable watermark is unchanged; the caller may recover bookies and
    /// retry.
    pub fn flush(&mut self, _now_us: u64) -> Result<SeqNo, WalError> {
        if self.buffer.is_empty() {
            // Nothing to do; report the current watermark (or 0-record edge).
            return Ok(self.durable.unwrap_or(0));
        }
        let flush_began = std::time::Instant::now();
        if self.config.flush_delay_us > 0 {
            std::thread::sleep(std::time::Duration::from_micros(self.config.flush_delay_us));
        }
        let entry = encode_entry(&self.buffer);
        let records = self.buffer.len() as u64;
        let mut acks = 0;
        for bookie in &mut self.bookies {
            if bookie.store(self.buffer_first_seq, records, entry.clone()) {
                acks += 1;
            }
        }
        if acks < self.config.ack_quorum {
            self.obs.quorum_losses.inc();
            return Err(WalError::QuorumLost {
                acks,
                required: self.config.ack_quorum,
            });
        }
        let last = self.buffer_first_seq + self.buffer.len() as u64 - 1;
        self.durable = Some(last);
        self.obs.flushes.inc();
        self.obs.batch_records.record(records);
        self.obs
            .flush_us
            .record(flush_began.elapsed().as_micros() as u64);
        self.buffer.clear();
        Ok(last)
    }

    /// Highest durable sequence number, if any flush has succeeded.
    pub fn durable_upto(&self) -> Option<SeqNo> {
        self.durable
    }

    /// Number of records buffered but not yet durable.
    pub fn pending_records(&self) -> usize {
        self.buffer.len()
    }

    /// The truncation base: records below it are gone, and
    /// [`Ledger::recover`] starts here.
    pub fn base(&self) -> SeqNo {
        self.base
    }

    /// Truncates the log before `seq`: raises the base to `seq` and has
    /// every reachable bookie drop the entries wholly below it. A failed
    /// bookie keeps its stale entries until a later truncation finds it
    /// back; they sit below the base, so recovery ignores them. The base
    /// never moves backwards.
    ///
    /// # Panics
    ///
    /// Panics if `seq` lies beyond the durable prefix: only records a
    /// quorum holds may be made redundant.
    pub fn truncate_before(&mut self, seq: SeqNo) {
        assert!(
            seq <= self.durable.map_or(self.base, |d| d + 1),
            "truncation past the durable prefix"
        );
        self.base = self.base.max(seq);
        for bookie in self.bookies.iter_mut().filter(|b| !b.is_failed()) {
            bookie.truncate_before(self.base);
        }
    }

    /// Injects a failure into bookie `idx`.
    ///
    /// # Panics
    ///
    /// Panics if `idx` is out of range.
    pub fn fail_bookie(&mut self, idx: usize) {
        self.bookies[idx].fail();
    }

    /// Fails bookie `idx` once it has accepted `flushes` more entries: a
    /// crash at a chosen point of the write stream.
    ///
    /// # Panics
    ///
    /// Panics if `idx` is out of range.
    pub fn fail_bookie_after(&mut self, idx: usize, flushes: u64) {
        self.bookies[idx].fail_after(flushes);
    }

    /// Recovers bookie `idx` (its pre-failure entries intact).
    ///
    /// # Panics
    ///
    /// Panics if `idx` is out of range.
    pub fn recover_bookie(&mut self, idx: usize) {
        self.bookies[idx].recover();
    }

    /// Write-path counters, read from the ledger's series.
    pub fn stats(&self) -> LedgerStats {
        self.obs.stats()
    }

    /// Recovers the log contents readable from the surviving bookies: the
    /// longest gap-free run of records from the base found on *any*
    /// readable replica.
    ///
    /// Every record that was ever acknowledged durable is guaranteed present
    /// as long as at most `replicas - ack_quorum` bookies are unreadable.
    /// Records from unacknowledged batches may also appear (they reached some
    /// bookie) — recovering *more* than was promised is safe: the owner
    /// replays them as commits that simply were never reported to clients.
    pub fn recover(&self) -> Vec<Bytes> {
        let mut by_seq: BTreeMap<SeqNo, Bytes> = BTreeMap::new();
        for bookie in &self.bookies {
            let Some(entries) = bookie.read_all() else {
                continue;
            };
            for (first_seq, entry) in entries {
                for (offset, record) in decode_entry(entry).into_iter().enumerate() {
                    let seq = first_seq + offset as u64;
                    if seq >= self.base {
                        by_seq.entry(seq).or_insert(record);
                    }
                }
            }
        }
        // Longest gap-free run from the base.
        let mut out = Vec::with_capacity(by_seq.len());
        for (expected, (seq, record)) in (self.base..).zip(by_seq) {
            if seq != expected {
                break;
            }
            out.push(record);
        }
        out
    }
}

/// Frames a batch of records into one entry: `u32` little-endian length
/// prefix per record.
fn encode_entry(records: &[Bytes]) -> Bytes {
    let total: usize = records.iter().map(|r| 4 + r.len()).sum();
    let mut buf = BytesMut::with_capacity(total);
    for r in records {
        buf.put_u32_le(r.len() as u32);
        buf.put_slice(r);
    }
    buf.freeze()
}

/// Inverse of [`encode_entry`]. Truncated trailing garbage is dropped (a
/// torn final record after a crash mid-write).
fn decode_entry(entry: &Bytes) -> Vec<Bytes> {
    let mut out = Vec::new();
    let mut pos = 0usize;
    while pos + 4 <= entry.len() {
        let len = u32::from_le_bytes(entry[pos..pos + 4].try_into().expect("4 bytes")) as usize;
        pos += 4;
        if pos + len > entry.len() {
            break; // torn record
        }
        out.push(entry.slice(pos..pos + len));
        pos += len;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn payload(i: u64) -> Bytes {
        Bytes::from(format!("record-{i}").into_bytes())
    }

    #[test]
    fn append_flush_durable() {
        let mut l = Ledger::open(LedgerConfig::default_replicated());
        let s0 = l.append(payload(0), 0);
        let s1 = l.append(payload(1), 0);
        assert_eq!((s0, s1), (0, 1));
        assert_eq!(l.durable_upto(), None);
        assert_eq!(l.flush(0).unwrap(), 1);
        assert_eq!(l.durable_upto(), Some(1));
        assert_eq!(l.pending_records(), 0);
    }

    #[test]
    fn quorum_loss_keeps_buffer_and_watermark() {
        let mut l = Ledger::open(LedgerConfig::default_replicated());
        l.append(payload(0), 0);
        l.flush(0).unwrap();
        l.fail_bookie(0);
        l.fail_bookie(1);
        l.append(payload(1), 0);
        let err = l.flush(0).unwrap_err();
        assert_eq!(
            err,
            WalError::QuorumLost {
                acks: 1,
                required: 2
            }
        );
        assert_eq!(l.durable_upto(), Some(0));
        assert_eq!(l.pending_records(), 1);
        // Recover one bookie and retry: quorum restored.
        l.recover_bookie(0);
        assert_eq!(l.flush(0).unwrap(), 1);
    }

    #[test]
    fn recovery_returns_acked_prefix_after_one_failure() {
        let mut l = Ledger::open(LedgerConfig::default_replicated());
        for i in 0..10 {
            l.append(payload(i), 0);
            l.flush(0).unwrap();
        }
        l.fail_bookie(2); // within the f = replicas - quorum = 1 budget
        let recovered = l.recover();
        assert_eq!(recovered.len(), 10);
        for (i, r) in recovered.iter().enumerate() {
            assert_eq!(r, &payload(i as u64));
        }
    }

    #[test]
    fn recovery_sees_writes_that_missed_a_down_bookie() {
        let mut l = Ledger::open(LedgerConfig::default_replicated());
        l.append(payload(0), 0);
        l.flush(0).unwrap();
        l.fail_bookie(0);
        l.append(payload(1), 0);
        l.flush(0).unwrap(); // 2 acks: still a quorum
        l.recover_bookie(0); // back up, but missing record 1
        l.fail_bookie(1); // a *different* bookie dies
        let recovered = l.recover();
        // Record 1 lives on bookie 2 (and originally 1); still recovered.
        assert_eq!(recovered.len(), 2);
    }

    #[test]
    fn recovery_stops_at_gap() {
        // A failed flush retains its buffer, so the public API cannot lose a
        // middle record; fabricate the gap directly on the replica to check
        // that recovery returns only the gap-free prefix.
        let mut l = Ledger::open(LedgerConfig::local_sync());
        l.bookies[0].store(0, 1, encode_entry(&[payload(0)]));
        l.bookies[0].store(2, 1, encode_entry(&[payload(2)])); // seq 1 missing
        let recovered = l.recover();
        assert_eq!(recovered.len(), 1, "prefix must stop before the gap");
        assert_eq!(recovered[0], payload(0));
    }

    #[test]
    fn failed_flush_retries_with_full_buffer() {
        let mut l = Ledger::open(LedgerConfig::local_sync());
        l.append(payload(0), 0);
        l.flush(0).unwrap();
        l.fail_bookie(0);
        l.append(payload(1), 0);
        assert!(l.flush(0).is_err());
        l.recover_bookie(0);
        l.append(payload(2), 0);
        l.flush(0).unwrap();
        // Nothing was lost: the failed batch was retried wholesale.
        assert_eq!(l.recover().len(), 3);
    }

    #[test]
    fn truncation_drops_the_prefix_and_recovery_starts_at_the_base() {
        let mut l = Ledger::open(LedgerConfig::default_replicated());
        for i in 0..6 {
            l.append(payload(i), 0);
            if i % 2 == 1 {
                l.flush(0).unwrap();
            }
        }
        l.truncate_before(3);
        assert_eq!(l.base(), 3);
        // Entries [0, 2) go; [2, 4) straddles the base and stays whole.
        assert!(l.bookies.iter().all(|b| b.entry_count() == 2));
        let recovered = l.recover();
        assert_eq!(recovered, [payload(3), payload(4), payload(5)]);
        // The base never moves backwards, and appends continue the seqs.
        l.truncate_before(1);
        assert_eq!(l.base(), 3);
        assert_eq!(l.append(payload(6), 0), 6);
    }

    #[test]
    fn a_ledger_opened_at_a_base_continues_its_sequence_numbers() {
        let mut l = Ledger::open_at(LedgerConfig::default_replicated(), 40);
        assert_eq!(l.append(payload(40), 0), 40);
        l.flush(0).unwrap();
        assert_eq!((l.base(), l.durable_upto()), (40, Some(40)));
        assert_eq!(l.recover(), [payload(40)]);
    }

    #[test]
    fn a_failed_bookie_keeps_stale_entries_that_recovery_ignores() {
        let mut l = Ledger::open(LedgerConfig::default_replicated());
        for i in 0..4 {
            l.append(payload(i), 0);
            l.flush(0).unwrap();
        }
        l.fail_bookie(2);
        l.truncate_before(2);
        assert_eq!(l.bookies[2].entry_count(), 4, "unreachable: untouched");
        l.recover_bookie(2);
        l.fail_bookie(0);
        l.fail_bookie(1);
        // Only the stale bookie is readable: its records below the base
        // are ignored.
        assert_eq!(l.recover(), [payload(2), payload(3)]);
    }

    #[test]
    #[should_panic(expected = "durable prefix")]
    fn truncation_past_the_durable_prefix_is_refused() {
        let mut l = Ledger::open(LedgerConfig::default_replicated());
        l.append(payload(0), 0);
        l.truncate_before(1);
    }

    #[test]
    fn batch_factor_stat() {
        let mut l = Ledger::open(LedgerConfig::default_replicated());
        for i in 0..10 {
            l.append(payload(i), 0);
        }
        l.flush(0).unwrap();
        assert!((l.stats().batch_factor() - 10.0).abs() < 1e-9);
    }

    #[test]
    fn a_clone_counts_on_from_the_original_and_apart_from_it() {
        let mut l = Ledger::open(LedgerConfig::default_replicated());
        l.append(payload(0), 0);
        l.flush(0).unwrap();
        let mut copy = l.clone();
        copy.append(payload(1), 0);
        copy.flush(0).unwrap();
        let one = LedgerStats {
            records: 1,
            flushes: 1,
            payload_bytes: payload(0).len() as u64,
        };
        assert_eq!(l.stats(), one);
        assert_eq!(copy.stats().records, 2);
        assert_eq!(copy.stats().flushes, 2);
        assert_eq!(l.obs().records.get(), 1, "the original's series hold still");
    }

    #[test]
    fn entry_roundtrip_drops_torn_tail() {
        let records = vec![payload(1), payload(2)];
        let entry = encode_entry(&records);
        let torn = entry.slice(0..entry.len() - 3);
        let decoded = decode_entry(&torn);
        assert_eq!(decoded.len(), 1);
        assert_eq!(decoded[0], payload(1));
    }

    #[test]
    #[should_panic(expected = "ack quorum")]
    fn invalid_quorum_rejected() {
        let _ = Ledger::open(LedgerConfig {
            replicas: 2,
            ack_quorum: 3,
            flush_delay_us: 0,
        });
    }
}
