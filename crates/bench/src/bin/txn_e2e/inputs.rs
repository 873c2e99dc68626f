//! The workloads and their generated inputs.
//!
//! Every client's transactions are generated before anything is timed,
//! from `SimRng::new(seed).fork(client + 1)`, into two flat arrays per
//! client. The program under test only ever sees these arrays: `--seed` is
//! an argument of the benchmark, never of the store.

use wsi_sim::SimRng;
use wsi_workload::{KeyDistribution, Mix, WorkloadGenerator, WorkloadSpec};

/// Rounds run and discarded before timing starts.
pub const WARMUP_ROUNDS: usize = 2;
/// Rounds of the timed phase of an end-to-end run.
pub const MEASURED_ROUNDS: usize = 10;
/// Rounds of each of the two phases (timed, then traced) of a `--trace` run.
pub const TRACE_ROUNDS: usize = 3;

/// One benchmark workload: a set of inputs and how they are driven.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    pub name: &'static str,
    /// One line on why the workload exists (repeated in `BENCHMARK.json`).
    pub why: &'static str,
    /// Closed-loop client threads; never more than the host's 2 cores.
    pub clients: usize,
    /// Rows preloaded before the first round.
    pub rows: u64,
    pub distribution: KeyDistribution,
    pub mix: Mix,
    /// Whether commits wait for the replicated write-ahead log.
    pub sync_wal: bool,
    /// Transactions per client per round for each second of `--seconds`.
    /// Work is fixed by the arguments, never by the clock, and a faster
    /// program simply finishes sooner. At `--seconds 10` every workload
    /// runs 0.35 of ISSUE 13's `R` (50 000 / 50 000 / 100 000 / 40 000):
    /// the largest common factor at which the two workloads whose
    /// footprint grows with the work stay under 400 MB (see the README).
    pub txns_per_round_per_second: u64,
}

impl Workload {
    /// Whether inserts grow the key space (zipfianLatest).
    pub fn grows(&self) -> bool {
        self.distribution == KeyDistribution::ZipfianLatest
    }

    /// Transactions per client per round for a `--seconds` argument.
    pub fn round_txns(&self, seconds: u64) -> usize {
        (self.txns_per_round_per_second * seconds) as usize
    }

    pub fn spec(&self) -> WorkloadSpec {
        WorkloadSpec {
            rows: self.rows,
            distribution: self.distribution,
            mix: self.mix,
            ..WorkloadSpec::paper_default()
        }
    }
}

/// The benchmark's workloads. Each stresses a different layer; see the
/// README for the interaction table.
pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "uniform_complex_1t",
        why: "Working set beyond LLC, no conflicts: commit apply and GC do the work; \
              oracle contention, retries and WAL do none. Counts repeat exactly.",
        clients: 1,
        rows: 500_000,
        distribution: KeyDistribution::Uniform,
        mix: Mix::Complex,
        sync_wal: false,
        txns_per_round_per_second: 1_750,
    },
    Workload {
        name: "zipf_complex_2t",
        why: "Hot keys, 2 writers: retries, backoff, packed-node migration and oracle \
              shard contention; the only workload where the decision plane can show.",
        clients: 2,
        rows: 500_000,
        distribution: KeyDistribution::Zipfian,
        mix: Mix::Complex,
        sync_wal: false,
        txns_per_round_per_second: 1_750,
    },
    Workload {
        name: "latest_mixed_1t",
        why: "Reads beside few writes on a growing key space: get and the read-only \
              commit path dominate, GC is small. A write-path gain that costs reads shows here.",
        clients: 1,
        rows: 500_000,
        distribution: KeyDistribution::ZipfianLatest,
        mix: Mix::Mixed,
        sync_wal: false,
        txns_per_round_per_second: 3_500,
    },
    Workload {
        name: "uniform_complex_sync_2t",
        why: "Cache-resident store with the 3-bookie sync WAL: the commit pipeline \
              (snapshot-stability gate, WAL wait, group commit) dominates.",
        clients: 2,
        rows: 10_000,
        distribution: KeyDistribution::Uniform,
        mix: Mix::Complex,
        sync_wal: true,
        txns_per_round_per_second: 1_400,
    },
];

pub fn workload_by_name(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

const WRITE_BIT: u32 = 1;

/// One client's transactions, flattened: transaction `i` is
/// `ops[offsets[i]..offsets[i + 1]]`, reads first, then writes; an op is
/// `row << 1 | is_write`.
pub struct ClientInput {
    pub offsets: Vec<u32>,
    pub ops: Vec<u32>,
    /// Fresh rows inserted by transactions `0..=i`, per transaction
    /// (only filled for growing workloads; empty otherwise).
    pub inserts_through: Vec<u32>,
}

impl ClientInput {
    pub fn txns(&self) -> usize {
        self.offsets.len() - 1
    }

    #[inline]
    pub fn ops_of(&self, txn: usize) -> &[u32] {
        &self.ops[self.offsets[txn] as usize..self.offsets[txn + 1] as usize]
    }

    /// Fresh rows inserted by the first `txns` transactions.
    pub fn inserts_before(&self, txns: usize) -> u64 {
        if txns == 0 || self.inserts_through.is_empty() {
            0
        } else {
            self.inserts_through[txns - 1] as u64
        }
    }
}

#[inline]
pub fn op_row(op: u32) -> u64 {
    (op >> 1) as u64
}

#[inline]
pub fn op_is_write(op: u32) -> bool {
    op & WRITE_BIT != 0
}

/// All clients' inputs for one run.
pub struct Inputs {
    pub clients: Vec<ClientInput>,
    /// One past the largest row id any client touches.
    pub row_bound: u64,
    /// FNV-1a over every client's flat arrays: equal digests mean equal
    /// inputs.
    pub digest: u64,
}

/// Generates `txns_per_client` transactions for each client of `workload`.
pub fn generate(workload: &Workload, seed: u64, txns_per_client: usize) -> Inputs {
    let root = SimRng::new(seed);
    let mut clients = Vec::with_capacity(workload.clients);
    let mut row_bound = workload.rows;
    let mut digest = Fnv::new();
    for client in 0..workload.clients {
        let mut gen = WorkloadGenerator::new(workload.spec(), root.fork(client as u64 + 1));
        let mut offsets = Vec::with_capacity(txns_per_client + 1);
        let mut ops = Vec::with_capacity(txns_per_client * 11);
        let mut inserts_through = Vec::new();
        let mut inserted = 0u32;
        offsets.push(0u32);
        for _ in 0..txns_per_client {
            let txn = gen.next_txn();
            ops.extend(txn.reads.iter().map(|&row| encode_op(row, false)));
            ops.extend(txn.writes.iter().map(|&row| encode_op(row, true)));
            offsets.push(u32::try_from(ops.len()).expect("op count fits the offset type"));
            if workload.grows() {
                inserted += txn.inserts as u32;
                inserts_through.push(inserted);
            }
        }
        row_bound = row_bound.max(gen.rows());
        digest.words(&offsets);
        digest.words(&ops);
        clients.push(ClientInput {
            offsets,
            ops,
            inserts_through,
        });
    }
    Inputs {
        clients,
        row_bound,
        digest: digest.0,
    }
}

fn encode_op(row: u64, write: bool) -> u32 {
    assert!(row < 1 << 31, "row id fits 31 bits");
    (row as u32) << 1 | write as u32
}

struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn words(&mut self, words: &[u32]) {
        for word in words {
            for byte in word.to_le_bytes() {
                self.0 = (self.0 ^ byte as u64).wrapping_mul(0x0000_0100_0000_01b3);
            }
        }
    }
}

/// Length of every key: `user` + 12 decimal digits.
pub const KEY_LEN: usize = 16;
/// Length of every value: an 8-byte tag + filler.
pub const VALUE_LEN: usize = 100;
/// Writer id carried by preloaded values.
pub const PRELOAD_CLIENT: u64 = 0xffff;

/// The 16-byte key of a row: `user%012d`.
#[inline]
pub fn key_of(row: u64) -> [u8; KEY_LEN] {
    let mut key = *b"user000000000000";
    let mut rest = row;
    let mut at = KEY_LEN;
    while rest > 0 {
        at -= 1;
        key[at] = b'0' + (rest % 10) as u8;
        rest /= 10;
    }
    key
}

/// The tag a value carries: which client wrote it, in which of its
/// transactions.
#[inline]
pub fn tag_of(client: u64, seq: u64) -> u64 {
    client << 48 | seq
}

/// A 100-byte value: the tag, then filler.
#[inline]
pub fn value_of(tag: u64) -> [u8; VALUE_LEN] {
    let mut value = [b'v'; VALUE_LEN];
    value[..8].copy_from_slice(&tag.to_le_bytes());
    value
}

/// The tag of a stored value, or `None` if it is not a value this
/// benchmark wrote.
pub fn tag_in(value: &[u8]) -> Option<u64> {
    if value.len() != VALUE_LEN || value[8..].iter().any(|&b| b != b'v') {
        return None;
    }
    Some(u64::from_le_bytes(value[..8].try_into().expect("8 bytes")))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn keys_are_zero_padded_decimal() {
        assert_eq!(&key_of(0), b"user000000000000");
        assert_eq!(&key_of(42), b"user000000000042");
        assert_eq!(&key_of(499_999), b"user000000499999");
        assert_eq!(&key_of(999_999_999_999), b"user999999999999");
    }

    #[test]
    fn values_round_trip_their_tag() {
        let tag = tag_of(1, 123_456);
        assert_eq!(tag_in(&value_of(tag)), Some(tag));
        assert_eq!(tag_in(b"short"), None);
    }

    #[test]
    fn same_seed_same_inputs_and_another_seed_differs() {
        for workload in &WORKLOADS {
            let a = generate(workload, 7, 500);
            let b = generate(workload, 7, 500);
            let c = generate(workload, 8, 500);
            assert_eq!(a.digest, b.digest, "{}", workload.name);
            assert_ne!(a.digest, c.digest, "{}", workload.name);
            for (x, y) in a.clients.iter().zip(&b.clients) {
                assert_eq!(x.offsets, y.offsets);
                assert_eq!(x.ops, y.ops);
            }
            assert_eq!(a.clients.len(), workload.clients);
        }
    }

    #[test]
    fn only_the_latest_workload_grows_the_key_space() {
        for workload in &WORKLOADS {
            let inputs = generate(workload, 3, 2_000);
            let inserted = inputs.clients[0].inserts_before(2_000);
            if workload.grows() {
                assert!(inserted > 0);
                assert_eq!(inputs.row_bound, workload.rows + inserted);
            } else {
                assert_eq!(inserted, 0);
                assert_eq!(inputs.row_bound, workload.rows);
            }
        }
    }
}
