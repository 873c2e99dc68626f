//! The closed-loop driver: set-up, rounds, client threads.
//!
//! A run is a fixed number of *rounds*. In a round every client thread
//! runs its next `round_txns` generated transactions through
//! `Db::run(64, …)`; after a barrier client 0 calls `db.gc()` once, inside
//! the round's timed window; the next round starts behind another barrier.
//! Every version a round commits is therefore reclaimed by the end of the
//! round, the version store is in the same state at the start of every
//! round, and throughput includes reclamation.
//!
//! The store is opened with its defaults and nothing else, so the numbers
//! always describe whatever the production default is.

use std::hint::black_box;
use std::ops::Range;
use std::sync::Barrier;
use std::time::Instant;

use wsi_core::IsolationLevel;
use wsi_store::{Db, DbOptions};
use wsi_wal::LedgerConfig;

use crate::hist::{median, LatencyHist};
use crate::host;
use crate::inputs::{
    self, key_of, op_is_write, op_row, tag_of, value_of, ClientInput, Inputs, Workload,
    PRELOAD_CLIENT, WARMUP_ROUNDS,
};
use crate::spans::{Kind, Span, SpanRecorder};

/// Retry budget handed to `Db::run`.
const MAX_RETRIES: usize = 64;
/// Rows written per preload transaction.
const PRELOAD_BATCH: u64 = 100;

/// Whether a phase's closures carry timers.
#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// One clock read per transaction, none inside the closure.
    Timed,
    /// Driver spans around every call into the store.
    Traced,
}

/// What client 0 saw of one round.
#[derive(Clone, Copy, Debug)]
pub struct Round {
    /// Start barrier → end of `db.gc()`.
    pub wall_ns: u64,
    pub gc_ns: u64,
    /// Versions the round's GC dropped or removed.
    pub gc_versions: u64,
    /// Stored versions and keys after the round's GC.
    pub live_versions: u64,
    pub keys: u64,
}

/// What one client thread accumulated over a phase.
pub struct Client {
    /// Wall time of each `Db::run` call, retries and backoff included,
    /// one histogram per round.
    pub latency: Vec<LatencyHist>,
    /// Closure invocations, i.e. commit attempts.
    pub attempts: u64,
    /// `Db::run` calls that returned `Err`.
    pub failed: u64,
    /// Time inside the transaction loops, barriers excluded.
    pub loop_ns: u64,
    pub recorder: Option<SpanRecorder>,
}

pub struct Phase {
    pub rounds: Vec<Round>,
    pub clients: Vec<Client>,
    /// One span per round's GC, for the trace file.
    pub gc_spans: Vec<Span>,
}

impl Phase {
    pub fn wall_ns(&self) -> u64 {
        self.rounds.iter().map(|r| r.wall_ns).sum()
    }

    pub fn gc_ns(&self) -> u64 {
        self.rounds.iter().map(|r| r.gc_ns).sum()
    }

    pub fn txns(&self) -> u64 {
        self.clients
            .iter()
            .flat_map(|c| &c.latency)
            .map(|h| h.count())
            .sum()
    }

    pub fn attempts(&self) -> u64 {
        self.clients.iter().map(|c| c.attempts).sum()
    }

    pub fn failed(&self) -> u64 {
        self.clients.iter().map(|c| c.failed).sum()
    }

    /// Transactions per second of round wall time (the round's GC
    /// included): the median over the phase's rounds, so that a round the
    /// host disturbed moves the estimate by at most one rank.
    pub fn txn_per_s(&self) -> f64 {
        let mut rates: Vec<f64> = self
            .rounds
            .iter()
            .enumerate()
            .map(|(r, round)| {
                let txns: u64 = self.clients.iter().map(|c| c.latency[r].count()).sum();
                txns as f64 / (round.wall_ns as f64 / 1e9)
            })
            .collect();
        median(&mut rates)
    }

    /// One round's latencies, all clients pooled.
    pub fn round_latency(&self, round: usize) -> LatencyHist {
        let mut all = LatencyHist::new();
        for client in &self.clients {
            all.merge(&client.latency[round]);
        }
        all
    }
}

fn open(workload: &Workload) -> Db {
    let options = DbOptions::new(IsolationLevel::WriteSnapshot);
    Db::open(if workload.sync_wal {
        options.durable(LedgerConfig::default_replicated())
    } else {
        options
    })
}

fn preload(db: &Db, rows: u64) {
    let value = value_of(tag_of(PRELOAD_CLIENT, 0));
    let mut row = 0;
    while row < rows {
        let mut txn = db.begin();
        for r in row..rows.min(row + PRELOAD_BATCH) {
            txn.put(&key_of(r), &value);
        }
        txn.commit().expect("preload has no concurrent writer");
        row += PRELOAD_BATCH;
    }
}

/// A store brought to steady state, with the inputs that will drive it.
pub struct SetUp {
    pub db: Db,
    pub inputs: Inputs,
    pub round_txns: usize,
    pub warmup: Phase,
    /// Resident bytes added by preloading, per row.
    pub bytes_per_row: Option<f64>,
}

/// Everything before the first measured round: open, preload, input
/// generation, warm-up rounds. Its wall time is `setup_s`.
pub fn set_up(
    workload: &Workload,
    seed: u64,
    round_txns: usize,
    rounds_after_warmup: usize,
) -> SetUp {
    let db = open(workload);
    let rss_before = host::rss_bytes();
    preload(&db, workload.rows);
    let bytes_per_row = match (rss_before, host::rss_bytes()) {
        (Some(before), Some(after)) => {
            Some(after.saturating_sub(before) as f64 / workload.rows as f64)
        }
        _ => None,
    };
    let inputs = inputs::generate(
        workload,
        seed,
        (WARMUP_ROUNDS + rounds_after_warmup) * round_txns,
    );
    let warmup = run_phase(&db, &inputs, 0, WARMUP_ROUNDS, round_txns, Mode::Timed);
    SetUp {
        db,
        inputs,
        round_txns,
        warmup,
        bytes_per_row,
    }
}

/// Runs `rounds` rounds, each client starting at transaction `first_txn`
/// of its stream. Span timestamps count from the start of the phase.
pub fn run_phase(
    db: &Db,
    inputs: &Inputs,
    first_txn: usize,
    rounds: usize,
    round_txns: usize,
    mode: Mode,
) -> Phase {
    let epoch = Instant::now();
    let barrier = Barrier::new(inputs.clients.len());
    let mut results = std::thread::scope(|scope| {
        let handles: Vec<_> = inputs
            .clients
            .iter()
            .enumerate()
            .map(|(id, input)| {
                let barrier = &barrier;
                scope.spawn(move || {
                    // Filled by client 0 only: it runs the GC.
                    let mut round_log = Vec::with_capacity(rounds);
                    let mut gc_spans = Vec::with_capacity(rounds);
                    let mut client = Client {
                        latency: (0..rounds).map(|_| LatencyHist::new()).collect(),
                        attempts: 0,
                        failed: 0,
                        loop_ns: 0,
                        recorder: (mode == Mode::Traced).then(|| SpanRecorder::new(id)),
                    };
                    for round in 0..rounds {
                        let from = first_txn + round * round_txns;
                        let txns = from..from + round_txns;
                        barrier.wait();
                        let began = Instant::now();
                        match mode {
                            Mode::Timed => timed_round(db, id, input, txns, round, &mut client),
                            Mode::Traced => {
                                traced_round(db, id, input, txns, round, &mut client, epoch)
                            }
                        }
                        client.loop_ns += began.elapsed().as_nanos() as u64;
                        barrier.wait();
                        if id == 0 {
                            let gc_began = Instant::now();
                            let gc = db.gc();
                            let ended = Instant::now();
                            // Outside the round's window: the footprint
                            // walk is the benchmark's check, not the
                            // program's work.
                            let stats = db.stats();
                            round_log.push(Round {
                                wall_ns: (ended - began).as_nanos() as u64,
                                gc_ns: (ended - gc_began).as_nanos() as u64,
                                gc_versions: gc.versions_dropped + gc.aborted_removed,
                                live_versions: stats.versions as u64,
                                keys: stats.keys as u64,
                            });
                            gc_spans.push(Span {
                                kind: Kind::Gc,
                                parent: u16::MAX,
                                start_ns: (gc_began - epoch).as_nanos() as u64,
                                end_ns: (ended - epoch).as_nanos() as u64,
                            });
                        }
                    }
                    (client, round_log, gc_spans)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect::<Vec<_>>()
    });
    let (_, rounds, gc_spans) = &mut results[0];
    Phase {
        rounds: std::mem::take(rounds),
        gc_spans: std::mem::take(gc_spans),
        clients: results.into_iter().map(|(client, _, _)| client).collect(),
    }
}

/// One client's share of a round, no timers inside the closure.
fn timed_round(
    db: &Db,
    id: usize,
    input: &ClientInput,
    txns: Range<usize>,
    round: usize,
    client: &mut Client,
) {
    let latency = &mut client.latency[round];
    let mut attempts = 0u64;
    let mut previous = Instant::now();
    for txn in txns {
        let ops = input.ops_of(txn);
        let value = value_of(tag_of(id as u64, txn as u64));
        let result = db.run(MAX_RETRIES, |t| {
            attempts += 1;
            for &op in ops {
                let key = key_of(op_row(op));
                if op_is_write(op) {
                    t.put(&key, &value);
                } else {
                    black_box(t.get(&key));
                }
            }
            Ok(())
        });
        let now = Instant::now();
        latency.record((now - previous).as_nanos() as u64);
        previous = now;
        client.failed += result.is_err() as u64;
    }
    client.attempts += attempts;
}

/// The same round with driver spans around every call into the store.
fn traced_round(
    db: &Db,
    id: usize,
    input: &ClientInput,
    txns: Range<usize>,
    round: usize,
    client: &mut Client,
    epoch: Instant,
) {
    let latency = &mut client.latency[round];
    let now_ns = || epoch.elapsed().as_nanos() as u64;
    let recorder = client
        .recorder
        .as_mut()
        .expect("traced phase has a recorder");
    let mut attempts = 0u64;
    for txn in txns {
        let ops = input.ops_of(txn);
        let value = value_of(tag_of(id as u64, txn as u64));
        let run_entry = now_ns();
        let root = recorder.open_txn(run_entry);
        // Closure exit of the latest attempt; `None` before the first.
        let mut last_exit: Option<u64> = None;
        let result = db.run(MAX_RETRIES, |t| {
            attempts += 1;
            let entry = now_ns();
            match last_exit {
                None => recorder.push(Kind::Begin, root, run_entry, entry),
                Some(exit) => recorder.push(Kind::RetryGap, root, exit, entry),
            };
            let closure = recorder.push(Kind::Closure, root, entry, entry);
            for &op in ops {
                let key = key_of(op_row(op));
                if op_is_write(op) {
                    let start = now_ns();
                    t.put(&key, &value);
                    recorder.push(Kind::Put, closure, start, now_ns());
                } else {
                    let start = now_ns();
                    black_box(t.get(&key));
                    recorder.push(Kind::Get, closure, start, now_ns());
                }
            }
            let exit = now_ns();
            recorder.close_closure(closure, entry, exit);
            last_exit = Some(exit);
            Ok(())
        });
        let run_exit = now_ns();
        let exit = last_exit.expect("the closure ran at least once");
        recorder.push(Kind::Commit, root, exit, run_exit);
        recorder.finish_txn(txn as u32, run_exit);
        latency.record(run_exit - run_entry);
        client.failed += result.is_err() as u64;
    }
    client.attempts += attempts;
}
