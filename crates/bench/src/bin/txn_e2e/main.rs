//! `txn_e2e`: steady-state transactional YCSB on the embedded store.
//!
//! ```text
//! txn_e2e --workload <name> --seed <n> --seconds <n> --trace <0|1>
//! ```
//!
//! Drives the real `wsi_store::Db` on real threads with `wsi-workload`'s
//! transactional YCSB and prints, as the last line of standard output, one
//! JSON object: the six end-to-end metrics (`--trace 0`) or the per-layer
//! budget (`--trace 1`). See `README.md` beside this file for every
//! metric, every workload and the noise protocol.

mod driver;
mod hist;
mod host;
mod inputs;
mod replay;
mod spans;

use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;

use wsi_store::Db;

use driver::{Mode, Phase, SetUp};
use hist::median;
use inputs::{
    key_of, op_is_write, op_row, tag_in, tag_of, Inputs, Workload, MEASURED_ROUNDS, TRACE_ROUNDS,
    WARMUP_ROUNDS, WORKLOADS,
};
use spans::SpanTotals;

/// Largest drift of stored versions the steady-state guard accepts.
const STEADY_TOLERANCE: f64 = 0.02;

/// End-to-end metrics, as `BENCHMARK.json` lists them.
const END_TO_END: [(&str, &str); 6] = [
    ("txn_per_s", "1/s"),
    ("txn_p50_us", "us"),
    ("txn_p99_us", "us"),
    ("attempts_per_txn", "count"),
    ("rss_peak_mb", "MB"),
    ("setup_s", "s"),
];

/// Per-layer metrics, as `BENCHMARK.json` lists them. Means are per
/// committed transaction of the traced phase unless the README says
/// otherwise.
const PER_LAYER: [(&str, &str); 43] = [
    ("store.txn_us", "us"),
    ("store.begin_us", "us"),
    ("store.get_us", "us"),
    ("store.get_ns_per_op", "ns"),
    ("store.put_us", "us"),
    ("store.commit_us", "us"),
    ("store.commit_inner_us", "us"),
    ("store.commit_outer_gap_us", "us"),
    ("store.retry_gap_us", "us"),
    ("store.gc_us_per_txn", "us"),
    ("store.gc_ns_per_version", "ns"),
    ("store.gc_share", "ratio"),
    ("store.chain_len_p99", "count"),
    ("store.chain_migrations_per_ktxn", "count"),
    ("store.inline_pruned_per_txn", "count"),
    ("store.versions_retired_per_txn", "count"),
    ("store.versions_live", "count"),
    ("store.limbo_versions", "count"),
    ("store.arena_chunks", "count"),
    ("store.bytes_per_row", "B"),
    ("core.conflict_check_us", "us"),
    ("core.rows_checked_per_txn", "count"),
    ("core.rows_recorded_per_txn", "count"),
    ("core.rw_aborts_per_ktxn", "count"),
    ("core.shard_contention_per_ktxn", "count"),
    ("core.shard_lock_wait_us", "us"),
    ("wal.wait_us", "us"),
    ("wal.flush_us", "us"),
    ("wal.records_per_txn", "count"),
    ("wal.bytes_per_txn", "B"),
    ("wal.batch_records", "count"),
    ("wal.follower_share", "ratio"),
    ("obs.journal_events_per_txn", "count"),
    ("core.spec_decide_ns", "ns"),
    ("wal.append_flush_ns", "ns"),
    ("store.encode_record_ns", "ns"),
    ("obs.journal_record_ns", "ns"),
    ("workload.next_txn_ns", "ns"),
    ("driver.self_us", "us"),
    ("driver.unattributed_share", "ratio"),
    ("driver.round_closure_gap", "ratio"),
    ("driver.host_calib_ms", "ms"),
    ("trace.overhead_ratio", "ratio"),
];

struct Args {
    workload: &'static Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, 1, 10, false);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag} {value}: not a whole number"))
        };
        match flag.as_str() {
            "--workload" => {
                workload = Some(inputs::workload_by_name(value).ok_or_else(|| {
                    let names: Vec<_> = WORKLOADS.iter().map(|w| w.name).collect();
                    format!("unknown workload {value}; one of {}", names.join(", "))
                })?)
            }
            "--seed" => seed = number()?,
            "--seconds" => seconds = number()?,
            "--trace" => trace = number()? != 0,
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    if !(1..=60).contains(&seconds) {
        return Err(format!("--seconds {seconds}: must be 1 to 60"));
    }
    Ok(Args {
        workload: workload.ok_or("--workload <name> is required")?,
        seed,
        seconds,
        trace,
    })
}

/// The outcome of the checks that run beside the measurement.
#[derive(Default)]
struct Checks {
    /// Transactions `Db::run` was asked to run in the reported phases.
    attempted: u64,
    /// `Db::run` errors, value mismatches and broken identities.
    failed: u64,
    steady_state: bool,
}

impl Checks {
    fn fail(&mut self, count: u64, what: &str) {
        self.failed += count;
        eprintln!("txn_e2e: CHECK FAILED: {what}");
    }

    fn correct(&self) -> bool {
        self.failed == 0 && self.steady_state
    }
}

/// Steady-state guard: on a fixed key space the version store must hold,
/// after every round's GC, what it held after warm-up (within 2 %); on a
/// growing one the key count must grow by exactly the generated inserts.
fn check_steady_state(workload: &Workload, set_up: &SetUp, phases: &[&Phase], checks: &mut Checks) {
    let baseline = set_up
        .warmup
        .rounds
        .last()
        .expect("warm-up ran")
        .live_versions as f64;
    let mut executed = WARMUP_ROUNDS * set_up.round_txns;
    checks.steady_state = true;
    for round in phases.iter().flat_map(|p| &p.rounds) {
        executed += set_up.round_txns;
        let steady = if workload.grows() {
            let inserted: u64 = set_up
                .inputs
                .clients
                .iter()
                .map(|c| c.inserts_before(executed))
                .sum();
            round.keys == workload.rows + inserted
        } else {
            (round.live_versions as f64 - baseline).abs() <= STEADY_TOLERANCE * baseline
        };
        if !steady {
            checks.steady_state = false;
            eprintln!(
                "txn_e2e: not steady: {} versions, {} keys after a round (warm-up left {baseline})",
                round.live_versions, round.keys
            );
        }
    }
}

/// Every written key must hold the last value one of the clients committed
/// to it. All transactions commit (a failed `Db::run` is already counted),
/// so each client's last writer per key follows from its inputs alone.
fn check_values(db: &Db, inputs: &Inputs, executed: usize, checks: &mut Checks) {
    let bound = inputs.row_bound as usize;
    // Per client and row: 1 + the last transaction that wrote it, 0 if none.
    let last: Vec<Vec<u32>> = inputs
        .clients
        .iter()
        .map(|input| {
            let mut last = vec![0u32; bound];
            for txn in 0..executed {
                for &op in input.ops_of(txn) {
                    if op_is_write(op) {
                        last[op_row(op) as usize] = txn as u32 + 1;
                    }
                }
            }
            last
        })
        .collect();
    let snapshot = db.snapshot();
    let mut mismatches = 0u64;
    for row in 0..bound {
        if last.iter().all(|l| l[row] == 0) {
            continue;
        }
        let stored = snapshot.get(&key_of(row as u64));
        let expected = stored.as_deref().and_then(tag_in).is_some_and(|tag| {
            last.iter()
                .enumerate()
                .any(|(c, l)| l[row] != 0 && tag == tag_of(c as u64, l[row] as u64 - 1))
        });
        mismatches += !expected as u64;
    }
    if mismatches > 0 {
        checks.fail(mismatches, "written keys do not hold a client's last write");
    }
}

/// Counter identities over the reported phases, from the typed stats.
fn check_identities(
    db: &Db,
    workload: &Workload,
    before: &wsi_store::DbStats,
    phases: &[&Phase],
    checks: &mut Checks,
) {
    let after = db.stats();
    let txns: u64 = phases.iter().map(|p| p.txns() - p.failed()).sum();
    let attempts: u64 = phases.iter().map(|p| p.attempts()).sum();
    let commits = (after.oracle.commits + after.oracle.read_only_commits)
        - (before.oracle.commits + before.oracle.read_only_commits);
    if commits != txns {
        checks.fail(1, &format!("oracle committed {commits}, driver {txns}"));
    }
    let rw_aborts = after.oracle.rw_aborts - before.oracle.rw_aborts;
    if checks.failed == 0 && rw_aborts != attempts - txns {
        checks.fail(
            1,
            &format!("{rw_aborts} rw aborts, {} retries", attempts - txns),
        );
    }
    if workload.sync_wal {
        if db.flush_wal().is_err() {
            checks.fail(1, "flush_wal failed");
        }
        let wal = db.stats().wal;
        if wal.records < after.oracle.commits {
            checks.fail(
                1,
                &format!(
                    "{} WAL records for {} write commits",
                    wal.records, after.oracle.commits
                ),
            );
        }
    }
}

type Metrics = Vec<(&'static str, Option<f64>)>;

/// Sets up a store for `rounds` rounds after warm-up; returns it with the
/// wall time of the set-up.
fn timed_set_up(workload: &Workload, seed: u64, round_txns: usize, rounds: usize) -> (SetUp, f64) {
    let began = Instant::now();
    let set_up = driver::set_up(workload, seed, round_txns, rounds);
    (set_up, began.elapsed().as_secs_f64())
}

/// What is kept of the rehearsal.
struct Rehearsal {
    /// Wall time of its set-up: the only one of a run on fresh memory.
    setup_s: f64,
    /// Failed operations of its warm-up and rounds.
    failed: u64,
    /// Resident bytes its preload added per row. Later set-ups reuse the
    /// heap it leaves behind and add next to nothing.
    bytes_per_row: Option<f64>,
}

/// The rehearsal: sets up a store, runs the whole workload on it once and
/// drops it.
///
/// It is there for the process's heap: the allocator keeps what the
/// rehearsal's store freed, so the store that is measured grows into
/// memory the process already owns. On the reference host the first touch
/// of a page the guest has to fetch from its host costs 20–26 µs against
/// 0.4 µs, the supply of cheap pages is somewhere between 190 and 500 MB,
/// and the runs whose measured rounds crossed that edge (`latest_mixed_1t`,
/// four in ten) read a p99 of 46–49 µs where the others read 33–39.
fn rehearse(workload: &Workload, seed: u64, round_txns: usize, rounds: usize) -> Rehearsal {
    let (set_up, setup_s) = timed_set_up(workload, seed, round_txns, rounds);
    let phase = driver::run_phase(
        &set_up.db,
        &set_up.inputs,
        WARMUP_ROUNDS * round_txns,
        rounds,
        round_txns,
        Mode::Timed,
    );
    Rehearsal {
        setup_s,
        failed: set_up.warmup.failed() + phase.failed(),
        bytes_per_row: set_up.bytes_per_row,
    }
}

/// An end-to-end run: the rehearsal, then set-up, ten timed rounds and the
/// checks, then one more set-up; `setup_s` is the median of the three.
fn run_end_to_end(workload: &Workload, seed: u64, round_txns: usize) -> (Metrics, Checks) {
    let rehearsal = rehearse(workload, seed, round_txns, MEASURED_ROUNDS);
    let (set_up, measured_setup_s) = timed_set_up(workload, seed, round_txns, MEASURED_ROUNDS);
    println!("input_digest={:016x}", set_up.inputs.digest);

    let stats_before = set_up.db.stats();
    let measured = driver::run_phase(
        &set_up.db,
        &set_up.inputs,
        WARMUP_ROUNDS * round_txns,
        MEASURED_ROUNDS,
        round_txns,
        Mode::Timed,
    );
    let rss_peak_mb = host::rss_peak_mb();

    let mut checks = Checks {
        attempted: measured.txns(),
        failed: measured.failed() + set_up.warmup.failed() + rehearsal.failed,
        ..Checks::default()
    };
    check_steady_state(workload, &set_up, &[&measured], &mut checks);
    check_identities(
        &set_up.db,
        workload,
        &stats_before,
        &[&measured],
        &mut checks,
    );
    let executed = (WARMUP_ROUNDS + MEASURED_ROUNDS) * round_txns;
    check_values(&set_up.db, &set_up.inputs, executed, &mut checks);
    // Each store is freed before the next is built, outside the timing.
    drop(set_up);
    let (_, last_setup_s) = timed_set_up(workload, seed, round_txns, MEASURED_ROUNDS);
    let mut setup_s = [rehearsal.setup_s, measured_setup_s, last_setup_s];

    // Every estimate is a median over the ten rounds: a round the host
    // disturbed moves it by at most one rank.
    let rounds = 0..measured.rounds.len();
    let latencies: Vec<_> = rounds.map(|r| measured.round_latency(r)).collect();
    let quantile_us = |q: f64| {
        let per_round = latencies.iter().map(|l| l.quantile_ns(q) / 1e3);
        median(&mut per_round.collect::<Vec<_>>())
    };
    let committed = (measured.txns() - measured.failed()) as f64;
    let round_ms: Vec<String> = measured
        .rounds
        .iter()
        .map(|r| {
            format!(
                "{:.0}+{:.0}",
                (r.wall_ns - r.gc_ns) as f64 / 1e6,
                r.gc_ns as f64 / 1e6
            )
        })
        .collect();
    println!(
        "rounds={} txns={} samples_beyond_round_p99={} gc_share={:.3} whole_phase_txn_per_s={:.1}",
        measured.rounds.len(),
        measured.txns(),
        latencies[0].samples_beyond(0.99),
        measured.gc_ns() as f64 / measured.wall_ns() as f64,
        measured.txns() as f64 / (measured.wall_ns() as f64 / 1e9)
    );
    println!(
        "round_ms(run+gc)=[{}] setup_runs_s={setup_s:?}",
        round_ms.join(" ")
    );
    let per_round_us = |q: f64, digits: usize| {
        let values = latencies
            .iter()
            .map(|l| format!("{:.digits$}", l.quantile_ns(q) / 1e3));
        values.collect::<Vec<_>>().join(" ")
    };
    println!("round_p50_us=[{}]", per_round_us(0.50, 2));
    println!("round_p99_us=[{}]", per_round_us(0.99, 0));
    let metrics = vec![
        ("txn_per_s", Some(measured.txn_per_s())),
        ("txn_p50_us", Some(quantile_us(0.50))),
        ("txn_p99_us", Some(quantile_us(0.99))),
        (
            "attempts_per_txn",
            Some(measured.attempts() as f64 / committed),
        ),
        ("rss_peak_mb", rss_peak_mb),
        ("setup_s", Some(median(&mut setup_s))),
    ];
    (metrics, checks)
}

/// A traced run: the rehearsal, then set-up, three timed rounds, three
/// traced rounds, the layer replays; writes the span file if given a path.
/// Yields every per-layer metric but `driver.host_calib_ms`, which `main`
/// measures.
fn run_traced(
    workload: &Workload,
    seed: u64,
    round_txns: usize,
    span_file: Option<&Path>,
) -> (Metrics, Checks) {
    let rehearsal = rehearse(workload, seed, round_txns, 2 * TRACE_ROUNDS);
    let set_up = driver::set_up(workload, seed, round_txns, 2 * TRACE_ROUNDS);
    let db = &set_up.db;
    println!("input_digest={:016x}", set_up.inputs.digest);

    let stats_before = db.stats();
    let mut first_txn = WARMUP_ROUNDS * round_txns;
    let timed = driver::run_phase(
        db,
        &set_up.inputs,
        first_txn,
        TRACE_ROUNDS,
        round_txns,
        Mode::Timed,
    );
    first_txn += TRACE_ROUNDS * round_txns;
    let exported_before = db.obs_snapshot();
    let journal_before = db.journal().map(|j| j.recorded());
    let traced = driver::run_phase(
        db,
        &set_up.inputs,
        first_txn,
        TRACE_ROUNDS,
        round_txns,
        Mode::Traced,
    );
    let exported_after = db.obs_snapshot();
    let journal_after = db.journal().map(|j| j.recorded());

    let mut checks = Checks {
        attempted: timed.txns() + traced.txns(),
        failed: timed.failed() + traced.failed() + set_up.warmup.failed() + rehearsal.failed,
        ..Checks::default()
    };
    check_steady_state(workload, &set_up, &[&timed, &traced], &mut checks);
    check_identities(db, workload, &stats_before, &[&timed, &traced], &mut checks);
    let executed = (WARMUP_ROUNDS + 2 * TRACE_ROUNDS) * round_txns;
    check_values(db, &set_up.inputs, executed, &mut checks);

    let replays = replay::run(workload, seed, &set_up.inputs.clients[0]);
    let recorders: Vec<_> = traced
        .clients
        .iter()
        .filter_map(|c| c.recorder.as_ref())
        .collect();
    if let Some(path) = span_file {
        let json = spans::chrome_trace(&recorders, &traced.gc_spans);
        let dir = path.parent().expect("span file has a directory");
        match std::fs::create_dir_all(dir).and_then(|()| std::fs::write(path, json)) {
            Ok(()) => println!("spans written to {}", path.display()),
            Err(e) => eprintln!("txn_e2e: could not write {}: {e}", path.display()),
        }
    }

    let mut totals = SpanTotals::default();
    recorders.iter().for_each(|r| totals.add(&r.totals));
    // The program's exported metrics, looked up by string name and never
    // by type: a series the program no longer exports reads as `None` and
    // its metric is reported as `null`. Counters and histograms are
    // differences across the traced rounds, gauges the value after them.
    let (before, after) = (exported_before.as_ref(), exported_after.as_ref());
    let counter = |name: &str| {
        let earlier = before.and_then(|s| s.counters.get(name)).map_or(0, |v| *v);
        Some((after?.counters.get(name)? - earlier) as f64)
    };
    let gauge = |name: &str| Some(*after?.gauges.get(name)? as f64);
    let hist = |name: &str| {
        let later = after?.histograms.get(name)?;
        Some(match before.and_then(|s| s.histograms.get(name)) {
            Some(earlier) => later.delta_since(earlier),
            None => later.clone(),
        })
    };
    let hist_sum = |name: &str| hist(name).map(|h| h.sum as f64);
    let txns = (traced.txns() - traced.failed()) as f64;
    let per_txn_us = |ns: u64| ns as f64 / txns / 1e3;
    let per_txn = |value: Option<f64>| value.map(|v| v / txns);
    // Without a WAL the program exports no `wal_*` series: the layer is
    // not on the path and its metrics are 0, not unknown.
    let wal = |value: Option<f64>| if workload.sync_wal { value } else { Some(0.0) };

    let loop_ns: u64 = traced.clients.iter().map(|c| c.loop_ns).sum();
    let txn_us = per_txn_us(totals.txn_ns);
    let commit_us = per_txn_us(totals.commit_ns);
    let commit_inner_us = per_txn(hist_sum("store_commit_us"));
    let gc_us_per_txn = per_txn_us(traced.gc_ns());
    let gc_versions: u64 = traced.rounds.iter().map(|r| r.gc_versions).sum();
    let sync_commits = hist("store_wal_wait_us").map(|h| h.count as f64);
    // Closure of the round: wall time per transaction slot against the
    // client's loop time plus its share of the GC.
    let clients = workload.clients as f64;
    let slot_us = traced.wall_ns() as f64 / 1e3 / (txns / clients);
    let explained_us = loop_ns as f64 / 1e3 / txns + gc_us_per_txn * clients;
    println!(
        "closure: txn {txn_us:.3} us = begin {:.3} + get {:.3} + put {:.3} + commit {commit_us:.3} \
         + retry_gap {:.3} + driver.self {:.3}; round slot {slot_us:.3} us vs loop+gc {explained_us:.3} us",
        per_txn_us(totals.begin_ns),
        per_txn_us(totals.get_ns),
        per_txn_us(totals.put_ns),
        per_txn_us(totals.retry_gap_ns),
        per_txn_us(totals.driver_self_ns()),
    );

    let values: Metrics = vec![
        ("store.txn_us", Some(txn_us)),
        ("store.begin_us", Some(per_txn_us(totals.begin_ns))),
        ("store.get_us", Some(per_txn_us(totals.get_ns))),
        (
            "store.get_ns_per_op",
            Some(totals.get_ns as f64 / totals.gets.max(1) as f64),
        ),
        ("store.put_us", Some(per_txn_us(totals.put_ns))),
        ("store.commit_us", Some(commit_us)),
        ("store.commit_inner_us", commit_inner_us),
        (
            "store.commit_outer_gap_us",
            commit_inner_us.map(|inner| commit_us - inner),
        ),
        ("store.retry_gap_us", Some(per_txn_us(totals.retry_gap_ns))),
        ("store.gc_us_per_txn", Some(gc_us_per_txn)),
        (
            "store.gc_ns_per_version",
            Some(traced.gc_ns() as f64 / gc_versions.max(1) as f64),
        ),
        (
            "store.gc_share",
            Some(traced.gc_ns() as f64 / traced.wall_ns() as f64),
        ),
        (
            "store.chain_len_p99",
            hist("store_chain_len").map(|h| h.quantile(0.99)),
        ),
        (
            "store.chain_migrations_per_ktxn",
            per_txn(counter("store_chain_migrations_total")).map(|v| v * 1e3),
        ),
        (
            "store.inline_pruned_per_txn",
            per_txn(counter("store_arena_inline_pruned_total")),
        ),
        (
            "store.versions_retired_per_txn",
            per_txn(counter("store_versions_retired_total")),
        ),
        ("store.versions_live", gauge("store_arena_versions")),
        ("store.limbo_versions", gauge("store_limbo_versions")),
        ("store.arena_chunks", gauge("store_arena_chunks")),
        ("store.bytes_per_row", rehearsal.bytes_per_row),
        (
            "core.conflict_check_us",
            per_txn(hist_sum("store_conflict_check_us")),
        ),
        (
            "core.rows_checked_per_txn",
            per_txn(counter("oracle_rows_checked_total")),
        ),
        (
            "core.rows_recorded_per_txn",
            per_txn(counter("oracle_rows_recorded_total")),
        ),
        (
            "core.rw_aborts_per_ktxn",
            per_txn(counter("oracle_rw_aborts_total")).map(|v| v * 1e3),
        ),
        (
            "core.shard_contention_per_ktxn",
            per_txn(counter("oracle_shard_contention_total")).map(|v| v * 1e3),
        ),
        (
            "core.shard_lock_wait_us",
            per_txn(hist_sum("oracle_shard_lock_wait_us")),
        ),
        ("wal.wait_us", per_txn(hist_sum("store_wal_wait_us"))),
        ("wal.flush_us", wal(hist("wal_flush_us").map(|h| h.mean()))),
        (
            "wal.records_per_txn",
            wal(per_txn(counter("wal_records_total"))),
        ),
        (
            "wal.bytes_per_txn",
            wal(per_txn(counter("wal_payload_bytes_total"))),
        ),
        (
            "wal.batch_records",
            wal(hist("wal_batch_records").map(|h| h.mean())),
        ),
        (
            "wal.follower_share",
            wal(counter("store_follower_commits_total")
                .zip(sync_commits)
                .map(|(followers, commits)| followers / commits.max(1.0))),
        ),
        (
            "obs.journal_events_per_txn",
            journal_before
                .zip(journal_after)
                .map(|(before, after)| (after - before) as f64 / txns),
        ),
        ("core.spec_decide_ns", Some(replays.spec_decide_ns)),
        ("wal.append_flush_ns", Some(replays.append_flush_ns)),
        ("store.encode_record_ns", Some(replays.encode_record_ns)),
        ("obs.journal_record_ns", Some(replays.journal_record_ns)),
        ("workload.next_txn_ns", Some(replays.next_txn_ns)),
        ("driver.self_us", Some(per_txn_us(totals.driver_self_ns()))),
        (
            "driver.unattributed_share",
            Some(loop_ns.abs_diff(totals.txn_ns) as f64 / loop_ns as f64),
        ),
        (
            "driver.round_closure_gap",
            Some((slot_us - explained_us).abs() / slot_us),
        ),
        (
            "trace.overhead_ratio",
            Some(traced.txn_per_s() / timed.txn_per_s()),
        ),
    ];
    (values, checks)
}

/// A metric's value, if it was measured and is a number.
fn lookup(metrics: &Metrics, name: &str) -> Option<f64> {
    let (_, value) = metrics.iter().find(|(n, _)| *n == name)?;
    value.filter(|v| v.is_finite())
}

/// The result object of the contract: one line of JSON.
fn result_json(table: &[(&str, &str)], metrics: &Metrics, checks: &Checks) -> String {
    let mut out = format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        checks.correct(),
        checks.attempted,
        checks.failed
    );
    for (i, (name, unit)) in table.iter().enumerate() {
        let value = lookup(metrics, name).map_or("null".to_string(), |v| v.to_string());
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            out,
            "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        );
    }
    out.push_str("}}");
    out
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv == [host::CALIBRATE_FLAG] {
        println!("{}", host::calibrate_ms());
        return ExitCode::SUCCESS;
    }
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(message) => {
            eprintln!("txn_e2e: {message}");
            eprintln!("usage: txn_e2e --workload <name> --seed <n> --seconds <n> --trace <0|1>");
            return ExitCode::from(2);
        }
    };
    let workload = args.workload;
    println!(
        "txn_e2e workload={} seed={} seconds={} trace={} clients={} cores={} rows={} round_txns={}",
        workload.name,
        args.seed,
        args.seconds,
        args.trace as u8,
        workload.clients,
        host::cores(),
        workload.rows,
        workload.round_txns(args.seconds)
    );
    println!("why: {}", workload.why);
    let round_txns = workload.round_txns(args.seconds);
    // Before set-up, in a child: its 64 MB table must not count towards
    // this process's peak resident set.
    let calib_before_ms = host::calibrate_in_child_ms();
    let (table, (mut metrics, checks)): (&[(&str, &str)], _) = if args.trace {
        let span_file =
            PathBuf::from(std::env::var_os("CARGO_TARGET_DIR").unwrap_or_else(|| "target".into()))
                .join("txn_e2e")
                .join(format!("{}-seed{}.trace.json", workload.name, args.seed));
        let result = run_traced(workload, args.seed, round_txns, Some(&span_file));
        (&PER_LAYER, result)
    } else {
        (&END_TO_END, run_end_to_end(workload, args.seed, round_txns))
    };
    // After the store is gone and the peak has been read.
    let calib_after_ms = host::calibrate_ms();
    println!(
        "host_calib_ms before={:.2} after={calib_after_ms:.2}",
        calib_before_ms.unwrap_or(f64::NAN)
    );
    metrics.push((
        "driver.host_calib_ms",
        calib_before_ms.map(|before| (before + calib_after_ms) / 2.0),
    ));
    for (name, unit) in table {
        match lookup(&metrics, name) {
            Some(v) => println!("{name} = {v:.4} {unit}"),
            None => println!("{name} = null {unit}"),
        }
    }
    println!("steady_state={}", checks.steady_state);
    println!("{}", result_json(table, &metrics, &checks));
    if checks.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SMOKE_ROWS: u64 = 2_000;
    const SMOKE_ROUND_TXNS: usize = 150;

    fn smoke(workload: &Workload) -> Workload {
        Workload {
            rows: workload.rows.min(SMOKE_ROWS),
            ..*workload
        }
    }

    fn value(metrics: &Metrics, name: &str) -> f64 {
        lookup(metrics, name).unwrap_or_else(|| panic!("{name} is reported as a number"))
    }

    #[test]
    fn every_workload_is_correct_and_reports_every_metric() {
        for workload in WORKLOADS.iter().map(smoke) {
            let (metrics, checks) = run_end_to_end(&workload, 11, SMOKE_ROUND_TXNS);
            assert!(checks.correct(), "{}: end to end", workload.name);
            assert_eq!(
                checks.attempted as usize,
                workload.clients * MEASURED_ROUNDS * SMOKE_ROUND_TXNS
            );
            for (name, _) in END_TO_END {
                let v = value(&metrics, name);
                assert!(v.is_finite() && v > 0.0, "{}: {name} = {v}", workload.name);
            }

            let (metrics, checks) = run_traced(&workload, 11, SMOKE_ROUND_TXNS, None);
            assert!(checks.correct(), "{}: traced", workload.name);
            for (name, _) in PER_LAYER {
                if name != "driver.host_calib_ms" {
                    assert!(
                        value(&metrics, name).is_finite(),
                        "{}: {name}",
                        workload.name
                    );
                }
            }
            let wal_records = value(&metrics, "wal.records_per_txn");
            assert_eq!(wal_records > 0.0, workload.sync_wal, "{}", workload.name);
            if workload.clients == 1 {
                assert_eq!(value(&metrics, "store.retry_gap_us"), 0.0);
            }
        }
    }

    #[test]
    fn one_client_counts_repeat_exactly() {
        for workload in WORKLOADS.iter().filter(|w| w.clients == 1).map(smoke) {
            let runs = [(); 2].map(|()| run_traced(&workload, 5, SMOKE_ROUND_TXNS, None).0);
            for name in [
                "core.rows_checked_per_txn",
                "store.versions_retired_per_txn",
                "obs.journal_events_per_txn",
            ] {
                let (a, b) = (value(&runs[0], name), value(&runs[1], name));
                assert_eq!(a.to_bits(), b.to_bits(), "{}: {name}", workload.name);
                assert!(a > 0.0, "{}: {name} counts something", workload.name);
            }
            for _ in 0..2 {
                let (metrics, _) = run_end_to_end(&workload, 5, SMOKE_ROUND_TXNS);
                assert_eq!(
                    value(&metrics, "attempts_per_txn"),
                    1.0,
                    "{}",
                    workload.name
                );
            }
        }
    }

    #[test]
    fn a_lost_write_fails_the_value_check() {
        let workload = smoke(&WORKLOADS[0]);
        let set_up = driver::set_up(&workload, 3, SMOKE_ROUND_TXNS, 0);
        let executed = WARMUP_ROUNDS * SMOKE_ROUND_TXNS;
        let mut checks = Checks::default();
        check_values(&set_up.db, &set_up.inputs, executed, &mut checks);
        assert_eq!(checks.failed, 0);
        // Overwrite one written key behind the benchmark's back.
        let written = set_up.inputs.clients[0]
            .ops
            .iter()
            .copied()
            .find(|&op| op_is_write(op))
            .expect("the stream writes");
        let mut txn = set_up.db.begin();
        txn.put(&key_of(op_row(written)), b"not a tagged value");
        txn.commit().unwrap();
        check_values(&set_up.db, &set_up.inputs, executed, &mut checks);
        assert_eq!(checks.failed, 1);
    }

    #[test]
    fn arguments_are_checked() {
        let args =
            |list: &[&str]| parse_args(&list.iter().map(|s| s.to_string()).collect::<Vec<_>>());
        let ok = args(&[
            "--workload",
            "zipf_complex_2t",
            "--seed",
            "9",
            "--seconds",
            "3",
            "--trace",
            "1",
        ])
        .unwrap();
        assert_eq!(
            (ok.workload.name, ok.seed, ok.seconds, ok.trace),
            ("zipf_complex_2t", 9, 3, true)
        );
        assert!(args(&["--seed", "1"]).is_err(), "workload is required");
        assert!(args(&["--workload", "nope"]).is_err());
        assert!(args(&["--workload", "zipf_complex_2t", "--seconds", "0"]).is_err());
        assert!(args(&["--workload", "zipf_complex_2t", "--bogus", "1"]).is_err());
    }

    #[test]
    fn an_absent_metric_is_reported_as_null() {
        let metrics: Metrics = vec![("txn_per_s", Some(2.5)), ("txn_p50_us", None)];
        let json = result_json(&END_TO_END[..2], &metrics, &Checks::default());
        assert!(json.contains("\"txn_per_s\": {\"value\": 2.5, \"unit\": \"1/s\"}"));
        assert!(json.contains("\"txn_p50_us\": {\"value\": null, \"unit\": \"us\"}"));
    }

    /// `BENCHMARK.json` and the tables above name the same things.
    #[test]
    fn benchmark_json_matches_the_tables() {
        let json = include_str!("../../../../../BENCHMARK.json");
        let names = WORKLOADS
            .iter()
            .map(|w| w.name)
            .chain(END_TO_END.iter().map(|(name, _)| *name))
            .chain(PER_LAYER.iter().map(|(name, _)| *name));
        let mut count = 0;
        for name in names {
            assert!(
                json.contains(&format!("\"name\": \"{name}\"")),
                "{name} missing"
            );
            count += 1;
        }
        assert_eq!(json.matches("\"name\": ").count(), count);
        for (_, unit) in END_TO_END.iter().chain(&PER_LAYER) {
            assert!(
                json.contains(&format!("\"unit\": \"{unit}\"")),
                "unit {unit} missing"
            );
        }
        for workload in &WORKLOADS {
            assert!(
                json.contains(workload.why),
                "why of {} differs",
                workload.name
            );
            assert!(workload.clients <= 2, "never more clients than cores");
        }
    }
}
