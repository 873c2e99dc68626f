//! 8-thread invariant stress for the version store.
//!
//! The store makes concurrency claims: readers walk chains with no locks
//! at all while writers CAS-publish, and superseded versions are retired
//! and freed once the registry watermark passes them — snapshot readers running concurrently with committers and
//! the GC throughout. The herd here exercises exactly those paths —
//! private per-thread counters (disjoint: must never conflict-abort),
//! shared hot counters (contended: classic lost-update bait), wide
//! multi-key write batches, concurrent snapshot scans, and a GC thread
//! sweeping throughout — and then checks the observable invariants:
//!
//! * **No lost updates** — every counter's final value equals the number of
//!   successful increments against it; private counters never abort.
//! * **Monotone snapshot reads** — an observer taking successive snapshots
//!   of a counter sees a non-decreasing value sequence (commit publication
//!   is monotone in snapshot order, GC notwithstanding).
//! * **Reconciliation** — `begins == commits + read-only commits + aborts`,
//!   no transaction left registered, and `Db::stats` key/version totals
//!   agree with a full scan.
//!
//! A second herd covers the chain-head table: writers create
//! 200 000 fresh keys — thirteen table growths from the 64-slot start —
//! while readers look up every key they have been told exists.
//!
//! Gated in release mode by `scripts/tier1.sh`; the debug run in the
//! workspace suite uses the same herd at the same scale.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::thread;

use wsi_core::IsolationLevel;
use wsi_store::{Db, DbOptions};

const THREADS: usize = 8;
const HOT_KEYS: usize = 4;
const OPS: u64 = 150;

fn private_key(t: usize) -> Vec<u8> {
    format!("private/{t}").into_bytes()
}

fn hot_key(k: usize) -> Vec<u8> {
    format!("hot/{k}").into_bytes()
}

fn parse(v: Option<bytes::Bytes>) -> u64 {
    v.map(|b| String::from_utf8_lossy(&b).parse().unwrap())
        .unwrap_or(0)
}

/// Runs the herd against `db`: each thread increments its private counter
/// every round (these must never abort — no other writer touches the key),
/// increments a hot shared counter with retries, and every few rounds
/// commits a wide batch of fresh keys plus takes a snapshot scan.
/// Returns the per-hot-key successful increment counts.
fn run_herd(db: &Db) -> Vec<u64> {
    let stop = AtomicBool::new(false);
    let mut hot_success = vec![0u64; HOT_KEYS];
    thread::scope(|s| {
        // The GC thread: sweeps continuously while the herd runs.
        let gc_db = db.clone();
        let stop_ref = &stop;
        s.spawn(move || {
            while !stop_ref.load(Ordering::Relaxed) {
                gc_db.gc();
                thread::yield_now();
            }
        });

        let handles: Vec<_> = (0..THREADS)
            .map(|t| {
                let db = db.clone();
                s.spawn(move || {
                    let mut successes = vec![0u64; HOT_KEYS];
                    let mut last_seen_private = 0u64;
                    for i in 0..OPS {
                        // Private counter: disjoint keys must never abort.
                        let key = private_key(t);
                        let mut txn = db.begin();
                        let n = parse(txn.get(&key));
                        assert_eq!(n, i, "thread {t}: private counter skipped");
                        txn.put(&key, (n + 1).to_string().as_bytes());
                        txn.commit()
                            .expect("disjoint-key transactions never conflict");

                        // Hot counter: contended increment with retries.
                        let k = (t + i as usize) % HOT_KEYS;
                        let key = hot_key(k);
                        for _ in 0..100_000 {
                            let mut txn = db.begin();
                            let n = parse(txn.get(&key));
                            txn.put(&key, (n + 1).to_string().as_bytes());
                            match txn.commit() {
                                Ok(_) => {
                                    successes[k] += 1;
                                    break;
                                }
                                Err(wsi_store::Error::Aborted(_)) => continue,
                                Err(e) => panic!("non-conflict failure: {e:?}"),
                            }
                        }

                        if i % 8 == 0 {
                            // Wide batch: one commit applying many keys.
                            let mut txn = db.begin();
                            for j in 0..16 {
                                txn.put(format!("wide/{t}/{j}").as_bytes(), b"x");
                            }
                            txn.commit().expect("wide disjoint batch commits");

                            // Snapshot: concurrent reader + monotonicity.
                            let snap = db.snapshot();
                            let seen = parse(snap.get(&private_key(t)));
                            assert!(
                                seen >= last_seen_private,
                                "thread {t}: snapshot went backwards"
                            );
                            last_seen_private = seen;
                            let hits = snap.scan(b"hot/", Some(b"hot0"), usize::MAX);
                            assert!(hits.len() <= HOT_KEYS, "phantom hot keys");
                        }
                    }
                    successes
                })
            })
            .collect();
        for handle in handles {
            let successes = handle.join().expect("herd thread panicked");
            for (k, n) in successes.into_iter().enumerate() {
                hot_success[k] += n;
            }
        }
        stop.store(true, Ordering::Relaxed);
    });
    hot_success
}

fn assert_invariants(db: &Db, hot_success: &[u64]) {
    let snap = db.snapshot();
    for t in 0..THREADS {
        assert_eq!(
            parse(snap.get(&private_key(t))),
            OPS,
            "thread {t}: lost private update"
        );
    }
    for (k, &expect) in hot_success.iter().enumerate() {
        assert_eq!(
            parse(snap.get(&hot_key(k))),
            expect,
            "hot key {k}: lost update"
        );
    }
    // Stats totals agree with a full scan.
    let all = snap.scan(b"", None, usize::MAX);
    drop(snap);
    db.gc();
    let stats = db.stats();
    assert_eq!(stats.keys, all.len(), "key total diverges from a full scan");
    assert!(
        stats.versions >= stats.keys,
        "fewer versions than live keys"
    );
    assert_eq!(stats.active_transactions, 0, "every txn deregistered");
    assert_eq!(
        stats.oracle.begins,
        stats.oracle.commits + stats.oracle.total_aborts() + stats.oracle.read_only_commits,
        "begins must reconcile with outcomes: {stats:?}"
    );
}

#[test]
fn store_herd_keeps_invariants() {
    // Hot-counter chains are rewritten by every thread, so publishes,
    // abort unlinks and retire/free all race the readers and the GC
    // thread. The herd's dedicated GC thread
    // sweeps and frees at the watermark concurrently with every reader and
    // committer throughout, so this also stresses retire/free against
    // registered chain walks.
    let db = Db::open(DbOptions::new(IsolationLevel::WriteSnapshot));
    let hot = run_herd(&db);
    assert_invariants(&db, &hot);

    // Reclamation accounting must balance after the concurrent sweeps:
    // every retired version is freed or still parked in limbo, and the
    // contended herd definitely superseded versions for the GC to retire.
    let rec = db.reclamation();
    assert_eq!(rec.retired, rec.freed + rec.limbo, "retired=freed+limbo");
    assert!(rec.retired > 0, "GC retired superseded versions");
    assert!(rec.freed > 0, "the watermark passed some retire tags");
    let snap = db.obs_snapshot().expect("obs on by default");
    assert!(
        snap.counters["store_arena_inline_pruned_total"] > 0,
        "hot counter chains were pruned between sweeps under contention"
    );

    let prom = db.render_prometheus();
    for series in [
        "store_versions_retired_total",
        "store_versions_freed_total",
        "store_limbo_versions",
        "store_arena_chunks",
        "store_arena_keys",
        "store_arena_versions",
        "store_arena_inline_pruned_total",
        "store_arena_gc_sweeps_total",
        "store_chain_len",
        "store_chain_migrations_total",
        "store_gc_keys_visited_total",
        "store_gc_worklist_len",
        "store_head_table_slots",
        "store_head_table_grows_total",
    ] {
        assert!(prom.contains(series), "missing series {series}");
    }
}

/// Writers in the table-growth herd, and fresh keys each creates.
const GROWTH_WRITERS: usize = 4;
const GROWTH_KEYS: u64 = 50_000;
/// Keys per creating transaction.
const GROWTH_BATCH: u64 = 100;
/// Keys a scan of the herd returns at most.
const GROWTH_SCAN: usize = 200;

fn growth_key(writer: usize, i: u64) -> Vec<u8> {
    format!("grow/{writer}/{i:06}").into_bytes()
}

#[test]
fn head_table_growth_never_hides_a_committed_key() {
    // Key creation drives the chain-head table through every growth step
    // from its 64-slot start while readers probe it lock-free. A writer
    // raises its `told` mark only after the commit that created the keys
    // below it returned, so a reader that loads the mark and then begins a
    // snapshot must find every key under it — whichever table generation
    // its lookup happens to load, and however many growths it races.
    let db = Db::open(DbOptions::new(IsolationLevel::WriteSnapshot));
    let told: Vec<AtomicU64> = (0..GROWTH_WRITERS).map(|_| AtomicU64::new(0)).collect();
    let writing = AtomicBool::new(true);
    thread::scope(|s| {
        let writers: Vec<_> = (0..GROWTH_WRITERS)
            .map(|w| {
                let (db, told) = (db.clone(), &told);
                s.spawn(move || {
                    for from in (0..GROWTH_KEYS).step_by(GROWTH_BATCH as usize) {
                        let mut txn = db.begin();
                        for i in from..from + GROWTH_BATCH {
                            txn.put(&growth_key(w, i), i.to_string().as_bytes());
                        }
                        txn.commit().expect("disjoint fresh keys never conflict");
                        told[w].store(from + GROWTH_BATCH, Ordering::Release);
                    }
                })
            })
            .collect();
        for r in 0..2u64 {
            let (db, told, writing) = (db.clone(), &told, &writing);
            s.spawn(move || {
                let mut probe = 0x9E37_79B9_7F4A_7C15u64.wrapping_mul(r + 1);
                let mut checked = 0u64;
                while writing.load(Ordering::Acquire) {
                    for (w, mark) in told.iter().enumerate() {
                        let known = mark.load(Ordering::Acquire);
                        if known == 0 {
                            continue;
                        }
                        let snap = db.snapshot();
                        // The newest key told of, and a pseudo-random older one.
                        probe = probe.wrapping_mul(6364136223846793005).wrapping_add(1);
                        for i in [known - 1, (probe >> 33) % known] {
                            assert_eq!(
                                parse(snap.get(&growth_key(w, i))),
                                i,
                                "writer {w}: key {i} of {known} told-of is absent"
                            );
                            checked += 1;
                        }
                    }
                }
                assert!(checked > 0, "the reader ran beside the writers");
            });
        }
        // A scanner: a window of one writer's keys, from a pseudo-random
        // one told of, holds every key told of in it, in bytewise order,
        // however the key order split its runs to place keys created
        // between other writers' keys.
        let (scan_db, scan_told, scan_writing) = (db.clone(), &told, &writing);
        s.spawn(move || {
            let mut probe = 0xD1B5_4A32_D192_ED03u64;
            let mut scans = 0u64;
            while scan_writing.load(Ordering::Acquire) {
                for (w, mark) in scan_told.iter().enumerate() {
                    let known = mark.load(Ordering::Acquire);
                    if known == 0 {
                        continue;
                    }
                    let snap = scan_db.snapshot();
                    probe = probe.wrapping_mul(6364136223846793005).wrapping_add(1);
                    let from = (probe >> 33) % known;
                    let hits = snap.scan(&growth_key(w, from), None, GROWTH_SCAN);
                    assert!(
                        hits.windows(2).all(|pair| pair[0].0 < pair[1].0),
                        "a scan from writer {w}'s key {from} is out of order"
                    );
                    let told_of = (known - from).min(GROWTH_SCAN as u64);
                    for (i, (key, value)) in (from..from + told_of).zip(&hits) {
                        assert_eq!(
                            (&key[..], parse(Some(value.clone()))),
                            (&growth_key(w, i)[..], i),
                            "writer {w}: key {i} of {known} told-of is missing from a scan"
                        );
                    }
                    assert!(hits.len() as u64 >= told_of, "a scan ended early");
                    scans += 1;
                }
            }
            assert!(scans > 0, "the scanner ran beside the writers");
        });
        for writer in writers {
            writer.join().expect("writer panicked");
        }
        writing.store(false, Ordering::Release);
    });

    let total = GROWTH_WRITERS as u64 * GROWTH_KEYS;
    let snap = db.snapshot();
    for w in 0..GROWTH_WRITERS {
        for i in 0..GROWTH_KEYS {
            assert_eq!(parse(snap.get(&growth_key(w, i))), i, "writer {w} key {i}");
        }
    }
    let scanned = snap.scan(b"", None, usize::MAX);
    let expected =
        (0..GROWTH_WRITERS).flat_map(|w| (0..GROWTH_KEYS).map(move |i| growth_key(w, i)));
    assert!(
        scanned.iter().map(|(key, _)| key.to_vec()).eq(expected),
        "a full scan returns every key in bytewise order"
    );
    drop(snap);
    db.gc();
    let stats = db.stats();
    assert_eq!(stats.keys as u64, total);
    assert_eq!(stats.versions as u64, total);
    let metrics = db.obs_snapshot().expect("obs on by default");
    assert!(
        metrics.counters["store_head_table_grows_total"] >= 4,
        "the herd crossed at least four growths"
    );
    assert!(metrics.gauges["store_head_table_slots"] >= total);
}
