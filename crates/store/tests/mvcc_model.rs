//! Model-based testing of the embedded store: every randomized interleaving
//! of transactions is checked against a trivially-correct sequential model.
//!
//! The model exploits WSI's own guarantee: committed transactions are
//! serializable *in commit order* (Theorem 1 constructs the witness ordered
//! by commit timestamp). So the model is a plain `BTreeMap` from key to the
//! versions committed to it, in commit order — no locks, no chains, no
//! knobs — and from it follows everything the store may show: what a
//! snapshot reads (§2.2: the newest version committed before it), what a
//! scan returns, whether a commit is admitted (Algorithms 1 and 2), and
//! which versions a GC sweep leaves behind. Under serializable snapshot
//! isolation the admission rule is stateful, so the model defers to the
//! sequential `StatusOracleCore` at that level, fed the same begins and
//! commit requests in the same order.
//!
//! It is the version store's one equivalence oracle. The locked and flat
//! layouts it replaced in that role were implementations; this is the rule.

use std::collections::{BTreeMap, BTreeSet};

use proptest::prelude::*;
use wsi_core::{hash_row_key, CommitRequest, IsolationLevel, StatusOracleCore, Timestamp};
use wsi_store::{Db, DbOptions, Transaction};
use wsi_wal::LedgerConfig;

/// One-letter keys, and keys across the store's inline bound: 22 bytes
/// sit in their entry, the 23 that extend them and the 40 go to the heap.
const KEYS: [&[u8]; 10] = [
    b"a",
    b"b",
    b"c",
    b"d",
    b"e",
    b"f",
    b"g",
    b"twenty-two-bytes-key-k",
    b"twenty-two-bytes-key-k!",
    b"a-key-of-forty-bytes-or-more-on-the-heap",
];

/// Value lengths a write draws from: 0, a byte either side of every size
/// class boundary of the store's slots (0, 1, 2, 3, 4, 5, 6, 8, 10, 13,
/// 16, 20, 26 and 32 words), and values past the largest class, which
/// continue in a second and a third slot.
const LENGTHS: [usize; 30] = [
    0, 1, 7, 8, 9, 15, 17, 23, 25, 31, 33, 39, 41, 47, 49, 63, 65, 79, 81, 100, 103, 105, 127, 129,
    159, 161, 207, 209, 255, 600,
];

/// The value a write of `v` at length index `len` puts: `v`, then bytes
/// that follow from it and their position.
fn value(v: u8, len: usize) -> Vec<u8> {
    (0..LENGTHS[len])
        .map(|i| v.wrapping_add((i as u8).wrapping_mul(31)))
        .collect()
}

const LEVELS: [IsolationLevel; 3] = [
    IsolationLevel::WriteSnapshot,
    IsolationLevel::Snapshot,
    IsolationLevel::SerializableSnapshot,
];

#[derive(Debug, Clone)]
enum Step {
    Read(usize),
    /// Write key, value seed, length index into [`LENGTHS`].
    Write(usize, u8, usize),
    Delete(usize),
    /// Scan `[KEYS[start], KEYS[end])` (unbounded if `None`) up to a limit.
    /// The bounds are drawn independently: inverted and empty ranges occur.
    Scan(usize, Option<usize>, usize),
}

#[derive(Debug, Clone)]
struct Plan {
    txns: Vec<Vec<Step>>,
    schedule: Vec<usize>,
    /// A GC sweep runs after every this many commit attempts.
    gc_every: usize,
}

fn step() -> impl Strategy<Value = Step> {
    prop_oneof![
        (0..KEYS.len()).prop_map(Step::Read),
        ((0..KEYS.len()), any::<u8>(), (0..LENGTHS.len()))
            .prop_map(|(k, v, len)| Step::Write(k, v, len)),
        (0..KEYS.len()).prop_map(Step::Delete),
        (
            (0..KEYS.len()),
            prop::option::of(0..KEYS.len()),
            (1..4usize)
        )
            .prop_map(|(s, e, l)| Step::Scan(s, e, l)),
    ]
}

fn plan() -> impl Strategy<Value = Plan> {
    (2usize..=6)
        .prop_flat_map(|n| {
            prop::collection::vec(prop::collection::vec(step(), 1..6), n..=n).prop_flat_map(
                move |txns| {
                    let slots: usize = txns.iter().map(|t| t.len() + 1).sum();
                    (
                        Just(txns),
                        prop::collection::vec(0..n, slots..=slots),
                        1usize..6,
                    )
                },
            )
        })
        .prop_map(|(txns, schedule, gc_every)| Plan {
            txns,
            schedule,
            gc_every,
        })
}

type Pairs = Vec<(Vec<u8>, Vec<u8>)>;
/// `Db::version_stamps` with plain keys.
type Stamps = Vec<(Vec<u8>, Vec<(u64, Option<u64>)>)>;

/// One committed version; `value = None` is a tombstone.
#[derive(Debug)]
struct Version {
    start: u64,
    commit: u64,
    value: Option<Vec<u8>>,
}

/// The sequential model: every version ever committed, per key, in commit
/// order (which, single-threaded, is commit-timestamp order).
#[derive(Debug)]
struct Model {
    committed: BTreeMap<Vec<u8>, Vec<Version>>,
    /// Decides commits under SSI; sees every begin, and every commit
    /// request of an SSI run.
    ssi: StatusOracleCore,
}

/// What the model knows of an open transaction.
#[derive(Debug)]
struct ModelTxn {
    start: u64,
    /// The start timestamp `Model::ssi` issued: its own counter, the same
    /// order of events.
    ssi_start: Timestamp,
    /// Keys whose stored state the transaction observed.
    reads: BTreeSet<Vec<u8>>,
    writes: BTreeMap<Vec<u8>, Option<Vec<u8>>>,
}

impl Default for Model {
    fn default() -> Self {
        Model {
            committed: BTreeMap::new(),
            ssi: StatusOracleCore::unbounded(IsolationLevel::SerializableSnapshot),
        }
    }
}

impl Model {
    fn shadowing(&mut self, txn: &Transaction) -> ModelTxn {
        ModelTxn {
            start: txn.start_ts().raw(),
            ssi_start: self.ssi.begin(),
            reads: BTreeSet::new(),
            writes: BTreeMap::new(),
        }
    }

    /// §2.2: a snapshot reads the newest version committed before it.
    fn visible(&self, key: &[u8], snapshot: u64) -> Option<&Vec<u8>> {
        let mut newest_first = self.committed.get(key)?.iter().rev();
        newest_first.find(|v| v.commit < snapshot)?.value.as_ref()
    }

    /// The visible rows of `[start, end)` in key order; nothing when the
    /// range is empty or inverted.
    fn rows<'a>(
        &'a self,
        start: &'a [u8],
        end: Option<&'a [u8]>,
        snapshot: u64,
    ) -> impl Iterator<Item = (Vec<u8>, Vec<u8>)> + 'a {
        self.committed
            .keys()
            .filter(move |k| k.as_slice() >= start && end.is_none_or(|e| k.as_slice() < e))
            .filter_map(move |k| Some((k.clone(), self.visible(k, snapshot)?.clone())))
    }

    /// `Transaction::get`: own buffered writes win; a lookup that goes to
    /// the store joins the read set, found or not.
    fn get(&self, txn: &mut ModelTxn, key: &[u8]) -> Option<Vec<u8>> {
        if let Some(buffered) = txn.writes.get(key) {
            return buffered.clone();
        }
        txn.reads.insert(key.to_vec());
        self.visible(key, txn.start).cloned()
    }

    /// `Transaction::scan`: the buffered writes in range are laid over the
    /// stored rows and `limit` cuts the merged result. A buffered write
    /// displaces at most one stored row, so the store is asked for — and the
    /// read set gains — `limit` plus that many rows.
    fn scan(&self, txn: &mut ModelTxn, start: &[u8], end: Option<&[u8]>, limit: usize) -> Pairs {
        let in_range = |k: &[u8]| k >= start && end.is_none_or(|e| k < e);
        let buffered: Vec<_> = txn.writes.iter().filter(|(k, _)| in_range(k)).collect();
        let mut rows: BTreeMap<Vec<u8>, Vec<u8>> = self
            .rows(start, end, txn.start)
            .take(limit + buffered.len())
            .collect();
        txn.reads.extend(rows.keys().cloned());
        for (key, value) in buffered {
            match value {
                Some(v) => rows.insert(key.clone(), v.clone()),
                None => rows.remove(key),
            };
        }
        rows.into_iter().take(limit).collect()
    }

    /// The commit decision. Under SI and WSI a read-only transaction always
    /// commits; a write transaction aborts iff a row it must not race — its
    /// write set under SI (Algorithm 1), its read set under WSI (Algorithm
    /// 2) — had a version committed after its snapshot was taken. Under SSI
    /// the sequential oracle decides, read-only transactions included.
    fn admits(&mut self, txn: &ModelTxn, isolation: IsolationLevel) -> bool {
        let raced = |key: &Vec<u8>| {
            let last = self.committed.get(key).and_then(|vs| vs.last());
            last.is_some_and(|v| v.commit > txn.start)
        };
        match isolation {
            IsolationLevel::Snapshot => !txn.writes.keys().any(raced),
            IsolationLevel::WriteSnapshot => txn.writes.is_empty() || !txn.reads.iter().any(raced),
            IsolationLevel::SerializableSnapshot => {
                let reads = txn.reads.iter().map(|k| hash_row_key(k)).collect();
                let writes = txn.writes.keys().map(|k| hash_row_key(k)).collect();
                let request = CommitRequest::new(txn.ssi_start, reads, writes);
                self.ssi.commit(request).is_committed()
            }
        }
    }

    fn apply(&mut self, txn: ModelTxn, commit: u64) {
        for (key, value) in txn.writes {
            self.committed.entry(key).or_default().push(Version {
                start: txn.start,
                commit,
                value,
            });
        }
    }

    /// What a GC sweep at `watermark` leaves, as `Db::version_stamps`
    /// reports it: per key the newest version committed below the
    /// watermark (the oldest possible snapshot still reads it) and every
    /// version committed at or above it, all stamped, ascending by writer
    /// start. Only committed versions ever reach the store here, so no key
    /// dies: its newest version always survives.
    fn stamps_after_gc(&self, watermark: u64) -> Stamps {
        let kept = |versions: &Vec<Version>| {
            let commits = versions.iter().map(|v| v.commit);
            let bound = commits.filter(|&c| c < watermark).max();
            let mut kept: Vec<(u64, Option<u64>)> = versions
                .iter()
                .filter(|v| Some(v.commit) >= bound)
                .map(|v| (v.start, Some(v.commit)))
                .collect();
            kept.sort_unstable();
            kept
        };
        let keys = self.committed.iter();
        keys.map(|(key, vs)| (key.clone(), kept(vs))).collect()
    }
}

fn plain(pairs: Vec<(bytes::Bytes, bytes::Bytes)>) -> Pairs {
    pairs
        .into_iter()
        .map(|(k, v)| (k.to_vec(), v.to_vec()))
        .collect()
}

fn stamps_of(db: &Db) -> Stamps {
    let stamps = db.version_stamps().into_iter();
    stamps.map(|(key, chain)| (key.to_vec(), chain)).collect()
}

/// Every key's newest version's stamps, the way `Model::stamps_after_gc`
/// at an unbounded watermark lists them.
fn newest_stamps(db: &Db) -> Stamps {
    let newest = |chain: Vec<(u64, Option<u64>)>| {
        let newest = chain.into_iter().max_by_key(|&(_, cts)| cts);
        newest.into_iter().collect()
    };
    let stamps = stamps_of(db).into_iter();
    stamps.map(|(key, chain)| (key, newest(chain))).collect()
}

/// Runs a GC sweep and checks what it left against the model: the stamps,
/// the incremental `DbStats::{keys, versions}`, and — a sweep must be
/// invisible — a fresh snapshot's whole contents.
fn gc_and_check(db: &Db, model: &Model, watermark: u64) {
    db.gc();
    let expect = model.stamps_after_gc(watermark);
    let stats = db.stats();
    assert_eq!(stats.keys, expect.len(), "keys after GC at {watermark}");
    assert_eq!(
        stats.versions,
        expect.iter().map(|(_, chain)| chain.len()).sum::<usize>(),
        "versions after GC at {watermark}"
    );
    assert_eq!(stamps_of(db), expect, "stamps after GC at {watermark}");
    assert_eq!(
        plain(db.snapshot().scan(b"", None, usize::MAX)),
        model.rows(b"", None, u64::MAX).collect::<Pairs>(),
        "a fresh snapshot after GC at {watermark}"
    );
}

/// Drives `p` against `db` single-threaded (the interleaving lives in the
/// schedule) and checks every read, scan and commit outcome against the
/// model as it happens, and every periodic GC sweep with [`gc_and_check`].
/// Transactions still open at the end roll back. Returns the model.
fn run(db: &Db, p: &Plan, isolation: IsolationLevel) -> Model {
    let mut model = Model::default();
    let mut open: Vec<Option<(Transaction, ModelTxn)>> = p.txns.iter().map(|_| None).collect();
    let mut cursors = vec![0usize; p.txns.len()];
    let mut attempts = 0usize;
    for &t in &p.schedule {
        if cursors[t] > p.txns[t].len() {
            continue;
        }
        let (txn, shadow) = open[t].get_or_insert_with(|| {
            let txn = db.begin();
            let shadow = model.shadowing(&txn);
            (txn, shadow)
        });
        if cursors[t] == p.txns[t].len() {
            let (txn, shadow) = open[t].take().expect("open");
            let outcome = txn.commit();
            assert_eq!(
                outcome.is_ok(),
                model.admits(&shadow, isolation),
                "commit outcome of txn {t} under {isolation:?}"
            );
            if let Ok(commit) = outcome {
                model.apply(shadow, commit.raw());
            }
            cursors[t] += 1;
            attempts += 1;
            if attempts.is_multiple_of(p.gc_every) {
                // The low-water mark: the oldest snapshot still open.
                let active = open.iter().flatten().map(|(_, shadow)| shadow.start);
                gc_and_check(db, &model, active.min().unwrap_or(u64::MAX));
            }
            continue;
        }
        match p.txns[t][cursors[t]] {
            Step::Read(k) => {
                let expect = model.get(shadow, KEYS[k]);
                assert_eq!(
                    txn.get(KEYS[k]).map(|v| v.to_vec()),
                    expect,
                    "txn {t} reads {:?}",
                    KEYS[k]
                );
                let mut buf = b"stale".to_vec();
                let found = txn.get_into(KEYS[k], &mut buf);
                assert!(
                    found || buf.is_empty(),
                    "an absent key leaves the buffer empty"
                );
                assert_eq!(found.then_some(buf), expect, "txn {t} reads into a buffer");
            }
            Step::Write(k, v, len) => {
                txn.put(KEYS[k], &value(v, len));
                shadow.writes.insert(KEYS[k].to_vec(), Some(value(v, len)));
            }
            Step::Delete(k) => {
                txn.delete(KEYS[k]);
                shadow.writes.insert(KEYS[k].to_vec(), None);
            }
            Step::Scan(s, e, limit) => {
                let end = e.map(|e| KEYS[e]);
                assert_eq!(
                    plain(txn.scan(KEYS[s], end, limit)),
                    model.scan(shadow, KEYS[s], end, limit),
                    "txn {t} scans {:?}..{end:?} limit {limit}",
                    KEYS[s]
                );
            }
        }
        cursors[t] += 1;
    }
    model
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    /// Every read, scan (inverted and empty ranges included), commit
    /// outcome, GC sweep and the final state match the sequential model,
    /// under all three isolation levels.
    #[test]
    fn store_matches_the_sequential_model(p in plan()) {
        for isolation in LEVELS {
            let db = Db::open(DbOptions::new(isolation));
            let model = run(&db, &p, isolation);
            // Everything rolled back by now; a last sweep collapses each
            // key to its newest version.
            gc_and_check(&db, &model, u64::MAX);
        }
    }

    /// Durability round trip: a post-crash recovery — the newest
    /// checkpoint, then the log after its cut — reproduces every key's
    /// value and its newest version's stamps, under both serializable
    /// levels, which also holds their commit decisions to the model on the
    /// sync commit path. The plan's sweeps interleave with its
    /// transactions, and each writes a checkpoint when one is due and
    /// truncates the log behind it.
    #[test]
    fn replay_re_derives_identical_state_and_stamps(
        p in plan(),
        isolation in prop_oneof![
            Just(IsolationLevel::WriteSnapshot),
            Just(IsolationLevel::SerializableSnapshot),
        ],
    ) {
        let options = DbOptions::new(isolation).durable(LedgerConfig::default_replicated());
        let db = Db::open(options.clone());
        let model = run(&db, &p, isolation);
        db.flush_wal().unwrap();

        // Sync mode stamps at publish time, so every key's newest version
        // carries its commit timestamp: the model's.
        let live = newest_stamps(&db);
        prop_assert_eq!(&live, &model.stamps_after_gc(u64::MAX));
        let wal = db.wal_snapshot().expect("durable db");
        drop(db);
        let recovered = Db::recover(options, wal).expect("clean log");
        prop_assert_eq!(live, newest_stamps(&recovered));
        prop_assert_eq!(
            plain(recovered.snapshot().scan(b"", None, usize::MAX)),
            model.rows(b"", None, u64::MAX).collect::<Pairs>()
        );
    }
}

/// Every length of [`LENGTHS`] on every key, mixed with tombstones: one
/// transaction after another reads each key, then rewrites it at the next
/// length or deletes it, and scans everything. So every length is read
/// back in a later snapshot, through chains of many versions, with sweeps
/// in between that free what was superseded.
#[test]
fn every_value_length_reads_back_across_overwrites_and_tombstones() {
    let txns: Vec<Vec<Step>> = (0..LENGTHS.len())
        .map(|round| {
            (0..KEYS.len())
                .flat_map(|k| {
                    let write = match (round + k) % 5 {
                        4 => Step::Delete(k),
                        _ => Step::Write(
                            k,
                            (round * KEYS.len() + k) as u8,
                            (round + k) % LENGTHS.len(),
                        ),
                    };
                    [Step::Read(k), write]
                })
                .chain([Step::Scan(0, None, KEYS.len())])
                .collect()
        })
        .collect();
    let schedule = (0..txns.len())
        .flat_map(|t| std::iter::repeat_n(t, txns[t].len() + 1))
        .collect();
    let p = Plan {
        txns,
        schedule,
        gc_every: 10,
    };
    for isolation in LEVELS {
        let db = Db::open(DbOptions::new(isolation));
        let model = run(&db, &p, isolation);
        gc_and_check(&db, &model, u64::MAX);
    }
}

/// A plan the generator's 192 cases do not draw: with `a b c d` stored, a
/// buffered `delete(a)` inside the window of a `limit = 2` scan must not
/// shorten it — `limit` cuts the merged rows (`[b, c]`), not the stored
/// ones before the overlay (`[b]`).
#[test]
fn a_limited_scan_is_not_cut_short_by_buffered_writes() {
    let p = Plan {
        txns: vec![
            (0..4).map(|k| Step::Write(k, 1, 1)).collect(),
            vec![Step::Delete(0), Step::Scan(0, None, 2)],
        ],
        schedule: vec![0, 0, 0, 0, 0, 1, 1, 1],
        gc_every: usize::MAX,
    };
    for isolation in LEVELS {
        run(&Db::open(DbOptions::new(isolation)), &p, isolation);
    }
}

/// Plans the generator rarely draws: Fekete's read-only anomaly, with the
/// read-only transaction committing last (it is refused, rule 2) and
/// committing before the pivot (the pivot is refused, rule 1). Either way
/// SSI refuses exactly one transaction and the store agrees with the
/// reference oracle on which — the read-only commit path's reads reach the
/// window and stay there.
#[test]
fn read_only_anomaly_plans_match_the_model() {
    let (x, y) = (0, 1);
    let txns = vec![
        vec![Step::Read(x), Step::Read(y), Step::Write(x, 2, 1)], // the pivot
        vec![Step::Read(y), Step::Write(y, 1, 1)],
        vec![Step::Read(x), Step::Read(y)], // begins once txn 1 committed
    ];
    for schedule in [
        vec![0, 1, 1, 1, 2, 0, 0, 0, 2, 2],
        vec![0, 1, 1, 1, 2, 2, 2, 0, 0, 0],
    ] {
        let p = Plan {
            txns: txns.clone(),
            schedule,
            gc_every: usize::MAX,
        };
        for isolation in LEVELS {
            let db = Db::open(DbOptions::new(isolation));
            run(&db, &p, isolation);
            let ssi = isolation == IsolationLevel::SerializableSnapshot;
            assert_eq!(db.stats().oracle.pivot_aborts, u64::from(ssi));
        }
    }
}

/// A hot-key history far longer than the proptest plans draw: a chain of
/// 200 versions, read, stamped and swept against the model, then swept
/// down to its newest version once the old snapshot ends.
#[test]
fn hot_key_history_matches_the_model() {
    let db = Db::open(DbOptions::new(IsolationLevel::WriteSnapshot));
    let mut model = Model::default();
    // An old snapshot holds the watermark below everything, so neither
    // insert-time pruning nor the first sweep may drop a version.
    let pin = db.snapshot();
    for i in 0u32..200 {
        let mut txn = db.begin();
        let mut shadow = model.shadowing(&txn);
        for (key, value) in [
            (b"hot".to_vec(), format!("v{i}").into_bytes()),
            (format!("cold-{}", i % 5).into_bytes(), b"c".to_vec()),
        ] {
            txn.put(&key, &value);
            shadow.writes.insert(key, Some(value));
        }
        let commit = txn.commit().expect("uncontended single writer");
        model.apply(shadow, commit.raw());
    }
    assert!(pin.scan(b"", None, usize::MAX).is_empty());
    gc_and_check(&db, &model, pin.start_ts().raw());
    assert_eq!(db.stats().versions, 400, "the old snapshot pins them all");

    drop(pin);
    gc_and_check(&db, &model, u64::MAX);
    assert_eq!((db.stats().keys, db.stats().versions), (6, 6));
    let rec = db.reclamation();
    assert_eq!(rec.retired, rec.freed + rec.limbo);
    assert_eq!(
        rec.retired, 394,
        "the sweep retired every superseded version"
    );
}

/// The abort path leaves no stamp behind: a conflict-aborted writer's
/// versions are removed before any stamping could happen, and the stamps
/// dump shows only the surviving committer.
#[test]
fn aborted_writers_are_never_stamped() {
    let db = Db::open(DbOptions::new(IsolationLevel::WriteSnapshot));
    let mut a = db.begin();
    let mut b = db.begin();
    // b reads k then a commits a write to k: b's later write-commit is a
    // read-write conflict under WSI and must abort.
    let _ = b.get(b"k");
    a.put(b"k", b"winner");
    let a_commit = a.commit().expect("first committer wins").raw();
    b.put(b"k", b"loser");
    assert!(b.commit().is_err(), "read-write conflict must abort");
    let stamps = db.version_stamps();
    assert_eq!(stamps.len(), 1, "only key k has versions");
    let chain = &stamps[0].1;
    assert_eq!(chain.len(), 1, "the aborted writer's version is gone");
    assert_eq!(
        chain[0].1,
        Some(a_commit),
        "the surviving version is the committer's, eagerly stamped"
    );
}
