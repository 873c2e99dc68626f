//! Schedule-exploration model checks for the arena store's two lock-free
//! protocols (ISSUE 6 satellite; first slice of ROADMAP item 5).
//!
//! Run with `cargo test -p wsi-store --features loom --test loom_protocols`
//! (scripts/tier1.sh runs a fast configuration with `LOOM_MAX_ITERS=32`).
//!
//! The models mirror the protocol logic of `crates/store/src/arena.rs` and
//! `registry.rs` over the loom API rather than importing the production
//! types: the production code uses `std` atomics (the workspace's hermetic
//! loom stand-in fuzzes schedules with real threads instead of swapping the
//! atomics at `cfg(loom)` like the real checker would — see
//! `stubs/README.md` for the fidelity argument). The invariants asserted
//! here are exactly the ones DESIGN.md §6 argues:
//!
//! 1. **Chain-head CAS publish vs. concurrent readers** — a reader walking
//!    a chain during concurrent CAS publishes never observes an
//!    uninitialized version, never copies a partly written value (the
//!    value's words are written before the publishing CAS and copied with
//!    `Relaxed` loads after the reader's `Acquire`), never loses a
//!    previously published version, and its best-visible commit timestamp
//!    is monotone across walks. With the words written after the CAS
//!    (`chain_head_publish_model(false)`) the model fails within tier 1's
//!    32 schedules.
//! 2. **Reclamation at the registry watermark** — a registered walker never
//!    reads a node freed under the `tag < watermark` rule, because the
//!    retire tag is drawn from the shared counter after the unlink: a
//!    walker that can still reach the node registered before the tag and
//!    holds the watermark at or below it.
//! 3. **The `stubs/spin` test-and-set lock** — mutual exclusion and lost-
//!    update freedom for the exact acquire/release protocol the spin stub
//!    implements (CAS-acquire, store-release, yield after a spin budget):
//!    the protocol of the `Db`'s decision lock (`db::DecisionLock`).
//! 4. **Chain-head table growth vs. a concurrent reader** — the
//!    generation protocol of `arena::ChainHeadTable`: a reader that loaded
//!    any generation, before or after a growth, finds every key that
//!    existed when it started, because growth copies every entry into the
//!    next generation before the `Release` store that makes it current and
//!    old generations are never modified again (DESIGN.md §6).
//! 5. **Dirty-flag worklist vs. a concurrent sweep** — the GC's
//!    clear-before-examine handshake (`arena::mark_dirty` / `arena::gc`):
//!    whatever the interleaving, a version published while a sweep runs is
//!    either seen by that sweep's examination or leaves the entry flagged
//!    and queued for the next one — never neither (DESIGN.md §6).
//! 6. **The commit pipeline's spin-then-park hand-off** — the one way to
//!    wait in `pipeline.rs` (`CommitPipeline::wait_round`) against the end
//!    of a flush round: generation read under the lock → spin with no lock
//!    → re-check under the lock → park, versus bump under the lock →
//!    notify only if somebody is counted parked. A waiter never parks once
//!    its condition holds, and a parked waiter is woken by the round that
//!    bumps its generation — so every waiter returns (DESIGN.md §5).
//! 7. **The stamp re-read vs. an owner that deregisters** — a snapshot
//!    read of an unstamped version (`arena::Version::fate`): the reader
//!    loads the stamp, looks the writer's fate up in its registry entry,
//!    and re-loads the stamp when the entry does not answer committed; the
//!    owner stamps, then deregisters, which drops the entry. Whatever the
//!    interleaving the reader sees the commit, because stamp → deregister
//!    → lookup → re-load is ordered, the last three by the registry lock
//!    (DESIGN.md §6). Without the re-load
//!    (`stamp_reread_model(false)`) the model fails within tier 1's 32
//!    schedules.
//! 8. **Commit, begin and read on the registry lock** — a commit without
//!    a WAL (`ActiveTxnRegistry::commit`) draws its timestamp and records
//!    its fate under the registry lock; a begin draws its snapshot from
//!    the same counter under that lock; a read looks the writer's fate up
//!    under it too. A snapshot `S` sees the commit iff `commit_ts < S`: an
//!    `S` drawn after `commit_ts` was drawn inside the commit's critical
//!    section, so the lookup waits it out (DESIGN.md §5). With the
//!    timestamp drawn before the lock (`registry_commit_model(true)`) a
//!    reader draws `S > commit_ts` and reads the fate still pending: the
//!    model fails.
#![cfg(feature = "loom")]

use loom::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, AtomicUsize, Ordering};
use loom::sync::{Arc, Condvar, Mutex};
use loom::thread;

/// End-of-chain / empty-head sentinel (mirrors `arena::NULL_VIDX`).
const NULL: u64 = u64::MAX;

/// Versions the publisher pushes in protocol model 1.
const PUBLISHED: usize = 4;

/// Value words of a modelled slot.
const WORDS: usize = 3;

/// One modelled version slot: writer start, commit stamp (0 = unstamped),
/// next link, and its value's words. Mirrors a slot of `arena::Slots`.
struct Slot {
    writer_start: AtomicU64,
    committed_at: AtomicU64,
    next: AtomicU64,
    words: [AtomicU64; WORDS],
}

impl Slot {
    fn vacant() -> Self {
        Slot {
            writer_start: AtomicU64::new(0),
            committed_at: AtomicU64::new(0),
            next: AtomicU64::new(NULL),
            words: std::array::from_fn(|_| AtomicU64::new(0)),
        }
    }
}

/// Word `j` of the value the writer that started at `ws` publishes.
fn word(ws: u64, j: usize) -> u64 {
    ws << 8 | j as u64
}

/// Protocol 1: writers publish fully-initialized versions with one Release
/// CAS on the chain head; readers walk with Acquire loads and no locks.
#[test]
fn chain_head_cas_publish_vs_concurrent_reader() {
    chain_head_publish_model(true);
}

/// The planted bug of protocol 1: the writer fills its value's words after
/// the publishing CAS, so a reader can copy a value that is not there yet.
#[test]
#[should_panic(expected = "partly written value")]
fn chain_head_publish_with_words_after_the_cas_fails() {
    chain_head_publish_model(false);
}

/// Protocol 1, its value words written before the publishing CAS or, as
/// the planted bug, after it.
fn chain_head_publish_model(words_before_publish: bool) {
    loom::model(move || {
        let slots: Arc<Vec<Slot>> = Arc::new((0..PUBLISHED).map(|_| Slot::vacant()).collect());
        let head = Arc::new(AtomicU64::new(NULL));

        let writer = {
            let slots = Arc::clone(&slots);
            let head = Arc::clone(&head);
            thread::spawn(move || {
                for i in 0..PUBLISHED {
                    let slot = &slots[i];
                    // Initialize before publish — the reader-side assertion
                    // that writer_start != 0 checks exactly this ordering.
                    let ws = i as u64 + 1;
                    slot.writer_start.store(ws, Ordering::Relaxed);
                    slot.committed_at.store(0, Ordering::Relaxed);
                    let fill = || {
                        for (j, w) in slot.words.iter().enumerate() {
                            w.store(word(ws, j), Ordering::Relaxed);
                        }
                    };
                    if words_before_publish {
                        fill();
                    }
                    loop {
                        let h = head.load(Ordering::Acquire);
                        slot.next.store(h, Ordering::Relaxed);
                        if head
                            .compare_exchange_weak(
                                h,
                                i as u64,
                                Ordering::Release,
                                Ordering::Relaxed,
                            )
                            .is_ok()
                        {
                            break;
                        }
                    }
                    if !words_before_publish {
                        thread::yield_now();
                        fill();
                    }
                    // Eager commit stamp after publish (commit_ts = 10·ws).
                    slot.committed_at
                        .store(10 * (i as u64 + 1), Ordering::Release);
                }
            })
        };

        let reader = {
            let slots = Arc::clone(&slots);
            let head = Arc::clone(&head);
            thread::spawn(move || {
                let mut last_len = 0usize;
                let mut last_best = 0u64;
                for _ in 0..8 {
                    // One lock-free chain walk at snapshot ts = ∞.
                    let mut len = 0usize;
                    let mut best = 0u64;
                    let mut cur = head.load(Ordering::Acquire);
                    let mut prev_idx = u64::MAX;
                    while cur != NULL {
                        assert!((cur as usize) < PUBLISHED, "link out of range");
                        if prev_idx != u64::MAX {
                            assert!(
                                cur < prev_idx,
                                "push order means links strictly descend: no cycles"
                            );
                        }
                        prev_idx = cur;
                        let slot = &slots[cur as usize];
                        // The Release CAS publishes the initialized slot:
                        // a reachable version is never half-built.
                        let ws = slot.writer_start.load(Ordering::Relaxed);
                        assert_ne!(ws, 0, "reachable version is fully initialized");
                        // The reader's copy: plain loads, no lock.
                        for (j, w) in slot.words.iter().enumerate() {
                            assert_eq!(
                                w.load(Ordering::Relaxed),
                                word(ws, j),
                                "reader copied a partly written value"
                            );
                        }
                        let cts = slot.committed_at.load(Ordering::Acquire);
                        if cts != 0 && cts > best {
                            best = cts;
                        }
                        len += 1;
                        cur = slot.next.load(Ordering::Acquire);
                    }
                    assert!(len <= PUBLISHED, "never more versions than published");
                    assert!(
                        len >= last_len,
                        "published versions are never lost ({len} < {last_len})"
                    );
                    assert!(
                        best >= last_best,
                        "best visible commit is monotone ({best} < {last_best})"
                    );
                    last_len = len;
                    last_best = best;
                }
            })
        };

        writer.join().unwrap();
        // A failed reader's own message is the model's verdict.
        if let Err(panic) = reader.join() {
            std::panic::resume_unwind(panic);
        }

        // Quiescent: all versions published and stamped, newest first.
        let mut cur = head.load(Ordering::Acquire);
        let mut seen = 0;
        while cur != NULL {
            let slot = &slots[cur as usize];
            assert_eq!(
                slot.committed_at.load(Ordering::Relaxed),
                10 * slot.writer_start.load(Ordering::Relaxed)
            );
            seen += 1;
            cur = slot.next.load(Ordering::Acquire);
        }
        assert_eq!(seen, PUBLISHED);
    });
}

/// Protocol 2: reclamation at the registry watermark. A walker registers
/// (its start drawn from the shared counter under the registry lock, as
/// `ActiveTxnRegistry::register` does), loads the chain link, reads the
/// node and deregisters. A retirer unlinks the node, then draws its retire
/// tag `R` from the same counter with a read-modify-write and pushes it
/// onto the limbo list (`arena::retire_all`). A freer computes the
/// watermark `W` under the registry lock (`ActiveTxnRegistry::watermark`)
/// and frees the node once `R < W` (`arena::maintain`). A walker that can
/// still reach the node loaded the link before the unlink, so it drew its
/// start before `R` and holds `W` at or below it; one that drew its start
/// after `R` is ordered after the unlink and finds the link empty.
#[test]
fn watermark_reclamation_never_frees_under_a_walker() {
    loom::model(|| {
        // The shared timestamp counter, its last issued value.
        let clock = Arc::new(AtomicU64::new(0));
        let registry: Arc<Mutex<std::collections::BTreeSet<u64>>> = Arc::default();
        let limbo: Arc<Mutex<Vec<u64>>> = Arc::default();
        // head: 0 (the one node) or NULL. valid: 1 while the node may
        // still be read, 0 once freed.
        let head = Arc::new(AtomicU64::new(0));
        let valid = Arc::new(AtomicU64::new(1));

        let walker = {
            let (clock, registry) = (Arc::clone(&clock), Arc::clone(&registry));
            let (head, valid) = (Arc::clone(&head), Arc::clone(&valid));
            thread::spawn(move || {
                for _ in 0..8 {
                    let start = {
                        let mut active = registry.lock().unwrap();
                        let start = clock.fetch_add(1, Ordering::SeqCst) + 1;
                        active.insert(start);
                        start
                    };
                    if head.load(Ordering::SeqCst) != NULL {
                        thread::yield_now(); // widen the race window
                        assert_eq!(
                            valid.load(Ordering::SeqCst),
                            1,
                            "a registered walker read a freed node"
                        );
                    }
                    registry.lock().unwrap().remove(&start);
                }
            })
        };

        let retirer = {
            let (clock, limbo, head) = (Arc::clone(&clock), Arc::clone(&limbo), Arc::clone(&head));
            thread::spawn(move || {
                head.store(NULL, Ordering::SeqCst);
                thread::yield_now();
                let mut limbo = limbo.lock().unwrap();
                let tag = clock.fetch_add(1, Ordering::SeqCst) + 1;
                limbo.push(tag);
            })
        };

        let freer = {
            let (clock, registry) = (Arc::clone(&clock), Arc::clone(&registry));
            let (limbo, valid) = (Arc::clone(&limbo), Arc::clone(&valid));
            thread::spawn(move || {
                let mut spins = 0u32;
                loop {
                    let watermark = {
                        let active = registry.lock().unwrap();
                        active
                            .first()
                            .copied()
                            .unwrap_or_else(|| clock.load(Ordering::SeqCst) + 1)
                    };
                    let mut limbo = limbo.lock().unwrap();
                    if limbo.first().is_some_and(|&tag| tag < watermark) {
                        limbo.remove(0);
                        valid.store(0, Ordering::SeqCst);
                        return;
                    }
                    drop(limbo);
                    spins += 1;
                    // The walker deregisters after finitely many sections;
                    // this bound only turns a liveness regression into a
                    // failure instead of a hang.
                    assert!(spins < 1_000_000, "the watermark never passed the tag");
                    thread::yield_now();
                }
            })
        };

        walker.join().unwrap();
        retirer.join().unwrap();
        freer.join().unwrap();
        assert_eq!(valid.load(Ordering::SeqCst), 0, "eventually freed");
    });
}

/// Mirrors `stubs/spin`'s lock loop: CAS-acquire with a bounded spin budget
/// before yielding, store-release on drop.
struct TasLock {
    locked: AtomicBool,
}

impl TasLock {
    fn new() -> Self {
        TasLock {
            locked: AtomicBool::new(false),
        }
    }

    fn lock(&self) {
        let mut spins = 0u32;
        while self
            .locked
            .compare_exchange(false, true, Ordering::Acquire, Ordering::Relaxed)
            .is_err()
        {
            spins += 1;
            if spins >= 64 {
                // Mirrors `spin::SPINS_BEFORE_YIELD`.
                thread::yield_now();
                spins = 0;
            } else {
                loom::hint::spin_loop();
            }
        }
    }

    fn unlock(&self) {
        self.locked.store(false, Ordering::Release);
    }
}

/// Protocol 3: the test-and-set spinlock gives mutual exclusion (at most
/// one thread inside the critical section) and no lost updates across a
/// non-atomic read-modify-write under the lock.
#[test]
fn spin_tas_lock_is_mutually_exclusive() {
    const THREADS: usize = 3;
    const INCREMENTS: u64 = 16;
    loom::model(|| {
        let lock = Arc::new(TasLock::new());
        // `counter` is only ever touched under the lock; the Relaxed
        // load/yield/store below is a deliberate non-atomic RMW that loses
        // updates the moment mutual exclusion fails.
        let counter = Arc::new(AtomicU64::new(0));
        // Occupancy flag: swapping in a 1 must always return 0.
        let occupied = Arc::new(AtomicU64::new(0));

        let handles: Vec<_> = (0..THREADS)
            .map(|_| {
                let lock = Arc::clone(&lock);
                let counter = Arc::clone(&counter);
                let occupied = Arc::clone(&occupied);
                thread::spawn(move || {
                    for _ in 0..INCREMENTS {
                        lock.lock();
                        assert_eq!(
                            occupied.swap(1, Ordering::SeqCst),
                            0,
                            "two threads inside the spinlock's critical section"
                        );
                        let cur = counter.load(Ordering::Relaxed);
                        thread::yield_now(); // widen the lost-update window
                        counter.store(cur + 1, Ordering::Relaxed);
                        occupied.store(0, Ordering::SeqCst);
                        lock.unlock();
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(
            counter.load(Ordering::Relaxed),
            THREADS as u64 * INCREMENTS,
            "updates lost despite the lock"
        );
    });
}

/// log₂ slots of the modelled table's first generation.
const T_MIN_BITS: u32 = 2;

/// Generations the modelled table can grow through.
const T_GENERATIONS: usize = 4;

/// Keys present before the reader starts / created while it runs.
const T_PRESENT: u32 = 2;
const T_CREATED: u32 = 10;

/// The modelled chain-head table: every generation's slot array exists
/// up front (the real table allocates them on growth; a reader can only
/// reach one through `current`, so the difference is invisible to it).
struct HeadTable {
    generations: Vec<Vec<AtomicU32>>,
    current: AtomicUsize,
}

impl HeadTable {
    fn new() -> Self {
        HeadTable {
            generations: (0..T_GENERATIONS)
                .map(|g| {
                    (0..1usize << (T_MIN_BITS + g as u32))
                        .map(|_| AtomicU32::new(0))
                        .collect()
                })
                .collect(),
            current: AtomicUsize::new(0),
        }
    }

    /// Entry `idx`'s home-slot hash (any spread will do for the model).
    fn hash(idx: u32) -> u32 {
        (idx + 1).wrapping_mul(0x9E37_79B9)
    }

    /// Mirrors `ChainHeadTable::place`: first empty slot from home.
    fn place(slots: &[AtomicU32], bits: u32, idx: u32) {
        let mask = slots.len() - 1;
        let mut pos = (Self::hash(idx) >> (32 - bits)) as usize;
        while slots[pos].load(Ordering::Relaxed) != 0 {
            pos = (pos + 1) & mask;
        }
        slots[pos].store(idx + 1, Ordering::Release);
    }

    /// Mirrors `ChainHeadTable::create`: entry number `idx` (entries
    /// `0..idx` exist) goes into the current generation, or into a freshly
    /// built next one if it would pass three quarters full.
    fn create(&self, idx: u32) {
        let gen = self.current.load(Ordering::Acquire);
        let bits = T_MIN_BITS + gen as u32;
        let slots = &self.generations[gen];
        if (idx as usize + 1) * 4 > slots.len() * 3 {
            let next = &self.generations[gen + 1];
            for existing in 0..=idx {
                Self::place(next, bits + 1, existing);
            }
            self.current.store(gen + 1, Ordering::Release);
        } else {
            Self::place(slots, bits, idx);
        }
    }

    /// Mirrors `ChainHeadTable::probe`: one load of `current`, then a
    /// linear probe of that generation to the first empty slot.
    fn find(&self, idx: u32) -> bool {
        let gen = self.current.load(Ordering::Acquire);
        let bits = T_MIN_BITS + gen as u32;
        let slots = &self.generations[gen];
        let mask = slots.len() - 1;
        let mut pos = (Self::hash(idx) >> (32 - bits)) as usize;
        loop {
            match slots[pos].load(Ordering::Acquire) {
                0 => return false,
                slot if slot == idx + 1 => return true,
                _ => pos = (pos + 1) & mask,
            }
        }
    }
}

/// Protocol 4: a creator inserts keys through several table growths while
/// a reader keeps looking up keys that existed before it started, and keys
/// the creator has told it about. Neither may ever be reported absent.
#[test]
fn head_table_growth_never_hides_an_existing_key() {
    loom::model(|| {
        let table = Arc::new(HeadTable::new());
        for idx in 0..T_PRESENT {
            table.create(idx);
        }
        // Highest entry count the creator has finished creating.
        let told = Arc::new(AtomicU32::new(T_PRESENT));

        let creator = {
            let table = Arc::clone(&table);
            let told = Arc::clone(&told);
            thread::spawn(move || {
                for idx in T_PRESENT..T_PRESENT + T_CREATED {
                    table.create(idx);
                    told.store(idx + 1, Ordering::Release);
                }
            })
        };

        let reader = {
            let table = Arc::clone(&table);
            let told = Arc::clone(&told);
            thread::spawn(move || {
                for round in 0..8u32 {
                    for idx in 0..T_PRESENT {
                        assert!(table.find(idx), "pre-existing key {idx} reported absent");
                    }
                    let known = told.load(Ordering::Acquire);
                    let idx = round % known;
                    assert!(
                        table.find(idx),
                        "key {idx} of {known} told-of reported absent"
                    );
                }
            })
        };

        creator.join().unwrap();
        reader.join().unwrap();
        assert!(
            table.current.load(Ordering::SeqCst) >= 2,
            "the creator crossed at least two growths"
        );
        for idx in 0..T_PRESENT + T_CREATED {
            assert!(table.find(idx), "key {idx} absent at quiescence");
        }
    });
}

/// Versions the publisher pushes in protocol model 5.
const W_PUBLISHED: u32 = 4;

/// Protocol 5: one key entry, reduced to a published-version count, its
/// dirty flag and the worklist. The publisher publishes, then flags
/// (queueing on the clean → dirty transition); the sweep drains the queue
/// and, per entry, clears the flag *before* it examines the chain. At
/// quiescence every published version has been examined, or the entry is
/// still flagged and queued: a publish is never lost between the two.
#[test]
fn dirty_flag_worklist_never_loses_a_publish() {
    loom::model(|| {
        let published = Arc::new(AtomicU32::new(0));
        let dirty = Arc::new(AtomicU32::new(0));
        let queue: Arc<Mutex<Vec<u32>>> = Arc::new(Mutex::new(Vec::new()));
        // Versions the latest examination saw.
        let examined = Arc::new(AtomicU32::new(0));

        let publisher = {
            let published = Arc::clone(&published);
            let dirty = Arc::clone(&dirty);
            let queue = Arc::clone(&queue);
            thread::spawn(move || {
                for _ in 0..W_PUBLISHED {
                    // The chain-head CAS (Release), then `mark_dirty`.
                    published.fetch_add(1, Ordering::Release);
                    if dirty.swap(1, Ordering::AcqRel) == 0 {
                        queue.lock().unwrap().push(0);
                    }
                }
            })
        };

        /// One sweep: drain, then per entry clear-before-examine.
        fn sweep(
            published: &AtomicU32,
            dirty: &AtomicU32,
            queue: &Mutex<Vec<u32>>,
            examined: &AtomicU32,
        ) {
            let work = std::mem::take(&mut *queue.lock().unwrap());
            assert!(work.len() <= 1, "an entry is queued at most once");
            for _entry in work {
                dirty.swap(0, Ordering::AcqRel);
                examined.store(published.load(Ordering::Acquire), Ordering::Relaxed);
            }
        }

        let sweeper = {
            let published = Arc::clone(&published);
            let dirty = Arc::clone(&dirty);
            let queue = Arc::clone(&queue);
            let examined = Arc::clone(&examined);
            thread::spawn(move || {
                for _ in 0..6 {
                    sweep(&published, &dirty, &queue, &examined);
                    thread::yield_now();
                }
            })
        };

        publisher.join().unwrap();
        sweeper.join().unwrap();

        let seen = examined.load(Ordering::SeqCst);
        let flagged = dirty.load(Ordering::SeqCst) == 1;
        let queued = !queue.lock().unwrap().is_empty();
        assert!(
            seen == W_PUBLISHED || (flagged && queued),
            "lost publish: examined {seen} of {W_PUBLISHED}, flagged={flagged}, queued={queued}"
        );
        // One more sweep always catches up.
        sweep(&published, &dirty, &queue, &examined);
        assert_eq!(examined.load(Ordering::SeqCst), W_PUBLISHED);
    });
}

/// Flush rounds the leader runs in protocol model 6.
const H_ROUNDS: u64 = 4;

/// Spin turns a modelled waiter takes before it parks: scaled down from
/// `pipeline::SPIN_BEFORE_PARK` so that both ways out of a wait — saw the
/// bump while spinning, parked and was woken — are common under the fuzzer.
const H_SPIN: usize = 3;

/// The lock-protected half of the modelled pipeline: how many rounds have
/// ended (all a modelled waiter waits for) and who is asleep.
struct HandoffInner {
    rounds_done: u64,
    parked: usize,
}

/// Protocol 6: two waiters and a leader over the pipeline's hand-off. Each
/// waiter needs a number of rounds to have ended and waits for them the way
/// `wait_round` does; the leader ends [`H_ROUNDS`] rounds the way
/// `sync_flush_round` does, paying for a `notify_all` only when it counts a
/// sleeper. The exact statement is at the park: under the lock, with the
/// generation unchanged since the condition was found false, the condition
/// is still false — the round that satisfies this waiter has not ended, so
/// it will find the waiter counted and wake it. The consequence is that
/// every waiter returns, which the watchdog turns from a hang into a
/// failure.
#[test]
fn pipeline_handoff_wakes_every_parked_waiter() {
    let (done, finished) = std::sync::mpsc::channel();
    let model = std::thread::spawn(move || {
        loom::model(|| {
            let inner = Arc::new(Mutex::new(HandoffInner {
                rounds_done: 0,
                parked: 0,
            }));
            let cv = Arc::new(Condvar::new());
            let round = Arc::new(AtomicU64::new(0));

            let waiters: Vec<_> = [1, H_ROUNDS]
                .into_iter()
                .map(|want| {
                    let (inner, cv, round) =
                        (Arc::clone(&inner), Arc::clone(&cv), Arc::clone(&round));
                    thread::spawn(move || {
                        let mut parks = 0u64;
                        let mut guard = inner.lock().unwrap();
                        while guard.rounds_done < want {
                            // `wait_round`: the generation the condition was
                            // evaluated against, read under the lock.
                            let seen = round.load(Ordering::Relaxed);
                            drop(guard);
                            for _ in 0..H_SPIN {
                                if round.load(Ordering::Acquire) != seen {
                                    break;
                                }
                                loom::hint::spin_loop();
                            }
                            guard = inner.lock().unwrap();
                            if round.load(Ordering::Relaxed) == seen {
                                assert!(
                                    guard.rounds_done < want,
                                    "parking although round {want} has ended"
                                );
                                guard.parked += 1;
                                parks += 1;
                                guard = cv.wait(guard).unwrap();
                                guard.parked -= 1;
                            }
                        }
                        parks
                    })
                })
                .collect();

            let leader = {
                let (inner, cv, round) = (Arc::clone(&inner), Arc::clone(&cv), Arc::clone(&round));
                thread::spawn(move || {
                    let mut notifies = 0u64;
                    for _ in 0..H_ROUNDS {
                        // The flush itself, outside the lock.
                        thread::yield_now();
                        let mut guard = inner.lock().unwrap();
                        guard.rounds_done += 1;
                        round.fetch_add(1, Ordering::Release);
                        let sleepers = guard.parked > 0;
                        drop(guard);
                        if sleepers {
                            notifies += 1;
                            cv.notify_all();
                        }
                    }
                    notifies
                })
            };

            let notifies = leader.join().unwrap();
            let parks: u64 = waiters.into_iter().map(|w| w.join().unwrap()).sum();
            let guard = inner.lock().unwrap();
            assert_eq!(guard.rounds_done, H_ROUNDS);
            assert_eq!(guard.parked, 0, "every sleeper was woken and left");
            assert!(notifies <= H_ROUNDS);
            assert!(
                parks == 0 || notifies > 0,
                "{parks} parks ended without a single notify"
            );
        });
        let _ = done.send(());
    });
    let limit = std::time::Duration::from_secs(120);
    if let Err(std::sync::mpsc::RecvTimeoutError::Timeout) = finished.recv_timeout(limit) {
        panic!("a modelled waiter parked and was never woken");
    }
    model.join().expect("an assertion of the model failed");
}

/// A modelled registry: start timestamp → fate, `0` pending and a commit
/// timestamp otherwise.
type Registry = Mutex<std::collections::BTreeMap<u64, u64>>;

/// Protocol 7 with the reader's stamp re-read on or off. The writer
/// (start 1) committed at 2, its fate set in its registry entry, still
/// unstamped and registered; the reader holds snapshot 3. The owner stamps
/// and deregisters; the reader resolves the version the way
/// `arena::Version::fate` does and must see commit 2.
fn stamp_reread_model(reread: bool) {
    const WRITER: u64 = 1;
    const COMMIT: u64 = 2;
    const SNAPSHOT: u64 = 3;
    loom::model(move || {
        let stamp = Arc::new(AtomicU64::new(0));
        // Set once the reader found the version unstamped: the schedule
        // the race needs starts there, so the owner waits for it.
        let loaded = Arc::new(AtomicBool::new(false));
        // The registry: start → commit timestamp.
        let registry: Arc<Registry> =
            Arc::new(Mutex::new([(WRITER, COMMIT)].into_iter().collect()));

        let reader = {
            let (stamp, registry) = (Arc::clone(&stamp), Arc::clone(&registry));
            let loaded = Arc::clone(&loaded);
            thread::spawn(move || {
                let mut seen = stamp.load(Ordering::Acquire);
                loaded.store(true, Ordering::Release);
                if seen == 0 {
                    // Widen the race window: give the owner a while to
                    // stamp and deregister before the lookup.
                    for _ in 0..64 {
                        if !registry.lock().unwrap().contains_key(&WRITER) {
                            break;
                        }
                        thread::yield_now();
                    }
                    // No entry: "pending".
                    let resolved = registry.lock().unwrap().get(&WRITER).copied().unwrap_or(0);
                    seen = match (resolved, reread) {
                        (0, true) => stamp.load(Ordering::Acquire),
                        (resolved, _) => resolved,
                    };
                }
                seen
            })
        };

        let owner = {
            let (stamp, registry) = (Arc::clone(&stamp), Arc::clone(&registry));
            thread::spawn(move || {
                while !loaded.load(Ordering::Acquire) {
                    thread::yield_now();
                }
                stamp.store(COMMIT, Ordering::Release);
                registry.lock().unwrap().remove(&WRITER);
            })
        };

        owner.join().unwrap();
        let seen = reader.join().unwrap();
        assert_eq!(seen, COMMIT, "snapshot {SNAPSHOT} missed commit {COMMIT}");
    });
}

#[test]
fn snapshot_read_re_reads_the_stamp_the_owner_deregistered_behind() {
    stamp_reread_model(true);
}

/// The planted bug: without the re-read a reader that found the version
/// unstamped, then the writer's registry entry gone, reads past the commit.
#[test]
#[should_panic(expected = "missed commit")]
fn a_snapshot_read_without_the_re_read_misses_the_commit() {
    stamp_reread_model(false);
}

/// Protocol 8. The writer (start 1, registered) commits while a reader
/// begins and reads the writer's fate. `planted` draws the commit
/// timestamp before taking the registry lock.
fn registry_commit_model(planted: bool) {
    const WRITER: u64 = 1;
    loom::model(move || {
        let clock = Arc::new(AtomicU64::new(WRITER));
        let registry: Arc<Registry> = Arc::new(Mutex::new([(WRITER, 0)].into_iter().collect()));
        // Set once the commit timestamp is drawn, and once the reader has
        // looked the fate up: each side waits a while for the other, so
        // the schedule the planted bug needs is likely.
        let drawn = Arc::new(AtomicBool::new(false));
        let looked = Arc::new(AtomicBool::new(false));
        let wait_for = |flag: &AtomicBool| {
            for _ in 0..64 {
                if flag.load(Ordering::Acquire) {
                    break;
                }
                thread::yield_now();
            }
        };

        let committer = {
            let (clock, registry) = (Arc::clone(&clock), Arc::clone(&registry));
            let (drawn, looked) = (Arc::clone(&drawn), Arc::clone(&looked));
            thread::spawn(move || {
                let early = planted.then(|| clock.fetch_add(1, Ordering::SeqCst) + 1);
                let mut live = registry.lock().unwrap();
                let commit = early.unwrap_or_else(|| clock.fetch_add(1, Ordering::SeqCst) + 1);
                drawn.store(true, Ordering::Release);
                if planted {
                    drop(live);
                    wait_for(&looked);
                    live = registry.lock().unwrap();
                } else {
                    wait_for(&looked);
                }
                live.insert(WRITER, commit);
                commit
            })
        };

        let reader = {
            let (clock, registry) = (Arc::clone(&clock), Arc::clone(&registry));
            thread::spawn(move || {
                wait_for(&drawn);
                // Begin: the snapshot is drawn under the registry lock.
                let snapshot = {
                    let mut live = registry.lock().unwrap();
                    let snapshot = clock.fetch_add(1, Ordering::SeqCst) + 1;
                    live.insert(snapshot, 0);
                    snapshot
                };
                let fate = registry.lock().unwrap()[&WRITER];
                looked.store(true, Ordering::Release);
                (snapshot, fate != 0 && fate < snapshot)
            })
        };

        let commit = committer.join().unwrap();
        let (snapshot, visible) = reader.join().unwrap();
        assert_eq!(
            visible,
            commit < snapshot,
            "snapshot {snapshot} and commit {commit} disagree"
        );
    });
}

#[test]
fn a_snapshot_above_a_commit_reads_it_under_the_registry_lock() {
    registry_commit_model(false);
}

/// The planted bug: a commit timestamp drawn outside the registry lock lets
/// a snapshot above it read the fate before it is set.
#[test]
#[should_panic(expected = "disagree")]
fn a_commit_timestamp_drawn_outside_the_registry_lock_is_missed() {
    registry_commit_model(true);
}
