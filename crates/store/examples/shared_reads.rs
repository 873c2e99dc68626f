//! What a snapshot read costs when readers share keys.
//!
//! `Snapshot::get` over 8 keys holding 100-byte values, in three shapes:
//! one thread; two threads on disjoint keys (8 each); two threads on the
//! same 8 keys. A read that stores to shared memory — a lock word, a
//! reference count — makes the third shape pay for the cache line moving
//! between cores on every get; a read of plain loads costs the same in all
//! three. It prints nanoseconds per get and gates nothing.
//!
//! ```text
//! cargo run --release -p wsi-store --example shared_reads [gets per thread] [rounds]
//! ```

use std::hint::black_box;
use std::sync::Barrier;
use std::time::Instant;

use wsi_core::IsolationLevel;
use wsi_store::{Db, DbOptions, Snapshot};

const KEYS: usize = 8;
const VALUE_LEN: usize = 100;

/// Nanoseconds per get over `gets` gets of `keys`, round-robin.
fn run(snap: &Snapshot, keys: &[Vec<u8>], gets: usize) -> f64 {
    let started = Instant::now();
    for i in 0..gets {
        black_box(snap.get(&keys[i % keys.len()]));
    }
    started.elapsed().as_nanos() as f64 / gets as f64
}

/// Runs one thread per key set at once, returning each one's ns per get.
fn herd(snap: &Snapshot, sets: &[&[Vec<u8>]], gets: usize) -> Vec<f64> {
    let barrier = Barrier::new(sets.len());
    std::thread::scope(|s| {
        let handles: Vec<_> = sets
            .iter()
            .map(|keys| {
                let barrier = &barrier;
                s.spawn(move || {
                    barrier.wait();
                    run(snap, keys, gets)
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    })
}

fn main() {
    let mut args = std::env::args().skip(1).map(|a| a.parse::<usize>());
    let gets = args.next().and_then(Result::ok).unwrap_or(5_000_000);
    let rounds = args.next().and_then(Result::ok).unwrap_or(3);

    let db = Db::open(DbOptions::new(IsolationLevel::WriteSnapshot));
    let keys: Vec<Vec<u8>> = (0..2 * KEYS)
        .map(|k| format!("key{k:02}").into_bytes())
        .collect();
    let mut t = db.begin();
    for key in &keys {
        t.put(key, &[key[4]; VALUE_LEN]);
    }
    t.commit().unwrap();
    let snap = db.snapshot();
    let (mine, theirs) = keys.split_at(KEYS);

    for round in 1..=rounds {
        let one = herd(&snap, &[mine], gets);
        let disjoint = herd(&snap, &[mine, theirs], gets);
        let shared = herd(&snap, &[mine, mine], gets);
        let show = |ns: &[f64]| {
            ns.iter()
                .map(|n| format!("{n:.1}"))
                .collect::<Vec<_>>()
                .join(" / ")
        };
        println!(
            "round {round}: one thread {} ns, disjoint keys {} ns, shared keys {} ns per get",
            show(&one),
            show(&disjoint),
            show(&shared)
        );
    }
}
