//! Write skew, live: why snapshot isolation corrupts invariants that
//! write-snapshot isolation preserves.
//!
//! The paper's §3.1 example: a constraint `x + y > 0` with `x = y = 1`.
//! Each transaction withdraws from *its* account only if the constraint
//! still holds afterwards. Under snapshot isolation two concurrent
//! withdrawals validate against the same snapshot and both commit, driving
//! the sum to 0 — *write skew* (History 2) — even though each transaction
//! alone checked the constraint. Under write-snapshot isolation one of them
//! aborts and the constraint survives — as it does under serializable
//! snapshot isolation, the §7.1 comparator, which refuses the pair as a
//! dangerous structure.
//!
//! This example runs the scenario with real threads against all three
//! isolation levels and reports whether the invariant survived.
//!
//! ```text
//! cargo run --example banking
//! ```

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Barrier};

use writesnap::core::IsolationLevel;
use writesnap::store::{Db, DbOptions};

const ACCOUNTS: [&[u8]; 2] = [b"account/x", b"account/y"];
const ROUNDS: usize = 200;

fn read_balance(t: &mut writesnap::store::Transaction, key: &[u8]) -> i64 {
    t.get(key)
        .map(|v| {
            String::from_utf8_lossy(&v)
                .parse()
                .expect("numeric balance")
        })
        .unwrap_or(0)
}

/// One thread repeatedly tries: "if x + y > 0 would still hold, withdraw 1
/// from my account". The barrier forces both threads to begin each round
/// concurrently, so their transactions genuinely overlap.
fn withdrawer(
    db: Db,
    my_account: &'static [u8],
    withdrawals: Arc<AtomicU64>,
    barrier: Arc<Barrier>,
) {
    for _ in 0..ROUNDS {
        barrier.wait(); // both threads take their snapshots together
        let mut t = db.begin();
        let total: i64 = ACCOUNTS.iter().map(|a| read_balance(&mut t, a)).sum();
        let withdraw = total - 1 > 0; // would x + y > 0 still hold?
        if withdraw {
            let mine = read_balance(&mut t, my_account);
            t.put(my_account, (mine - 1).to_string().as_bytes());
        }
        barrier.wait(); // both threads validated before either commits
        if withdraw {
            if t.commit().is_ok() {
                withdrawals.fetch_add(1, Ordering::Relaxed);
            }
            // On abort: a concurrent withdrawal invalidated our snapshot. A
            // real application would retry; here the loop simply continues.
        } else {
            t.rollback(); // no slack: the application refuses
        }
    }
}

fn run(level: IsolationLevel) -> (i64, u64) {
    let db = Db::open(DbOptions::new(level));
    let mut seed = db.begin();
    seed.put(ACCOUNTS[0], b"1");
    seed.put(ACCOUNTS[1], b"1");
    seed.commit().unwrap();

    let withdrawals = Arc::new(AtomicU64::new(0));
    let barrier = Arc::new(Barrier::new(ACCOUNTS.len()));
    let handles: Vec<_> = ACCOUNTS
        .iter()
        .map(|&account| {
            let db = db.clone();
            let w = Arc::clone(&withdrawals);
            let b = Arc::clone(&barrier);
            std::thread::spawn(move || withdrawer(db, account, w, b))
        })
        .collect();
    for h in handles {
        h.join().expect("withdrawer panicked");
    }

    let mut check = db.begin();
    let total: i64 = ACCOUNTS.iter().map(|a| read_balance(&mut check, a)).sum();
    (total, withdrawals.load(Ordering::Relaxed))
}

fn main() {
    println!("invariant: x + y > 0 must hold before every withdrawal (start: x = y = 1)\n");
    for level in [
        IsolationLevel::Snapshot,
        IsolationLevel::WriteSnapshot,
        IsolationLevel::SerializableSnapshot,
    ] {
        let (total, withdrawals) = run(level);
        let verdict = if total > 0 { "preserved" } else { "VIOLATED" };
        println!(
            "{level:<32} withdrawals: {withdrawals:>3}   final x+y = {total:>3}   invariant {verdict}"
        );
        match level {
            IsolationLevel::Snapshot => {
                // Write skew is a race: with 200 rounds of two racing
                // threads it is overwhelmingly likely, but not certain.
                if total <= 0 {
                    println!(
                        "  -> write skew: both withdrawals validated the same snapshot (History 2)"
                    );
                }
            }
            IsolationLevel::WriteSnapshot => {
                assert!(
                    total > 0,
                    "write-snapshot isolation is serializable; the invariant cannot break"
                );
                println!("  -> read-write conflict detection aborted one of each racing pair");
            }
            IsolationLevel::SerializableSnapshot => {
                assert!(
                    total > 0,
                    "serializable snapshot isolation is serializable; the invariant cannot break"
                );
                println!(
                    "  -> dangerous-structure detection aborted the pivot of each racing pair"
                );
            }
        }
    }
}
