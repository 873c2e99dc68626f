//! Prove the oracles have teeth: a deliberately planted visibility bug
//! must be caught, loudly.
//!
//! The planted bug serves every read from a throwaway snapshot of the
//! latest committed state instead of the transaction's own snapshot —
//! the classic "read committed instead of snapshot" regression. Under
//! concurrency a transaction then observes writers that committed *after*
//! its start (or misses its own uncommitted writes), which the shared
//! isolation check reports as a violation of its SnapshotRead clause.

use wsi_core::IsolationLevel;
use wsi_dst::{run, RunConfig, LEVELS};

fn contended(level: IsolationLevel) -> RunConfig {
    // Few keys + many clients: overlapping transactions on every key, so
    // some transaction is near-guaranteed to read an item another
    // transaction commits mid-flight.
    RunConfig::new(level, 0xB0605).steps(300).keys(2).clients(8)
}

#[test]
#[should_panic(expected = "SnapshotRead violated")]
fn planted_bug_is_caught_on_wsi() {
    run(&contended(IsolationLevel::WriteSnapshot).plant_visibility_bug());
}

#[test]
#[should_panic(expected = "SnapshotRead violated")]
fn planted_bug_is_caught_on_si() {
    run(&contended(IsolationLevel::Snapshot).plant_visibility_bug());
}

#[test]
#[should_panic(expected = "SnapshotRead violated")]
fn planted_bug_is_caught_on_ssi() {
    run(&contended(IsolationLevel::SerializableSnapshot).plant_visibility_bug());
}

/// Control: the identical configuration without the planted bug passes
/// every oracle — the panics above are the bug, not the workload.
#[test]
fn the_same_config_is_clean_without_the_bug() {
    for level in LEVELS {
        run(&contended(level));
    }
}
