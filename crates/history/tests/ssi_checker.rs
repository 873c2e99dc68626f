//! Property tests pinning SSI's decisions to the DSG ground truth.
//!
//! The contract SSI sells (Cahill et al., reproduced in `wsi-core::ssi`) is
//! that every *committed* history is serializable. The `wsi-history` DSG
//! checker is the independent referee: random interleaved histories are
//! pushed through the oracle, refused commits are rewritten to aborts, and
//! the surviving execution must be acyclic. The same harness shows where the
//! three levels part ways: SI admits write skew, WSI and SSI never do, and
//! WSI pays for it with false aborts (History 6) that SSI avoids.

use proptest::prelude::*;
use wsi_core::IsolationLevel::{self, SerializableSnapshot};
use wsi_history::gen::{filter_accepted, generate, GenConfig};
use wsi_history::{accept, anomaly, dsg, examples};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// SSI's guarantee: whatever the interleaving, the history it actually
    /// executes (refused commits → aborts) has an acyclic DSG.
    #[test]
    fn ssi_executions_are_serializable(seed in any::<u64>()) {
        let raw = generate(GenConfig::default(), seed);
        let executed = filter_accepted(&raw, SerializableSnapshot);
        prop_assert!(
            dsg::is_serializable(&executed),
            "seed {}: SSI committed a non-serializable history: {}\ncycle: {:?}",
            seed,
            executed,
            dsg::explain_cycle(&executed),
        );
    }

    /// Denser contention (2 items, 8-deep live window) to force dangerous
    /// structures rather than grazing them.
    #[test]
    fn ssi_executions_are_serializable_under_contention(seed in any::<u64>()) {
        let cfg = GenConfig { txns: 12, items: 2, max_live: 8, continue_per_mille: 700 };
        let executed = filter_accepted(&generate(cfg, seed), SerializableSnapshot);
        prop_assert!(dsg::is_serializable(&executed), "seed {seed}: {executed}");
    }

    /// SSI never lets a committed write-skew pair through (the anomaly SI
    /// is defined by admitting).
    #[test]
    fn ssi_executions_never_exhibit_write_skew(seed in any::<u64>()) {
        let executed = filter_accepted(&generate(GenConfig::default(), seed), SerializableSnapshot);
        prop_assert!(!anomaly::has_write_skew(&executed), "seed {seed}: {executed}");
    }

    /// Whenever WSI and SSI both admit a full history, both executions are
    /// serializable — they disagree only on *which* serializable histories
    /// to refuse (H4 vs H6), never by admitting an anomaly.
    #[test]
    fn wsi_and_ssi_admissions_are_both_sound(seed in any::<u64>()) {
        let raw = generate(GenConfig::default(), seed);
        let wsi = filter_accepted(&raw, IsolationLevel::WriteSnapshot);
        let ssi = filter_accepted(&raw, SerializableSnapshot);
        prop_assert!(dsg::is_serializable(&wsi), "seed {seed} (wsi): {wsi}");
        prop_assert!(dsg::is_serializable(&ssi), "seed {seed} (ssi): {ssi}");
    }
}

/// The paper's §7.1 separation, end to end through the real oracles:
/// History 6 is serializable, WSI refuses it, SSI admits it.
#[test]
fn history6_separates_wsi_from_ssi() {
    let h6 = examples::h6();
    assert!(dsg::is_serializable(&h6));
    assert!(!accept::accepts(&h6, IsolationLevel::WriteSnapshot));
    assert!(accept::accepts(&h6, SerializableSnapshot));
}

/// And the dual: History 4 (blind write racing a reader-writer) is admitted
/// by WSI but refused by SSI's retained first-committer-wins rule.
#[test]
fn history4_separates_ssi_from_wsi() {
    let h4 = examples::h4();
    assert!(accept::accepts(&h4, IsolationLevel::WriteSnapshot));
    assert!(!accept::accepts(&h4, SerializableSnapshot));
}

/// Write skew (History 2): SI admits, both conflict-avoiding levels refuse.
#[test]
fn write_skew_refused_by_both_wsi_and_ssi() {
    let h2 = examples::h2();
    assert!(accept::accepts(&h2, IsolationLevel::Snapshot));
    assert!(!accept::accepts(&h2, IsolationLevel::WriteSnapshot));
    assert!(!accept::accepts(&h2, SerializableSnapshot));
}

/// Quantifies the comparison on a fixed corpus: SI must admit at least one
/// non-serializable execution the others refuse, and SSI must admit at
/// least one history WSI refuses (the H6 pattern arising organically).
#[test]
fn corpus_exhibits_the_three_way_separation() {
    let mut si_anomalies = 0u32;
    let mut ssi_only_admissions = 0u32;
    for seed in 0..400u64 {
        let raw = generate(GenConfig::default(), seed);
        let si = filter_accepted(&raw, IsolationLevel::Snapshot);
        if !dsg::is_serializable(&si) {
            si_anomalies += 1;
        }
        if accept::accepts(&raw, SerializableSnapshot)
            && !accept::accepts(&raw, IsolationLevel::WriteSnapshot)
        {
            ssi_only_admissions += 1;
        }
    }
    assert!(si_anomalies > 0, "SI should leak anomalies on 400 seeds");
    assert!(
        ssi_only_admissions > 0,
        "SSI should admit some WSI-refused histories on 400 seeds"
    );
}
