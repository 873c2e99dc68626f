//! Direct serialization graphs (DSG) and the serializability ground truth.
//!
//! Adya's generalized isolation theory (cited by the paper, §7.1) decides
//! serializability by building a dependency graph over committed
//! transactions and checking for cycles. This module implements that check
//! under **snapshot-read semantics**: every transaction reads, for each
//! item, the latest version committed before the transaction's start —
//! exactly how both SI and WSI execute reads (§2, §4.1).
//!
//! Edge kinds over committed transactions:
//!
//! * **WW** (`t_i` → `t_j`): both write item `x` and `t_i` commits first —
//!   `t_i`'s version precedes `t_j`'s in the version order.
//! * **WR** (`t_i` → `t_j`): `t_j` reads the version of `x` that `t_i`
//!   wrote.
//! * **RW** anti-dependency (`t_i` → `t_j`): `t_i` reads a version of `x`
//!   and `t_j` writes the *immediately following* version.
//!
//! A history is serializable (with the equivalent serial order being any
//! topological order of the graph) iff the DSG is acyclic.

use std::collections::{BTreeMap, BTreeSet};

use crate::ops::{History, TxnId};

/// Kinds of DSG edges.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum EdgeKind {
    /// Write-write dependency (version order).
    Ww,
    /// Write-read dependency (reads-from).
    Wr,
    /// Read-write anti-dependency.
    Rw,
}

/// A DSG edge `from → to`.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct Edge {
    /// Source transaction.
    pub from: TxnId,
    /// Target transaction.
    pub to: TxnId,
    /// Dependency kind.
    pub kind: EdgeKind,
    /// The item inducing the edge.
    pub item: String,
}

/// The direct serialization graph of a history's committed transactions.
#[derive(Debug, Clone, Default)]
pub struct Dsg {
    /// Committed transactions (graph nodes).
    pub nodes: Vec<TxnId>,
    /// Dependency edges (deduplicated).
    pub edges: Vec<Edge>,
}

/// For each committed transaction and item it reads, which committed
/// transaction's version it observes (`None` = the initial version).
pub type ReadsFrom = BTreeMap<(TxnId, String), Option<TxnId>>;

/// Computes the snapshot-semantics reads-from relation of a history.
///
/// A transaction's snapshot is fixed at its first operation: each read of
/// `x` observes the version committed by the latest writer of `x` whose
/// commit precedes the reader's start (or the initial version). A
/// transaction also observes its own earlier writes.
pub fn reads_from(history: &History) -> ReadsFrom {
    let committed: BTreeSet<TxnId> = history.committed().into_iter().collect();
    // Each committed writer's commit position and write set, computed once
    // rather than once per read.
    let writers: Vec<(TxnId, usize, Vec<String>)> = committed
        .iter()
        .filter_map(|&w| Some((w, history.commit_pos(w)?, history.write_set(w))))
        .collect();
    let mut out = ReadsFrom::new();
    for &txn in &committed {
        let start = history.start_pos(txn).expect("committed txn has ops");
        for item in history.read_set(txn) {
            // Own earlier write wins (read-your-writes) — but in the
            // Berenson notation reads before the first own write observe the
            // snapshot. Check whether the txn wrote the item before its
            // first read of it.
            let first_read = history
                .ops()
                .iter()
                .position(|op| matches!(op, crate::ops::Op::Read(t, i) if *t == txn && *i == item))
                .expect("item is in read set");
            let own_write_before = history.ops()[..first_read]
                .iter()
                .any(|op| matches!(op, crate::ops::Op::Write(t, i) if *t == txn && *i == item));
            if own_write_before {
                out.insert((txn, item), Some(txn));
                continue;
            }
            // Latest committed writer of `item` with commit before `start`.
            let writer = writers
                .iter()
                .filter(|(w, c, writes)| *w != txn && *c < start && writes.contains(&item))
                .max_by_key(|(_, c, _)| *c)
                .map(|(w, _, _)| *w);
            out.insert((txn, item), writer);
        }
    }
    out
}

/// Builds the DSG of `history` under snapshot-read semantics.
pub fn build(history: &History) -> Dsg {
    let committed: Vec<TxnId> = history.committed();
    let committed_set: BTreeSet<TxnId> = committed.iter().copied().collect();
    let rf = reads_from(history);
    let mut edges: BTreeSet<Edge> = BTreeSet::new();

    // Version order per item: committed writers ordered by commit position.
    let mut items: BTreeSet<String> = BTreeSet::new();
    for &t in &committed {
        items.extend(history.write_set(t));
        items.extend(history.read_set(t));
    }
    for item in &items {
        let mut writers: Vec<(usize, TxnId)> = committed
            .iter()
            .filter(|&&t| history.write_set(t).contains(item))
            .map(|&t| (history.commit_pos(t).expect("committed"), t))
            .collect();
        writers.sort_unstable();
        // WW edges along the version order.
        for pair in writers.windows(2) {
            edges.insert(Edge {
                from: pair[0].1,
                to: pair[1].1,
                kind: EdgeKind::Ww,
                item: item.clone(),
            });
        }
        // WR and RW edges from each reader of this item.
        for &reader in &committed {
            let Some(source) = rf.get(&(reader, item.clone())) else {
                continue; // reader does not read this item
            };
            if *source == Some(reader) {
                continue; // read own write: internal, no edge
            }
            if let Some(writer) = source {
                if committed_set.contains(writer) {
                    edges.insert(Edge {
                        from: *writer,
                        to: reader,
                        kind: EdgeKind::Wr,
                        item: item.clone(),
                    });
                }
            }
            // Anti-dependency: the writer of the *next* version after the one
            // read. Reading the initial version anti-depends on the first
            // writer.
            let next_writer = match source {
                None => writers.first().map(|&(_, w)| w),
                Some(w) => {
                    let pos = writers.iter().position(|&(_, t)| t == *w);
                    pos.and_then(|p| writers.get(p + 1)).map(|&(_, t)| t)
                }
            };
            if let Some(next) = next_writer {
                if next != reader {
                    edges.insert(Edge {
                        from: reader,
                        to: next,
                        kind: EdgeKind::Rw,
                        item: item.clone(),
                    });
                }
            }
        }
    }

    Dsg {
        nodes: committed,
        edges: edges.into_iter().collect(),
    }
}

/// Finds a dependency cycle, if any, returning the transactions on it.
pub fn find_cycle(dsg: &Dsg) -> Option<Vec<TxnId>> {
    #[derive(Clone, Copy, PartialEq)]
    enum Mark {
        White,
        Gray,
        Black,
    }
    let mut adj: BTreeMap<TxnId, Vec<TxnId>> = BTreeMap::new();
    for e in &dsg.edges {
        adj.entry(e.from).or_default().push(e.to);
    }
    let mut marks: BTreeMap<TxnId, Mark> = dsg.nodes.iter().map(|&n| (n, Mark::White)).collect();

    fn dfs(
        node: TxnId,
        adj: &BTreeMap<TxnId, Vec<TxnId>>,
        marks: &mut BTreeMap<TxnId, Mark>,
        stack: &mut Vec<TxnId>,
    ) -> Option<Vec<TxnId>> {
        marks.insert(node, Mark::Gray);
        stack.push(node);
        for &next in adj.get(&node).map(Vec::as_slice).unwrap_or(&[]) {
            match marks.get(&next).copied().unwrap_or(Mark::White) {
                Mark::Gray => {
                    let at = stack.iter().position(|&t| t == next).expect("on stack");
                    return Some(stack[at..].to_vec());
                }
                Mark::White => {
                    if let Some(cycle) = dfs(next, adj, marks, stack) {
                        return Some(cycle);
                    }
                }
                Mark::Black => {}
            }
        }
        stack.pop();
        marks.insert(node, Mark::Black);
        None
    }

    let nodes = dsg.nodes.clone();
    for node in nodes {
        if marks[&node] == Mark::White {
            let mut stack = Vec::new();
            if let Some(cycle) = dfs(node, &adj, &mut marks, &mut stack) {
                return Some(cycle);
            }
        }
    }
    None
}

/// Renders a human-readable explanation of why a history is not
/// serializable: the dependency cycle, edge by edge.
///
/// Returns `None` for serializable histories.
///
/// # Example
///
/// ```
/// use wsi_history::{dsg, examples};
///
/// let why = dsg::explain_cycle(&examples::h2()).expect("write skew");
/// assert!(why.contains("rw"));
/// ```
pub fn explain_cycle(history: &History) -> Option<String> {
    let graph = build(history);
    let cycle = find_cycle(&graph)?;
    let mut out = String::from("dependency cycle: ");
    for (i, &from) in cycle.iter().enumerate() {
        let to = cycle[(i + 1) % cycle.len()];
        let edge = graph
            .edges
            .iter()
            .find(|e| e.from == from && e.to == to)
            .expect("cycle edges exist in the graph");
        let kind = match edge.kind {
            EdgeKind::Ww => "ww",
            EdgeKind::Wr => "wr",
            EdgeKind::Rw => "rw",
        };
        out.push_str(&format!("{from} -{kind}[{}]-> ", edge.item));
    }
    out.push_str(&cycle[0].to_string());
    Some(out)
}

/// Returns `true` iff `history` is serializable (its DSG is acyclic).
///
/// # Example
///
/// ```
/// use wsi_history::{dsg, examples};
///
/// assert!(!dsg::is_serializable(&examples::h2())); // write skew
/// assert!(dsg::is_serializable(&examples::h6()));  // serializable, though WSI rejects it
/// ```
pub fn is_serializable(history: &History) -> bool {
    find_cycle(&build(history)).is_none()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::examples;

    #[test]
    fn h1_not_serializable() {
        assert!(!is_serializable(&examples::h1()));
    }

    #[test]
    fn h2_write_skew_cycle_found() {
        let dsg = build(&examples::h2());
        let cycle = find_cycle(&dsg).expect("write skew must cycle");
        assert!(cycle.len() >= 2);
    }

    #[test]
    fn h3_lost_update_not_serializable() {
        assert!(!is_serializable(&examples::h3()));
    }

    #[test]
    fn h4_and_h5_serializable() {
        assert!(is_serializable(&examples::h4()));
        assert!(is_serializable(&examples::h5()));
    }

    #[test]
    fn h6_and_h7_serializable() {
        assert!(is_serializable(&examples::h6()));
        assert!(is_serializable(&examples::h7()));
    }

    #[test]
    fn reads_from_initial_version() {
        let h = examples::h1();
        let rf = reads_from(&h);
        // Both transactions start before any commit: they read initial
        // versions.
        assert_eq!(rf[&(TxnId(1), "x".to_string())], None);
        assert_eq!(rf[&(TxnId(2), "y".to_string())], None);
    }

    #[test]
    fn reads_from_committed_writer() {
        let h: History = "w1[x] c1 r2[x] c2".parse().unwrap();
        let rf = reads_from(&h);
        assert_eq!(rf[&(TxnId(2), "x".to_string())], Some(TxnId(1)));
        let dsg = build(&h);
        assert!(dsg
            .edges
            .iter()
            .any(|e| e.kind == EdgeKind::Wr && e.from == TxnId(1) && e.to == TxnId(2)));
        assert!(is_serializable(&h));
    }

    #[test]
    fn read_own_write_produces_no_edge() {
        let h: History = "w1[x] r1[x] c1".parse().unwrap();
        let dsg = build(&h);
        assert!(dsg.edges.is_empty());
    }

    #[test]
    fn snapshot_read_ignores_concurrent_commit() {
        // t2 starts before t1 commits: its read of x sees the initial
        // version even though the read op comes after c1.
        let h: History = "r2[y] w1[x] c1 r2[x] c2".parse().unwrap();
        let rf = reads_from(&h);
        assert_eq!(rf[&(TxnId(2), "x".to_string())], None);
        // That stale read anti-depends on t1.
        let dsg = build(&h);
        assert!(dsg
            .edges
            .iter()
            .any(|e| e.kind == EdgeKind::Rw && e.from == TxnId(2) && e.to == TxnId(1)));
    }

    #[test]
    fn ww_edges_follow_commit_order() {
        let h: History = "w2[x] w1[x] c2 c1".parse().unwrap();
        let dsg = build(&h);
        assert_eq!(
            dsg.edges,
            vec![Edge {
                from: TxnId(2),
                to: TxnId(1),
                kind: EdgeKind::Ww,
                item: "x".to_string(),
            }]
        );
    }

    #[test]
    fn uncommitted_txns_are_excluded() {
        let h: History = "w1[x] r2[x] w2[y] c2".parse().unwrap();
        let dsg = build(&h);
        assert_eq!(dsg.nodes, vec![TxnId(2)]);
        assert!(dsg.edges.is_empty());
        assert!(is_serializable(&h));
    }

    #[test]
    fn explain_names_the_cycle_edges() {
        let why = explain_cycle(&examples::h2()).expect("write skew cycles");
        assert!(why.contains("txn1"), "{why}");
        assert!(why.contains("txn2"), "{why}");
        assert!(why.contains("-rw["), "{why}");
        assert!(explain_cycle(&examples::h6()).is_none());
    }

    #[test]
    fn three_txn_cycle_detected() {
        // t1 reads x (initial) → rw → t2 writes x; t2 reads y (initial) →
        // rw → t3 writes y; t3 reads z (initial) → rw → t1 writes z.
        let h: History = "r1[x] r2[y] r3[z] w2[x] w3[y] w1[z] c1 c2 c3"
            .parse()
            .unwrap();
        assert!(!is_serializable(&h));
        let cycle = find_cycle(&build(&h)).unwrap();
        assert_eq!(cycle.len(), 3);
    }
}
