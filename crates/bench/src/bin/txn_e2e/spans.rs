//! Driver-side spans of a traced run.
//!
//! The benchmark timestamps its own calls into the store: `Db::run` entry
//! and exit and, inside the closure, closure entry, every `get`, every
//! `put`, closure exit. Per transaction that gives
//!
//! ```text
//! txn ─┬─ begin       run entry → first closure entry
//!      ├─ closure ─┬─ get …   one per read
//!      │           └─ put …   one per write
//!      ├─ retry_gap   a failed attempt's closure exit → next closure entry
//!      │              (the failed commit, the backoff sleep, the next begin)
//!      ├─ closure …   one per attempt
//!      └─ commit      last closure exit → run exit
//! ```
//!
//! Every span is summed into per-thread totals (the layer budget); the
//! spans themselves are kept for the first [`KEEP_FIRST`] transactions of
//! a thread and its [`KEEP_SLOWEST`] slowest, in buffers allocated before
//! the phase starts, and written as Chrome `trace_event` JSON at exit.

use std::fmt::Write as _;

pub const KEEP_FIRST: usize = 2_000;
pub const KEEP_SLOWEST: usize = 100;
/// Spans kept per transaction; one with more (four or more attempts of a
/// 20-row transaction) is truncated in the trace file, never in the totals.
const MAX_SPANS_PER_TXN: usize = 96;
/// `parent` of a transaction's root span.
const NO_PARENT: u16 = u16::MAX;

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Kind {
    Txn,
    Begin,
    Closure,
    Get,
    Put,
    RetryGap,
    Commit,
    Gc,
}

impl Kind {
    fn name(self) -> &'static str {
        match self {
            Kind::Txn => "txn",
            Kind::Begin => "begin",
            Kind::Closure => "closure",
            Kind::Get => "get",
            Kind::Put => "put",
            Kind::RetryGap => "retry_gap",
            Kind::Commit => "commit",
            Kind::Gc => "gc",
        }
    }
}

/// One span: nanoseconds since the run's epoch, and the index (within the
/// same transaction) of the span that caused it.
#[derive(Clone, Copy, Debug)]
pub struct Span {
    pub kind: Kind,
    pub parent: u16,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// Nanosecond totals per span kind for one thread, plus op counts.
#[derive(Clone, Copy, Default, Debug)]
pub struct SpanTotals {
    pub txns: u64,
    pub txn_ns: u64,
    pub begin_ns: u64,
    pub closure_ns: u64,
    pub get_ns: u64,
    pub gets: u64,
    pub put_ns: u64,
    pub puts: u64,
    pub retry_gap_ns: u64,
    pub commit_ns: u64,
}

impl SpanTotals {
    pub fn add(&mut self, other: &SpanTotals) {
        self.txns += other.txns;
        self.txn_ns += other.txn_ns;
        self.begin_ns += other.begin_ns;
        self.closure_ns += other.closure_ns;
        self.get_ns += other.get_ns;
        self.gets += other.gets;
        self.put_ns += other.put_ns;
        self.puts += other.puts;
        self.retry_gap_ns += other.retry_gap_ns;
        self.commit_ns += other.commit_ns;
    }

    /// Closure time outside `get` and `put`: key and value formatting,
    /// timer reads, span bookkeeping — the driver's own work.
    pub fn driver_self_ns(&self) -> u64 {
        self.closure_ns.saturating_sub(self.get_ns + self.put_ns)
    }
}

struct KeptTxn {
    txn: u32,
    duration_ns: u64,
    spans: Vec<Span>,
}

/// One thread's span recorder.
pub struct SpanRecorder {
    thread: usize,
    /// Spans of the transaction in flight.
    current: Vec<Span>,
    pub totals: SpanTotals,
    first: Vec<KeptTxn>,
    slowest: Vec<KeptTxn>,
    /// Smallest duration in `slowest` once it is full.
    slowest_floor_ns: u64,
    seen: usize,
}

impl SpanRecorder {
    pub fn new(thread: usize) -> Self {
        let kept = |_| KeptTxn {
            txn: 0,
            duration_ns: 0,
            spans: Vec::with_capacity(MAX_SPANS_PER_TXN),
        };
        SpanRecorder {
            thread,
            current: Vec::with_capacity(MAX_SPANS_PER_TXN),
            totals: SpanTotals::default(),
            first: (0..KEEP_FIRST).map(kept).collect(),
            slowest: (0..KEEP_SLOWEST).map(kept).collect(),
            slowest_floor_ns: 0,
            seen: 0,
        }
    }

    /// Opens the transaction's root span; returns its index.
    #[inline]
    pub fn open_txn(&mut self, start_ns: u64) -> u16 {
        self.current.clear();
        self.push(Kind::Txn, NO_PARENT, start_ns, start_ns)
    }

    /// Records one span of the transaction in flight; returns its index.
    #[inline]
    pub fn push(&mut self, kind: Kind, parent: u16, start_ns: u64, end_ns: u64) -> u16 {
        let duration = end_ns - start_ns;
        match kind {
            Kind::Begin => self.totals.begin_ns += duration,
            Kind::Get => {
                self.totals.get_ns += duration;
                self.totals.gets += 1;
            }
            Kind::Put => {
                self.totals.put_ns += duration;
                self.totals.puts += 1;
            }
            Kind::RetryGap => self.totals.retry_gap_ns += duration,
            Kind::Commit => self.totals.commit_ns += duration,
            // Open-ended when pushed; totalled by `close_closure` and
            // `finish_txn`.
            Kind::Txn | Kind::Closure | Kind::Gc => {}
        }
        let index = self.current.len();
        if index < MAX_SPANS_PER_TXN {
            self.current.push(Span {
                kind,
                parent,
                start_ns,
                end_ns,
            });
        }
        index as u16
    }

    /// Ends a closure span pushed open-ended at `start_ns`. The total takes
    /// the caller's timestamps, so it is right even when the span itself
    /// was beyond [`MAX_SPANS_PER_TXN`] and not kept.
    #[inline]
    pub fn close_closure(&mut self, index: u16, start_ns: u64, end_ns: u64) {
        self.totals.closure_ns += end_ns - start_ns;
        if let Some(span) = self.current.get_mut(index as usize) {
            span.end_ns = end_ns;
        }
    }

    /// Closes the root span at `end_ns` and files the transaction.
    #[inline]
    pub fn finish_txn(&mut self, txn: u32, end_ns: u64) {
        self.current[0].end_ns = end_ns;
        let duration_ns = end_ns - self.current[0].start_ns;
        self.totals.txn_ns += duration_ns;
        self.totals.txns += 1;
        let slot = if self.seen < KEEP_FIRST {
            Some(&mut self.first[self.seen])
        } else if self.seen < KEEP_FIRST + KEEP_SLOWEST {
            Some(&mut self.slowest[self.seen - KEEP_FIRST])
        } else if duration_ns > self.slowest_floor_ns {
            self.slowest.iter_mut().min_by_key(|k| k.duration_ns)
        } else {
            None
        };
        if let Some(slot) = slot {
            slot.txn = txn;
            slot.duration_ns = duration_ns;
            slot.spans.clear();
            slot.spans.extend_from_slice(&self.current);
            if self.seen >= KEEP_FIRST + KEEP_SLOWEST - 1 {
                self.slowest_floor_ns = self
                    .slowest
                    .iter()
                    .map(|k| k.duration_ns)
                    .min()
                    .unwrap_or(0);
            }
        }
        self.seen += 1;
    }

    fn kept(&self) -> impl Iterator<Item = &KeptTxn> {
        self.first
            .iter()
            .chain(&self.slowest)
            .filter(|k| !k.spans.is_empty())
    }
}

/// Renders the kept spans of every thread, plus the per-round GC spans, as
/// Chrome `trace_event` JSON (complete events, microsecond timestamps).
pub fn chrome_trace(recorders: &[&SpanRecorder], gc_spans: &[Span]) -> String {
    let mut out = String::from("{\"traceEvents\":[\n");
    let mut first = true;
    let mut event = |out: &mut String, span: &Span, tid: usize, txn: i64, parent: &str| {
        if !std::mem::take(&mut first) {
            out.push_str(",\n");
        }
        let _ = write!(
            out,
            "{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":{},\"ts\":{:.3},\"dur\":{:.3},\
             \"args\":{{\"txn\":{},\"parent\":\"{}\"}}}}",
            span.kind.name(),
            tid,
            span.start_ns as f64 / 1e3,
            (span.end_ns - span.start_ns) as f64 / 1e3,
            txn,
            parent
        );
    };
    for recorder in recorders {
        for kept in recorder.kept() {
            for span in &kept.spans {
                let parent = kept
                    .spans
                    .get(span.parent as usize)
                    .map_or("", |p| p.kind.name());
                event(&mut out, span, recorder.thread, kept.txn as i64, parent);
            }
        }
    }
    for span in gc_spans {
        event(&mut out, span, 0, -1, "");
    }
    out.push_str("\n]}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn one_txn(rec: &mut SpanRecorder, txn: u32, start: u64, duration: u64) {
        let root = rec.open_txn(start);
        rec.push(Kind::Begin, root, start, start + 1);
        let closure = rec.push(Kind::Closure, root, start + 1, start + 1);
        rec.push(Kind::Get, closure, start + 2, start + 4);
        rec.push(Kind::Put, closure, start + 4, start + 5);
        rec.close_closure(closure, start + 1, start + 6);
        rec.push(Kind::Commit, root, start + 6, start + duration);
        rec.finish_txn(txn, start + duration);
    }

    #[test]
    fn totals_add_up_to_the_transaction() {
        let mut rec = SpanRecorder::new(0);
        one_txn(&mut rec, 0, 100, 20);
        let t = rec.totals;
        assert_eq!(t.txns, 1);
        assert_eq!(t.txn_ns, 20);
        assert_eq!(
            t.begin_ns + t.closure_ns + t.retry_gap_ns + t.commit_ns,
            t.txn_ns
        );
        assert_eq!(t.driver_self_ns(), 5 - 2 - 1);
        assert_eq!((t.gets, t.puts), (1, 1));
    }

    #[test]
    fn spans_beyond_the_kept_ones_still_count_in_the_totals() {
        let mut rec = SpanRecorder::new(0);
        let root = rec.open_txn(0);
        let mut now = 0;
        // Six attempts of 20 reads: 132 spans, more than are kept.
        for attempt in 0..6 {
            let kind = if attempt == 0 {
                Kind::Begin
            } else {
                Kind::RetryGap
            };
            rec.push(kind, root, now, now + 1);
            let entry = now + 1;
            let closure = rec.push(Kind::Closure, root, entry, entry);
            for get in 0..20 {
                rec.push(Kind::Get, closure, entry + get, entry + get + 1);
            }
            now = entry + 25;
            rec.close_closure(closure, entry, now);
        }
        rec.push(Kind::Commit, root, now, now + 4);
        rec.finish_txn(0, now + 4);
        let t = rec.totals;
        assert_eq!(t.closure_ns, 6 * 25);
        assert_eq!(t.get_ns, 6 * 20);
        assert_eq!(t.driver_self_ns(), 6 * 5);
        assert_eq!(
            t.begin_ns + t.closure_ns + t.retry_gap_ns + t.commit_ns,
            t.txn_ns
        );
        assert_eq!(rec.kept().next().unwrap().spans.len(), MAX_SPANS_PER_TXN);
    }

    #[test]
    fn keeps_the_first_and_the_slowest() {
        let mut rec = SpanRecorder::new(1);
        let total = KEEP_FIRST + KEEP_SLOWEST + 500;
        for i in 0..total {
            // One very slow transaction late in the run.
            let duration = if i == total - 7 {
                1_000_000
            } else {
                10 + (i % 50) as u64
            };
            one_txn(&mut rec, i as u32, i as u64 * 2_000_000, duration);
        }
        assert_eq!(rec.kept().count(), KEEP_FIRST + KEEP_SLOWEST);
        assert!(rec.kept().any(|k| k.txn == (total - 7) as u32));
        let json = chrome_trace(&[&rec], &[]);
        assert!(json.starts_with("{\"traceEvents\":["));
        assert!(json.contains("\"name\":\"retry_gap\"") || json.contains("\"name\":\"commit\""));
        assert!(json.contains("\"parent\":\"closure\""));
        assert_eq!(
            json.matches("\"ph\":\"X\"").count(),
            (KEEP_FIRST + KEEP_SLOWEST) * 6
        );
    }
}
