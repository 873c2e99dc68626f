//! Exposition: the Prometheus text format, plus a parser for it (used for
//! round-trip testing and by tooling that wants to diff two scrapes).

use std::collections::BTreeMap;

use crate::hist::{bucket_bounds, HistogramSnapshot};
use crate::BUCKETS;

/// A point-in-time view of every metric in a [`crate::Registry`].
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Snapshot {
    /// Counter values by name.
    pub counters: BTreeMap<String, u64>,
    /// Gauge values by name.
    pub gauges: BTreeMap<String, u64>,
    /// Histogram aggregates by name.
    pub histograms: BTreeMap<String, HistogramSnapshot>,
}

/// Failure to parse a Prometheus text rendering.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// What went wrong, with the offending line.
    pub message: String,
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "prometheus parse error: {}", self.message)
    }
}

impl std::error::Error for ParseError {}

fn err(message: impl Into<String>) -> ParseError {
    ParseError {
        message: message.into(),
    }
}

impl Snapshot {
    /// Interpolated quantile of the named histogram — the p50/p99/p999
    /// lookup without per-call-site bucket math. `None` when no histogram
    /// of that name is in the snapshot; 0.0 when it is present but empty
    /// (matching [`HistogramSnapshot::quantile`]).
    pub fn quantile(&self, histogram: &str, q: f64) -> Option<f64> {
        self.histograms.get(histogram).map(|h| h.quantile(q))
    }

    /// Renders in the Prometheus text exposition format.
    ///
    /// Histograms render with cumulative `_bucket{le="…"}` series (inclusive
    /// upper bounds, matching the log₂ bucket layout), `_sum`, `_count`, and
    /// non-standard but scrape-compatible `_min`/`_max` series. The output
    /// parses back losslessly via [`Snapshot::parse_prometheus`].
    pub fn render_prometheus(&self) -> String {
        let mut out = String::new();
        for (name, value) in &self.counters {
            out.push_str(&format!("# TYPE {name} counter\n{name} {value}\n"));
        }
        for (name, value) in &self.gauges {
            out.push_str(&format!("# TYPE {name} gauge\n{name} {value}\n"));
        }
        for (name, h) in &self.histograms {
            out.push_str(&format!("# TYPE {name} histogram\n"));
            let highest = h
                .buckets
                .iter()
                .rposition(|&n| n > 0)
                .map(|i| i.min(BUCKETS - 2))
                .unwrap_or(0);
            let mut cumulative = 0u64;
            for i in 0..=highest {
                cumulative += h.buckets[i];
                let le = match bucket_bounds(i).1 {
                    Some(upper) => upper.to_string(),
                    None => unreachable!("capped at BUCKETS - 2"),
                };
                out.push_str(&format!("{name}_bucket{{le=\"{le}\"}} {cumulative}\n"));
            }
            out.push_str(&format!("{name}_bucket{{le=\"+Inf\"}} {}\n", h.count));
            out.push_str(&format!("{name}_sum {}\n", h.sum));
            out.push_str(&format!("{name}_count {}\n", h.count));
            out.push_str(&format!("{name}_min {}\n", h.min_for_display()));
            out.push_str(&format!("{name}_max {}\n", h.max));
        }
        out
    }

    /// Parses a [`Snapshot::render_prometheus`] rendering back into a
    /// snapshot.
    ///
    /// # Errors
    ///
    /// Returns [`ParseError`] on malformed lines, values, or bucket bounds
    /// that do not match the log₂ layout.
    pub fn parse_prometheus(text: &str) -> Result<Snapshot, ParseError> {
        let mut snap = Snapshot::default();
        let mut kinds: BTreeMap<String, String> = BTreeMap::new();
        for line in text.lines() {
            let line = line.trim();
            if line.is_empty() {
                continue;
            }
            if let Some(rest) = line.strip_prefix("# TYPE ") {
                let mut parts = rest.split_whitespace();
                let (name, kind) = (
                    parts
                        .next()
                        .ok_or_else(|| err(format!("bad TYPE: {line}")))?,
                    parts
                        .next()
                        .ok_or_else(|| err(format!("bad TYPE: {line}")))?,
                );
                kinds.insert(name.to_string(), kind.to_string());
                if kind == "histogram" {
                    snap.histograms
                        .insert(name.to_string(), HistogramSnapshot::empty());
                }
                continue;
            }
            if line.starts_with('#') {
                continue;
            }
            let (series, value) = line
                .rsplit_once(' ')
                .ok_or_else(|| err(format!("no value: {line}")))?;
            let value: u64 = value
                .parse()
                .map_err(|_| err(format!("bad value: {line}")))?;
            let (name, label) = match series.split_once('{') {
                Some((n, l)) => (n, Some(l.trim_end_matches('}'))),
                None => (series, None),
            };
            match kinds.get(name).map(String::as_str) {
                Some("counter") => {
                    snap.counters.insert(name.to_string(), value);
                }
                Some("gauge") => {
                    snap.gauges.insert(name.to_string(), value);
                }
                _ => {
                    // A histogram component series: <base>_bucket/_sum/….
                    let (base, part) = series_base(name, &kinds)
                        .ok_or_else(|| err(format!("unknown metric: {line}")))?;
                    let h = snap
                        .histograms
                        .get_mut(&base)
                        .expect("series_base only returns declared histograms");
                    match part {
                        "bucket" => {
                            let le = label
                                .and_then(|l| l.strip_prefix("le=\""))
                                .and_then(|l| l.strip_suffix('"'))
                                .ok_or_else(|| err(format!("bucket without le: {line}")))?;
                            if le == "+Inf" {
                                // Cumulative total; per-bucket counts are
                                // recovered in the finish pass below.
                                continue;
                            }
                            let upper: u64 = le
                                .parse()
                                .map_err(|_| err(format!("bad le bound: {line}")))?;
                            let idx = bucket_for_upper(upper)
                                .ok_or_else(|| err(format!("le not a bucket bound: {line}")))?;
                            // Store cumulative for now; de-cumulated below.
                            h.buckets[idx] = value;
                        }
                        "sum" => h.sum = value,
                        "count" => h.count = value,
                        "min" => h.min = value,
                        "max" => h.max = value,
                        _ => return Err(err(format!("unknown series: {line}"))),
                    }
                }
            }
        }
        // De-cumulate bucket series and push the remainder into the
        // unbounded bucket.
        for h in snap.histograms.values_mut() {
            let mut prev = 0u64;
            let mut assigned = 0u64;
            for b in h.buckets.iter_mut().take(BUCKETS - 1) {
                let cumulative = (*b).max(prev);
                *b = cumulative - prev;
                assigned += *b;
                prev = cumulative;
            }
            h.buckets[BUCKETS - 1] = h.count.saturating_sub(assigned);
        }
        Ok(snap)
    }
}

/// Splits a histogram component series name `<base>_<part>` where `<base>`
/// is a declared histogram and `<part>` one of its suffixes.
fn series_base(name: &str, kinds: &BTreeMap<String, String>) -> Option<(String, &'static str)> {
    for part in ["bucket", "sum", "count", "min", "max"] {
        if let Some(base) = name.strip_suffix(&format!("_{part}")) {
            if kinds.get(base).map(String::as_str) == Some("histogram") {
                return Some((base.to_string(), part));
            }
        }
    }
    None
}

/// Inverse of the bucket upper bounds: `0 → 0`, `2^i - 1 → i`.
fn bucket_for_upper(upper: u64) -> Option<usize> {
    if upper == 0 {
        return Some(0);
    }
    let candidate = bucket_bounds(crate::hist::bucket_index(upper)).1?;
    if candidate == upper {
        Some(crate::hist::bucket_index(upper))
    } else {
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Histogram, Registry};

    fn sample_snapshot() -> Snapshot {
        let r = Registry::new();
        r.counter("commits_total").add(10);
        r.counter("aborts_total").add(3);
        r.gauge("active_txns").set(4);
        let h = r.histogram("commit_us");
        for v in [0u64, 1, 2, 3, 900, 1500, 1 << 40] {
            h.record(v);
        }
        r.snapshot()
    }

    #[test]
    fn prometheus_roundtrip_is_lossless() {
        let snap = sample_snapshot();
        let text = snap.render_prometheus();
        let parsed = Snapshot::parse_prometheus(&text).unwrap();
        assert_eq!(parsed, snap);
    }

    #[test]
    fn empty_histogram_roundtrips() {
        let r = Registry::new();
        let _ = r.histogram("quiet_us");
        let snap = r.snapshot();
        let parsed = Snapshot::parse_prometheus(&snap.render_prometheus()).unwrap();
        assert_eq!(parsed, snap);
    }

    #[test]
    fn unbounded_bucket_roundtrips() {
        let h = Histogram::new();
        h.record(u64::MAX);
        h.record(5);
        let mut snap = Snapshot::default();
        snap.histograms.insert("tail_us".into(), h.snapshot());
        let parsed = Snapshot::parse_prometheus(&snap.render_prometheus()).unwrap();
        assert_eq!(parsed, snap);
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(Snapshot::parse_prometheus("nonsense without declaration 5").is_err());
        assert!(Snapshot::parse_prometheus("# TYPE x counter\nx notanumber").is_err());
    }
}
