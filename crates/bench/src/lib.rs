//! Shared reporting helpers for the figure harness.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]
#![forbid(unsafe_code)]

use wsi_sim::metrics::Series;

/// A paper-reported reference value attached to a measured one.
#[derive(Debug, Clone, Copy)]
pub struct PaperRef {
    /// What is being compared (e.g. "WSI peak TPS").
    pub what: &'static str,
    /// The paper's number.
    pub paper: f64,
    /// Our measured number.
    pub measured: f64,
}

impl PaperRef {
    /// Ratio `measured / paper` (∞-safe).
    pub fn ratio(&self) -> f64 {
        if self.paper == 0.0 {
            f64::NAN
        } else {
            self.measured / self.paper
        }
    }
}

/// Renders a figure's series as an aligned text table.
pub fn render_series(title: &str, series: &[Series]) -> String {
    let mut out = String::new();
    out.push_str(&format!("## {title}\n"));
    out.push_str(&format!(
        "{:<6} {:>8} {:>12} {:>14} {:>12}\n",
        "curve", "load", "tps", "latency_ms", "abort_rate"
    ));
    for s in series {
        for p in &s.points {
            out.push_str(&format!(
                "{:<6} {:>8} {:>12.1} {:>14.2} {:>12.4}\n",
                s.label, p.load, p.tps, p.latency_ms, p.abort_rate
            ));
        }
    }
    out
}

/// Renders paper-vs-measured reference lines.
pub fn render_refs(refs: &[PaperRef]) -> String {
    let mut out = String::new();
    for r in refs {
        out.push_str(&format!(
            "  {:<40} paper {:>10.2}  measured {:>10.2}  ratio {:>5.2}\n",
            r.what,
            r.paper,
            r.measured,
            r.ratio()
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use wsi_sim::metrics::Point;

    #[test]
    fn render_contains_points() {
        let mut s = Series::new("wsi");
        s.push(Point {
            load: 5.0,
            tps: 123.0,
            latency_ms: 42.0,
            abort_rate: 0.1,
        });
        let text = render_series("Figure X", &[s]);
        assert!(text.contains("Figure X"));
        assert!(text.contains("wsi"));
        assert!(text.contains("123.0"));
    }

    #[test]
    fn ratio_handles_zero_paper_value() {
        let r = PaperRef {
            what: "x",
            paper: 0.0,
            measured: 1.0,
        };
        assert!(r.ratio().is_nan());
        let ok = PaperRef {
            what: "y",
            paper: 2.0,
            measured: 1.0,
        };
        assert!((ok.ratio() - 0.5).abs() < 1e-12);
    }
}
