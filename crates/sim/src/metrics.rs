//! Measurement: latency distributions and figure series.

use wsi_obs::ExactHistogram;

use crate::time::SimTime;

/// An exact latency distribution (samples kept in full).
///
/// Simulation runs produce at most a few hundred thousand transactions, so
/// exact storage (8 bytes/sample) is cheaper than the complexity of a
/// sketch, and percentiles are exact. Backed by [`wsi_obs::ExactHistogram`]
/// so the simulator and the live store share one percentile definition
/// (nearest rank).
#[derive(Debug, Clone, Default)]
pub struct LatencyStats {
    samples_us: ExactHistogram,
}

impl LatencyStats {
    /// Creates an empty collector.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one latency sample.
    pub fn record(&mut self, latency: SimTime) {
        self.samples_us.record(latency.as_us());
    }

    /// Mean latency in milliseconds (0 when empty).
    pub fn mean_ms(&self) -> f64 {
        self.samples_us.mean() / 1_000.0
    }

    /// Exact percentile (`0.0 ..= 1.0`) in milliseconds, by the
    /// nearest-rank method (0 when empty).
    pub fn percentile_ms(&mut self, p: f64) -> f64 {
        self.samples_us.percentile(p) as f64 / 1_000.0
    }

    /// 99th percentile in milliseconds.
    pub fn p99_ms(&mut self) -> f64 {
        self.percentile_ms(0.99)
    }
}

/// One measured point of a figure: a load level with its outcome metrics.
#[derive(Debug, Clone, PartialEq)]
pub struct Point {
    /// The swept parameter (e.g. number of clients).
    pub load: f64,
    /// Throughput in transactions per second.
    pub tps: f64,
    /// Mean latency in milliseconds.
    pub latency_ms: f64,
    /// Abort rate in `[0, 1]`.
    pub abort_rate: f64,
}

/// A labelled data series, one per curve in a figure.
#[derive(Debug, Clone, Default)]
pub struct Series {
    /// Curve label (e.g. "wsi" / "si").
    pub label: String,
    /// Measured points in sweep order.
    pub points: Vec<Point>,
}

impl Series {
    /// Creates an empty series.
    pub fn new(label: impl Into<String>) -> Self {
        Series {
            label: label.into(),
            points: Vec::new(),
        }
    }

    /// Appends a point.
    pub fn push(&mut self, point: Point) {
        self.points.push(point);
    }

    /// Renders as CSV rows `label,load,tps,latency_ms,abort_rate`.
    pub fn to_csv(&self) -> String {
        let mut out = String::new();
        for p in &self.points {
            out.push_str(&format!(
                "{},{},{:.3},{:.3},{:.4}\n",
                self.label, p.load, p.tps, p.latency_ms, p.abort_rate
            ));
        }
        out
    }

    /// Maximum throughput across the sweep (the saturation level).
    pub fn peak_tps(&self) -> f64 {
        self.points.iter().map(|p| p.tps).fold(0.0, f64::max)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn latency_percentiles_are_exact() {
        let mut l = LatencyStats::new();
        for v in [5, 1, 3, 2, 4] {
            l.record(SimTime::from_ms(v));
        }
        assert!((l.mean_ms() - 3.0).abs() < 1e-9);
        assert!((l.percentile_ms(0.5) - 3.0).abs() < 1e-9);
        assert!((l.percentile_ms(1.0) - 5.0).abs() < 1e-9);
        assert!((l.percentile_ms(0.0) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn empty_stats_are_zero() {
        let mut l = LatencyStats::new();
        assert_eq!(l.mean_ms(), 0.0);
        assert_eq!(l.p99_ms(), 0.0);
    }

    #[test]
    fn recording_after_percentile_resorts() {
        let mut l = LatencyStats::new();
        l.record(SimTime::from_ms(10));
        let _ = l.percentile_ms(0.5);
        l.record(SimTime::from_ms(1));
        assert!((l.percentile_ms(0.0) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn series_csv_and_peak() {
        let mut s = Series::new("wsi");
        s.push(Point {
            load: 5.0,
            tps: 100.0,
            latency_ms: 12.5,
            abort_rate: 0.01,
        });
        s.push(Point {
            load: 10.0,
            tps: 180.0,
            latency_ms: 20.0,
            abort_rate: 0.02,
        });
        let csv = s.to_csv();
        assert!(csv.contains("wsi,5,100.000,12.500,0.0100"));
        assert_eq!(csv.lines().count(), 2);
        assert!((s.peak_tps() - 180.0).abs() < 1e-9);
    }
}
