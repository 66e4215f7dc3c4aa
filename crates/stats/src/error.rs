//! Prediction-error bookkeeping for the evaluation tables.
//!
//! Table I reports best/worst/mean **absolute** prediction error of the
//! model per (scenario, SLA); Table II compares mean absolute errors across
//! models. An "error" is the difference between the predicted and observed
//! percentile of requests meeting the SLA, in percentage points.

/// A single (observed, predicted) percentile pair.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PredictionPoint {
    /// Observed fraction of requests meeting the SLA, in `[0, 1]`.
    pub observed: f64,
    /// Model-predicted fraction, in `[0, 1]`.
    pub predicted: f64,
}

impl PredictionPoint {
    /// Signed error `predicted − observed`.
    pub fn signed_error(&self) -> f64 {
        self.predicted - self.observed
    }

    /// Absolute error `|predicted − observed|`.
    pub fn abs_error(&self) -> f64 {
        self.signed_error().abs()
    }
}

/// Best/worst/mean absolute error over a series of prediction points
/// (one row of Table I).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ErrorSummary {
    /// Smallest absolute error.
    pub best: f64,
    /// Largest absolute error.
    pub worst: f64,
    /// Mean absolute error.
    pub mean: f64,
    /// Mean signed error (positive = systematic overestimation).
    pub bias: f64,
    /// Number of points.
    pub count: usize,
}

impl ErrorSummary {
    /// Summarizes a series of prediction points.
    ///
    /// # Panics
    /// Panics on an empty series.
    pub fn from_points(points: &[PredictionPoint]) -> Self {
        assert!(!points.is_empty(), "cannot summarize an empty series");
        let mut best = f64::INFINITY;
        let mut worst = 0.0f64;
        let mut sum_abs = 0.0;
        let mut sum_signed = 0.0;
        for p in points {
            let e = p.abs_error();
            best = best.min(e);
            worst = worst.max(e);
            sum_abs += e;
            sum_signed += p.signed_error();
        }
        ErrorSummary {
            best,
            worst,
            mean: sum_abs / points.len() as f64,
            bias: sum_signed / points.len() as f64,
            count: points.len(),
        }
    }

    /// Relative reduction of this summary's mean error vs a baseline's,
    /// as in "our model reduces the prediction errors by up to 73%".
    pub fn relative_reduction_vs(&self, baseline: &ErrorSummary) -> f64 {
        if baseline.mean == 0.0 {
            0.0
        } else {
            (baseline.mean - self.mean) / baseline.mean
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pt(observed: f64, predicted: f64) -> PredictionPoint {
        PredictionPoint {
            observed,
            predicted,
        }
    }

    #[test]
    fn point_errors() {
        let p = pt(0.90, 0.95);
        assert!((p.signed_error() - 0.05).abs() < 1e-15);
        assert!((p.abs_error() - 0.05).abs() < 1e-15);
        let q = pt(0.90, 0.85);
        assert!((q.signed_error() + 0.05).abs() < 1e-15);
    }

    #[test]
    fn summary_best_worst_mean() {
        let pts = [pt(0.5, 0.51), pt(0.6, 0.55), pt(0.7, 0.70)];
        let s = ErrorSummary::from_points(&pts);
        assert!((s.best - 0.0).abs() < 1e-15);
        assert!((s.worst - 0.05).abs() < 1e-15);
        assert!((s.mean - 0.02).abs() < 1e-15);
        assert_eq!(s.count, 3);
    }

    #[test]
    fn bias_detects_systematic_direction() {
        // S1 underestimates percentiles, S16 overestimates (§V-B).
        let under = [pt(0.9, 0.88), pt(0.8, 0.77)];
        let s = ErrorSummary::from_points(&under);
        assert!(s.bias < 0.0);
        let over = [pt(0.9, 0.93), pt(0.8, 0.82)];
        assert!(ErrorSummary::from_points(&over).bias > 0.0);
    }

    #[test]
    fn relative_reduction() {
        let ours = ErrorSummary::from_points(&[pt(0.5, 0.52)]);
        let base = ErrorSummary::from_points(&[pt(0.5, 0.58)]);
        // 0.02 vs 0.08: 75% reduction.
        assert!((ours.relative_reduction_vs(&base) - 0.75).abs() < 1e-12);
    }

    #[test]
    #[should_panic]
    fn empty_series_panics() {
        ErrorSummary::from_points(&[]);
    }
}
