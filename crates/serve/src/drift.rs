//! Model-drift detection: live observed SLA attainment vs predictions.
//!
//! The calibrator can only fit what the windows saw; if the workload's
//! *shape* changes in a way the model family cannot express (e.g. the disk
//! law's tail fattens while its mean holds), predictions will diverge from
//! reality even with fresh parameters. The monitor tracks the observed
//! fraction of completions meeting each SLA over a sliding window and
//! compares it with the model's memoized prediction; a sustained gap above
//! the tolerance flags the SLA as drifted, the signal to re-benchmark the
//! device laws (§IV-A) rather than just re-fit the online metrics.
//!
//! The counters live in one [`WindowBank`]: a slot per time bucket holding
//! the bucket's completions and, per SLA, how many of them met it.

use cos_stats::WindowBank;

/// Drift detection knobs.
#[derive(Debug, Clone)]
pub struct DriftConfig {
    /// Sliding-window length in event-time seconds.
    pub window: f64,
    /// Time buckets per window.
    pub buckets: usize,
    /// Absolute attainment gap (in fraction points) tolerated before
    /// flagging.
    pub tolerance: f64,
    /// Minimum in-window completions before a verdict is issued.
    pub min_samples: u64,
}

impl Default for DriftConfig {
    fn default() -> Self {
        DriftConfig {
            window: 30.0,
            buckets: 30,
            tolerance: 0.05,
            min_samples: 50,
        }
    }
}

/// One SLA's drift verdict.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DriftReport {
    /// The SLA bound (seconds).
    pub sla: f64,
    /// Observed in-window fraction meeting the SLA (`None` with no
    /// completions).
    pub observed: Option<f64>,
    /// The model's predicted fraction (`None` if the model could not
    /// answer).
    pub predicted: Option<f64>,
    /// Completions inside the window.
    pub samples: u64,
    /// Whether the gap exceeds the tolerance with enough samples.
    pub drifted: bool,
}

/// Sliding-window observed-attainment tracker for a fixed SLA list.
pub struct DriftMonitor {
    slas: Vec<f64>,
    /// Per slot: completions, then the completions meeting each SLA.
    bank: WindowBank<u64>,
    config: DriftConfig,
}

impl DriftMonitor {
    /// Creates a monitor for `slas`.
    pub fn new(slas: Vec<f64>, config: DriftConfig) -> Self {
        DriftMonitor {
            bank: WindowBank::new(config.window, config.buckets, 1 + slas.len(), 0),
            slas,
            config,
        }
    }

    /// The monitored SLA bounds.
    pub fn slas(&self) -> &[f64] {
        &self.slas
    }

    /// Records one completed request's end-to-end latency.
    pub fn record(&mut self, t: f64, latency: f64) {
        if let Some(row) = self.bank.record(t) {
            row[0] += 1;
            for (met, sla) in row[1..].iter_mut().zip(&self.slas) {
                *met += u64::from(latency <= *sla);
            }
        }
    }

    /// Completions, then completions meeting each SLA, in the window ending
    /// at `now`.
    fn totals(&self, now: f64) -> Vec<u64> {
        let mut totals = vec![0; 1 + self.slas.len()];
        for row in self.bank.live(now) {
            for (total, n) in totals.iter_mut().zip(row) {
                *total += n;
            }
        }
        totals
    }

    /// Observed attainment of SLA `idx` in the window ending at `now`.
    pub fn observed(&self, idx: usize, now: f64) -> Option<f64> {
        if idx >= self.slas.len() {
            return None;
        }
        let totals = self.totals(now);
        attainment(totals[1 + idx], totals[0])
    }

    /// Compares observations with `predictions` (one entry per SLA, in
    /// order; `None` where the model had no answer) and returns one report
    /// per SLA.
    pub fn report(&self, now: f64, predictions: &[Option<f64>]) -> Vec<DriftReport> {
        let totals = self.totals(now);
        let samples = totals[0];
        self.slas
            .iter()
            .zip(&totals[1..])
            .enumerate()
            .map(|(i, (&sla, &met))| {
                let observed = attainment(met, samples);
                let predicted = predictions.get(i).copied().flatten();
                let drifted = match (observed, predicted) {
                    (Some(o), Some(p)) => {
                        samples >= self.config.min_samples && (o - p).abs() > self.config.tolerance
                    }
                    _ => false,
                };
                DriftReport {
                    sla,
                    observed,
                    predicted,
                    samples,
                    drifted,
                }
            })
            .collect()
    }
}

/// The share of `samples` completions that `met` the SLA (`None` with no
/// completions: an empty window has no ratio, not ratio 0).
fn attainment(met: u64, samples: u64) -> Option<f64> {
    (samples > 0).then(|| met as f64 / samples as f64)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn monitor() -> DriftMonitor {
        DriftMonitor::new(vec![0.010, 0.050], DriftConfig::default())
    }

    #[test]
    fn agreement_is_not_drift() {
        let mut m = monitor();
        for i in 0..1000 {
            // 80% fast (5 ms), 20% slow (80 ms): attainment 0.8 / 0.8.
            let latency = if i % 5 == 0 { 0.080 } else { 0.005 };
            m.record(i as f64 * 0.01, latency);
        }
        let reports = m.report(10.0, &[Some(0.80), Some(0.80)]);
        assert!(reports.iter().all(|r| !r.drifted), "{reports:?}");
        assert!((reports[0].observed.unwrap() - 0.80).abs() < 0.02);
    }

    #[test]
    fn sustained_gap_flags_drift() {
        let mut m = monitor();
        for i in 0..1000 {
            m.record(i as f64 * 0.01, 0.030); // everything lands between the SLAs
        }
        let reports = m.report(10.0, &[Some(0.60), Some(0.95)]);
        assert!(
            reports[0].drifted,
            "observed 0.0 vs predicted 0.60: {:?}",
            reports[0]
        );
        assert!(
            reports[1].drifted,
            "observed 1.0 vs predicted 0.95: {:?}",
            reports[1]
        );
    }

    #[test]
    fn few_samples_or_missing_prediction_withhold_verdict() {
        let mut m = monitor();
        for i in 0..10 {
            m.record(i as f64, 0.030);
        }
        let reports = m.report(10.0, &[Some(0.90), None]);
        assert!(!reports[0].drifted, "only 10 samples: {:?}", reports[0]);
        assert!(!reports[1].drifted);
        assert_eq!(reports[1].predicted, None);
        // Empty window: no observation at all.
        let empty = monitor().report(5.0, &[Some(0.9), Some(0.9)]);
        assert!(empty.iter().all(|r| r.observed.is_none() && !r.drifted));
    }
}
