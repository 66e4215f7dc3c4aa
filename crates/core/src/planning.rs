//! What-if analyses (§I): the applications the paper motivates the model
//! with — capacity planning, overload control, bottleneck identification,
//! and elastic storage — built on [`SystemModel`].
//!
//! All of these evaluate the model at hypothetical operating points, which
//! is exactly what an analytic (rather than simulation-based) model is for:
//! each evaluation is a few Laplace inversions, microseconds not minutes.

use crate::backend::ModelError;
use crate::params::{DeviceParams, FrontendParams, SystemParams};
use crate::system::SystemModel;
use crate::variant::ModelVariant;

/// An SLA target: at least `target_fraction` of requests within `sla`
/// seconds.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SlaGoal {
    /// Latency bound in seconds.
    pub sla: f64,
    /// Required fraction of requests meeting the bound, in `(0, 1)`.
    pub target_fraction: f64,
}

impl SlaGoal {
    /// Creates a goal.
    ///
    /// # Panics
    /// Panics on out-of-range values.
    pub fn new(sla: f64, target_fraction: f64) -> Self {
        assert!(
            sla > 0.0 && sla.is_finite(),
            "SLA must be positive, got {sla}"
        );
        assert!(
            target_fraction > 0.0 && target_fraction < 1.0,
            "target fraction must be in (0,1), got {target_fraction}"
        );
        SlaGoal {
            sla,
            target_fraction,
        }
    }

    /// Whether a model meets this goal.
    pub fn met_by(&self, model: &SystemModel) -> bool {
        model.fraction_meeting_sla(self.sla) >= self.target_fraction
    }
}

impl SystemParams {
    /// Returns a copy scaled to a new total arrival rate, preserving each
    /// device's traffic share and data-read ratio.
    ///
    /// # Panics
    /// Panics unless `total_rate` is positive and finite.
    pub fn scaled_to_rate(&self, total_rate: f64) -> SystemParams {
        assert!(
            total_rate.is_finite() && total_rate > 0.0,
            "rate must be positive"
        );
        let current: f64 = self.devices.iter().map(|d| d.arrival_rate).sum();
        let k = total_rate / current;
        let devices = self
            .devices
            .iter()
            .map(|d| DeviceParams {
                arrival_rate: d.arrival_rate * k,
                data_read_rate: d.data_read_rate * k,
                ..d.clone()
            })
            .collect();
        SystemParams {
            frontend: FrontendParams {
                arrival_rate: total_rate,
                ..self.frontend.clone()
            },
            devices,
        }
    }
}

/// Overload control (§I): the largest total arrival rate in `(0, upper]`
/// at which the goal still holds. Returns `Some(upper)` when the goal holds
/// at `upper`, and `None` when it fails even at the floor: a ten-thousandth
/// of the starting rate, where queueing no longer matters.
///
/// The search starts at the template's own total rate (or `upper`, if
/// lower). While the goal holds it doubles the rate until it fails or
/// reaches `upper`; when the goal fails at the start it probes the floor
/// next — so an unreachable goal costs two model evaluations — and then
/// halves the rate until the goal holds. It closes the resulting bracket
/// to 1e-9 relative by false position on the log-survival margin
/// `ln(1 − target) − ln(1 − F(sla))`, which is linear in the rate for an
/// M/M/1 sojourn and close to linear for the model's queues, with the
/// Anderson–Björck weighting that keeps both ends moving. An unstable rate
/// counts as `F = 0`, the limit of its attainment as the queues saturate.
/// The answer is the bracket's passing end, so the goal holds at the
/// returned rate. A typical answer takes 7–12 model evaluations.
///
/// Every evaluation is at `goal.sla`, and the rate enters Eq. 2 only
/// through the queues, so the transforms it does not touch — the inversion
/// plans, the frontend's parse-law transforms and each `N_be = 1` device's
/// union-operation factors — are evaluated once, at the first rate whose
/// queues are stable. Each probe builds the model at its rate, which
/// evaluates no transform, and applies it on top: the union LST with the
/// probe's extra-read count (which [`SystemParams::scaled_to_rate`] moves
/// by rounding), then P–K and the WTA factor. An `N_be > 1` device, whose
/// M/M/1/K disk law moves with the rate, evaluates its union operation at
/// every probe. Each probe's `F` is bit-identical to
/// [`SystemModel::fraction_meeting_sla`] on the model rebuilt at that
/// rate.
pub fn max_admissible_rate(
    template: &SystemParams,
    variant: ModelVariant,
    goal: SlaGoal,
    upper: f64,
) -> Option<f64> {
    assert!(
        upper > 0.0 && upper.is_finite(),
        "upper bound must be positive"
    );
    let ln_target = (-goal.target_fraction).ln_1p();
    let mut layer = None;
    let margin = |rate: f64| -> f64 {
        let f = SystemModel::new(&template.scaled_to_rate(rate), variant)
            .map(|m| {
                let layer = layer
                    .get_or_insert_with(|| m.rate_free_layer(goal.sla, 0..m.devices().len(), true));
                m.fraction_given(layer)
            })
            .ok()
            .filter(|f| !f.is_nan())
            .unwrap_or(0.0);
        // ln(1 − F) is floored at ln ε so that F = 1 stays finite.
        let g = ln_target - (-f).ln_1p().max(f64::EPSILON.ln());
        // The sign is `goal.met_by`'s own comparison, immune to rounding.
        if f >= goal.target_fraction {
            g.max(0.0)
        } else {
            g.min(-f64::MIN_POSITIVE)
        }
    };
    let own: f64 = template.devices.iter().map(|d| d.arrival_rate).sum();
    largest_passing_rate(margin, own.min(upper), upper)
}

/// The search behind [`max_admissible_rate`], over a margin that is
/// nonincreasing in the rate and `≥ 0` exactly where the goal holds: the
/// largest passing rate in `(0, upper]`, starting at `start ≤ upper`.
fn largest_passing_rate(mut margin: impl FnMut(f64) -> f64, start: f64, upper: f64) -> Option<f64> {
    let m_start = margin(start);
    // Bracket: the goal holds at `lo` (m_lo ≥ 0) and fails at `hi`.
    let (mut lo, mut m_lo, mut hi, mut m_hi);
    if m_start >= 0.0 {
        (lo, m_lo) = (start, m_start);
        loop {
            if lo == upper {
                return Some(upper);
            }
            let rate = (2.0 * lo).min(upper);
            let m = margin(rate);
            if m < 0.0 {
                (hi, m_hi) = (rate, m);
                break;
            }
            (lo, m_lo) = (rate, m);
        }
    } else {
        (hi, m_hi) = (start, m_start);
        let floor = start * 1e-4;
        let m_floor = margin(floor);
        if m_floor < 0.0 {
            return None;
        }
        loop {
            let rate = 0.5 * hi;
            if rate <= floor {
                (lo, m_lo) = (floor, m_floor);
                break;
            }
            let m = margin(rate);
            if m >= 0.0 {
                (lo, m_lo) = (rate, m);
                break;
            }
            (hi, m_hi) = (rate, m);
        }
    }
    // Which end moved last: the Anderson–Björck weighting damps the other
    // end's margin when the same end moves twice in a row.
    let mut lo_moved_last = None;
    while hi - lo > 1e-9 * lo {
        // Probe at least a quarter of the tolerance inside each end, so
        // once the interpolant is that close to the root the probe lands
        // across it and closes the bracket.
        let inset = 0.25e-9 * lo;
        let rate = (lo + (hi - lo) * m_lo / (m_lo - m_hi)).clamp(lo + inset, hi - inset);
        let m = margin(rate);
        if m >= 0.0 {
            if lo_moved_last == Some(true) {
                m_hi *= anderson_bjorck(m, m_lo);
            }
            (lo, m_lo) = (rate, m);
            lo_moved_last = Some(true);
        } else {
            if lo_moved_last == Some(false) {
                m_lo *= anderson_bjorck(m, m_hi);
            }
            (hi, m_hi) = (rate, m);
            lo_moved_last = Some(false);
        }
    }
    Some(lo)
}

/// Anderson–Björck factor for the end that stayed put, when the other end
/// moved from margin `old` to `new` (same sign): `1 − new/old`, or ½ when
/// that is not positive.
fn anderson_bjorck(new: f64, old: f64) -> f64 {
    let g = 1.0 - new / old;
    if g > 0.0 {
        g
    } else {
        0.5
    }
}

/// Capacity planning (§I): the smallest number of identical devices that
/// meets the goal at `total_rate`, up to `max_devices`.
pub fn min_devices(
    device_template: &DeviceParams,
    frontend: &FrontendParams,
    variant: ModelVariant,
    goal: SlaGoal,
    total_rate: f64,
    max_devices: usize,
) -> Option<usize> {
    for n in 1..=max_devices {
        let per_device = total_rate / n as f64;
        let k = per_device / device_template.arrival_rate;
        let device = DeviceParams {
            arrival_rate: per_device,
            data_read_rate: device_template.data_read_rate * k,
            ..device_template.clone()
        };
        let params = SystemParams {
            frontend: FrontendParams {
                arrival_rate: total_rate,
                ..frontend.clone()
            },
            devices: vec![device; n],
        };
        if let Ok(m) = SystemModel::new(&params, variant) {
            if goal.met_by(&m) {
                return Some(n);
            }
        }
    }
    None
}

/// Elastic storage (§I): minimum device counts for a sequence of
/// anticipated rates (e.g. a diurnal profile), one entry per rate.
pub fn elastic_plan(
    device_template: &DeviceParams,
    frontend: &FrontendParams,
    variant: ModelVariant,
    goal: SlaGoal,
    rates: &[f64],
    max_devices: usize,
) -> Vec<Option<usize>> {
    rates
        .iter()
        .map(|&r| min_devices(device_template, frontend, variant, goal, r, max_devices))
        .collect()
}

/// Bottleneck identification (§I): ranks devices by their predicted
/// fraction of requests meeting the SLA, worst first. Returns
/// `(device_index, fraction)` pairs.
pub fn rank_bottlenecks(model: &SystemModel, sla: f64) -> Vec<(usize, f64)> {
    let mut out: Vec<(usize, f64)> = model
        .device_fractions(sla)
        .into_iter()
        .enumerate()
        .collect();
    out.sort_by(|a, b| a.1.partial_cmp(&b.1).expect("finite fractions"));
    out
}

/// Builds the model at a hypothetical rate, surfacing instability as the
/// typed error (useful for dashboards that distinguish "SLA violated" from
/// "no steady state").
pub fn model_at_rate(
    template: &SystemParams,
    variant: ModelVariant,
    total_rate: f64,
) -> Result<SystemModel, ModelError> {
    SystemModel::new(&template.scaled_to_rate(total_rate), variant)
}

#[cfg(test)]
mod tests {
    use super::*;
    use cos_distr::{Degenerate, Gamma};
    use cos_queueing::from_distribution;

    fn device(rate: f64) -> DeviceParams {
        DeviceParams {
            arrival_rate: rate,
            data_read_rate: rate * 1.1,
            miss_index: 0.3,
            miss_meta: 0.25,
            miss_data: 0.4,
            index_disk: from_distribution(Gamma::new(3.0, 250.0)),
            meta_disk: from_distribution(Gamma::new(2.5, 312.5)),
            data_disk: from_distribution(Gamma::new(3.5, 245.0)),
            parse_be: from_distribution(Degenerate::new(0.0005)),
            processes: 1,
        }
    }

    fn frontend(rate: f64) -> FrontendParams {
        FrontendParams {
            arrival_rate: rate,
            processes: 3,
            parse_fe: from_distribution(Degenerate::new(0.0003)),
        }
    }

    fn template(rate: f64) -> SystemParams {
        SystemParams {
            frontend: frontend(rate),
            devices: (0..4).map(|_| device(rate / 4.0)).collect(),
        }
    }

    #[test]
    fn scaling_preserves_shares_and_ratios() {
        let mut t = template(100.0);
        t.devices[0].arrival_rate = 40.0;
        t.devices[0].data_read_rate = 44.0;
        for d in &mut t.devices[1..] {
            d.arrival_rate = 20.0;
            d.data_read_rate = 22.0;
        }
        let scaled = t.scaled_to_rate(200.0);
        assert!((scaled.devices[0].arrival_rate - 80.0).abs() < 1e-9);
        assert!((scaled.devices[1].arrival_rate - 40.0).abs() < 1e-9);
        assert!(
            (scaled.devices[0].data_read_rate / scaled.devices[0].arrival_rate - 1.1).abs() < 1e-9
        );
        assert!((scaled.frontend.arrival_rate - 200.0).abs() < 1e-12);
    }

    #[test]
    fn admissible_rate_is_consistent_with_goal() {
        let goal = SlaGoal::new(0.100, 0.90);
        let t = template(100.0);
        let limit = max_admissible_rate(&t, ModelVariant::Full, goal, 1000.0).unwrap();
        assert!(limit > 10.0 && limit < 1000.0, "limit {limit}");
        // Goal holds just below, fails just above.
        let below = model_at_rate(&t, ModelVariant::Full, limit * 0.98).unwrap();
        assert!(goal.met_by(&below));
        let above = model_at_rate(&t, ModelVariant::Full, limit * 1.05);
        assert!(above.map(|m| !goal.met_by(&m)).unwrap_or(true));
    }

    #[test]
    fn admissible_rate_none_for_impossible_goal() {
        // Disk-bound latencies can never put 99.9% under 1 ms.
        let goal = SlaGoal::new(0.001, 0.999);
        assert_eq!(
            max_admissible_rate(&template(100.0), ModelVariant::Full, goal, 500.0),
            None
        );
    }

    #[test]
    fn min_devices_monotone_in_rate() {
        let goal = SlaGoal::new(0.100, 0.90);
        let d = device(25.0);
        let fe = frontend(100.0);
        let n1 = min_devices(&d, &fe, ModelVariant::Full, goal, 100.0, 64).unwrap();
        let n2 = min_devices(&d, &fe, ModelVariant::Full, goal, 400.0, 64).unwrap();
        assert!(
            n2 >= n1,
            "more load cannot need fewer devices ({n1} -> {n2})"
        );
        assert!(n1 >= 1);
    }

    #[test]
    fn elastic_plan_tracks_rates() {
        let goal = SlaGoal::new(0.100, 0.90);
        let d = device(25.0);
        let fe = frontend(100.0);
        let plan = elastic_plan(
            &d,
            &fe,
            ModelVariant::Full,
            goal,
            &[50.0, 200.0, 800.0],
            128,
        );
        assert_eq!(plan.len(), 3);
        let counts: Vec<usize> = plan.iter().map(|p| p.unwrap()).collect();
        assert!(
            counts[0] <= counts[1] && counts[1] <= counts[2],
            "{counts:?}"
        );
    }

    #[test]
    fn bottleneck_ranking_finds_the_hot_device() {
        let mut t = template(120.0);
        t.devices[2].miss_index = 0.6;
        t.devices[2].miss_data = 0.7;
        let m = SystemModel::new(&t, ModelVariant::Full).unwrap();
        let ranked = rank_bottlenecks(&m, 0.05);
        assert_eq!(ranked[0].0, 2, "hot device must rank worst: {ranked:?}");
        assert!(ranked[0].1 < ranked[3].1);
    }

    #[test]
    #[should_panic]
    fn goal_rejects_bad_fraction() {
        SlaGoal::new(0.1, 1.5);
    }

    #[test]
    fn admissible_rate_is_upper_when_the_goal_holds_there() {
        let goal = SlaGoal::new(0.1, 0.9);
        let t = template(100.0);
        let at = |upper| max_admissible_rate(&t, ModelVariant::Full, goal, upper);
        assert_eq!(at(150.0), Some(150.0));
        // Below the template's own rate too: the search starts at upper.
        assert_eq!(at(60.0), Some(60.0));
    }

    #[test]
    fn admissible_rate_does_not_depend_on_a_far_upper_bound() {
        // A "rate → 0" floor taken from upper (upper·1e-4 = 1000 req/s at
        // upper = 1e7) would sit past the answer and report this reachable
        // goal as unreachable; the floor follows the template's own rate.
        let goal = SlaGoal::new(0.100, 0.90);
        let t = template(100.0);
        let at = |upper| max_admissible_rate(&t, ModelVariant::Full, goal, upper);
        let reference = at(1e3).unwrap();
        assert!(goal.met_by(&model_at_rate(&t, ModelVariant::Full, reference).unwrap()));
        let above = model_at_rate(&t, ModelVariant::Full, reference * (1.0 + 1e-8));
        assert!(above.map(|m| !goal.met_by(&m)).unwrap_or(true));
        for upper in [1e4, 1e5, 1e6, 1e7] {
            assert_eq!(at(upper), Some(reference), "upper={upper}");
        }
    }

    #[test]
    fn largest_passing_rate_costs_few_probes() {
        // Unreachable: the start and the floor, nothing else.
        let mut probes = Vec::new();
        let none = largest_passing_rate(
            |r| {
                probes.push(r);
                -1.0
            },
            50.0,
            1e4,
        );
        assert_eq!((none, probes), (None, vec![50.0, 50.0 * 1e-4]));
        // The log-survival margin of an M/M/1 sojourn at a 100 ms SLA with
        // service rate 400 is linear in the rate up to saturation: the 90%
        // goal holds up to 400 − 10·ln 10, and past 400 the queue is
        // unstable (F = 0). From far below (nine doublings), near or past
        // the answer, the search brackets it and closes the bracket to 1e-9
        // relative.
        let limit = 400.0 - 10f64.ln() / 0.1;
        for (start, probes) in [(1.0, 16), (160.0, 10), (1000.0, 10)] {
            let mut count = 0;
            let rate = largest_passing_rate(
                |r| {
                    count += 1;
                    0.1f64.ln() + 0.1 * (400.0 - r).max(0.0)
                },
                start,
                1e4,
            )
            .unwrap();
            assert!(rate <= limit && limit - rate <= 1e-9 * rate, "{rate}");
            assert!(count <= probes, "start={start}: {count} probes");
        }
    }
}
