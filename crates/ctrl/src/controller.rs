//! The controller: per-publication policy evaluation, per-request
//! admission decisions.
//!
//! Two very different paths share this type:
//!
//! * [`Controller::decide`] is the **hot path** — the gate calls it once
//!   per request, on the connection thread, before routing. It reads one
//!   atomic (the shed fraction) and, only while shedding is active, does
//!   one `fetch_add` on a per-class error-diffusion accumulator. No locks,
//!   no allocation, no model evaluation: the budget is well under a
//!   microsecond (enforced by `tests/hot_path_budgets.rs`).
//! * [`Controller::tick`] is the **slow path** — a poller (the
//!   [`Ticker`] thread, or a test driving event time by hand) calls it
//!   after telemetry lands. It is generation-gated: work happens only when
//!   the service has published a new [`cos_serve::SnapshotState`] since
//!   the last tick, so the policy adjusts exactly once per re-fit attempt
//!   no matter how often it is polled — which also makes control-loop
//!   tests deterministic.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

use cos_serve::{Query, ServeError, SnapshotReader};

use crate::admission::{AdmissionPolicy, InvalidPolicy, Shed, SlaClass};
use crate::anomaly::{Anomaly, AnomalyConfig, AnomalyDetector};

/// Everything [`Controller::new`] needs besides the reader.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct CtrlConfig {
    /// Admission policy (goal, AIMD knobs, shed ladder cap).
    pub admission: AdmissionPolicy,
    /// Anomaly detector knobs.
    pub anomaly: AnomalyConfig,
}

/// What one generation-consuming [`Controller::tick`] concluded.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TickReport {
    /// Event time at the tick.
    pub at: f64,
    /// The publication generation this report consumed.
    pub generation: u64,
    /// Predicted attainment of the policy goal's SLA at the calibrated
    /// operating point (`None` while uncalibrated / disconnected).
    pub attainment: Option<f64>,
    /// Max rate (req/s) still meeting the goal, when the solve succeeded.
    pub headroom: Option<f64>,
    /// Calibrated total arrival rate of the epoch the tick saw.
    pub rate: Option<f64>,
    /// Whether the epoch's own re-fit failed on an unstable operating
    /// point (ρ ≥ 1) — a violation even though stale predictions look fine.
    pub unstable: bool,
    /// Whether this tick classified the system as violating the goal.
    pub violating: bool,
    /// Total shed fraction after this tick.
    pub shed: f64,
    /// Anomalies scored by this tick's drift verdicts.
    pub anomalies_scored: u32,
}

impl Default for TickReport {
    fn default() -> Self {
        TickReport {
            at: 0.0,
            generation: 0,
            attainment: None,
            headroom: None,
            rate: None,
            unstable: false,
            violating: false,
            shed: 0.0,
            anomalies_scored: 0,
        }
    }
}

/// Counters and latest-state snapshot for dashboards (`/metrics`).
#[derive(Debug, Clone, PartialEq)]
pub struct CtrlStats {
    /// Current total shed fraction.
    pub shed_fraction: f64,
    /// Requests admitted since startup (all classes).
    pub admitted_total: u64,
    /// Requests shed since startup, indexed like [`SlaClass::SHEDDABLE`].
    pub shed_total: [u64; 3],
    /// Generation-consuming ticks so far.
    pub ticks: u64,
    /// Anomalies ever scored.
    pub anomalies_total: u64,
    /// Per-SLA `(sla, latest z-score, residuals absorbed)`.
    pub scores: Vec<(f64, f64, u64)>,
    /// The most recent tick's conclusions.
    pub last: TickReport,
}

struct Inner {
    detector: AnomalyDetector,
    last_generation: Option<u64>,
    report: TickReport,
    ticks: u64,
}

/// Fixed-point denominator of the error-diffusion accumulators.
const ACC_ONE: u64 = 1_000_000;

/// The admission controller + anomaly detector over one service's
/// published snapshots. Share it between the gate and a ticker behind an
/// `Arc`.
pub struct Controller {
    reader: SnapshotReader,
    policy: AdmissionPolicy,
    /// `f64` bits of the current total shed fraction.
    shed_bits: AtomicU64,
    /// Error-diffusion accumulators, one per sheddable class: admitting a
    /// request adds the class's effective shed fraction (in millionths);
    /// crossing a whole unit sheds. Deterministic under a single client,
    /// and fair — sheds spread evenly instead of clustering.
    acc: [AtomicU64; 3],
    admitted_total: AtomicU64,
    shed_total: [AtomicU64; 3],
    inner: Mutex<Inner>,
}

impl Controller {
    /// Creates a controller polling `reader`, with validated knobs.
    pub fn new(reader: SnapshotReader, config: CtrlConfig) -> Result<Controller, InvalidPolicy> {
        config.admission.validate()?;
        let detector = AnomalyDetector::new(config.anomaly)?;
        Ok(Controller {
            reader,
            policy: config.admission,
            shed_bits: AtomicU64::new(0f64.to_bits()),
            acc: [AtomicU64::new(0), AtomicU64::new(0), AtomicU64::new(0)],
            admitted_total: AtomicU64::new(0),
            shed_total: [AtomicU64::new(0), AtomicU64::new(0), AtomicU64::new(0)],
            inner: Mutex::new(Inner {
                detector,
                last_generation: None,
                report: TickReport::default(),
                ticks: 0,
            }),
        })
    }

    /// The policy this controller runs.
    pub fn policy(&self) -> &AdmissionPolicy {
        &self.policy
    }

    /// Current total shed fraction.
    pub fn shed_fraction(&self) -> f64 {
        f64::from_bits(self.shed_bits.load(Ordering::Relaxed))
    }

    /// Forces the total shed fraction (clamped to `[0, max_shed]`),
    /// bypassing the policy. A test/demo hook — the next violating or
    /// healthy tick adjusts from this value as if the policy had set it.
    pub fn force_shed(&self, f: f64) {
        let f = f.clamp(0.0, self.policy.max_shed);
        self.shed_bits.store(f.to_bits(), Ordering::Relaxed);
    }

    /// Per-request admission decision: the fleet-wide shed fraction, as
    /// the class's rung of the shed ladder sees it, applies to every
    /// tenant alike. `Ok` admits; `Err` carries the `Retry-After` the gate
    /// answers with the 429.
    #[inline]
    pub fn decide(&self, class: SlaClass) -> Result<(), Shed> {
        let Some(slot) = class.slot() else {
            // Control-plane traffic is never shed.
            self.admitted_total.fetch_add(1, Ordering::Relaxed);
            return Ok(());
        };
        let f = f64::from_bits(self.shed_bits.load(Ordering::Relaxed));
        let eff = class.effective_shed(f);
        let drop = if eff <= 0.0 {
            false
        } else if eff >= 1.0 {
            true
        } else {
            let step = (eff * ACC_ONE as f64) as u64;
            let prev = self.acc[slot].fetch_add(step, Ordering::Relaxed);
            (prev % ACC_ONE) + step >= ACC_ONE
        };
        if drop {
            self.shed_total[slot].fetch_add(1, Ordering::Relaxed);
            Err(Shed {
                class,
                retry_after: self.policy.retry_after,
            })
        } else {
            self.admitted_total.fetch_add(1, Ordering::Relaxed);
            Ok(())
        }
    }

    /// Evaluates the policy against the newest published snapshot.
    ///
    /// Generation-gated: if the service has not published since the last
    /// tick, this returns the previous report untouched. Otherwise it
    /// classifies the epoch (violating / healthy / in-band), adjusts the
    /// shed fraction (AIMD with the model-driven floor — see
    /// [`AdmissionPolicy`]), and feeds the epoch's drift verdicts to the
    /// anomaly detector.
    pub fn tick(&self) -> TickReport {
        let mut inner = self.inner.lock().expect("controller tick lock");
        let generation = self.reader.generation();
        if inner.last_generation == Some(generation) {
            return inner.report;
        }
        let Ok(state) = self.reader.state() else {
            // Disconnected: hold everything (the gate is dying anyway).
            return inner.report;
        };
        inner.last_generation = Some(generation);

        let goal = self.policy.goal;
        let attainment = self.reader.attainment(&Query::new().sla(goal.sla));
        let rate = state
            .snapshot
            .as_ref()
            .map(|s| s.params.frontend.arrival_rate);
        let predict_unstable = matches!(attainment, Err(ServeError::Unstable { .. }));
        let unstable = state.unstable_fit || predict_unstable;
        let att_value = attainment.as_ref().ok().map(|p| p.value);

        #[derive(PartialEq)]
        enum Health {
            Violating,
            Healthy,
            Hold,
        }
        let health = if unstable {
            Health::Violating
        } else {
            match att_value {
                Some(v) if v < goal.target_fraction - self.policy.hysteresis => Health::Violating,
                Some(v) if v >= goal.target_fraction => Health::Healthy,
                // In the hysteresis band, or no epoch yet: hold. Shedding
                // blind while uncalibrated would refuse the very traffic
                // calibration needs.
                _ => Health::Hold,
            }
        };

        let mut shed = self.shed_fraction();
        let mut headroom = None;
        match health {
            Health::Violating => {
                // Model-driven floor: the headroom solve says how much
                // traffic the goal can sustain; `1 − headroom/λ` is the
                // excess to shed. The additive step then ratchets further
                // on every violating epoch the floor underestimates.
                if let Ok(h) = self.reader.admissible_rate(
                    &Query::new()
                        .sla(goal.sla)
                        .target(goal.target_fraction)
                        .upper(self.policy.headroom_upper),
                ) {
                    headroom = Some(h.value);
                }
                let model_shed = match (headroom, rate) {
                    (Some(h), Some(r)) if r > h && r > 0.0 => 1.0 - h / r,
                    _ => 0.0,
                };
                shed = (shed + self.policy.shed_step)
                    .max(model_shed)
                    .min(self.policy.max_shed);
            }
            Health::Healthy => {
                shed *= self.policy.recover_factor;
                if shed < 0.005 {
                    shed = 0.0;
                }
            }
            Health::Hold => {}
        }
        self.shed_bits.store(shed.to_bits(), Ordering::Relaxed);

        let at = self.reader.event_time();
        let mut scored = 0u32;
        for d in &state.drift {
            if let (Some(observed), Some(predicted)) = (d.observed, d.predicted) {
                if inner
                    .detector
                    .observe(at, d.sla, observed, predicted)
                    .is_some()
                {
                    scored += 1;
                }
            }
        }

        inner.report = TickReport {
            at,
            generation,
            attainment: att_value,
            headroom,
            rate,
            unstable,
            violating: health == Health::Violating,
            shed,
            anomalies_scored: scored,
        };
        inner.ticks += 1;
        inner.report
    }

    /// Counters + latest tick, snapshotted together.
    pub fn stats(&self) -> CtrlStats {
        let inner = self.inner.lock().expect("controller stats lock");
        CtrlStats {
            shed_fraction: self.shed_fraction(),
            admitted_total: self.admitted_total.load(Ordering::Relaxed),
            shed_total: [
                self.shed_total[0].load(Ordering::Relaxed),
                self.shed_total[1].load(Ordering::Relaxed),
                self.shed_total[2].load(Ordering::Relaxed),
            ],
            ticks: inner.ticks,
            anomalies_total: inner.detector.total(),
            scores: inner.detector.scores(),
            last: inner.report,
        }
    }

    /// Retained anomalies, oldest first.
    pub fn anomalies(&self) -> Vec<Anomaly> {
        let inner = self.inner.lock().expect("controller anomalies lock");
        inner.detector.anomalies().copied().collect()
    }

    /// Spawns a wall-clock poller calling [`tick`](Controller::tick) every
    /// `interval` until the returned [`Ticker`] is dropped or the service
    /// disconnects. Production deployments use this; tests usually drive
    /// `tick()` by hand for determinism.
    pub fn spawn_ticker(self: &Arc<Self>, interval: Duration) -> Ticker {
        let ctrl = Arc::clone(self);
        let stop = Arc::new(AtomicBool::new(false));
        let stop_flag = Arc::clone(&stop);
        let join = std::thread::Builder::new()
            .name("cos-ctrl".into())
            .spawn(move || {
                while !stop_flag.load(Ordering::Acquire) {
                    if ctrl.reader.is_closed() {
                        break;
                    }
                    ctrl.tick();
                    std::thread::park_timeout(interval);
                }
            })
            .expect("spawn controller ticker");
        Ticker {
            stop,
            join: Some(join),
        }
    }
}

impl std::fmt::Debug for Controller {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Controller")
            .field("shed_fraction", &self.shed_fraction())
            .field("policy", &self.policy)
            .finish()
    }
}

/// Owning handle of the background ticker thread; dropping it stops the
/// thread promptly (unpark + flag).
pub struct Ticker {
    stop: Arc<AtomicBool>,
    join: Option<std::thread::JoinHandle<()>>,
}

impl Drop for Ticker {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Release);
        if let Some(join) = self.join.take() {
            join.thread().unpark();
            let _ = join.join();
        }
    }
}

impl std::fmt::Debug for Ticker {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Ticker").finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Builds a live service + controller over a tiny calibration base.
    fn rig(policy: AdmissionPolicy) -> (cos_serve::SlaService, Arc<Controller>) {
        use cos_distr::{Degenerate, Gamma};
        use cos_queueing::from_distribution;
        let base = cos_serve::CalibrationBase {
            index_law: from_distribution(Gamma::new(3.0, 250.0)),
            meta_law: from_distribution(Gamma::new(2.5, 312.5)),
            data_law: from_distribution(Gamma::new(3.5, 245.0)),
            parse_be: from_distribution(Degenerate::new(0.0005)),
            parse_fe: from_distribution(Degenerate::new(0.0003)),
            devices: 2,
            processes_per_device: 1,
            frontend_processes: 3,
        };
        let service = cos_serve::SlaService::new(base, cos_serve::ServeConfig::default());
        let ctrl = Arc::new(
            Controller::new(
                service.reader(),
                CtrlConfig {
                    admission: policy,
                    ..CtrlConfig::default()
                },
            )
            .unwrap(),
        );
        (service, ctrl)
    }

    /// A steady healthy stream: every completion fast, moderate miss mix.
    fn feed(service: &mut cos_serve::SlaService, from: f64, duration: f64, latency: f64) {
        use cos_serve::TelemetryEvent;
        let dt = 1.0 / 40.0;
        let mut t = from;
        let mut i = 0u64;
        while t < from + duration {
            for d in 0..2 {
                service.ingest(TelemetryEvent::Arrival { at: t, device: d });
                service.ingest(TelemetryEvent::DataRead { at: t, device: d });
                for class in cos_serve::OpClass::ALL {
                    let missed = i % 10 < 3;
                    service.ingest(TelemetryEvent::Op {
                        at: t,
                        device: d,
                        class,
                        latency: if missed { 0.010 } else { 0.000_002 },
                    });
                    i += 1;
                }
                service.ingest(TelemetryEvent::Completion {
                    arrival: t,
                    latency,
                    device: d,
                });
            }
            t += dt;
        }
    }

    #[test]
    fn decide_admits_everything_at_zero_shed() {
        let (_service, ctrl) = rig(AdmissionPolicy::default());
        for class in [
            SlaClass::Batch,
            SlaClass::Standard,
            SlaClass::Premium,
            SlaClass::Control,
        ] {
            for _ in 0..100 {
                assert!(ctrl.decide(class).is_ok());
            }
        }
        assert_eq!(ctrl.stats().admitted_total, 400);
        assert_eq!(ctrl.stats().shed_total, [0, 0, 0]);
    }

    #[test]
    fn error_diffusion_sheds_the_exact_fraction() {
        let (_service, ctrl) = rig(AdmissionPolicy::default());
        ctrl.force_shed(0.5);
        // Batch: effective = 0.5 → exactly every second request sheds.
        let shed = (0..1000)
            .filter(|_| ctrl.decide(SlaClass::Batch).is_err())
            .count();
        assert_eq!(shed, 500);
        // Standard: (0.5 − 0.25)/0.75 = 1/3 of requests (±1: a third is
        // not exactly representable in the fixed-point accumulator).
        let shed = (0..900)
            .filter(|_| ctrl.decide(SlaClass::Standard).is_err())
            .count() as i64;
        assert!((shed - 300).abs() <= 1, "standard shed {shed}");
        // Premium: below its floor — nothing sheds. Control: never.
        assert_eq!(
            (0..100)
                .filter(|_| ctrl.decide(SlaClass::Premium).is_err())
                .count(),
            0
        );
        assert_eq!(
            (0..100)
                .filter(|_| ctrl.decide(SlaClass::Control).is_err())
                .count(),
            0
        );
        let stats = ctrl.stats();
        assert_eq!(stats.shed_total[0], 500);
        assert_eq!(stats.shed_total[2], 0);
    }

    #[test]
    fn tick_is_generation_gated() {
        let (mut service, ctrl) = rig(AdmissionPolicy::default());
        feed(&mut service, 0.0, 20.0, 0.004);
        service.refit_now();
        let first = ctrl.tick();
        assert!(first.attainment.is_some());
        // No new publication: the tick is a no-op returning the same report.
        let second = ctrl.tick();
        assert_eq!(first, second);
        assert_eq!(ctrl.stats().ticks, 1);
        service.refit_now();
        ctrl.tick();
        assert_eq!(ctrl.stats().ticks, 2);
    }

    #[test]
    fn healthy_epochs_decay_a_forced_shed_to_zero() {
        let (mut service, ctrl) = rig(AdmissionPolicy {
            goal: cos_model::SlaGoal::new(0.050, 0.5),
            ..AdmissionPolicy::default()
        });
        feed(&mut service, 0.0, 20.0, 0.004);
        service.refit_now();
        ctrl.force_shed(0.4);
        let mut last = 0.4;
        for round in 0..6 {
            service.refit_now();
            let r = ctrl.tick();
            assert!(
                r.shed <= last,
                "round {round}: shed must not grow ({} > {last})",
                r.shed
            );
            last = r.shed;
        }
        assert_eq!(last, 0.0, "multiplicative decay must snap to zero");
    }

    #[test]
    fn violating_epochs_shed_and_report_it() {
        // Goal impossible to meet: every completion takes 30 ms against a
        // 10 ms bound at 99.9%.
        let (mut service, ctrl) = rig(AdmissionPolicy {
            goal: cos_model::SlaGoal::new(0.010, 0.999),
            ..AdmissionPolicy::default()
        });
        feed(&mut service, 0.0, 20.0, 0.030);
        service.refit_now();
        let r = ctrl.tick();
        assert!(r.violating, "attainment {:?}", r.attainment);
        assert!(r.shed > 0.0);
        let shed = (0..1000)
            .filter(|_| ctrl.decide(SlaClass::Batch).is_err())
            .count();
        assert!(shed > 0, "a violating epoch must shed some batch load");
    }

    #[test]
    fn uncalibrated_service_holds_at_zero_shed() {
        let (_service, ctrl) = rig(AdmissionPolicy::default());
        let r = ctrl.tick();
        assert!(!r.violating);
        assert_eq!(r.shed, 0.0);
        assert!(r.attainment.is_none());
        assert!(ctrl.decide(SlaClass::Batch).is_ok());
    }

    #[test]
    fn ticker_thread_polls_and_stops_on_drop() {
        let (mut service, ctrl) = rig(AdmissionPolicy::default());
        feed(&mut service, 0.0, 20.0, 0.004);
        service.refit_now();
        let ticker = ctrl.spawn_ticker(Duration::from_millis(1));
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        while ctrl.stats().ticks == 0 && std::time::Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(2));
        }
        assert!(ctrl.stats().ticks >= 1, "ticker must consume the epoch");
        drop(ticker);
    }
}
