//! End-to-end system model (Eq. 2 and Eq. 3) — the public prediction API.
//!
//! Per device, the frontend-measured response latency composes three
//! independent components (Eq. 2): `S_fe = S_q ∗ W_a ∗ S_be`. The system
//! CDF is the arrival-rate-weighted mixture over devices (Eq. 3):
//! `S(t) = Σ r_j S_j(t) / Σ r_j`.
//!
//! Every device CDF is evaluated in two layers. The rate-free layer holds
//! what the component laws fix: one inversion plan per distinct constant
//! delay `D`, the frontend's parse-law transforms at its abscissae, and
//! each device's union-operation factors. The rate-dependent layer applies
//! the P–K queues and the WTA factor on top. Devices that share `D` share
//! the plan and the frontend's evaluation, and a headroom search reuses
//! the whole rate-free layer across its probes.
//!
//! A device's share of the work is one pass over its plan's abscissae, 32
//! at a time in stack buffers: its union factors (unless a headroom search
//! holds them), the extra-reads exponential, P–K, the WTA factor, then the
//! plan's Euler sum over `Re(v/s)`. Every step is a lane-width loop
//! ([`cos_numeric::lanes`]), so a served CDF allocates nothing per device.

use crate::backend::{BackendModel, ModelError};
use crate::components::shift;
use crate::frontend::{FrontendFactors, FrontendModel};
use crate::params::SystemParams;
use crate::variant::ModelVariant;
use cos_numeric::laplace::{InversionConfig, InversionPlan};
use cos_numeric::{lanes, Complex64};
use cos_queueing::UnionFactors;
use std::ops::Range;

/// The series every device CDF is inverted with. With the constant parse
/// delays factored out, 20 Euler burn-in terms (32 transform evaluations)
/// are as accurate as the 100 the full transform needs; 15 are not, at
/// large `t`.
pub const DELAY_FREE_INVERSION: InversionConfig = InversionConfig { terms: 20 };

/// The abscissae of a [`DELAY_FREE_INVERSION`] plan, 20 + 12: the points a
/// device pass holds on the stack at a time.
const CONTOUR: usize = 32;

/// One device's end-to-end model.
#[derive(Debug)]
pub struct DeviceModel {
    backend: BackendModel,
    arrival_rate: f64,
    variant: ModelVariant,
}

impl DeviceModel {
    /// Multiplies the backend response and the WTA factor into `out`, given
    /// the backend's waiting time and response tail at `s`: Eq. 2 for this
    /// device's variant, one lane-width loop.
    fn apply_wta(
        &self,
        s: &[Complex64],
        tail: &[Complex64],
        waiting: &[Complex64],
        out: &mut [Complex64],
    ) {
        let (mean, rho) = (self.backend.mean_waiting(), self.backend.utilization());
        let wta = match self.variant {
            ModelVariant::Full | ModelVariant::Odopr => Wta::Waiting,
            ModelVariant::ResidualWta if mean > 1e-15 => Wta::Residual { mean, rho },
            ModelVariant::NoWta | ModelVariant::ResidualWta => Wta::None,
        };
        lanes::at_lane_width(
            #[inline(always)]
            move || wta.apply(s, tail, waiting, out),
        );
    }

    /// The backend part.
    pub fn backend(&self) -> &BackendModel {
        &self.backend
    }

    /// This device's arrival rate (mixture weight in Eq. 3).
    pub fn arrival_rate(&self) -> f64 {
        self.arrival_rate
    }
}

/// The full-system latency model.
#[derive(Debug)]
pub struct SystemModel {
    frontend: FrontendModel,
    devices: Vec<DeviceModel>,
    variant: ModelVariant,
}

impl SystemModel {
    /// Builds the model for the given parameters and variant.
    ///
    /// Fails with [`ModelError`] if any queue is unstable — the paper's
    /// assumption 5 (normal status) excludes such operating points.
    pub fn new(params: &SystemParams, variant: ModelVariant) -> Result<Self, ModelError> {
        params.validate();
        let frontend = FrontendModel::new(&params.frontend)?;
        let devices = params
            .devices
            .iter()
            .map(|d| {
                Ok(DeviceModel {
                    backend: BackendModel::new(d, variant)?,
                    arrival_rate: d.arrival_rate,
                    variant,
                })
            })
            .collect::<Result<Vec<_>, ModelError>>()?;
        Ok(SystemModel {
            frontend,
            devices,
            variant,
        })
    }

    /// Replaces the frontend model, e.g. with a heterogeneous-tier model
    /// built via [`FrontendModel::heterogeneous`] (§III-C).
    pub fn with_frontend(mut self, frontend: FrontendModel) -> Self {
        self.frontend = frontend;
        self
    }

    /// The model variant.
    pub fn variant(&self) -> ModelVariant {
        self.variant
    }

    /// The frontend model.
    pub fn frontend(&self) -> &FrontendModel {
        &self.frontend
    }

    /// Per-device models.
    pub fn devices(&self) -> &[DeviceModel] {
        &self.devices
    }

    /// The constant delay `D` in device `idx`'s response latency: the
    /// frontend's parse point mass plus the backend's
    /// ([`FrontendModel::delay`], [`BackendModel::delay`]). No request
    /// completes sooner.
    pub fn device_delay(&self, idx: usize) -> f64 {
        self.frontend.delay() + self.devices[idx].backend.delay()
    }

    /// LST of `S_fe` for device `idx` (Eq. 2): `S_q · W_a · S_be`, composed
    /// as [`SystemModel::device_delay_free_lst`] times `e^{−sD}`.
    pub fn device_response_lst(&self, idx: usize, s: Complex64) -> Complex64 {
        self.device_delay_free_lst(idx, s) * shift(s, self.device_delay(idx))
    }

    /// Batch [`SystemModel::device_response_lst`], bit-identical to the
    /// scalar path.
    pub fn device_response_lst_batch(&self, idx: usize, s: &[Complex64], out: &mut [Complex64]) {
        self.device_delay_free_lst_batch(idx, s, out);
        let delay = self.device_delay(idx);
        for (o, s) in out.iter_mut().zip(s.iter()) {
            *o *= shift(*s, delay);
        }
    }

    /// LST of `S_fe − D` for device `idx`, with `D` =
    /// [`SystemModel::device_delay`]: Eq. 2 with the parse point masses
    /// left out of `S_q` and `S_be`. They contribute exactly 1 here; the
    /// union-operation service inside both P–K waiting times keeps its
    /// parse law. Without the shift factor `e^{−sD}` to brute-force, the
    /// transform inverts accurately with [`DELAY_FREE_INVERSION`].
    pub fn device_delay_free_lst(&self, idx: usize, s: Complex64) -> Complex64 {
        let d = &self.devices[idx];
        let mut lst = self.frontend.delay_free_sojourn_lst(s) * d.backend.delay_free_sojourn_lst(s);
        match d.variant {
            // W_a = W_be (the paper's approximation, §III-C).
            ModelVariant::Full | ModelVariant::Odopr => {
                lst *= d.backend.waiting_lst(s);
            }
            ModelVariant::NoWta => {}
            // A connection arriving while the process is idle (probability
            // 1 − ρ, PASTA) is accepted immediately; otherwise it lands in
            // an in-flight accept lifetime and waits the length-biased
            // equilibrium residual of W_be, with LST (1 − L[W](s))/(s·E[W]):
            // W_a = (1 − ρ)·δ + ρ·W_eq.
            ModelVariant::ResidualWta => {
                let mean = d.backend.mean_waiting();
                let rho = d.backend.utilization();
                if mean > 1e-15 {
                    let eq = (Complex64::ONE - d.backend.waiting_lst(s)) / (s * mean);
                    lst *= eq * rho + (1.0 - rho);
                }
            }
        }
        lst
    }

    /// Batch [`SystemModel::device_delay_free_lst`] by the path every
    /// served device CDF takes: the rate-free layer at `s` — the frontend's
    /// parse-law transforms and the device's union-operation factors, each
    /// component evaluated once — then the P–K queues and the WTA factor
    /// on top, 32 points at a time. Bit-identical to the scalar path.
    pub fn device_delay_free_lst_batch(&self, idx: usize, s: &[Complex64], out: &mut [Complex64]) {
        let frontend = self.frontend_factors(s);
        self.frontend.delay_free_sojourn_given(s, &frontend, out);
        self.compose_device(idx, s, None, out);
    }

    /// The frontend's parse-law transforms at `s` (the rate-free half of
    /// `S_q`), shared by every device whose plan has these abscissae.
    fn frontend_factors(&self, s: &[Complex64]) -> FrontendFactors {
        #[cfg(test)]
        tests::FRONTEND_EVALS.with(|n| n.set(n.get() + s.len()));
        self.frontend.factors(s)
    }

    /// Device `idx`'s pass over `s`: `out` holds the frontend's delay-free
    /// sojourn there; multiplies in the backend response and the WTA factor
    /// — the union factors (`union`, or evaluated here), P–K over the union
    /// LST read off them, then Eq. 2 for the variant. Runs 32 points at a
    /// time in stack buffers, each step a lane-width loop.
    fn compose_device(
        &self,
        idx: usize,
        s: &[Complex64],
        union: Option<&UnionFactors>,
        out: &mut [Complex64],
    ) {
        assert_eq!(s.len(), out.len(), "abscissa/output length mismatch");
        #[cfg(test)]
        tests::DEVICE_EVALS.with(|n| n.set(n.get() + s.len()));
        let d = &self.devices[idx];
        let mut buffers = [[Complex64::ZERO; CONTOUR]; 4];
        let [tail, product, data_minus_one, waiting] = &mut buffers;
        for start in (0..s.len()).step_by(CONTOUR) {
            let end = (start + CONTOUR).min(s.len());
            let (s, out, n) = (&s[start..end], &mut out[start..end], end - start);
            let (tail, product, data_minus_one): (&[Complex64], &[Complex64], &[Complex64]) =
                match union {
                    Some(u) => (
                        &u.tail()[start..end],
                        &u.product()[start..end],
                        &u.data_minus_one()[start..end],
                    ),
                    None => {
                        let (t, p, m) =
                            (&mut tail[..n], &mut product[..n], &mut data_minus_one[..n]);
                        d.backend.union_factors_into(s, t, p, m);
                        (t, p, m)
                    }
                };
            let waiting = &mut waiting[..n];
            d.backend.waiting_given(s, product, data_minus_one, waiting);
            d.apply_wta(s, tail, waiting, out);
        }
    }

    /// The rate-free layer of devices `devices` at `t`; see
    /// [`RateFreeLayer`]. `keep_union` keeps the union factors of each
    /// device whose union law does not depend on the rate, for a caller
    /// that applies several models' queues to the layer; otherwise each
    /// device pass evaluates them on the stack.
    pub(crate) fn rate_free_layer(
        &self,
        t: f64,
        devices: Range<usize>,
        keep_union: bool,
    ) -> RateFreeLayer {
        let mut plans: Vec<DelayPlan> = Vec::new();
        let first = devices.start;
        let devices = devices
            .map(|idx| {
                let delay = self.device_delay(idx);
                // By the shift theorem P(S ≤ t) = P(S − D ≤ t − D): every
                // `t ≤ D` answers exactly 0.
                if t <= delay {
                    return DeviceSlot {
                        plan: None,
                        union: None,
                    };
                }
                let p = match plans.iter().position(|p| p.delay == delay) {
                    Some(p) => p,
                    None => {
                        let plan = DELAY_FREE_INVERSION.plan(t - delay);
                        let frontend = self.frontend_factors(plan.abscissae());
                        plans.push(DelayPlan {
                            delay,
                            plan,
                            frontend,
                        });
                        plans.len() - 1
                    }
                };
                let backend = &self.devices[idx].backend;
                let union = (keep_union && !backend.union_depends_on_rate())
                    .then(|| backend.union_factors(plans[p].plan.abscissae()));
                DeviceSlot {
                    plan: Some(p),
                    union,
                }
            })
            .collect();
        RateFreeLayer {
            first,
            plans,
            devices,
        }
    }

    /// The rate-dependent layer over `layer`: each device's delay-free
    /// transform at its plan's abscissae, with the frontend's P–K mixture
    /// evaluated once per plan, turned into an answer by `rule` and handed
    /// to `each` in device order; `None` where `t ≤ D`. `layer` may come
    /// from a model of the same parameters at another rate: only the union
    /// factors of a device whose union law depends on the rate are taken
    /// from this model. A layer of one served plan runs on the stack.
    fn invert_devices<R>(
        &self,
        layer: &RateFreeLayer,
        rule: impl Fn(&InversionPlan, &[Complex64]) -> R,
        mut each: impl FnMut(Option<R>),
    ) {
        let lengths = || layer.plans.iter().map(|p| p.plan.abscissae().len());
        let mut frontends = Buffer::new(lengths().sum());
        let frontends = frontends.as_mut();
        let mut start = 0;
        for p in &layer.plans {
            let s = p.plan.abscissae();
            let out = &mut frontends[start..start + s.len()];
            self.frontend.delay_free_sojourn_given(s, &p.frontend, out);
            start += s.len();
        }
        let mut values = Buffer::new(lengths().max().unwrap_or(0));
        let values = values.as_mut();
        for (k, slot) in layer.devices.iter().enumerate() {
            let idx = layer.first + k;
            let Some(p) = slot.plan else {
                each(None);
                continue;
            };
            let DelayPlan { delay, plan, .. } = &layer.plans[p];
            debug_assert_eq!(*delay, self.device_delay(idx), "layer of another system");
            let s = plan.abscissae();
            let start: usize = lengths().take(p).sum();
            let values = &mut values[..s.len()];
            values.copy_from_slice(&frontends[start..start + s.len()]);
            self.compose_device(idx, s, slot.union.as_ref(), values);
            each(Some(rule(plan, values)));
        }
    }

    /// CDFs of `devices` at `t`, through one plan and one frontend
    /// evaluation per distinct device delay.
    pub(crate) fn device_cdfs(&self, t: f64, devices: Range<usize>) -> Vec<f64> {
        let mut cdfs = Vec::with_capacity(devices.len());
        let layer = self.rate_free_layer(t, devices, false);
        self.invert_devices(&layer, InversionPlan::cdf, |f| cdfs.push(f.unwrap_or(0.0)));
        cdfs
    }

    /// [`SystemModel::device_cdfs`] with each device's density, from the
    /// same transform values.
    pub(crate) fn device_cdfs_and_densities(
        &self,
        t: f64,
        devices: Range<usize>,
    ) -> Vec<(f64, f64)> {
        let mut both = Vec::with_capacity(devices.len());
        let layer = self.rate_free_layer(t, devices, false);
        self.invert_devices(&layer, InversionPlan::cdf_and_density, |f| {
            both.push(f.unwrap_or((0.0, 0.0)))
        });
        both
    }

    /// CDF of the response latency of device `idx` at `t`: by the shift
    /// theorem, `P(S ≤ t) = P(S − D ≤ t − D)`, so the delay-free transform
    /// is inverted at `t − D` ([`SystemModel::device_delay`]), and every
    /// `t ≤ D` answers exactly 0.
    pub fn device_fraction_meeting(&self, idx: usize, sla: f64) -> f64 {
        self.device_cdfs(sla, idx..idx + 1)[0]
    }

    /// Every device's [`SystemModel::device_fraction_meeting`] at `sla`,
    /// bit-identical to it, through one plan and one frontend evaluation
    /// per distinct device delay.
    pub fn device_fractions(&self, sla: f64) -> Vec<f64> {
        self.device_cdfs(sla, 0..self.devices.len())
    }

    /// The sum of the devices' arrival rates: Eq. 3's denominator.
    fn total_rate(&self) -> f64 {
        self.devices.iter().map(|d| d.arrival_rate).sum()
    }

    /// Predicted percentile of requests meeting `sla` for the whole system
    /// (Eq. 3).
    pub fn fraction_meeting_sla(&self, sla: f64) -> f64 {
        self.fraction_given(&self.rate_free_layer(sla, 0..self.devices.len(), false))
    }

    /// [`SystemModel::fraction_meeting_sla`] at the layer's `t`, given its
    /// rate-free layer: a layer of this model, or of a model of the same
    /// parameters at another rate, since the rates enter only through the
    /// queues this model applies on top.
    pub(crate) fn fraction_given(&self, layer: &RateFreeLayer) -> f64 {
        // Eq. 3 in device order.
        let (mut acc, mut rates) = (0.0, self.devices.iter().map(|d| d.arrival_rate));
        self.invert_devices(layer, InversionPlan::cdf, |f| {
            acc += rates.next().expect("one answer per device") * f.unwrap_or(0.0)
        });
        acc / self.total_rate()
    }

    /// The system CDF (Eq. 3) at `t` together with its density — the same
    /// rate-weighted mixture over the devices' densities — at one
    /// inversion batch per device. The CDF is bit-identical to
    /// [`SystemModel::fraction_meeting_sla`].
    pub fn fraction_and_density(&self, t: f64) -> (f64, f64) {
        let layer = self.rate_free_layer(t, 0..self.devices.len(), false);
        let (mut cdf, mut density) = (0.0, 0.0);
        let mut rates = self.devices.iter().map(|d| d.arrival_rate);
        self.invert_devices(&layer, InversionPlan::cdf_and_density, |f| {
            let (f, d) = f.unwrap_or((0.0, 0.0));
            let rate = rates.next().expect("one answer per device");
            cdf += rate * f;
            density += rate * d;
        });
        let total = self.total_rate();
        (cdf / total, density / total)
    }

    /// Mean end-to-end response latency for device `idx`.
    pub fn device_mean_response(&self, idx: usize) -> f64 {
        let d = &self.devices[idx];
        let wta = match d.variant {
            ModelVariant::Full | ModelVariant::Odopr => d.backend.mean_waiting(),
            ModelVariant::NoWta => 0.0,
            ModelVariant::ResidualWta => {
                d.backend.utilization() * crate::wta::equilibrium_wta_mean(&d.backend)
            }
        };
        self.frontend.mean_sojourn() + wta + d.backend.mean_sojourn()
    }

    /// Mean system response latency (rate-weighted over devices).
    pub fn mean_response(&self) -> f64 {
        self.devices
            .iter()
            .enumerate()
            .map(|(i, d)| d.arrival_rate * self.device_mean_response(i))
            .sum::<f64>()
            / self.total_rate()
    }

    /// Latency bound met by fraction `p` of requests (inverse of Eq. 3),
    /// found by the log-survival Newton search of
    /// [`cos_numeric::invert_monotone`] seeded at the mean response. Each
    /// probe is [`SystemModel::fraction_and_density`] — one transform
    /// inversion per device — and a percentile typically takes 4–6 probes.
    /// Returns `None` if the CDF stays below `p` up to `2^40` mean
    /// responses.
    pub fn latency_percentile(&self, p: f64) -> Option<f64> {
        assert!((0.0..1.0).contains(&p), "p must be in [0,1), got {p}");
        if p == 0.0 {
            return Some(0.0);
        }
        cos_numeric::invert_monotone(
            |t| self.fraction_and_density(t),
            p,
            self.mean_response().max(1e-6),
            40,
            cos_numeric::QUANTILE_INVERSION_BUDGET,
        )
    }
}

/// The rate-free layer of a range of device CDFs at one `t`. In Eq. 2 the
/// arrival rates enter only through the P–K queues (and, with `N_be > 1`,
/// the M/M/1/K disk inside the union operation), so the rest is fixed by
/// the component laws: one [`InversionPlan`] at `t − D` per distinct
/// device delay `D < t` — devices sharing `D` share its abscissae — with
/// the frontend's parse-law transforms there, and the union-operation
/// factors of each device whose union law does not depend on the rate.
/// [`crate::planning::max_admissible_rate`] builds it once per search and
/// applies every probe's queues to it.
pub(crate) struct RateFreeLayer {
    /// The first device in the range.
    first: usize,
    plans: Vec<DelayPlan>,
    /// One slot per device in the range.
    devices: Vec<DeviceSlot>,
}

/// An inversion plan shared by the devices with constant delay `delay`,
/// with the frontend's rate-free transforms at its abscissae.
struct DelayPlan {
    delay: f64,
    plan: InversionPlan,
    frontend: FrontendFactors,
}

/// A device's place in a [`RateFreeLayer`]: its plan (`None` when
/// `t ≤ D`, where its CDF is exactly 0), and its union-operation factors
/// at that plan's abscissae (`None` when the layer keeps none, or when the
/// device's union law depends on the rate, so each model evaluates its
/// own).
struct DeviceSlot {
    plan: Option<usize>,
    union: Option<UnionFactors>,
}

/// The WTA factor `W_a` of Eq. 2, per variant: `W_be` (`Full`, `Odopr`),
/// `(1 − ρ) + ρ·(1 − L[W](s))/(s·E[W])` (`ResidualWta` with a mean wait),
/// or none.
#[derive(Clone, Copy)]
enum Wta {
    Waiting,
    Residual { mean: f64, rho: f64 },
    None,
}

impl Wta {
    /// `out · (W_be · tail) · W_a` at every lane — the scalar grouping.
    #[inline(always)]
    fn apply(
        self,
        s: &[Complex64],
        tail: &[Complex64],
        waiting: &[Complex64],
        out: &mut [Complex64],
    ) {
        let points = out.iter_mut().zip(waiting).zip(tail).zip(s);
        match self {
            Wta::Waiting => {
                for (((o, w), t), _) in points {
                    *o = *o * (*w * *t) * *w;
                }
            }
            Wta::Residual { mean, rho } => {
                for (((o, w), t), s) in points {
                    let eq = lanes::div(Complex64::ONE - *w, *s * mean);
                    *o = *o * (*w * *t) * (eq * rho + (1.0 - rho));
                }
            }
            Wta::None => {
                for (((o, w), t), _) in points {
                    *o *= *w * *t;
                }
            }
        }
    }
}

/// `len` complex values: on the stack up to a served contour's
/// [`CONTOUR`] points, else on the heap.
struct Buffer {
    stack: [Complex64; CONTOUR],
    heap: Vec<Complex64>,
    len: usize,
}

impl Buffer {
    fn new(len: usize) -> Buffer {
        let heap = match len > CONTOUR {
            true => vec![Complex64::ZERO; len],
            false => Vec::new(),
        };
        Buffer {
            stack: [Complex64::ZERO; CONTOUR],
            heap,
            len,
        }
    }

    fn as_mut(&mut self) -> &mut [Complex64] {
        match self.len > CONTOUR {
            true => &mut self.heap,
            false => &mut self.stack[..self.len],
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::{DeviceParams, FrontendParams};
    use cos_distr::{Degenerate, Gamma};
    use cos_queueing::from_distribution;

    fn device(rate: f64, nbe: usize) -> DeviceParams {
        DeviceParams {
            arrival_rate: rate,
            data_read_rate: rate * 1.1,
            miss_index: 0.3,
            miss_meta: 0.3,
            miss_data: 0.5,
            index_disk: from_distribution(Gamma::new(3.0, 250.0)),
            meta_disk: from_distribution(Gamma::new(2.5, 312.5)),
            data_disk: from_distribution(Gamma::new(3.5, 245.0)),
            parse_be: from_distribution(Degenerate::new(0.0005)),
            processes: nbe,
        }
    }

    fn system(rate_per_device: f64, devices: usize, nbe: usize) -> SystemParams {
        SystemParams {
            frontend: FrontendParams {
                arrival_rate: rate_per_device * devices as f64,
                processes: 3,
                parse_fe: from_distribution(Degenerate::new(0.0003)),
            },
            devices: (0..devices).map(|_| device(rate_per_device, nbe)).collect(),
        }
    }

    thread_local! {
        /// Device-transform evaluations the served path made on this thread.
        pub(super) static DEVICE_EVALS: std::cell::Cell<usize> = const { std::cell::Cell::new(0) };
        /// Frontend parse-law evaluations the served path made on this thread.
        pub(super) static FRONTEND_EVALS: std::cell::Cell<usize> = const { std::cell::Cell::new(0) };
    }

    /// (device, frontend) transform evaluations `f` makes through the
    /// served path.
    fn lst_evals(f: impl FnOnce()) -> (usize, usize) {
        DEVICE_EVALS.with(|n| n.set(0));
        FRONTEND_EVALS.with(|n| n.set(0));
        f();
        (
            DEVICE_EVALS.with(|n| n.get()),
            FRONTEND_EVALS.with(|n| n.get()),
        )
    }

    #[test]
    fn a_device_cdf_costs_32_transform_evaluations() {
        // Euler with 20 burn-in terms evaluates 20 + 12 points. Counts
        // repeat exactly, so this pins the series length: the 100-term
        // series the full transform needs costs 112 per device, 448 per
        // 4-device system. Devices that share their constant delay share
        // one plan, so a system CDF evaluates the frontend's transforms
        // once, 32 points, not once per device (128).
        let m = SystemModel::new(&system(40.0, 4, 1), ModelVariant::Full).unwrap();
        assert_eq!(
            lst_evals(|| {
                m.device_fraction_meeting(0, 0.05);
            }),
            (32, 32)
        );
        assert_eq!(
            lst_evals(|| {
                m.fraction_meeting_sla(0.05);
            }),
            (128, 32)
        );
        assert_eq!(
            lst_evals(|| {
                m.fraction_and_density(0.05);
            }),
            (128, 32)
        );
        // At or below the constant delay the answer is exactly 0, uncomputed.
        let delay = m.device_delay(0);
        assert_eq!(delay, 0.0003 + 0.0005);
        assert_eq!(
            lst_evals(|| assert_eq!(m.fraction_and_density(delay), (0.0, 0.0))),
            (0, 0)
        );
        // Devices with different delays get a plan, and a frontend
        // evaluation, each.
        let mut params = system(40.0, 4, 1);
        params.devices[3].parse_be = from_distribution(Degenerate::new(0.0009));
        let m = SystemModel::new(&params, ModelVariant::Full).unwrap();
        assert_eq!(
            lst_evals(|| {
                m.fraction_meeting_sla(0.05);
            }),
            (128, 64)
        );
    }

    #[test]
    fn device_fractions_match_the_single_device_path() {
        let mut params = system(15.0, 3, 1);
        params.devices[1].arrival_rate = 45.0;
        params.devices[1].data_read_rate = 45.0 * 1.1;
        params.devices[2].parse_be = from_distribution(Degenerate::new(0.0012));
        params.frontend.arrival_rate = 75.0;
        let m = SystemModel::new(&params, ModelVariant::Full).unwrap();
        // 1 ms lies between the devices' delays: the third answers 0.
        for &t in &[0.001, 0.005, 0.05] {
            let shared = m.device_fractions(t);
            for (i, f) in shared.iter().enumerate() {
                assert_eq!(f.to_bits(), m.device_fraction_meeting(i, t).to_bits());
            }
        }
        assert_eq!(m.device_fractions(0.001)[2], 0.0);
    }

    #[test]
    fn symmetric_system_equals_single_device() {
        let params = system(40.0, 4, 1);
        let m = SystemModel::new(&params, ModelVariant::Full).unwrap();
        let sys = m.fraction_meeting_sla(0.05);
        let dev = m.device_fraction_meeting(0, 0.05);
        assert!(
            (sys - dev).abs() < 1e-9,
            "identical devices ⇒ Eq. 3 is a no-op"
        );
    }

    #[test]
    fn heterogeneous_mixture_weights_by_rate() {
        // One idle-ish device, one loaded device with 3× the traffic.
        let mut params = system(15.0, 2, 1);
        params.devices[1].arrival_rate = 45.0;
        params.devices[1].data_read_rate = 45.0 * 1.1;
        params.frontend.arrival_rate = 60.0;
        let m = SystemModel::new(&params, ModelVariant::Full).unwrap();
        let f0 = m.device_fraction_meeting(0, 0.03);
        let f1 = m.device_fraction_meeting(1, 0.03);
        let want = (15.0 * f0 + 45.0 * f1) / 60.0;
        assert!((m.fraction_meeting_sla(0.03) - want).abs() < 1e-12);
        assert!(f0 > f1, "lighter device must look better");
    }

    #[test]
    fn fraction_and_density_are_the_cdf_and_its_slope() {
        let mut params = system(15.0, 2, 1);
        params.devices[1].arrival_rate = 45.0;
        params.devices[1].data_read_rate = 45.0 * 1.1;
        params.frontend.arrival_rate = 60.0;
        let m = SystemModel::new(&params, ModelVariant::Full).unwrap();
        for &t in &[0.005, 0.02, 0.05, 0.15] {
            let (cdf, density) = m.fraction_and_density(t);
            assert_eq!(cdf.to_bits(), m.fraction_meeting_sla(t).to_bits(), "t={t}");
            // The inverted density and the slope of the inverted CDF agree
            // to ~4e-5 at 5 ms, near the atoms of the deterministic parse
            // times, and far closer in the tail.
            let h = 1e-5 * t;
            let slope = (m.fraction_meeting_sla(t + h) - m.fraction_meeting_sla(t - h)) / (2.0 * h);
            assert!(
                (density - slope).abs() <= 1e-4 * density + 1e-6,
                "t={t}: density {density} vs slope {slope}"
            );
        }
    }

    #[test]
    fn latency_percentile_takes_a_few_newton_probes() {
        let m = SystemModel::new(&system(50.0, 4, 1), ModelVariant::Full).unwrap();
        for &p in &[0.05, 0.5, 0.9, 0.99, 0.999] {
            let mut probes = 0;
            let t = cos_numeric::invert_monotone(
                |t| {
                    probes += 1;
                    m.fraction_and_density(t)
                },
                p,
                m.mean_response(),
                40,
                cos_numeric::QUANTILE_INVERSION_BUDGET,
            )
            .unwrap();
            assert_eq!(t.to_bits(), m.latency_percentile(p).unwrap().to_bits());
            let back = m.fraction_meeting_sla(t);
            assert!((back - p).abs() < 1e-11, "p={p}: F(t) = {back}");
            assert!(probes <= 6, "p={p}: {probes} probes");
        }
    }

    #[test]
    fn nowta_predicts_better_percentiles_than_full() {
        let params = system(50.0, 4, 1);
        let full = SystemModel::new(&params, ModelVariant::Full).unwrap();
        let nowta = SystemModel::new(&params, ModelVariant::NoWta).unwrap();
        for &sla in &[0.01, 0.05, 0.1] {
            assert!(
                nowta.fraction_meeting_sla(sla) >= full.fraction_meeting_sla(sla) - 1e-9,
                "sla={sla}"
            );
        }
    }

    #[test]
    fn odopr_is_most_optimistic() {
        let params = system(50.0, 4, 1);
        let full = SystemModel::new(&params, ModelVariant::Full).unwrap();
        let odopr = SystemModel::new(&params, ModelVariant::Odopr).unwrap();
        for &sla in &[0.01, 0.05, 0.1] {
            assert!(
                odopr.fraction_meeting_sla(sla) > full.fraction_meeting_sla(sla),
                "sla={sla}"
            );
        }
    }

    #[test]
    fn residual_wta_is_consistent_and_bounded() {
        let params = system(50.0, 4, 1);
        let full = SystemModel::new(&params, ModelVariant::Full).unwrap();
        let residual = SystemModel::new(&params, ModelVariant::ResidualWta).unwrap();
        let nowta = SystemModel::new(&params, ModelVariant::NoWta).unwrap();
        // Mean identity: residual mean = noWTA mean + ρ·E_eq[W].
        let be = residual.devices()[0].backend();
        let want =
            nowta.device_mean_response(0) + be.utilization() * crate::wta::equilibrium_wta_mean(be);
        assert!(
            (residual.device_mean_response(0) - want).abs() < 1e-9,
            "got {}, want {want}",
            residual.device_mean_response(0)
        );
        // Valid monotone CDF strictly between the extremes in the far tail
        // (where ordering by mean shows up).
        let mut prev = 0.0;
        for i in 1..=10 {
            let sla = i as f64 * 0.02;
            let r = residual.fraction_meeting_sla(sla);
            assert!((0.0..=1.0).contains(&r));
            assert!(r >= prev - 1e-7);
            prev = r;
        }
        // The residual WTA adds a nonzero positive delay, so it predicts
        // worse percentiles than noWTA somewhere.
        assert!(residual.fraction_meeting_sla(0.05) < nowta.fraction_meeting_sla(0.05));
        // And it never predicts a worse *mean* than full when W's SCV > 1
        // fails; just sanity-bound it within the two extremes' span x2.
        let lo = nowta.mean_response();
        let hi = full.mean_response();
        let m = residual.mean_response();
        assert!(
            m > lo && m < lo + 2.0 * (hi - lo),
            "mean {m} outside [{lo}, {hi}] band"
        );
    }

    #[test]
    fn fraction_increases_with_sla() {
        let m = SystemModel::new(&system(45.0, 4, 1), ModelVariant::Full).unwrap();
        let f10 = m.fraction_meeting_sla(0.01);
        let f50 = m.fraction_meeting_sla(0.05);
        let f100 = m.fraction_meeting_sla(0.10);
        assert!(f10 <= f50 && f50 <= f100, "{f10} {f50} {f100}");
        assert!(f100 <= 1.0 && f10 >= 0.0);
    }

    #[test]
    fn percentile_inverts_fraction() {
        let m = SystemModel::new(&system(40.0, 4, 1), ModelVariant::Full).unwrap();
        let t95 = m.latency_percentile(0.95).unwrap();
        let back = m.fraction_meeting_sla(t95);
        assert!((back - 0.95).abs() < 1e-3, "t95={t95} back={back}");
    }

    #[test]
    fn s16_style_system_builds() {
        let mut params = system(150.0, 4, 16);
        for d in &mut params.devices {
            d.miss_index = 0.10;
            d.miss_meta = 0.08;
            d.miss_data = 0.18;
        }
        let m = SystemModel::new(&params, ModelVariant::Full).unwrap();
        let f = m.fraction_meeting_sla(0.1);
        assert!(
            f > 0.5,
            "S16-style system at moderate load should mostly meet 100 ms, got {f}"
        );
    }

    #[test]
    fn unstable_load_is_reported() {
        let params = system(80.0, 4, 1);
        assert!(matches!(
            SystemModel::new(&params, ModelVariant::Full),
            Err(ModelError::UnstableBackend { .. })
        ));
    }

    #[test]
    fn mean_response_composition() {
        let m = SystemModel::new(&system(40.0, 4, 1), ModelVariant::Full).unwrap();
        let d = &m.devices()[0];
        let want =
            m.frontend().mean_sojourn() + d.backend().mean_waiting() + d.backend().mean_sojourn();
        assert!((m.device_mean_response(0) - want).abs() < 1e-15);
        assert!((m.mean_response() - want).abs() < 1e-12);
    }
}
