//! Backend-tier model (§III-B).
//!
//! For `N_be = 1` the request-processing queue is an M/G/1 queue of union
//! operations. For `N_be > 1` the shared disk is modeled as M/M/1/K with
//! `K = N_be`; its sojourn time becomes the per-process "disk service time"
//! (`index_d = meta_d = data_d = S_diskN`), the per-process arrival rate is
//! `r / N_be`, and the `N_be = 1` machinery applies unchanged.

use crate::components::{point_mass, CacheMixed, Mm1kSojournService, ZeroService};
use crate::params::DeviceParams;
use crate::variant::ModelVariant;
use cos_numeric::Complex64;
use cos_queueing::{
    DynServiceTime, Mg1, Mm1k, QueueError, ServiceTime, UnionFactors, UnionOperation,
};
use std::sync::Arc;

/// Errors from model construction.
#[derive(Debug, Clone, PartialEq)]
pub enum ModelError {
    /// A backend process queue has utilization ≥ 1.
    UnstableBackend {
        /// The offending utilization `ρ = r·B̄`.
        utilization: f64,
    },
    /// The frontend parse queue has utilization ≥ 1.
    UnstableFrontend {
        /// The offending utilization.
        utilization: f64,
    },
}

impl std::fmt::Display for ModelError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ModelError::UnstableBackend { utilization } => {
                write!(
                    f,
                    "backend queue unstable (utilization {utilization:.3} >= 1)"
                )
            }
            ModelError::UnstableFrontend { utilization } => {
                write!(
                    f,
                    "frontend queue unstable (utilization {utilization:.3} >= 1)"
                )
            }
        }
    }
}

impl std::error::Error for ModelError {}

/// The backend model of one storage device.
pub struct BackendModel {
    mg1: Mg1,
    union: Arc<UnionOperation>,
    disk_queue: Option<Mm1k>,
    /// The parse law's location when it is a point mass.
    parse_delay: Option<f64>,
    /// `N_be > 1`: the disk is an M/M/1/K queue, so the union operation's
    /// component laws depend on the arrival rate.
    shared_disk: bool,
}

impl std::fmt::Debug for BackendModel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BackendModel")
            .field("utilization", &self.mg1.utilization())
            .field("union_mean", &ServiceTime::mean(&*self.union))
            .field("disk_queue", &self.disk_queue)
            .finish()
    }
}

impl BackendModel {
    /// Builds the backend model for a device under a given model variant.
    pub fn new(params: &DeviceParams, variant: ModelVariant) -> Result<Self, ModelError> {
        params.validate();

        // Variant-adjusted miss ratios and extra reads. ODOPR assumes at
        // most One Disk Operation Per Request: index lookups, metadata
        // reads, and extra data reads are all cache hits (§V-C).
        let (miss_index, miss_meta, extra_reads) = match variant {
            ModelVariant::Odopr => (0.0, 0.0, 0.0),
            _ => (params.miss_index, params.miss_meta, params.extra_reads()),
        };
        let miss_data = params.miss_data;

        let nbe = params.processes;
        let per_process_rate = params.arrival_rate / nbe as f64;

        let (index_law, meta_law, data_law, disk_queue) = if nbe == 1 {
            (
                CacheMixed::shared(miss_index, params.index_disk.clone()),
                CacheMixed::shared(miss_meta, params.meta_disk.clone()),
                CacheMixed::shared(miss_data, params.data_disk.clone()),
                None,
            )
        } else {
            // Disk arrival rate r_disk = m_i·r + m_m·r + m_d·r_data, and raw
            // mean disk service time b as the per-operation weighted mean.
            let r = params.arrival_rate;
            let r_data = match variant {
                ModelVariant::Odopr => r, // extra reads never reach the disk
                _ => params.data_read_rate,
            };
            let r_disk = miss_index * r + miss_meta * r + miss_data * r_data;
            if r_disk <= 1e-12 {
                // Nothing ever reaches the disk.
                let zero = ZeroService::shared();
                (
                    CacheMixed::shared(miss_index, zero.clone()),
                    CacheMixed::shared(miss_meta, zero.clone()),
                    CacheMixed::shared(miss_data, zero),
                    None,
                )
            } else {
                let weighted = miss_index * r * params.index_disk.mean()
                    + miss_meta * r * params.meta_disk.mean()
                    + miss_data * r_data * params.data_disk.mean();
                let b = weighted / r_disk;
                let mm1k = Mm1k::new(r_disk, 1.0 / b, nbe);
                let sdisk: DynServiceTime = Arc::new(Mm1kSojournService::new(mm1k));
                (
                    CacheMixed::shared(miss_index, sdisk.clone()),
                    CacheMixed::shared(miss_meta, sdisk.clone()),
                    CacheMixed::shared(miss_data, sdisk),
                    Some(mm1k),
                )
            }
        };

        let union = Arc::new(UnionOperation::new(
            params.parse_be.clone(),
            index_law,
            meta_law,
            data_law,
            extra_reads,
        ));
        let mg1 =
            Mg1::new(per_process_rate, union.clone() as DynServiceTime).map_err(|e| match e {
                QueueError::Unstable { utilization } => ModelError::UnstableBackend { utilization },
                QueueError::InvalidArrivalRate(r) => {
                    panic!("validated params produced invalid rate {r}")
                }
            })?;
        Ok(BackendModel {
            mg1,
            union,
            disk_queue,
            parse_delay: point_mass(&*params.parse_be),
            shared_disk: nbe > 1,
        })
    }

    /// Utilization of one backend process queue.
    pub fn utilization(&self) -> f64 {
        self.mg1.utilization()
    }

    /// The disk M/M/1/K model when `N_be > 1` (and the disk is ever used).
    pub fn disk_queue(&self) -> Option<&Mm1k> {
        self.disk_queue.as_ref()
    }

    /// Mean union-operation service time `B̄_be`.
    pub fn union_mean(&self) -> f64 {
        ServiceTime::mean(&*self.union)
    }

    /// LST of the waiting time in the request-processing queue (`W_be`,
    /// Pollaczek–Khinchin).
    pub fn waiting_lst(&self, s: Complex64) -> Complex64 {
        self.mg1.waiting_lst(s)
    }

    /// Mean waiting time in the request-processing queue.
    pub fn mean_waiting(&self) -> f64 {
        self.mg1.mean_waiting()
    }

    /// LST of the backend response latency (Eq. 1):
    /// `S_be = W_be ∗ parse ∗ index ∗ meta ∗ data` (one data chunk).
    pub fn sojourn_lst(&self, s: Complex64) -> Complex64 {
        self.mg1.waiting_lst(s) * self.union.response_lst(s)
    }

    /// Batch [`BackendModel::waiting_lst`].
    pub fn waiting_lst_batch(&self, s: &[Complex64], out: &mut [Complex64]) {
        self.mg1.waiting_lst_batch(s, out)
    }

    /// The backend's constant delay `D_be`: the parse law's location when
    /// it is a point mass, else 0.
    pub fn delay(&self) -> f64 {
        self.parse_delay.unwrap_or(0.0)
    }

    /// LST of `S_be − D_be` (see [`BackendModel::delay`]): the response
    /// tail with a point-mass parse factor left out, after `W_be`, whose
    /// union-operation service keeps its parse law.
    /// [`BackendModel::sojourn_lst`] is this times `e^{−s·D_be}`.
    pub fn delay_free_sojourn_lst(&self, s: Complex64) -> Complex64 {
        let tail = match self.parse_delay {
            Some(_) => self.union.parse_free_response_lst(s),
            None => self.union.response_lst(s),
        };
        self.mg1.waiting_lst(s) * tail
    }

    /// Whether the union operation's law depends on the arrival rate: with
    /// `N_be > 1` its disk laws are the M/M/1/K sojourn at the disk's
    /// arrival rate. With `N_be = 1` it does not, so
    /// [`BackendModel::union_factors`] serve a model of the same device at
    /// any rate.
    pub(crate) fn union_depends_on_rate(&self) -> bool {
        self.shared_disk
    }

    /// The union operation's component transforms at `s`, each evaluated
    /// once: the response tail of [`BackendModel::delay_free_sojourn_lst`]
    /// (without a point-mass parse factor) and the union LST that feeds
    /// `W_be`, less its extra-reads count.
    pub(crate) fn union_factors(&self, s: &[Complex64]) -> UnionFactors {
        self.union.factors_batch(s, self.parse_delay.is_none())
    }

    /// [`BackendModel::union_factors`] into the caller's buffers.
    pub(crate) fn union_factors_into(
        &self,
        s: &[Complex64],
        tail: &mut [Complex64],
        product: &mut [Complex64],
        data_minus_one: &mut [Complex64],
    ) {
        self.union
            .factors_into(s, self.parse_delay.is_none(), tail, product, data_minus_one)
    }

    /// `W_be` at every abscissa `s` of the union factors `product` and
    /// `data_minus_one`: P–K over the union LST read off them with this
    /// model's extra-reads count, the exponential one lane-kernel batch
    /// and P–K one lane-width pass. Bit-identical to
    /// [`BackendModel::waiting_lst`] at each `s`.
    pub(crate) fn waiting_given(
        &self,
        s: &[Complex64],
        product: &[Complex64],
        data_minus_one: &[Complex64],
        out: &mut [Complex64],
    ) {
        self.union.lst_given(product, data_minus_one, out);
        self.mg1.waiting_lst_given_service_batch(s, out);
    }

    /// Mean backend response latency.
    pub fn mean_sojourn(&self) -> f64 {
        self.mg1.mean_waiting() + self.union.response_mean()
    }

    /// Backend response CDF at `t` via numerical inversion.
    pub fn sojourn_cdf(&self, t: f64, config: &cos_numeric::InversionConfig) -> f64 {
        cos_numeric::cdf_from_lst(&|s| self.sojourn_lst(s), t, config)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cos_distr::{Degenerate, Gamma};
    use cos_numeric::InversionConfig;
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

    /// S16-style warm-cache device: the disk must stay subcritical, which
    /// requires the warmer cache the paper's S16 runs exhibit.
    fn warm_device(rate: f64, nbe: usize) -> DeviceParams {
        DeviceParams {
            miss_index: 0.10,
            miss_meta: 0.08,
            miss_data: 0.18,
            ..device(rate, nbe)
        }
    }

    #[test]
    fn single_process_union_mean_matches_paper_formula() {
        let p = device(50.0, 1);
        let m = BackendModel::new(&p, ModelVariant::Full).unwrap();
        // B̄ = parse + m_i·b_i + m_m·b_m + (1+p)·m_d·b_d
        let want = 0.0005 + 0.3 * 0.012 + 0.3 * 0.008 + 1.1 * 0.5 * (3.5 / 245.0);
        assert!(
            (m.union_mean() - want).abs() < 1e-9,
            "got {}",
            m.union_mean()
        );
        assert!(m.disk_queue().is_none());
    }

    #[test]
    fn odopr_strips_index_meta_and_extra_reads() {
        let p = device(50.0, 1);
        let full = BackendModel::new(&p, ModelVariant::Full).unwrap();
        let odopr = BackendModel::new(&p, ModelVariant::Odopr).unwrap();
        let want = 0.0005 + 0.5 * (3.5 / 245.0);
        assert!((odopr.union_mean() - want).abs() < 1e-9);
        assert!(odopr.union_mean() < full.union_mean());
        // ODOPR therefore predicts uniformly better latency CDFs.
        let cfg = InversionConfig::default();
        for &t in &[0.005, 0.02, 0.05] {
            assert!(odopr.sojourn_cdf(t, &cfg) >= full.sojourn_cdf(t, &cfg) - 1e-9);
        }
    }

    #[test]
    fn nowta_matches_full_at_backend() {
        // WTA only enters at the frontend composition; backend models agree.
        let p = device(50.0, 1);
        let full = BackendModel::new(&p, ModelVariant::Full).unwrap();
        let nowta = BackendModel::new(&p, ModelVariant::NoWta).unwrap();
        let s = Complex64::new(1.0, 2.0);
        assert!((full.sojourn_lst(s) - nowta.sojourn_lst(s)).abs() < 1e-14);
    }

    #[test]
    fn rejects_unstable_load() {
        // B̄ ≈ 13.9 ms ⇒ saturation near 72 req/s per process.
        let p = device(80.0, 1);
        let err = BackendModel::new(&p, ModelVariant::Full).unwrap_err();
        assert!(matches!(err, ModelError::UnstableBackend { utilization } if utilization > 1.0));
    }

    #[test]
    fn multi_process_uses_mm1k_disk() {
        let p = warm_device(100.0, 16);
        let m = BackendModel::new(&p, ModelVariant::Full).unwrap();
        let disk = m
            .disk_queue()
            .expect("16-process device models disk as M/M/1/K");
        assert_eq!(disk.capacity(), 16);
        // r_disk = 0.10·100 + 0.08·100 + 0.18·110 = 37.8 ops/s.
        assert!((disk.arrival_rate() - 37.8).abs() < 1e-9);
        // Per-process utilization must be far below 1 at 100/16 req/s.
        assert!(m.utilization() < 1.0);
    }

    #[test]
    fn mm1k_disk_inflates_latencies_vs_raw() {
        // With contention, the per-process "disk service time" (M/M/1/K
        // sojourn) exceeds the raw mean disk service time.
        let p = warm_device(100.0, 16);
        let m = BackendModel::new(&p, ModelVariant::Full).unwrap();
        let disk = m.disk_queue().unwrap();
        let raw_mean = 1.0 / disk.service_rate();
        assert!(disk.mean_sojourn() > raw_mean);
    }

    #[test]
    fn overloaded_disk_makes_processes_unstable() {
        // At 300 req/s per device with a cold cache, the disk is offered
        // ~4x its capacity; the per-process M/G/1 must reject the point.
        let p = device(300.0, 16);
        let err = BackendModel::new(&p, ModelVariant::Full).unwrap_err();
        assert!(matches!(err, ModelError::UnstableBackend { utilization } if utilization > 1.0));
    }

    #[test]
    fn all_hit_multi_process_device_never_touches_disk() {
        let mut p = device(300.0, 4);
        p.miss_index = 0.0;
        p.miss_meta = 0.0;
        p.miss_data = 0.0;
        let m = BackendModel::new(&p, ModelVariant::Full).unwrap();
        assert!(m.disk_queue().is_none());
        assert!((m.union_mean() - 0.0005).abs() < 1e-12);
    }

    #[test]
    fn sojourn_cdf_monotone_in_load() {
        let cfg = InversionConfig::default();
        let light = BackendModel::new(&device(20.0, 1), ModelVariant::Full).unwrap();
        let heavy = BackendModel::new(&device(65.0, 1), ModelVariant::Full).unwrap();
        for &t in &[0.01, 0.05, 0.1] {
            assert!(
                light.sojourn_cdf(t, &cfg) > heavy.sojourn_cdf(t, &cfg),
                "t={t}"
            );
        }
    }

    #[test]
    fn mean_sojourn_consistent_with_lst_derivative() {
        let m = BackendModel::new(&device(40.0, 1), ModelVariant::Full).unwrap();
        // h must be large enough that 1 − L_B(h) keeps ~9 significant
        // digits (s·B̄ ≈ 1e-5), or cancellation swamps the quotient.
        let h = 1e-3;
        let d = (m.sojourn_lst(Complex64::from_real(h)) - m.sojourn_lst(Complex64::from_real(-h)))
            .re
            / (2.0 * h);
        assert!(
            (-d - m.mean_sojourn()).abs() / m.mean_sojourn() < 1e-4,
            "deriv {} mean {}",
            -d,
            m.mean_sojourn()
        );
    }
}
