//! Erasure-coded (n,k) read model: fork-join over per-device sojourns.
//!
//! A coded GET forks into `launched` chunk sub-requests (one per stripe
//! device) and responds once `needed` of them complete. Exact fork-join
//! queues have no closed form for `n > 2`, so this module follows the
//! MDS-queue playbook (see PAPERS.md): keep the paper's per-device sojourn
//! transforms (Eq. 2) as *marginals* — their fitted arrival rates already
//! carry the redundant sub-request load — and combine them with a k-of-n
//! order-statistics tail under independence. Two computable envelopes
//! bracket that point prediction:
//!
//! * **pessimistic** (CDF lower bound): the minimum of the *split-merge*
//!   system — one M/G/1 whose service is the k-th order statistic of
//!   `launched` exponential branches, a cluster that blocks strictly more
//!   than real fork-join — and the distribution-free Bonferroni bound
//!   `(Σ F_i − (k−1)) / (n − k + 1)`, which is valid under **any**
//!   dependence between branches;
//! * **optimistic** (CDF upper bound): the independence combine over
//!   per-branch marginals with the WTA term dropped (the better of the
//!   `NoWta` / `Odopr` variants per device) — each marginal is
//!   stochastically faster than the real branch, which pays WTA like any
//!   other request.
//!
//! Serving builds only the point prediction's marginals
//! ([`CodedReadModel`]); the envelopes are a validation model of their
//! own ([`CodedEnvelope`]).

use crate::backend::ModelError;
use crate::frontend::FrontendModel;
use crate::params::SystemParams;
use crate::system::SystemModel;
use crate::variant::ModelVariant;
use cos_numeric::laplace::{InversionConfig, LaplaceFn};
use cos_numeric::Complex64;
use cos_queueing::fork_join::{k_of_n_tail, split_merge};
use cos_queueing::Mg1;

/// The series the split-merge anchor is inverted with: its transform keeps
/// the frontend parse shift, which only a long Euler series resolves.
const SPLIT_MERGE_INVERSION: InversionConfig = InversionConfig { terms: 100 };

/// How a coded read fans out: `launched` sub-requests in flight, `needed`
/// completions to respond. Eager (n,k) redundancy launches `n`; a plain
/// k-only read launches exactly `k`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CodingSpec {
    /// Sub-requests put in flight per logical read.
    pub launched: usize,
    /// Completions required to reconstruct the object.
    pub needed: usize,
}

impl CodingSpec {
    /// Builds a spec.
    ///
    /// # Panics
    /// Panics unless `1 ≤ needed ≤ launched`.
    pub fn new(launched: usize, needed: usize) -> Self {
        assert!(
            (1..=launched).contains(&needed),
            "need 1 <= needed <= launched, got needed={needed}, launched={launched}"
        );
        CodingSpec { launched, needed }
    }

    /// Eager redundancy: all `n` chunks requested, `k` needed.
    pub fn eager(n: usize, k: usize) -> Self {
        CodingSpec::new(n, k)
    }

    /// No redundancy: exactly the `k` needed chunks are requested.
    pub fn k_only(k: usize) -> Self {
        CodingSpec::new(k, k)
    }
}

/// The bracketing envelope around the point prediction at one time point.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CodedBounds {
    /// CDF lower bound: min(split-merge, Bonferroni).
    pub pessimistic: f64,
    /// CDF upper bound: independence over WTA-free marginals.
    pub optimistic: f64,
}

/// Fork-join latency model for (n,k) coded reads.
///
/// Construction mirrors [`SystemModel`] — same [`SystemParams`], same
/// stability errors — and the query surface mirrors it too
/// ([`fraction_meeting_sla`](CodedReadModel::fraction_meeting_sla),
/// [`latency_percentile`](CodedReadModel::latency_percentile)), so the
/// serve cache treats coded queries exactly like replicated ones. Branch
/// `i` of a read reads from device `i % devices` (the simulator stripes
/// round-robin, so under a homogeneous fit every device is statistically
/// identical and the fold-down loses nothing).
#[derive(Debug)]
pub struct CodedReadModel {
    spec: CodingSpec,
    full: SystemModel,
}

impl CodedReadModel {
    /// Builds the coded model from fitted parameters: the Full-variant
    /// marginals, nothing else.
    ///
    /// The per-device arrival rates in `params` must already include the
    /// redundant sub-request load (that is how the simulator fit measures
    /// them). Fails like [`SystemModel::new`] when any marginal queue is
    /// unstable.
    pub fn new(params: &SystemParams, spec: CodingSpec) -> Result<Self, ModelError> {
        Ok(CodedReadModel {
            spec,
            full: SystemModel::new(params, ModelVariant::Full)?,
        })
    }

    /// The (launched, needed) spec this model answers for.
    pub fn spec(&self) -> CodingSpec {
        self.spec
    }

    /// Point prediction: P[coded read completes within `sla`] — the
    /// independence combine over the Full-variant marginals.
    pub fn fraction_meeting_sla(&self, sla: f64) -> f64 {
        k_of_n_tail(
            &branch_probs(&self.full, self.spec.launched, sla),
            self.spec.needed,
        )
    }

    /// The point prediction's CDF at `t` and its density
    /// `Σ_i f_i · P[exactly k−1 of the other n−1 branches by t]`, at one
    /// inversion batch per distinct device. The CDF is bit-identical to
    /// [`CodedReadModel::fraction_meeting_sla`].
    pub fn fraction_and_density(&self, t: f64) -> (f64, f64) {
        let nd = self.full.devices().len();
        let per_device = self
            .full
            .device_cdfs_and_densities(t, 0..nd.min(self.spec.launched));
        let (probs, densities): (Vec<f64>, Vec<f64>) =
            (0..self.spec.launched).map(|i| per_device[i % nd]).unzip();
        let k = self.spec.needed;
        (
            k_of_n_tail(&probs, k),
            k_of_n_tail_density(&probs, &densities, k),
        )
    }

    /// Mean response of a single branch (Full marginals) — the inversion
    /// seed for percentile queries.
    pub fn branch_mean_response(&self) -> f64 {
        self.full.mean_response()
    }

    /// Smallest `t` with `fraction_meeting_sla(t) ≥ p`, found by the
    /// log-survival Newton search of [`cos_numeric::invert_monotone`] over
    /// [`CodedReadModel::fraction_and_density`], seeded at the branch mean
    /// response; `None` when the CDF stays below `p` up to `2^40` of it.
    ///
    /// # Panics
    /// Panics unless `0 ≤ p < 1`.
    pub fn latency_percentile(&self, p: f64) -> Option<f64> {
        assert!((0.0..1.0).contains(&p), "p must be in [0, 1), got {p}");
        if p == 0.0 {
            return Some(0.0);
        }
        cos_numeric::invert_monotone(
            |t| self.fraction_and_density(t),
            p,
            self.branch_mean_response().max(1e-6),
            40,
            cos_numeric::QUANTILE_INVERSION_BUDGET,
        )
    }
}

/// Per-branch completion probabilities by `t` under `model`'s marginals,
/// one CDF per distinct device: branch `i` reads from device `i % devices`.
fn branch_probs(model: &SystemModel, launched: usize, t: f64) -> Vec<f64> {
    let nd = model.devices().len();
    let per_device = model.device_cdfs(t, 0..nd.min(launched));
    (0..launched).map(|i| per_device[i % nd]).collect()
}

/// A [`CodedReadModel`] with the envelope that brackets its point
/// prediction (module docs): the `NoWta` and `Odopr` marginals and the
/// split-merge anchor. It validates the model against simulation and is
/// never served.
#[derive(Debug)]
pub struct CodedEnvelope {
    point: CodedReadModel,
    no_wta: SystemModel,
    odopr: SystemModel,
    split_merge: Option<Mg1>,
}

impl CodedEnvelope {
    /// Builds the point model and its envelope from fitted parameters.
    /// `params.frontend.arrival_rate` is the *logical* read rate and drives
    /// the split-merge bound. Fails like [`CodedReadModel::new`] when any
    /// marginal queue is unstable.
    pub fn new(params: &SystemParams, spec: CodingSpec) -> Result<Self, ModelError> {
        let point = CodedReadModel::new(params, spec)?;
        let no_wta = SystemModel::new(params, ModelVariant::NoWta)?;
        let odopr = SystemModel::new(params, ModelVariant::Odopr)?;
        // Split-merge branch service ≈ Exp(1/union mean), rate-weighted
        // across devices. The M/G/1 can be unstable even when the real
        // (pipelined) system is fine — the bound then degrades to
        // Bonferroni alone.
        let mut weighted = 0.0;
        let mut total = 0.0;
        for d in point.full.devices() {
            weighted += d.arrival_rate() * d.backend().union_mean();
            total += d.arrival_rate();
        }
        let branch_mean = weighted / total;
        let split_merge = if branch_mean > 0.0 {
            split_merge(
                params.frontend.arrival_rate,
                branch_mean,
                spec.launched,
                spec.needed,
            )
            .ok()
        } else {
            None
        };
        Ok(CodedEnvelope {
            point,
            no_wta,
            odopr,
            split_merge,
        })
    }

    /// The point model the envelope brackets.
    pub fn point(&self) -> &CodedReadModel {
        &self.point
    }

    /// Whether the split-merge anchor is available (its M/G/1 is stable).
    pub fn has_split_merge(&self) -> bool {
        self.split_merge.is_some()
    }

    /// The split-merge anchor's CDF at `t` (frontend sojourn composed with
    /// the blocking M/G/1), or `None` when that queue is unstable.
    pub fn split_merge_fraction(&self, t: f64) -> Option<f64> {
        let lst = self.split_merge_lst()?;
        Some(cos_numeric::cdf_from_lst(&lst, t, &SPLIT_MERGE_INVERSION))
    }

    fn split_merge_lst(&self) -> Option<SplitMergeResponseLst<'_>> {
        Some(SplitMergeResponseLst {
            frontend: self.point.full.frontend(),
            sm: self.split_merge.as_ref()?,
        })
    }

    /// The bracketing envelope at `t` (see module docs for the bound
    /// derivations). `pessimistic ≤ point().fraction_meeting_sla(t) ≤
    /// optimistic` up to inversion noise (~1e-9).
    pub fn bounds(&self, t: f64) -> CodedBounds {
        let n = self.point.spec.launched;
        let k = self.point.spec.needed;
        let full_probs = branch_probs(&self.point.full, n, t);
        let sum_full: f64 = full_probs.iter().sum();
        let bonferroni = ((sum_full - (k - 1) as f64) / (n - k + 1) as f64).clamp(0.0, 1.0);
        let pessimistic = match self.split_merge_fraction(t) {
            Some(sm) => sm.min(bonferroni),
            None => bonferroni,
        };
        let no_wta = branch_probs(&self.no_wta, n, t);
        let odopr = branch_probs(&self.odopr, n, t);
        let optimistic_probs: Vec<f64> = no_wta
            .iter()
            .zip(odopr.iter())
            .map(|(a, b)| a.max(*b))
            .collect();
        let optimistic = k_of_n_tail(&optimistic_probs, k);
        CodedBounds {
            pessimistic,
            optimistic,
        }
    }
}

/// Derivative of [`k_of_n_tail`]`(probs, k)` when each branch's probability
/// moves at rate `densities[i]`: the tangent half of a forward-mode pass
/// through the same Poisson-binomial DP, which sums to
/// `Σ_i densities[i] · P[exactly k−1 of the other branches]`.
fn k_of_n_tail_density(probs: &[f64], densities: &[f64], k: usize) -> f64 {
    if k == 0 || k > probs.len() {
        return 0.0;
    }
    // count[j] as in `k_of_n_tail`; tangent[j] is its derivative.
    let mut count = vec![0.0f64; probs.len() + 1];
    let mut tangent = vec![0.0f64; probs.len() + 1];
    count[0] = 1.0;
    for (i, (&p, &dp)) in probs.iter().zip(densities).enumerate() {
        let p = p.clamp(0.0, 1.0);
        for j in (1..=i + 1).rev() {
            tangent[j] =
                tangent[j] * (1.0 - p) + tangent[j - 1] * p + (count[j - 1] - count[j]) * dp;
            count[j] = count[j] * (1.0 - p) + count[j - 1] * p;
        }
        tangent[0] = tangent[0] * (1.0 - p) - count[0] * dp;
        count[0] *= 1.0 - p;
    }
    tangent[k..].iter().sum()
}

/// [`LaplaceFn`] view of the split-merge response transform — frontend
/// sojourn times the blocking M/G/1's sojourn — with a batch path whose
/// per-point grouping matches the scalar product exactly (both component
/// batches are bit-identical to their scalars, and the final multiply is
/// the same left-associated pair).
struct SplitMergeResponseLst<'a> {
    frontend: &'a FrontendModel,
    sm: &'a Mg1,
}

impl LaplaceFn for SplitMergeResponseLst<'_> {
    fn eval(&self, s: Complex64) -> Complex64 {
        self.frontend.sojourn_lst(s) * self.sm.sojourn_lst(s)
    }

    fn eval_batch(&self, s: &[Complex64], out: &mut [Complex64]) {
        assert_eq!(s.len(), out.len(), "abscissa/output length mismatch");
        self.frontend.sojourn_lst_batch(s, out);
        let mut sm = vec![Complex64::ZERO; s.len()];
        self.sm.sojourn_lst_batch(s, &mut sm);
        for (o, m) in out.iter_mut().zip(sm.iter()) {
            *o *= *m;
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

    #[test]
    fn single_branch_reduces_to_the_plain_system() {
        // (1,1) coding is just a replicated GET: the combine is the
        // identity and the coded CDF equals the device/system CDF.
        let params = system(40.0, 4, 1);
        let coded = CodedReadModel::new(&params, CodingSpec::new(1, 1)).unwrap();
        let plain = SystemModel::new(&params, ModelVariant::Full).unwrap();
        for &t in &[0.01, 0.03, 0.08] {
            let c = coded.fraction_meeting_sla(t);
            let p = plain.device_fraction_meeting(0, t);
            assert!((c - p).abs() < 1e-12, "t={t}: coded {c} vs plain {p}");
        }
    }

    #[test]
    fn bounds_bracket_the_point_prediction() {
        let params = system(40.0, 6, 1);
        for &(n, k) in &[(4usize, 2usize), (6, 4), (6, 6), (4, 1)] {
            let m = CodedEnvelope::new(&params, CodingSpec::new(n, k)).unwrap();
            for i in 1..=12 {
                let t = i as f64 * 0.01;
                let point = m.point().fraction_meeting_sla(t);
                let b = m.bounds(t);
                assert!(
                    b.pessimistic <= point + 1e-7,
                    "(n={n},k={k}) t={t}: pessimistic {} > point {point}",
                    b.pessimistic
                );
                assert!(
                    b.optimistic >= point - 1e-7,
                    "(n={n},k={k}) t={t}: optimistic {} < point {point}",
                    b.optimistic
                );
            }
        }
    }

    #[test]
    fn fraction_is_monotone_in_t_and_in_the_spec() {
        let params = system(40.0, 6, 1);
        let m64 = CodedReadModel::new(&params, CodingSpec::new(6, 4)).unwrap();
        let mut prev = 0.0;
        for i in 1..=10 {
            let f = m64.fraction_meeting_sla(i as f64 * 0.015);
            assert!(f >= prev - 1e-12 && (0.0..=1.0).contains(&f));
            prev = f;
        }
        // Needing more completions is slower; launching spares is faster.
        let m66 = CodedReadModel::new(&params, CodingSpec::new(6, 6)).unwrap();
        let m44 = CodedReadModel::new(&params, CodingSpec::new(4, 4)).unwrap();
        for &t in &[0.02, 0.05, 0.1] {
            assert!(m66.fraction_meeting_sla(t) <= m64.fraction_meeting_sla(t) + 1e-12);
            assert!(m64.fraction_meeting_sla(t) >= m44.fraction_meeting_sla(t) - 1e-12);
        }
    }

    #[test]
    fn percentile_inverts_fraction() {
        let params = system(40.0, 6, 1);
        let m = CodedReadModel::new(&params, CodingSpec::eager(6, 4)).unwrap();
        for &p in &[0.5, 0.95, 0.99] {
            let t = m.latency_percentile(p).unwrap();
            let back = m.fraction_meeting_sla(t);
            assert!((back - p).abs() < 1e-3, "p={p}: t={t} back={back}");
        }
        assert_eq!(m.latency_percentile(0.0), Some(0.0));
    }

    #[test]
    fn k_of_n_density_sums_the_leave_one_out_terms() {
        let probs = [0.2, 0.55, 0.9, 0.35, 0.7, 0.05];
        let densities = [3.0, 0.4, 1.7, 2.2, 0.9, 5.0];
        for k in 0..=probs.len() + 1 {
            let mut want = 0.0;
            for (i, &density) in densities.iter().enumerate() {
                let others: Vec<f64> = (0..probs.len())
                    .filter(|&j| j != i)
                    .map(|j| probs[j])
                    .collect();
                // P[exactly k−1 of the others] = tail(k−1) − tail(k).
                let exactly = if k == 0 {
                    0.0
                } else {
                    k_of_n_tail(&others, k - 1) - k_of_n_tail(&others, k)
                };
                want += density * exactly;
            }
            let got = k_of_n_tail_density(&probs, &densities, k);
            assert!((got - want).abs() < 1e-13, "k={k}: {got} vs {want}");
        }
    }

    #[test]
    fn coded_fraction_and_density_are_the_cdf_and_its_slope() {
        let params = system(40.0, 6, 1);
        for (n, k) in [(4, 2), (6, 4), (9, 6)] {
            let m = CodedReadModel::new(&params, CodingSpec::eager(n, k)).unwrap();
            for &t in &[0.01, 0.04, 0.1] {
                let (cdf, density) = m.fraction_and_density(t);
                assert_eq!(cdf.to_bits(), m.fraction_meeting_sla(t).to_bits());
                let h = 1e-5 * t;
                let slope =
                    (m.fraction_meeting_sla(t + h) - m.fraction_meeting_sla(t - h)) / (2.0 * h);
                assert!(
                    (density - slope).abs() <= 1e-4 * density + 1e-6,
                    "({n},{k}) t={t}: density {density} vs slope {slope}"
                );
            }
        }
    }

    #[test]
    fn coded_percentile_takes_a_few_newton_probes() {
        let params = system(40.0, 6, 1);
        for (n, k) in [(4, 2), (6, 4)] {
            let m = CodedReadModel::new(&params, CodingSpec::eager(n, k)).unwrap();
            for &p in &[0.5, 0.9, 0.99, 0.999] {
                let mut probes = 0;
                let t = cos_numeric::invert_monotone(
                    |t| {
                        probes += 1;
                        m.fraction_and_density(t)
                    },
                    p,
                    m.branch_mean_response(),
                    40,
                    cos_numeric::QUANTILE_INVERSION_BUDGET,
                )
                .unwrap();
                assert_eq!(t.to_bits(), m.latency_percentile(p).unwrap().to_bits());
                let back = m.fraction_meeting_sla(t);
                assert!((back - p).abs() < 1e-11, "({n},{k}) p={p}: F(t) = {back}");
                assert!(probes <= 6, "({n},{k}) p={p}: {probes} probes");
            }
        }
    }

    #[test]
    fn split_merge_anchor_composes_and_degrades_gracefully() {
        // Light load: the blocking M/G/1 is stable and its CDF is a valid
        // distribution function below the point prediction at the median.
        let light = system(8.0, 6, 1);
        let m = CodedEnvelope::new(&light, CodingSpec::eager(6, 4)).unwrap();
        assert!(m.has_split_merge());
        let t50 = m.point().latency_percentile(0.5).unwrap();
        let sm = m.split_merge_fraction(t50).unwrap();
        assert!((0.0..=1.0).contains(&sm));
        // Heavy (but marginally stable) load: split-merge blocking can
        // push the anchor queue past saturation; bounds still work.
        let heavy = system(55.0, 6, 1);
        let hm = CodedEnvelope::new(&heavy, CodingSpec::eager(6, 6)).unwrap();
        if !hm.has_split_merge() {
            assert_eq!(hm.split_merge_fraction(0.05), None);
        }
        let b = hm.bounds(0.05);
        assert!(b.pessimistic <= b.optimistic + 1e-7);
    }

    #[test]
    fn split_merge_batch_is_bit_identical_to_scalar() {
        let params = system(8.0, 6, 1);
        let m = CodedEnvelope::new(&params, CodingSpec::eager(6, 4)).unwrap();
        let lst = m.split_merge_lst().expect("stable at light load");
        let s: Vec<Complex64> = (0..48)
            .map(|i| Complex64::new(1.0 + i as f64 * 5.7, (i as f64 - 24.0) * 11.3))
            .collect();
        let mut batch = vec![Complex64::ZERO; s.len()];
        lst.eval_batch(&s, &mut batch);
        for (i, &si) in s.iter().enumerate() {
            let scalar = lst.eval(si);
            assert_eq!(scalar.re.to_bits(), batch[i].re.to_bits(), "re at {i}");
            assert_eq!(scalar.im.to_bits(), batch[i].im.to_bits(), "im at {i}");
        }
    }

    #[test]
    fn unstable_marginals_are_reported() {
        let params = system(80.0, 4, 1);
        assert!(matches!(
            CodedReadModel::new(&params, CodingSpec::new(4, 2)),
            Err(ModelError::UnstableBackend { .. })
        ));
        assert!(matches!(
            CodedEnvelope::new(&params, CodingSpec::new(4, 2)),
            Err(ModelError::UnstableBackend { .. })
        ));
    }

    #[test]
    #[should_panic]
    fn spec_rejects_needed_above_launched() {
        CodingSpec::new(2, 3);
    }
}
