//! Frontend-tier model (§III-C).
//!
//! Each of the `N_fe` homogeneous frontend processes is an M/G/1 queue with
//! request-parsing service times and per-process arrival rate `r / N_fe`;
//! the distribution of `S_q` (queueing + parsing at the frontend) equals
//! that of any single process.

use crate::backend::ModelError;
use crate::components::{point_mass, shift};
use crate::params::FrontendParams;
use cos_numeric::{lanes, Complex64};
use cos_queueing::{Mg1, QueueError};

/// One homogeneous set of a (possibly heterogeneous) frontend tier.
#[derive(Clone)]
pub struct FrontendSetParams {
    /// Fraction of total traffic this set receives, in `(0, 1]`.
    pub share: f64,
    /// Processes in this set.
    pub processes: usize,
    /// Parse law of this set's servers.
    pub parse_fe: cos_queueing::DynServiceTime,
}

impl std::fmt::Debug for FrontendSetParams {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FrontendSetParams")
            .field("share", &self.share)
            .field("processes", &self.processes)
            .finish_non_exhaustive()
    }
}

/// The frontend-tier model: one M/G/1 per homogeneous set; `S_q` is the
/// share-weighted mixture over sets (§III-C: "the frontend tier of
/// heterogeneous servers can be divided into several sets of homogeneous
/// servers, and the distribution of queueing latencies can be calculated
/// separately").
pub struct FrontendModel {
    sets: Vec<FrontendSet>,
    delay: f64,
}

/// One homogeneous set: its traffic share, its parse M/G/1, and the point
/// mass of its parse law beyond the tier's constant delay (`None` when the
/// law is not a point mass, which makes that delay 0).
struct FrontendSet {
    share: f64,
    queue: Mg1,
    excess_delay: Option<f64>,
}

impl std::fmt::Debug for FrontendModel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FrontendModel")
            .field("sets", &self.sets.len())
            .field("utilization", &self.utilization())
            .finish()
    }
}

fn build_mg1(rate: f64, parse: cos_queueing::DynServiceTime) -> Result<Mg1, ModelError> {
    Mg1::new(rate, parse).map_err(|e| match e {
        QueueError::Unstable { utilization } => ModelError::UnstableFrontend { utilization },
        QueueError::InvalidArrivalRate(r) => panic!("validated params produced invalid rate {r}"),
    })
}

impl FrontendModel {
    /// Builds a homogeneous frontend model.
    pub fn new(params: &FrontendParams) -> Result<Self, ModelError> {
        params.validate();
        let mg1 = build_mg1(params.per_process_rate(), params.parse_fe.clone())?;
        Ok(FrontendModel::from_sets(vec![(1.0, mg1)]))
    }

    /// Builds a heterogeneous frontend model from homogeneous sets. Shares
    /// must be positive and are normalized internally.
    ///
    /// # Panics
    /// Panics on an empty set list or non-positive shares/rates.
    pub fn heterogeneous(total_rate: f64, sets: &[FrontendSetParams]) -> Result<Self, ModelError> {
        assert!(!sets.is_empty(), "need at least one frontend set");
        assert!(
            total_rate.is_finite() && total_rate > 0.0,
            "total rate must be positive"
        );
        let share_sum: f64 = sets.iter().map(|s| s.share).sum();
        assert!(
            sets.iter().all(|s| s.share > 0.0) && share_sum > 0.0,
            "shares must be positive"
        );
        let mut out = Vec::with_capacity(sets.len());
        for set in sets {
            assert!(set.processes >= 1, "each set needs at least one process");
            let share = set.share / share_sum;
            let per_process = total_rate * share / set.processes as f64;
            out.push((share, build_mg1(per_process, set.parse_fe.clone())?));
        }
        Ok(FrontendModel::from_sets(out))
    }

    /// Attaches the tier's constant delay to `(share, queue)` sets: the
    /// smallest parse point mass over them, or 0 when some set's parse law
    /// is not a point mass.
    fn from_sets(sets: Vec<(f64, Mg1)>) -> Self {
        let masses: Vec<Option<f64>> = sets
            .iter()
            .map(|(_, q)| point_mass(&**q.service()))
            .collect();
        let delay = masses
            .iter()
            .map(|m| m.unwrap_or(0.0))
            .fold(f64::INFINITY, f64::min);
        let sets = sets
            .into_iter()
            .zip(masses)
            .map(|((share, queue), mass)| FrontendSet {
                share,
                queue,
                excess_delay: mass.map(|m| m - delay),
            })
            .collect();
        FrontendModel { sets, delay }
    }

    /// Traffic-weighted utilization across sets.
    pub fn utilization(&self) -> f64 {
        self.sets
            .iter()
            .map(|set| set.share * set.queue.utilization())
            .sum()
    }

    /// The tier's constant delay: every request spends at least this long
    /// parsing, since it is the smallest parse point mass over the sets (0
    /// unless every set's parse law is a point mass).
    pub fn delay(&self) -> f64 {
        self.delay
    }

    /// LST of `S_q`: the share-weighted mixture of per-set P–K sojourn
    /// transforms.
    pub fn sojourn_lst(&self, s: Complex64) -> Complex64 {
        self.sets
            .iter()
            .map(|set| set.queue.sojourn_lst(s) * set.share)
            .fold(Complex64::ZERO, |a, b| a + b)
    }

    /// LST of `S_q − D` with `D` = [`FrontendModel::delay`]: the mixture of
    /// [`FrontendModel::sojourn_lst`] with each set's parse factor replaced
    /// by its shift beyond `D`, which is exactly 1 on a homogeneous tier.
    /// `sojourn_lst(s)` equals this times `e^{−sD}`; the P–K waiting times
    /// keep their parse laws.
    pub fn delay_free_sojourn_lst(&self, s: Complex64) -> Complex64 {
        self.sets
            .iter()
            .map(|set| set.delay_free_sojourn_lst(s) * set.share)
            .fold(Complex64::ZERO, |a, b| a + b)
    }

    /// Batch [`FrontendModel::sojourn_lst`]: one per-set sojourn batch,
    /// accumulated in set order (the scalar fold), bit-identical to the
    /// scalar path.
    pub fn sojourn_lst_batch(&self, s: &[Complex64], out: &mut [Complex64]) {
        assert_eq!(s.len(), out.len(), "abscissa/output length mismatch");
        out.fill(Complex64::ZERO);
        let mut tmp = vec![Complex64::ZERO; s.len()];
        for set in &self.sets {
            set.queue.sojourn_lst_batch(s, &mut tmp);
            for (o, t) in out.iter_mut().zip(tmp.iter()) {
                *o += *t * set.share;
            }
        }
    }

    /// The rate-free layer of [`FrontendModel::delay_free_sojourn_lst`] at
    /// `s`: per set, its parse law's LST and the shift beyond the tier's
    /// delay. Only the P–K queues depend on the arrival rate, so these serve
    /// a model of the same tier at any rate.
    pub(crate) fn factors(&self, s: &[Complex64]) -> FrontendFactors {
        let n = s.len();
        let mut values = vec![Complex64::ZERO; 2 * n * self.sets.len()];
        for (j, set) in self.sets.iter().enumerate() {
            let (parse, factor) = values[2 * j * n..2 * (j + 1) * n].split_at_mut(n);
            set.queue.service().lst_batch(s, parse);
            match set.excess_delay {
                // `shift`: exactly 1 at no excess, else `e^{−s·excess}`.
                Some(0.0) => factor.fill(Complex64::ONE),
                Some(excess) => lanes::exp_scaled_batch(-excess, s, factor),
                None => factor.copy_from_slice(parse),
            }
        }
        FrontendFactors { n, values }
    }

    /// Batch [`FrontendModel::delay_free_sojourn_lst`] from its rate-free
    /// layer at `s` ([`FrontendModel::factors`]): P–K per set at lane width,
    /// 32 points at a time on the stack, then the share-weighted mixture in
    /// set order. Bit-identical to the scalar path.
    pub(crate) fn delay_free_sojourn_given(
        &self,
        s: &[Complex64],
        factors: &FrontendFactors,
        out: &mut [Complex64],
    ) {
        assert!(
            s.len() == out.len() && s.len() == factors.n,
            "abscissa/output length mismatch"
        );
        out.fill(Complex64::ZERO);
        let mut waiting = [Complex64::ZERO; 32];
        for (j, set) in self.sets.iter().enumerate() {
            let (parse, factor) = factors.set(j);
            let share = set.share;
            for start in (0..s.len()).step_by(waiting.len()) {
                let end = (start + waiting.len()).min(s.len());
                let waiting = &mut waiting[..end - start];
                waiting.copy_from_slice(&parse[start..end]);
                set.queue
                    .waiting_lst_given_service_batch(&s[start..end], waiting);
                let (factor, out, waiting) = (&factor[start..end], &mut out[start..end], &*waiting);
                lanes::at_lane_width(
                    #[inline(always)]
                    move || {
                        for ((o, w), f) in out.iter_mut().zip(waiting).zip(factor) {
                            *o += *w * *f * share;
                        }
                    },
                );
            }
        }
    }

    /// Mean frontend sojourn (share-weighted).
    pub fn mean_sojourn(&self) -> f64 {
        self.sets
            .iter()
            .map(|set| set.share * set.queue.mean_sojourn())
            .sum()
    }
}

/// [`FrontendModel::factors`] at a batch of `n` abscissae, in one
/// buffer: set `j`'s parse-law LST at `2jn..2jn + n`, and the factor its
/// waiting time is multiplied by at `2jn + n..2(j + 1)n` — the shift
/// beyond the tier's delay when that law is a point mass, else the
/// parse-law LST again.
pub(crate) struct FrontendFactors {
    n: usize,
    values: Vec<Complex64>,
}

impl FrontendFactors {
    /// Set `j`'s parse-law LST and waiting-time factor.
    fn set(&self, j: usize) -> (&[Complex64], &[Complex64]) {
        self.values[2 * j * self.n..2 * (j + 1) * self.n].split_at(self.n)
    }
}

impl FrontendSet {
    /// This set's sojourn LST shifted by the tier's delay: the P–K waiting
    /// time times the parse point mass beyond that delay, or the whole
    /// sojourn when the parse law is not a point mass (the delay is 0).
    fn delay_free_sojourn_lst(&self, s: Complex64) -> Complex64 {
        match self.excess_delay {
            Some(excess) => self.queue.waiting_lst(s) * shift(s, excess),
            None => self.queue.sojourn_lst(s),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cos_distr::Degenerate;
    use cos_queueing::from_distribution;

    fn params(rate: f64, nfe: usize) -> FrontendParams {
        FrontendParams {
            arrival_rate: rate,
            processes: nfe,
            parse_fe: from_distribution(Degenerate::new(0.0003)),
        }
    }

    #[test]
    fn light_load_sojourn_is_parse_time() {
        let m = FrontendModel::new(&params(30.0, 3)).unwrap();
        assert!((m.mean_sojourn() - 0.0003).abs() < 1e-6);
        assert!(m.utilization() < 0.01);
    }

    #[test]
    fn splits_rate_across_processes() {
        let one = FrontendModel::new(&params(1000.0, 1)).unwrap();
        let three = FrontendModel::new(&params(1000.0, 3)).unwrap();
        assert!((one.utilization() - 3.0 * three.utilization()).abs() < 1e-12);
        assert!(three.mean_sojourn() < one.mean_sojourn());
    }

    #[test]
    fn rejects_overload() {
        // 0.3 ms parse ⇒ one process saturates at ~3333 req/s.
        let err = FrontendModel::new(&params(4000.0, 1)).unwrap_err();
        assert!(matches!(err, ModelError::UnstableFrontend { .. }));
    }

    #[test]
    fn sojourn_lst_near_origin() {
        let m = FrontendModel::new(&params(300.0, 3)).unwrap();
        let near = m.sojourn_lst(Complex64::from_real(1e-8));
        assert!((near - Complex64::ONE).abs() < 1e-5);
    }

    #[test]
    fn heterogeneous_single_set_equals_homogeneous() {
        use crate::frontend::FrontendSetParams;
        let homo = FrontendModel::new(&params(300.0, 3)).unwrap();
        let hetero = FrontendModel::heterogeneous(
            300.0,
            &[FrontendSetParams {
                share: 1.0,
                processes: 3,
                parse_fe: from_distribution(Degenerate::new(0.0003)),
            }],
        )
        .unwrap();
        let s = Complex64::new(2.0, 5.0);
        assert!((homo.sojourn_lst(s) - hetero.sojourn_lst(s)).abs() < 1e-14);
        assert!((homo.mean_sojourn() - hetero.mean_sojourn()).abs() < 1e-15);
    }

    #[test]
    fn heterogeneous_mixes_fast_and_slow_sets() {
        use crate::frontend::FrontendSetParams;
        // Half the traffic on servers with 4x slower parsing.
        let hetero = FrontendModel::heterogeneous(
            600.0,
            &[
                FrontendSetParams {
                    share: 0.5,
                    processes: 2,
                    parse_fe: from_distribution(Degenerate::new(0.0003)),
                },
                FrontendSetParams {
                    share: 0.5,
                    processes: 2,
                    parse_fe: from_distribution(Degenerate::new(0.0012)),
                },
            ],
        )
        .unwrap();
        let fast_only = FrontendModel::new(&params(600.0, 4)).unwrap();
        assert!(hetero.mean_sojourn() > fast_only.mean_sojourn());
        // Mixture mean = average of the two per-set sojourns.
        let fast = FrontendModel::new(&FrontendParams {
            arrival_rate: 300.0,
            processes: 2,
            parse_fe: from_distribution(Degenerate::new(0.0003)),
        })
        .unwrap();
        let slow = FrontendModel::new(&FrontendParams {
            arrival_rate: 300.0,
            processes: 2,
            parse_fe: from_distribution(Degenerate::new(0.0012)),
        })
        .unwrap();
        let want = 0.5 * fast.mean_sojourn() + 0.5 * slow.mean_sojourn();
        assert!((hetero.mean_sojourn() - want).abs() < 1e-12);
    }

    #[test]
    fn delay_free_sojourn_factors_out_the_smallest_parse_mass() {
        use crate::frontend::FrontendSetParams;
        let set = |share: f64, parse: f64| FrontendSetParams {
            share,
            processes: 2,
            parse_fe: from_distribution(Degenerate::new(parse)),
        };
        let homo = FrontendModel::new(&params(300.0, 3)).unwrap();
        let hetero =
            FrontendModel::heterogeneous(600.0, &[set(0.5, 0.0012), set(0.5, 0.0003)]).unwrap();
        assert_eq!(homo.delay(), 0.0003);
        assert_eq!(hetero.delay(), 0.0003);
        let s: Vec<Complex64> = (0..40)
            .map(|k| Complex64::new(1840.0, k as f64 * 6283.0))
            .collect();
        for m in [&homo, &hetero] {
            let mut batch = vec![Complex64::ZERO; s.len()];
            m.delay_free_sojourn_given(&s, &m.factors(&s), &mut batch);
            for (&si, &b) in s.iter().zip(&batch) {
                let free = m.delay_free_sojourn_lst(si);
                assert_eq!(
                    (free.re.to_bits(), free.im.to_bits()),
                    (b.re.to_bits(), b.im.to_bits())
                );
                let full = m.sojourn_lst(si);
                // Terms are shares times LSTs of modulus ≤ 1; the shifts
                // differ from the parse factors by the rounding of `s·d`.
                let err = (free * shift(si, m.delay()) - full).abs();
                assert!(err <= 1e-14, "{err:e} at {si:?}");
            }
        }
        // A parse law with spread is not a delay: nothing is factored out.
        let spread = FrontendModel::new(&FrontendParams {
            parse_fe: from_distribution(cos_distr::Gamma::new(50.0, 50.0 / 0.0003)),
            ..params(300.0, 3)
        })
        .unwrap();
        assert_eq!(spread.delay(), 0.0);
        assert_eq!(
            spread.delay_free_sojourn_lst(s[7]),
            spread.sojourn_lst(s[7])
        );
    }

    #[test]
    fn heterogeneous_rejects_overloaded_set() {
        use crate::frontend::FrontendSetParams;
        let err = FrontendModel::heterogeneous(
            8000.0,
            &[FrontendSetParams {
                share: 1.0,
                processes: 2,
                parse_fe: from_distribution(Degenerate::new(0.0003)),
            }],
        )
        .unwrap_err();
        assert!(matches!(err, ModelError::UnstableFrontend { .. }));
    }
}
