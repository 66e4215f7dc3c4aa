//! The builder-style query surface.
//!
//! Every read endpoint of [`SnapshotReader`] takes a [`Query`], which
//! packs every input a question can have (`sla`, `rate`, `n`, `k`,
//! `upper`, …) — plus the fleet dimension, a [`TenantId`] — into one
//! value:
//!
//! ```
//! use cos_serve::{Query, TenantId};
//! let t = TenantId::new("analytics").unwrap();
//! let q = Query::tenant(t).sla(0.050).n_k(4, 2);
//! # let _ = q;
//! ```
//!
//! Resolution to the memo's quantized [`QueryKind`] and what-if rate cell
//! lives here, in one place, so no two readers can drift: each calls the
//! same `*_question` helper and therefore produces the same
//! [`QueryKey`](crate::QueryKey) bits. It is also the one place a question
//! is judged: every rule on its values (present, finite, positive, in
//! range, which fields combine) refuses with [`ServeError::BadQuery`]
//! here, before anything is snapped, so a library caller and the HTTP gate
//! get the same refusals. An SLA or what-if rate that is not finite and
//! positive would otherwise land in the lowest or the highest cell.
//!
//! [`SnapshotReader`]: crate::SnapshotReader

use cos_model::SlaGoal;

use crate::cache::{quantize_rate, QueryKind};
use crate::engine::{snap, FRACTION_QUANTUM};
use crate::error::ServeError;
use crate::tenant::TenantId;

/// Default headroom search ceiling (req/s) when [`Query::upper`] is unset.
pub const DEFAULT_HEADROOM_UPPER: f64 = 10_000.0;

/// Widest erasure-coded stripe a query may name: the Poisson-binomial
/// combine is O(n²) per CDF point, so an unbounded `n` would be a free CPU
/// amplifier.
const MAX_STRIPE_WIDTH: u16 = 64;

/// An erasure-coded read's `(n, k)`: chunks launched, chunks needed.
type Coding = (u16, u16);

/// Whether the service can answer percentile `p`: `p` lies in `(0, 1)`
/// and stays below 1 once snapped to the [`FRACTION_QUANTUM`] grid, which
/// rounds every `p ≥ 0.99995` up to exactly 1, where no latency exists.
fn percentile_in_range(p: f64) -> bool {
    p > 0.0 && snap(p, FRACTION_QUANTUM).1 < 1.0
}

/// One prediction question, built fluently. Which fields are required
/// depends on the endpoint the query is handed to:
///
/// * attainment — `sla` (plus optional `rate` or `n_k`, not both);
/// * percentile — `p` (plus optional `rate` or `n_k`, not both);
/// * headroom — `sla` and `target` (plus optional `upper`);
/// * bottleneck ranking — `sla`.
///
/// A missing required field, a value out of range, or fields that do not
/// combine is a typed [`ServeError::BadQuery`], not a panic, so network
/// frontends can map it to a 4xx.
#[derive(Debug, Clone, PartialEq)]
pub struct Query {
    tenant: TenantId,
    sla: Option<f64>,
    p: Option<f64>,
    rate: Option<f64>,
    coding: Option<Coding>,
    target: Option<f64>,
    upper: Option<f64>,
}

impl Query {
    /// A query against the reserved `default` tenant.
    pub fn new() -> Query {
        Query::tenant(TenantId::default_tenant())
    }

    /// A query against `tenant`.
    pub fn tenant(tenant: TenantId) -> Query {
        Query {
            tenant,
            sla: None,
            p: None,
            rate: None,
            coding: None,
            target: None,
            upper: None,
        }
    }

    /// SLA latency bound in seconds.
    pub fn sla(mut self, sla: f64) -> Query {
        self.sla = Some(sla);
        self
    }

    /// Percentile in `(0, 1)`, e.g. `0.95`.
    pub fn p(mut self, p: f64) -> Query {
        self.p = Some(p);
        self
    }

    /// What-if total arrival rate (req/s) the system is rescaled to.
    pub fn rate(mut self, rate: f64) -> Query {
        self.rate = Some(rate);
        self
    }

    /// Erasure-coding fan-out: `n` sub-requests launched, `k` needed
    /// (`1 <= k <= n <= 64`).
    pub fn n_k(mut self, n: u16, k: u16) -> Query {
        self.coding = Some((n, k));
        self
    }

    /// Headroom target fraction in `(0, 1)`.
    pub fn target(mut self, target: f64) -> Query {
        self.target = Some(target);
        self
    }

    /// Headroom search ceiling in req/s (defaults to
    /// [`DEFAULT_HEADROOM_UPPER`]).
    pub fn upper(mut self, upper: f64) -> Query {
        self.upper = Some(upper);
        self
    }

    /// The tenant this query is scoped to.
    pub fn tenant_id(&self) -> &TenantId {
        &self.tenant
    }

    fn bad(reason: &'static str) -> ServeError {
        ServeError::BadQuery { reason }
    }

    fn require(field: Option<f64>, reason: &'static str) -> Result<f64, ServeError> {
        match field {
            Some(v) if v.is_finite() => Ok(v),
            Some(_) => Err(Query::bad(reason)),
            None => Err(Query::bad(reason)),
        }
    }

    /// The what-if rate's cell and the coding pair, if the query has
    /// them. A rate that is not finite and positive has no cell: snapping
    /// would put 0, a negative rate or NaN in the lowest cell and +∞ in the
    /// highest. A coded read at a what-if rate is refused: the coded model
    /// has no what-if replan path (DESIGN §13).
    fn what_if(&self) -> Result<(Option<i64>, Option<Coding>), ServeError> {
        let rate_q = match self.rate {
            Some(rate) if rate.is_finite() && rate > 0.0 => Some(quantize_rate(rate)),
            Some(_) => return Err(Query::bad("what-if `rate` must be finite and positive")),
            None => None,
        };
        let coding = match self.coding {
            Some((n, k)) if k >= 1 && k <= n && n <= MAX_STRIPE_WIDTH => Some((n, k)),
            Some(_) => return Err(Query::bad("coding requires 1 <= k <= n <= 64")),
            None => None,
        };
        if rate_q.is_some() && coding.is_some() {
            return Err(Query::bad(
                "a what-if `rate` cannot be combined with `n`/`k` coding",
            ));
        }
        Ok((rate_q, coding))
    }

    /// Resolves this query as an attainment (fraction-meeting-SLA)
    /// question: the quantized what-if rate cell and the [`QueryKind`].
    pub(crate) fn attainment_question(&self) -> Result<(Option<i64>, QueryKind), ServeError> {
        let sla = Query::require(self.sla, "attainment requires a finite `sla`")?;
        if sla <= 0.0 {
            return Err(Query::bad("`sla` must be positive"));
        }
        let (rate_q, coding) = self.what_if()?;
        let kind = match coding {
            Some((n, k)) => QueryKind::coded_fraction(n, k, sla),
            None => QueryKind::fraction(sla),
        };
        Ok((rate_q, kind))
    }

    /// Resolves this query as a latency-percentile question.
    pub(crate) fn percentile_question(&self) -> Result<(Option<i64>, QueryKind), ServeError> {
        let p = Query::require(self.p, "percentile requires a finite `p`")?;
        if !percentile_in_range(p) {
            return Err(Query::bad(
                "`p` must lie in (0, 1) and below 0.99995, which the 1e-4 grid rounds to 1",
            ));
        }
        let (rate_q, coding) = self.what_if()?;
        let kind = match coding {
            Some((n, k)) => QueryKind::coded_percentile(n, k, p),
            None => QueryKind::percentile(p),
        };
        Ok((rate_q, kind))
    }

    /// Resolves this query as a headroom (max admissible rate) question.
    pub(crate) fn headroom_question(&self) -> Result<(Option<i64>, QueryKind), ServeError> {
        let sla = Query::require(self.sla, "headroom requires a finite `sla`")?;
        if sla <= 0.0 {
            return Err(Query::bad("`sla` must be positive"));
        }
        let target = Query::require(self.target, "headroom requires a finite `target`")?;
        if !(target > 0.0 && target < 1.0) {
            return Err(Query::bad("`target` must lie in (0, 1)"));
        }
        let upper = self.upper.unwrap_or(DEFAULT_HEADROOM_UPPER);
        if !(upper.is_finite() && upper > 0.0) {
            return Err(Query::bad("`upper` must be finite and positive"));
        }
        if self.coding.is_some() {
            return Err(Query::bad("headroom does not support `n`/`k` coding"));
        }
        Ok((None, QueryKind::headroom(SlaGoal::new(sla, target), upper)))
    }

    /// Resolves this query as a bottleneck-ranking question, returning the
    /// SLA bound the per-device fractions are evaluated at.
    pub(crate) fn ranking_sla(&self) -> Result<f64, ServeError> {
        let sla = Query::require(self.sla, "ranking requires a finite `sla`")?;
        if sla <= 0.0 {
            return Err(Query::bad("`sla` must be positive"));
        }
        if self.coding.is_some() {
            return Err(Query::bad("ranking does not support `n`/`k` coding"));
        }
        Ok(sla)
    }
}

impl Default for Query {
    fn default() -> Self {
        Query::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_resolves_like_the_positional_paths() {
        // Plain attainment.
        let (rq, kind) = Query::new().sla(0.05).attainment_question().unwrap();
        assert_eq!(rq, None);
        assert_eq!(kind, QueryKind::fraction(0.05));
        // What-if rate.
        let (rq, kind) = Query::new()
            .sla(0.05)
            .rate(150.0)
            .attainment_question()
            .unwrap();
        assert_eq!(rq, Some(quantize_rate(150.0)));
        assert_eq!(kind, QueryKind::fraction(0.05));
        // Coded attainment.
        let (rq, kind) = Query::new()
            .sla(0.05)
            .n_k(4, 2)
            .attainment_question()
            .unwrap();
        assert_eq!(rq, None);
        assert_eq!(kind, QueryKind::coded_fraction(4, 2, 0.05));
        // Percentiles, plain and coded.
        let (_, kind) = Query::new().p(0.95).percentile_question().unwrap();
        assert_eq!(kind, QueryKind::percentile(0.95));
        let (_, kind) = Query::new()
            .p(0.99)
            .n_k(6, 4)
            .percentile_question()
            .unwrap();
        assert_eq!(kind, QueryKind::coded_percentile(6, 4, 0.99));
        // Headroom with and without an explicit ceiling.
        let (rq, kind) = Query::new()
            .sla(0.1)
            .target(0.9)
            .headroom_question()
            .unwrap();
        assert_eq!(rq, None);
        assert_eq!(
            kind,
            QueryKind::headroom(SlaGoal::new(0.1, 0.9), DEFAULT_HEADROOM_UPPER)
        );
        let (_, kind) = Query::new()
            .sla(0.1)
            .target(0.9)
            .upper(500.0)
            .headroom_question()
            .unwrap();
        assert_eq!(kind, QueryKind::headroom(SlaGoal::new(0.1, 0.9), 500.0));
        // Ranking.
        assert_eq!(Query::new().sla(0.05).ranking_sla().unwrap(), 0.05);
    }

    #[test]
    fn missing_or_nonsense_fields_are_typed_refusals() {
        let bad = |r: Result<(Option<i64>, QueryKind), ServeError>| {
            assert!(matches!(r, Err(ServeError::BadQuery { .. })), "{r:?}")
        };
        bad(Query::new().attainment_question());
        bad(Query::new().sla(-1.0).attainment_question());
        bad(Query::new().sla(f64::NAN).attainment_question());
        bad(Query::new().sla(0.05).n_k(2, 4).attainment_question());
        bad(Query::new().percentile_question());
        bad(Query::new().p(1.5).percentile_question());
        bad(Query::new().sla(0.05).headroom_question());
        bad(Query::new().sla(0.05).target(1.5).headroom_question());
        bad(Query::new()
            .sla(0.05)
            .target(0.9)
            .upper(-5.0)
            .headroom_question());
        bad(Query::new()
            .sla(0.05)
            .target(0.9)
            .n_k(4, 2)
            .headroom_question());
        assert!(Query::new().ranking_sla().is_err());
        assert!(Query::new().sla(0.05).n_k(4, 2).ranking_sla().is_err());
        // What-if rates that snapping would put in the lowest or highest
        // rate cell.
        for rate in [0.0, -100.0, f64::NAN, f64::NEG_INFINITY, f64::INFINITY] {
            bad(Query::new().sla(0.05).rate(rate).attainment_question());
            bad(Query::new().p(0.95).rate(rate).percentile_question());
        }
    }

    #[test]
    fn stripes_past_64_and_coded_what_ifs_are_refused() {
        let bad = |r: Result<(Option<i64>, QueryKind), ServeError>, needle: &str| {
            assert!(
                matches!(r, Err(ServeError::BadQuery { reason }) if reason.contains(needle)),
                "{r:?}"
            )
        };
        bad(
            Query::new().sla(0.05).n_k(65, 4).attainment_question(),
            "<= 64",
        );
        bad(
            Query::new().p(0.95).n_k(65, 4).percentile_question(),
            "<= 64",
        );
        let coded_what_if = |q: Query| q.rate(50.0).n_k(4, 2);
        bad(
            coded_what_if(Query::new().sla(0.05)).attainment_question(),
            "`rate`",
        );
        bad(
            coded_what_if(Query::new().p(0.95)).percentile_question(),
            "`rate`",
        );
        // The widest stripe resolves.
        let (rq, kind) = Query::new()
            .sla(0.05)
            .n_k(64, 64)
            .attainment_question()
            .unwrap();
        assert_eq!((rq, kind), (None, QueryKind::coded_fraction(64, 64, 0.05)));
        let (_, kind) = Query::new()
            .p(0.95)
            .n_k(64, 64)
            .percentile_question()
            .unwrap();
        assert_eq!(kind, QueryKind::coded_percentile(64, 64, 0.95));
    }

    #[test]
    fn percentiles_that_snap_to_one_are_refused_plain_and_coded() {
        // 0.99995 and up round to 1 on the 1e-4 grid, where the model has
        // no percentile to give; 0.9999 is the top of the grid.
        for p in [0.99995, 0.99999, 1.0 - 1e-12] {
            for query in [Query::new().p(p), Query::new().p(p).n_k(6, 4)] {
                let refusal = query.percentile_question();
                assert!(
                    matches!(refusal, Err(ServeError::BadQuery { reason }) if reason.contains("1e-4")),
                    "p = {p}: {refusal:?}"
                );
            }
            assert!(!percentile_in_range(p), "{p}");
        }
        let (_, kind) = Query::new().p(0.9999).percentile_question().unwrap();
        assert_eq!(kind, QueryKind::percentile(0.9999));
        let (_, kind) = Query::new()
            .p(0.9999)
            .n_k(6, 4)
            .percentile_question()
            .unwrap();
        assert_eq!(kind, QueryKind::coded_percentile(6, 4, 0.9999));
        assert!(percentile_in_range(0.9999) && percentile_in_range(1e-9));
    }

    #[test]
    fn tenant_scoping_is_carried() {
        let t = TenantId::new("blue").unwrap();
        let q = Query::tenant(t.clone()).sla(0.05);
        assert_eq!(q.tenant_id(), &t);
        assert!(Query::new().tenant_id().is_default());
        assert_eq!(Query::default(), Query::new());
    }
}
