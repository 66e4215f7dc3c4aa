//! # cos-distr
//!
//! Probability distributions for the `cosmodel` reproduction of the ICPP'17
//! latency-percentile paper. Every service-time family carries a closed-form
//! Laplace–Stieltjes transform evaluated at complex arguments (the
//! [`Lst`] trait) so the queueing layer can run the
//! Pollaczek–Khinchin machinery, plus sampling so the simulator substrate can
//! draw from the *same* laws the model assumes.
//!
//! * [`degenerate`], [`exponential`], [`gamma`], [`normal`], [`uniform`] —
//!   the paper's four fitting candidates (§IV-A) plus Uniform;
//! * [`lognormal`], [`pareto`] — workload-side laws (object sizes)
//!   without closed-form LSTs;
//! * [`mixture`] — cache-miss mixtures (`m·disk + (1−m)·δ`) and device
//!   mixtures (Eq. 3);
//! * [`empirical`] — recorded samples, empirical CDF, KS statistic;
//! * [`fit`] — the §IV-A fitting/model-selection pass (Fig. 5).

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod degenerate;
pub mod empirical;
pub mod exponential;
pub mod fit;
pub mod gamma;
pub mod lognormal;
pub mod mixture;
pub mod normal;
pub mod pareto;
pub mod traits;
pub mod uniform;

pub use degenerate::Degenerate;
pub use empirical::Empirical;
pub use exponential::Exponential;
pub use fit::{fit_best, fit_gamma_mle, Family, FitReport, Fitted};
pub use gamma::Gamma;
pub use lognormal::LogNormal;
pub use mixture::Mixture;
pub use normal::Normal;
pub use pareto::Pareto;
pub use traits::{Distribution, DynService, Lst, ServiceDistribution};
pub use uniform::Uniform;
