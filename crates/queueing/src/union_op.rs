//! The union operation (§III-B) — the paper's first contribution.
//!
//! The event-driven backend process interleaves operations of different
//! requests: parse, index lookup, metadata read, and chunked data reads
//! (continuation chunk reads of *other* requests re-enter the FCFS queue).
//! The paper packs one parse + one index lookup + one metadata read + one
//! data read + a Poisson(`p`)-distributed number of *extra* data reads into a
//! single "union operation", turning the operation queue into an M/G/1 queue
//! of i.i.d. union operations, where `p = (r_data − r)/r`.
//!
//! In transform space the Poisson mixture collapses:
//!
//! `L[B](s) = L[parse]·L[index]·L[meta]·L[data] · exp(p (L[data](s) − 1))`.

use crate::service::{DynServiceTime, ServiceTime};
use cos_numeric::{lanes, Complex64};

/// The union operation service-time law.
pub struct UnionOperation {
    parse: DynServiceTime,
    index: DynServiceTime,
    meta: DynServiceTime,
    data: DynServiceTime,
    extra_reads: f64,
}

impl std::fmt::Debug for UnionOperation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("UnionOperation")
            .field("parse_mean", &self.parse.mean())
            .field("index_mean", &self.index.mean())
            .field("meta_mean", &self.meta.mean())
            .field("data_mean", &self.data.mean())
            .field("extra_reads", &self.extra_reads)
            .finish()
    }
}

impl UnionOperation {
    /// Builds a union operation from the four (already cache-mixed)
    /// per-operation laws and the mean number of extra data reads
    /// `p = (r_data − r)/r`.
    ///
    /// # Panics
    /// Panics if `extra_reads` is negative or non-finite.
    pub fn new(
        parse: DynServiceTime,
        index: DynServiceTime,
        meta: DynServiceTime,
        data: DynServiceTime,
        extra_reads: f64,
    ) -> Self {
        assert!(
            extra_reads.is_finite() && extra_reads >= 0.0,
            "extra reads per union operation must be >= 0, got {extra_reads}"
        );
        UnionOperation {
            parse,
            index,
            meta,
            data,
            extra_reads,
        }
    }

    /// Mean extra data reads per union operation (`p`).
    pub fn extra_reads(&self) -> f64 {
        self.extra_reads
    }

    /// LST of the *response tail* of a request at the backend: one parse +
    /// index + meta + first data chunk, with **no** extra reads (the
    /// `parse ∗ index ∗ meta ∗ data` factor of Eq. 1).
    pub fn response_lst(&self, s: Complex64) -> Complex64 {
        self.parse.lst(s) * self.index.lst(s) * self.meta.lst(s) * self.data.lst(s)
    }

    /// LST of the response tail with its parse factor left out:
    /// `index ∗ meta ∗ data`. When the parse law is a point mass at `D`,
    /// [`UnionOperation::response_lst`] is this times `e^{−sD}`.
    pub fn parse_free_response_lst(&self, s: Complex64) -> Complex64 {
        self.index.lst(s) * self.meta.lst(s) * self.data.lst(s)
    }

    /// Mean of the response tail (no extra reads).
    pub fn response_mean(&self) -> f64 {
        self.parse.mean() + self.index.mean() + self.meta.mean() + self.data.mean()
    }

    /// Batch [`UnionOperation::response_lst`], in 32-point pieces on the
    /// stack.
    pub fn response_lst_batch(&self, s: &[Complex64], out: &mut [Complex64]) {
        assert_eq!(s.len(), out.len(), "abscissa/output length mismatch");
        let (mut product, mut data_minus_one) = ([Complex64::ZERO; 32], [Complex64::ZERO; 32]);
        for (s, out) in s.chunks(32).zip(out.chunks_mut(32)) {
            let n = s.len();
            self.factors_into(s, true, out, &mut product[..n], &mut data_minus_one[..n]);
        }
    }

    /// Evaluates each component LST once over `s` and writes the products
    /// every response transform needs (Eq. 1 and Eq. 2) into the caller's
    /// buffers: the response tail, with or without its parse factor
    /// (`parse_in_tail`), and the union operation's LST split so that the
    /// mean extra-read count `p` enters last
    /// ([`UnionOperation::lst_given`]): `product` = `parse · index · meta ·
    /// data` and `data_minus_one` = `L_data − 1`. No arrival rate enters,
    /// so one pass serves every union operation over the same component
    /// laws, whatever its `p`. The products are lane-width loops that keep
    /// the scalar left-to-right grouping.
    pub fn factors_into(
        &self,
        s: &[Complex64],
        parse_in_tail: bool,
        tail: &mut [Complex64],
        product: &mut [Complex64],
        data_minus_one: &mut [Complex64],
    ) {
        let n = s.len();
        assert!(
            tail.len() == n && product.len() == n && data_minus_one.len() == n,
            "abscissa/output length mismatch"
        );
        // `data_minus_one` holds L_meta, then L_data, before its own value.
        self.parse.lst_batch(s, product);
        self.index.lst_batch(s, tail);
        self.meta.lst_batch(s, data_minus_one);
        let (p, t, m) = (&mut *product, &mut *tail, &*data_minus_one);
        lanes::at_lane_width(
            #[inline(always)]
            move || times_meta(p, t, m),
        );
        self.data.lst_batch(s, data_minus_one);
        lanes::at_lane_width(
            #[inline(always)]
            move || times_data(parse_in_tail, product, tail, data_minus_one),
        );
    }

    /// [`UnionOperation::factors_into`] into buffers of its own.
    pub fn factors_batch(&self, s: &[Complex64], parse_in_tail: bool) -> UnionFactors {
        let n = s.len();
        let mut factors = UnionFactors {
            tail: vec![Complex64::ZERO; n],
            product: vec![Complex64::ZERO; n],
            data_minus_one: vec![Complex64::ZERO; n],
        };
        self.factors_into(
            s,
            parse_in_tail,
            &mut factors.tail,
            &mut factors.product,
            &mut factors.data_minus_one,
        );
        factors
    }

    /// The union operation's LST at every abscissa of `product` and
    /// `data_minus_one` ([`UnionOperation::factors_into`]):
    /// `parse · index · meta · data · e^{p (L_data − 1)}` with this
    /// operation's `p`, the exponential as one lane-kernel batch.
    /// Bit-identical to [`ServiceTime::lst`] at each abscissa when the
    /// factors came from the same component laws.
    pub fn lst_given(
        &self,
        product: &[Complex64],
        data_minus_one: &[Complex64],
        out: &mut [Complex64],
    ) {
        assert_eq!(product.len(), out.len(), "factor/output length mismatch");
        lanes::exp_scaled_batch(self.extra_reads, data_minus_one, out);
        lanes::at_lane_width(
            #[inline(always)]
            move || {
                for (o, product) in out.iter_mut().zip(product) {
                    *o = *product * *o;
                }
            },
        );
    }

    /// [`UnionOperation::lst_given`] over [`UnionOperation::factors_batch`].
    pub fn lst_given_factors(&self, factors: &UnionFactors, out: &mut [Complex64]) {
        self.lst_given(&factors.product, &factors.data_minus_one, out)
    }
}

/// `product · meta` and `tail · meta` at every lane: the second of the
/// four factors of [`UnionOperation::factors_into`].
#[inline(always)]
fn times_meta(product: &mut [Complex64], tail: &mut [Complex64], meta: &[Complex64]) {
    for ((p, t), meta) in product.iter_mut().zip(tail.iter_mut()).zip(meta) {
        *p = *p * *t * *meta;
        *t *= *meta;
    }
}

/// The last factor, `L_data`, at every lane: into the product, into the
/// tail (or the tail is the product, parse factor and all), and `L_data − 1`
/// in place of `data`.
#[inline(always)]
fn times_data(
    parse_in_tail: bool,
    product: &mut [Complex64],
    tail: &mut [Complex64],
    data: &mut [Complex64],
) {
    for ((p, t), d) in product.iter_mut().zip(tail.iter_mut()).zip(data.iter_mut()) {
        *p *= *d;
        *t = if parse_in_tail { *p } else { *t * *d };
        *d -= Complex64::ONE;
    }
}

/// A union operation's component transforms at a batch of abscissae, from
/// [`UnionOperation::factors_batch`].
#[derive(Debug, Clone)]
pub struct UnionFactors {
    tail: Vec<Complex64>,
    product: Vec<Complex64>,
    data_minus_one: Vec<Complex64>,
}

impl UnionFactors {
    /// The response tail at each abscissa: `parse · index · meta · data`,
    /// or `index · meta · data` when the parse factor was left out.
    pub fn tail(&self) -> &[Complex64] {
        &self.tail
    }

    /// `parse · index · meta · data` at each abscissa.
    pub fn product(&self) -> &[Complex64] {
        &self.product
    }

    /// `L_data − 1` at each abscissa.
    pub fn data_minus_one(&self) -> &[Complex64] {
        &self.data_minus_one
    }
}

impl ServiceTime for UnionOperation {
    fn lst(&self, s: Complex64) -> Complex64 {
        // Σ_j Poisson(j; p) · L_parse L_index L_meta L_data^{j+1}
        //   = L_parse L_index L_meta L_data e^{p (L_data − 1)}.
        let ld = self.data.lst(s);
        self.parse.lst(s)
            * self.index.lst(s)
            * self.meta.lst(s)
            * ld
            * ((ld - Complex64::ONE) * self.extra_reads).exp()
    }

    fn lst_batch(&self, s: &[Complex64], out: &mut [Complex64]) {
        assert_eq!(s.len(), out.len(), "abscissa/output length mismatch");
        let mut tail = [Complex64::ZERO; 32];
        let (mut product, mut data_minus_one) = (tail, tail);
        for (s, out) in s.chunks(32).zip(out.chunks_mut(32)) {
            let n = s.len();
            let (product, data_minus_one) = (&mut product[..n], &mut data_minus_one[..n]);
            self.factors_into(s, true, &mut tail[..n], product, data_minus_one);
            self.lst_given(product, data_minus_one, out);
        }
    }

    fn mean(&self) -> f64 {
        // B̄ = parse̅ + index̅ + meta̅ + (1 + p)·data̅.
        self.parse.mean()
            + self.index.mean()
            + self.meta.mean()
            + (1.0 + self.extra_reads) * self.data.mean()
    }

    fn second_moment(&self) -> f64 {
        // B = C + S: C = parse + index + meta (independent),
        // S = Σ_{i=1}^{1+J} data_i with J ~ Poisson(p).
        // Var(S) = E[1+J]·Var(D) + Var(1+J)·E[D]²  (compound count variance)
        // with the Poisson-count extras contributing E[D²] per unit rate:
        // Var(S) = (1+p)Var(D) + p·E[D]², E[S] = (1+p)E[D].
        let var = |m2: f64, m: f64| m2 - m * m;
        let c_mean = self.parse.mean() + self.index.mean() + self.meta.mean();
        let c_var = var(self.parse.second_moment(), self.parse.mean())
            + var(self.index.second_moment(), self.index.mean())
            + var(self.meta.second_moment(), self.meta.mean());
        let d_mean = self.data.mean();
        let d_var = var(self.data.second_moment(), d_mean);
        let p = self.extra_reads;
        let s_mean = (1.0 + p) * d_mean;
        let s_var = (1.0 + p) * d_var + p * d_mean * d_mean;
        let total_mean = c_mean + s_mean;
        (c_var + s_var) + total_mean * total_mean
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::service::from_distribution;
    use cos_distr::{Degenerate, Distribution as _, Exponential, Gamma, Mixture};
    use std::sync::Arc;

    fn deg(v: f64) -> DynServiceTime {
        from_distribution(Degenerate::new(v))
    }

    #[test]
    fn no_extra_reads_reduces_to_convolution() {
        let u = UnionOperation::new(deg(1.0), deg(2.0), deg(3.0), deg(4.0), 0.0);
        assert_eq!(u.mean(), 10.0);
        let s = Complex64::new(0.2, 0.5);
        // Convolution of atoms: e^{-10s}.
        let want = (s * (-10.0)).exp();
        assert!((ServiceTime::lst(&u, s) - want).abs() < 1e-12);
        assert_eq!(u.second_moment(), 100.0);
    }

    #[test]
    fn mean_matches_paper_formula() {
        // B̄ = parse̅ + index̅ + meta̅ + (1+p)·data̅ (paper, §III-B).
        let parse = deg(0.0001);
        let index = from_distribution(Gamma::new(2.0, 160.0)); // 12.5 ms
        let meta = from_distribution(Gamma::new(2.0, 250.0)); // 8 ms
        let data = from_distribution(Gamma::new(2.0, 140.0)); // ~14.3 ms
        let p = 0.7;
        let u = UnionOperation::new(parse.clone(), index.clone(), meta.clone(), data.clone(), p);
        let want = parse.mean() + index.mean() + meta.mean() + (1.0 + p) * data.mean();
        assert!((ServiceTime::mean(&u) - want).abs() < 1e-12);
    }

    #[test]
    fn lst_matches_explicit_poisson_sum() {
        // Check the exp() collapse against the paper's explicit series
        // Σ_j p^j e^{-p}/j! (parse ∗ index ∗ meta ∗ data^{j+1}).
        let parse = deg(0.001);
        let index = from_distribution(Exponential::new(100.0));
        let meta = from_distribution(Exponential::new(200.0));
        let data = from_distribution(Exponential::new(80.0));
        let p = 1.3;
        let u = UnionOperation::new(parse.clone(), index.clone(), meta.clone(), data.clone(), p);
        let s = Complex64::new(5.0, 40.0);
        let mut series = Complex64::ZERO;
        let mut pois = (-p).exp(); // p^0 e^{-p} / 0!
        for j in 0..80 {
            series += parse.lst(s) * index.lst(s) * meta.lst(s) * data.lst(s).powi(j + 1) * pois;
            pois *= p / (j as f64 + 1.0);
        }
        assert!((ServiceTime::lst(&u, s) - series).abs() < 1e-12);
    }

    #[test]
    fn second_moment_matches_monte_carlo() {
        use rand::rngs::SmallRng;
        use rand::{Rng, SeedableRng};
        let index = Gamma::new(2.0, 160.0);
        let meta = Gamma::new(1.5, 150.0);
        let data = Gamma::new(2.5, 180.0);
        let p = 0.9;
        let u = UnionOperation::new(
            deg(0.0005),
            from_distribution(index),
            from_distribution(meta),
            from_distribution(data),
            p,
        );
        let mut rng = SmallRng::seed_from_u64(71);
        let n = 300_000;
        let mut sum = 0.0;
        let mut sum2 = 0.0;
        for _ in 0..n {
            // Poisson(p) by inversion (p is small).
            let mut j = 0u32;
            let mut acc = (-p).exp();
            let mut cum = acc;
            let cap: f64 = rng.gen();
            while cap > cum {
                j += 1;
                acc *= p / j as f64;
                cum += acc;
            }
            let mut b = 0.0005 + index.sample(&mut rng) + meta.sample(&mut rng);
            for _ in 0..=j {
                b += data.sample(&mut rng);
            }
            sum += b;
            sum2 += b * b;
        }
        let mc_mean = sum / n as f64;
        let mc_m2 = sum2 / n as f64;
        assert!((mc_mean - ServiceTime::mean(&u)).abs() / ServiceTime::mean(&u) < 0.01);
        assert!(
            (mc_m2 - u.second_moment()).abs() / u.second_moment() < 0.02,
            "mc {mc_m2} model {}",
            u.second_moment()
        );
    }

    #[test]
    fn cache_mixed_components_zero_out_at_full_hit() {
        // ODOPR-style: all index/meta hits (miss = 0) leave only parse+data.
        let disk = Arc::new(Gamma::new(2.0, 100.0));
        let index: DynServiceTime = Arc::new(Mixture::cache_miss(0.0, disk.clone()));
        let meta: DynServiceTime = Arc::new(Mixture::cache_miss(0.0, disk.clone()));
        let data: DynServiceTime = Arc::new(Mixture::cache_miss(1.0, disk.clone()));
        let u = UnionOperation::new(deg(0.001), index, meta, data, 0.0);
        let disk_mean = cos_distr::Distribution::mean(&*disk);
        assert!((ServiceTime::mean(&u) - (0.001 + disk_mean)).abs() < 1e-12);
    }

    #[test]
    fn response_lst_excludes_extra_reads() {
        let data = from_distribution(Exponential::new(50.0));
        let u = UnionOperation::new(deg(0.0), deg(0.0), deg(0.0), data.clone(), 2.0);
        let s = Complex64::from_real(10.0);
        // Response tail has exactly one data read.
        assert!((u.response_lst(s) - data.lst(s)).abs() < 1e-14);
        assert!(u.response_mean() < ServiceTime::mean(&u));
    }

    #[test]
    #[should_panic]
    fn rejects_negative_extra_reads() {
        UnionOperation::new(deg(0.0), deg(0.0), deg(0.0), deg(1.0), -0.1);
    }
}
