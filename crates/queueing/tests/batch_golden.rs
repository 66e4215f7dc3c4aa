//! Golden tests: every batch LST path in the queueing layer must be
//! bit-identical to its scalar counterpart.

use std::sync::Arc;

use cos_distr::{Degenerate, Exponential, Gamma, Mixture};
use cos_numeric::Complex64;
use cos_queueing::{from_distribution, Mg1, Mm1k, ServiceTime, UnionOperation};

fn contour() -> Vec<Complex64> {
    let mut s = Vec::new();
    let x = 18.4 / (2.0 * 0.05);
    s.push(Complex64::from_real(x));
    for k in 1..=48 {
        s.push(Complex64::new(x, k as f64 * std::f64::consts::PI / 0.05));
    }
    s
}

#[track_caller]
fn assert_bits_equal(name: &str, got: &[Complex64], want: &[Complex64]) {
    for (i, (g, w)) in got.iter().zip(want.iter()).enumerate() {
        assert_eq!(
            (g.re.to_bits(), g.im.to_bits()),
            (w.re.to_bits(), w.im.to_bits()),
            "{name}: drift at point {i} ({g:?} vs {w:?})"
        );
    }
}

fn union() -> UnionOperation {
    let disk = Arc::new(Gamma::new(3.0, 250.0));
    UnionOperation::new(
        from_distribution(Degenerate::new(0.0005)),
        from_distribution(Mixture::cache_miss(0.3, disk.clone())),
        from_distribution(Mixture::cache_miss(0.25, disk.clone())),
        from_distribution(Mixture::cache_miss(0.4, disk)),
        0.35,
    )
}

#[test]
fn union_operation_batches_are_bit_identical() {
    let u = union();
    let s = contour();
    let mut lst = vec![Complex64::ZERO; s.len()];
    u.lst_batch(&s, &mut lst);
    let want_lst: Vec<Complex64> = s.iter().map(|&si| ServiceTime::lst(&u, si)).collect();
    assert_bits_equal("union lst", &lst, &want_lst);

    let mut resp = vec![Complex64::ZERO; s.len()];
    u.response_lst_batch(&s, &mut resp);
    let want_resp: Vec<Complex64> = s.iter().map(|&si| u.response_lst(si)).collect();
    assert_bits_equal("union response", &resp, &want_resp);

    // One factor pass must reproduce the response tail, with or without
    // its parse factor, and the union LST.
    let want_free: Vec<Complex64> = s.iter().map(|&si| u.parse_free_response_lst(si)).collect();
    for (parse_in_tail, want_tail) in [(true, &want_resp), (false, &want_free)] {
        let factors = u.factors_batch(&s, parse_in_tail);
        assert_bits_equal("factored tail", factors.tail(), want_tail);
        let mut lst2 = vec![Complex64::ZERO; s.len()];
        u.lst_given_factors(&factors, &mut lst2);
        assert_bits_equal("factored lst", &lst2, &want_lst);
    }
}

#[test]
fn union_factors_serve_every_extra_read_count() {
    // The factors carry no `p`: a union operation over the same component
    // laws with another extra-read count reads its LST off them exactly.
    let u = union();
    let s = contour();
    let factors = u.factors_batch(&s, false);
    let disk = Arc::new(Gamma::new(3.0, 250.0));
    for p in [0.0, 0.35000000000000003, 1.7] {
        let other = UnionOperation::new(
            from_distribution(Degenerate::new(0.0005)),
            from_distribution(Mixture::cache_miss(0.3, disk.clone())),
            from_distribution(Mixture::cache_miss(0.25, disk.clone())),
            from_distribution(Mixture::cache_miss(0.4, disk.clone())),
            p,
        );
        let mut got = vec![Complex64::ZERO; s.len()];
        other.lst_given_factors(&factors, &mut got);
        let want: Vec<Complex64> = s.iter().map(|&si| ServiceTime::lst(&other, si)).collect();
        assert_bits_equal(&format!("p={p}"), &got, &want);
    }
}

#[test]
fn mg1_batches_are_bit_identical() {
    let q = Mg1::new(60.0, Arc::new(union())).unwrap();
    let s = contour();
    let mut wait = vec![Complex64::ZERO; s.len()];
    q.waiting_lst_batch(&s, &mut wait);
    let want_wait: Vec<Complex64> = s.iter().map(|&si| q.waiting_lst(si)).collect();
    assert_bits_equal("mg1 waiting", &wait, &want_wait);

    let mut soj = vec![Complex64::ZERO; s.len()];
    q.sojourn_lst_batch(&s, &mut soj);
    let want_soj: Vec<Complex64> = s.iter().map(|&si| q.sojourn_lst(si)).collect();
    assert_bits_equal("mg1 sojourn", &soj, &want_soj);
}

#[test]
fn mg1_batch_exact_for_simple_service_too() {
    let q = Mg1::new(1.0, from_distribution(Exponential::new(2.0))).unwrap();
    let s = contour();
    let mut soj = vec![Complex64::ZERO; s.len()];
    q.sojourn_lst_batch(&s, &mut soj);
    let want: Vec<Complex64> = s.iter().map(|&si| q.sojourn_lst(si)).collect();
    assert_bits_equal("mm1 sojourn", &soj, &want);
}

#[test]
fn mm1k_batch_is_bit_identical() {
    for &(l, v, k) in &[(1.0, 2.0, 4usize), (5.0, 2.0, 8), (2.0, 2.0, 3)] {
        let q = Mm1k::new(l, v, k);
        let s = contour();
        let mut out = vec![Complex64::ZERO; s.len()];
        q.sojourn_lst_batch(&s, &mut out);
        let want: Vec<Complex64> = s.iter().map(|&si| q.sojourn_lst(si)).collect();
        assert_bits_equal("mm1k sojourn", &out, &want);
    }
}
