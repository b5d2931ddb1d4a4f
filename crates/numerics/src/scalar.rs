//! One-dimensional minimization and root finding.
//!
//! The exhaustive layout optimizer reduces each node-budget choice to 1-D
//! subproblems (e.g. "how to split `n_a` nodes between ice and land"), and
//! the fitting code needs safeguarded scalar searches; both live here.

/// Golden-section search for the minimum of a unimodal function on `[a, b]`.
///
/// Returns `(x_min, f(x_min))`. If the function is not unimodal the result
/// is a local minimum within the bracket.
pub fn golden_section<F: FnMut(f64) -> f64>(
    mut f: F,
    mut a: f64,
    mut b: f64,
    tol: f64,
    max_iter: usize,
) -> (f64, f64) {
    assert!(a <= b, "invalid bracket");
    const INV_PHI: f64 = 0.618_033_988_749_894_8;
    let mut c = b - INV_PHI * (b - a);
    let mut d = a + INV_PHI * (b - a);
    let mut fc = f(c);
    let mut fd = f(d);
    for _ in 0..max_iter {
        if (b - a).abs() <= tol {
            break;
        }
        if fc < fd {
            b = d;
            d = c;
            fd = fc;
            c = b - INV_PHI * (b - a);
            fc = f(c);
        } else {
            a = c;
            c = d;
            fc = fd;
            d = a + INV_PHI * (b - a);
            fd = f(d);
        }
    }
    let xm = 0.5 * (a + b);
    let fm = f(xm);
    if fc <= fd && fc <= fm {
        (c, fc)
    } else if fd <= fm {
        (d, fd)
    } else {
        (xm, fm)
    }
}

/// Minimize `f` over the integers in `[lo, hi]` assuming `f` is unimodal
/// on that range. Exact for unimodal `f`; ternary search, O(log(hi−lo))
/// evaluations.
pub fn integer_ternary_min<F: FnMut(i64) -> f64>(mut f: F, mut lo: i64, mut hi: i64) -> (i64, f64) {
    assert!(lo <= hi, "invalid integer bracket");
    while hi - lo > 2 {
        let m1 = lo + (hi - lo) / 3;
        let m2 = hi - (hi - lo) / 3;
        if f(m1) <= f(m2) {
            hi = m2 - 1;
        } else {
            lo = m1 + 1;
        }
    }
    let mut best = (lo, f(lo));
    for x in lo + 1..=hi {
        let fx = f(x);
        if fx < best.1 {
            best = (x, fx);
        }
    }
    best
}

/// Bisection root finding for a continuous `f` with `f(a)·f(b) ≤ 0`.
///
/// Returns `None` when the bracket does not straddle a sign change.
pub fn bisect<F: FnMut(f64) -> f64>(
    mut f: F,
    mut a: f64,
    mut b: f64,
    tol: f64,
    max_iter: usize,
) -> Option<f64> {
    let mut fa = f(a);
    let fb = f(b);
    if fa == 0.0 {
        return Some(a);
    }
    if fb == 0.0 {
        return Some(b);
    }
    if fa * fb > 0.0 {
        return None;
    }
    for _ in 0..max_iter {
        let m = 0.5 * (a + b);
        let fm = f(m);
        if fm == 0.0 || (b - a).abs() <= tol {
            return Some(m);
        }
        if fa * fm < 0.0 {
            b = m;
        } else {
            a = m;
            fa = fm;
        }
    }
    Some(0.5 * (a + b))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn golden_finds_parabola_minimum() {
        let (x, fx) = golden_section(|x| (x - 3.0) * (x - 3.0) + 1.0, -10.0, 10.0, 1e-10, 200);
        assert!((x - 3.0).abs() < 1e-6);
        assert!((fx - 1.0).abs() < 1e-10);
    }

    #[test]
    fn golden_handles_boundary_minimum() {
        let (x, _) = golden_section(|x| x, 2.0, 5.0, 1e-12, 200);
        assert!((x - 2.0).abs() < 1e-6);
    }

    #[test]
    fn integer_ternary_exact_on_unimodal() {
        let f = |x: i64| ((x - 37) * (x - 37)) as f64;
        assert_eq!(integer_ternary_min(f, 0, 1000), (37, 0.0));
        // Boundary minima.
        assert_eq!(integer_ternary_min(|x| x as f64, 5, 9).0, 5);
        assert_eq!(integer_ternary_min(|x| -(x as f64), 5, 9).0, 9);
        // Degenerate single-point bracket.
        assert_eq!(integer_ternary_min(|_| 1.0, 4, 4), (4, 1.0));
    }

    #[test]
    fn bisect_finds_sqrt2() {
        let r = bisect(|x| x * x - 2.0, 0.0, 2.0, 1e-12, 200).unwrap();
        assert!((r - std::f64::consts::SQRT_2).abs() < 1e-9);
    }

    #[test]
    fn bisect_rejects_bad_bracket() {
        assert!(bisect(|x| x * x + 1.0, -1.0, 1.0, 1e-12, 100).is_none());
    }
}
