//! Property-based tests for the numerics crate.

use hslb_numerics::{lu, stats, vector, Cholesky, Matrix};
use proptest::prelude::*;

/// Strategy for a well-conditioned square matrix: random entries in
/// [-1, 1] with a dominant diagonal.
fn diag_dominant(n: usize) -> impl Strategy<Value = Matrix> {
    prop::collection::vec(-1.0f64..1.0, n * n).prop_map(move |data| {
        let mut m = Matrix::from_vec(n, n, data).unwrap();
        for i in 0..n {
            m[(i, i)] += n as f64 + 1.0;
        }
        m
    })
}

fn vec_n(n: usize) -> impl Strategy<Value = Vec<f64>> {
    prop::collection::vec(-10.0f64..10.0, n)
}

proptest! {
    #[test]
    fn lu_solve_residual_small((a, b) in (2usize..8).prop_flat_map(|n| (diag_dominant(n), vec_n(n)))) {
        let x = lu::solve(&a, &b).unwrap();
        let r = vector::sub(&a.matvec(&x).unwrap(), &b);
        prop_assert!(vector::norm_inf(&r) < 1e-8);
    }

    #[test]
    fn cholesky_solves_spd((a, b) in (2usize..8).prop_flat_map(|n| (diag_dominant(n), vec_n(n)))) {
        // A·Aᵀ + I is SPD for any A.
        let spd = {
            let mut s = a.matmul(&a.transpose()).unwrap();
            for i in 0..s.rows() {
                s[(i, i)] += 1.0;
            }
            s
        };
        let x = Cholesky::factor(&spd).unwrap().solve(&b).unwrap();
        let r = vector::sub(&spd.matvec(&x).unwrap(), &b);
        prop_assert!(vector::norm_inf(&r) < 1e-7);
    }

    #[test]
    fn transpose_is_involution(n in 1usize..6, m in 1usize..6, seed in 0u64..100) {
        let mut state = seed.wrapping_add(7);
        let mut next = || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            ((state >> 33) as f64) / (u32::MAX as f64)
        };
        let data: Vec<f64> = (0..n * m).map(|_| next()).collect();
        let a = Matrix::from_vec(n, m, data).unwrap();
        prop_assert_eq!(a.transpose().transpose(), a);
    }

    #[test]
    fn r_squared_at_most_one(ys in prop::collection::vec(-100.0f64..100.0, 2..20),
                             noise in prop::collection::vec(-1.0f64..1.0, 20)) {
        let preds: Vec<f64> = ys.iter().zip(&noise).map(|(y, n)| y + n).collect();
        if let Some(r2) = stats::r_squared(&ys, &preds) {
            prop_assert!(r2 <= 1.0 + 1e-12);
        }
    }

    #[test]
    fn dot_is_bilinear(a in vec_n(5), b in vec_n(5), alpha in -3.0f64..3.0) {
        let scaled: Vec<f64> = a.iter().map(|x| alpha * x).collect();
        let lhs = vector::dot(&scaled, &b);
        let rhs = alpha * vector::dot(&a, &b);
        prop_assert!((lhs - rhs).abs() < 1e-9 * (1.0 + rhs.abs()));
    }
}
