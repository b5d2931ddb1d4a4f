//! The paper's performance model `T(n) = a/n + b·n^c + d` and its fit.

use crate::lm::{LmOptions, ResidualModel};
use crate::multistart::{multistart_fit_report, EarlyStopPolicy, MultistartOptions};
use hslb_numerics::{stats, Matrix};

/// A fitted performance curve `T(n) = a/n + b·n^c + d`.
///
/// * `a/n` — `T^sca`, the perfectly scalable part (Amdahl's parallel term);
/// * `b·n^c` — `T^nln`, the partially-parallel/communication term. On
///   Intrepid the paper observed it *increasing*, with `b, c` near zero;
/// * `d` — `T^ser`, the serial floor.
///
/// All coefficients are non-negative (Table II, line 11). With `c ≥ 1`
/// the curve is convex on `n > 0`, the property §III-E relies on for
/// global optimality of the outer-approximation branch-and-bound.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ScalingCurve {
    pub a: f64,
    pub b: f64,
    pub c: f64,
    pub d: f64,
}

impl ScalingCurve {
    /// Evaluate `T(n)`.
    pub fn eval(&self, n: f64) -> f64 {
        self.a / n + self.b * n.powf(self.c) + self.d
    }

    /// First derivative `T′(n)`.
    pub fn deriv(&self, n: f64) -> f64 {
        -self.a / (n * n) + self.b * self.c * n.powf(self.c - 1.0)
    }

    /// Is the curve convex on `n > 0`? Requires non-negative coefficients
    /// and an exponent outside the concave band `(0, 1)`.
    pub fn is_convex(&self) -> bool {
        self.a >= 0.0 && self.b >= 0.0 && self.d >= 0.0 && !(self.c > 0.0 && self.c < 1.0)
    }
}

/// Result of fitting a [`ScalingCurve`] to benchmark data.
#[derive(Debug, Clone)]
pub struct ScalingFit {
    /// The fitted curve.
    pub curve: ScalingCurve,
    /// Coefficient of determination against the fitted data. `NAN` for
    /// synthetic fits (no data backs them).
    pub r_squared: f64,
    /// Root-mean-square error in seconds (`NAN` for synthetic fits).
    pub rmse: f64,
    /// Sum of squared residuals (the objective of Table II line 10).
    pub sse: f64,
    /// Number of data points used (0 for synthetic fits).
    pub points: usize,
    /// Total Levenberg–Marquardt iterations across all multistart runs.
    pub lm_iterations: usize,
    /// Starts that converged into the winning basin (see
    /// [`crate::MultistartReport::basin_hits`]).
    pub basin_hits: usize,
    /// Starts actually run (< the configured count when the early-stop
    /// policy fired; 0 for synthetic fits).
    pub starts_run: usize,
    /// Did the multistart early-stop policy cut the run short?
    pub early_stopped: bool,
    /// True when the curve was injected rather than fitted — the
    /// degraded-accuracy path downstream must not mistake it for a
    /// measured fit.
    pub synthetic: bool,
}

impl ScalingFit {
    /// Wrap a hand-written curve as a fit with no backing data. Quality
    /// diagnostics are `NAN`/0 and [`ScalingFit::synthetic`] is set, so
    /// accuracy gates can tell it apart from a real fit.
    pub fn synthetic(curve: ScalingCurve) -> ScalingFit {
        ScalingFit {
            curve,
            r_squared: f64::NAN,
            rmse: f64::NAN,
            sse: f64::NAN,
            points: 0,
            lm_iterations: 0,
            basin_hits: 0,
            starts_run: 0,
            early_stopped: false,
            synthetic: true,
        }
    }
}

/// Options for [`fit_scaling`].
#[derive(Debug, Clone)]
pub struct ScalingFitOptions {
    /// Bounds on the exponent `c`. The default `[1, 3]` keeps every fitted
    /// curve convex (see [`ScalingCurve::is_convex`]); widen the lower
    /// bound below 1 only if the consumer can handle nonconvex curves.
    pub c_bounds: (f64, f64),
    /// Number of multistart points.
    pub starts: usize,
    /// Seed for start generation.
    pub seed: u64,
    /// Early-stop policy for the multistart (§III-C fast path). `None`
    /// runs every start; the default policy stops once consecutive starts
    /// confirm the incumbent basin. The fitted curve is bit-identical
    /// either way on the inputs `hslb/tests/fast_path.rs` pins, not on
    /// every input: on random data a late start can find a better basin
    /// that the early stop never reaches.
    pub early_stop: Option<EarlyStopPolicy>,
}

impl Default for ScalingFitOptions {
    fn default() -> Self {
        ScalingFitOptions {
            c_bounds: (1.0, 3.0),
            starts: 24,
            seed: 0x1234_5678,
            early_stop: None,
        }
    }
}

/// The least-squares problem of Table II line 10 as a [`ResidualModel`]:
/// parameters `p = [a, b, c, d]`, residual `r_i = T(n_i) − y_i`.
struct ScalingResiduals<'a> {
    data: &'a [(f64, f64)],
    c_bounds: (f64, f64),
    /// Scale cap for a/b/d derived from the data, to keep starts sane.
    y_max: f64,
    n_max: f64,
}

impl ResidualModel for ScalingResiduals<'_> {
    fn num_params(&self) -> usize {
        4
    }
    fn num_residuals(&self) -> usize {
        self.data.len()
    }
    fn residuals(&self, p: &[f64], out: &mut [f64]) {
        let [a, b, c, d] = [p[0], p[1], p[2], p[3]];
        for (i, &(n, y)) in self.data.iter().enumerate() {
            out[i] = a / n + b * n.powf(c) + d - y;
        }
    }
    fn jacobian(&self, p: &[f64], jac: &mut Matrix) {
        let [_, b, c, _] = [p[0], p[1], p[2], p[3]];
        for (i, &(n, _)) in self.data.iter().enumerate() {
            let nc = n.powf(c);
            jac[(i, 0)] = 1.0 / n; // ∂r/∂a
            jac[(i, 1)] = nc; // ∂r/∂b
            jac[(i, 2)] = b * nc * n.ln(); // ∂r/∂c
            jac[(i, 3)] = 1.0; // ∂r/∂d
        }
    }
    fn lower_bounds(&self) -> Vec<f64> {
        vec![0.0, 0.0, self.c_bounds.0, 0.0]
    }
    fn upper_bounds(&self) -> Vec<f64> {
        // a is the single-node work: bounded by y_max·n_max (time at the
        // smallest measured node count scaled up). b is bounded by the
        // largest time divided by the smallest n^c it could multiply.
        vec![
            self.y_max * self.n_max * 10.0,
            self.y_max,
            self.c_bounds.1,
            self.y_max,
        ]
    }
}

/// Errors from [`fit_scaling`].
#[derive(Debug, Clone, PartialEq)]
pub enum FitError {
    /// Fewer than two data points, or non-positive node counts/times.
    BadData(&'static str),
}

impl std::fmt::Display for FitError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FitError::BadData(why) => write!(f, "cannot fit scaling curve: {why}"),
        }
    }
}

impl std::error::Error for FitError {}

/// Fit the paper's performance model to `(nodes, seconds)` observations.
///
/// The paper recommends at least four points spanning the smallest
/// memory-feasible and the largest available node counts (§III-C); with
/// fewer points the four-parameter model is underdetermined and the
/// returned `r_squared` should be treated with suspicion rather than the
/// call rejected — mirroring how the AMPL script behaves.
///
/// # Examples
///
/// ```
/// use hslb_nlsq::{fit_scaling, ScalingFitOptions};
///
/// // Component timings at four node counts (the paper's minimum).
/// let data = [(24.0, 63.8), (80.0, 20.1), (384.0, 5.8), (1664.0, 2.9)];
/// let fit = fit_scaling(&data, &ScalingFitOptions::default()).unwrap();
/// assert!(fit.r_squared > 0.99);
/// // Interpolate a count that was never benchmarked.
/// let t_at_200 = fit.curve.eval(200.0);
/// assert!(t_at_200 > 2.9 && t_at_200 < 63.8);
/// ```
pub fn fit_scaling(data: &[(f64, f64)], opts: &ScalingFitOptions) -> Result<ScalingFit, FitError> {
    if data.len() < 2 {
        return Err(FitError::BadData("need at least two points"));
    }
    if data
        .iter()
        .any(|&(n, y)| n < 1.0 || !y.is_finite() || y <= 0.0)
    {
        return Err(FitError::BadData(
            "node counts must be ≥ 1 and times positive",
        ));
    }
    let y_max = data.iter().map(|&(_, y)| y).fold(0.0_f64, f64::max);
    let n_max = data.iter().map(|&(n, _)| n).fold(0.0_f64, f64::max);
    let model = ScalingResiduals {
        data,
        c_bounds: opts.c_bounds,
        y_max,
        n_max,
    };

    // Physically-motivated initial guess: all work scalable (a ≈ y·n at
    // the smallest point), small serial floor at the largest point.
    // `data` was validated non-empty at the top of the fit.
    #[allow(clippy::expect_used)]
    let (n_min_pt, y_at_nmin) = data
        .iter()
        .copied()
        .min_by(|a, b| hslb_numerics::float::cmp_f64(a.0, b.0))
        .expect("nonempty");
    #[allow(clippy::expect_used)]
    let y_at_nmax = data
        .iter()
        .copied()
        .max_by(|a, b| hslb_numerics::float::cmp_f64(a.0, b.0))
        .expect("nonempty")
        .1;
    let p0 = vec![
        (y_at_nmin - y_at_nmax).max(y_at_nmin * 0.5) * n_min_pt,
        0.0,
        opts.c_bounds.0,
        (y_at_nmax * 0.5).max(1e-6),
    ];

    let ms = MultistartOptions {
        starts: opts.starts,
        seed: opts.seed,
        early_stop: opts.early_stop,
        lm: LmOptions::default(),
    };
    let (res, report) = multistart_fit_report(&model, &p0, &ms);

    let curve = ScalingCurve {
        a: res.params[0],
        b: res.params[1],
        c: res.params[2],
        d: res.params[3],
    };
    let observed: Vec<f64> = data.iter().map(|&(_, y)| y).collect();
    let predicted: Vec<f64> = data.iter().map(|&(n, _)| curve.eval(n)).collect();
    Ok(ScalingFit {
        curve,
        r_squared: stats::r_squared(&observed, &predicted).unwrap_or(f64::NAN),
        rmse: stats::rmse(&observed, &predicted).unwrap_or(f64::NAN),
        sse: res.cost,
        points: data.len(),
        lm_iterations: report.total_iterations,
        basin_hits: report.basin_hits,
        starts_run: report.starts,
        early_stopped: report.early_stopped,
        synthetic: false,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn synth(curve: ScalingCurve, ns: &[f64]) -> Vec<(f64, f64)> {
        ns.iter().map(|&n| (n, curve.eval(n))).collect()
    }

    #[test]
    fn recovers_noiseless_curve_predictions() {
        let truth = ScalingCurve {
            a: 50_000.0,
            b: 1e-3,
            c: 1.1,
            d: 12.0,
        };
        let data = synth(truth, &[16.0, 32.0, 64.0, 128.0, 512.0, 2048.0]);
        let fit = fit_scaling(&data, &ScalingFitOptions::default()).unwrap();
        assert!(fit.r_squared > 0.999_99, "r2 = {}", fit.r_squared);
        // Predictions (not parameters — they can trade off) must match.
        for &(n, y) in &data {
            let p = fit.curve.eval(n);
            assert!((p - y).abs() < 0.01 * y, "at n={n}: {p} vs {y}");
        }
        // And interpolation between sampled points must be close.
        let mid = fit.curve.eval(256.0);
        let want = truth.eval(256.0);
        assert!((mid - want).abs() < 0.05 * want, "interp {mid} vs {want}");
    }

    #[test]
    fn fitted_curve_is_convex_by_default() {
        let truth = ScalingCurve {
            a: 1000.0,
            b: 0.0,
            c: 1.0,
            d: 3.0,
        };
        let data = synth(truth, &[4.0, 8.0, 32.0, 100.0]);
        let fit = fit_scaling(&data, &ScalingFitOptions::default()).unwrap();
        assert!(fit.curve.is_convex());
        assert!(fit.curve.c >= 1.0);
    }

    #[test]
    fn four_points_suffice_like_the_paper_says() {
        let truth = ScalingCurve {
            a: 39_000.0,
            b: 2e-4,
            c: 1.2,
            d: 40.0,
        };
        let data = synth(truth, &[24.0, 80.0, 384.0, 1664.0]);
        let fit = fit_scaling(&data, &ScalingFitOptions::default()).unwrap();
        assert!(fit.r_squared > 0.999, "r2 = {}", fit.r_squared);
    }

    #[test]
    fn rejects_degenerate_data() {
        assert!(fit_scaling(&[(4.0, 10.0)], &ScalingFitOptions::default()).is_err());
        assert!(fit_scaling(&[(0.5, 10.0), (2.0, 5.0)], &ScalingFitOptions::default()).is_err());
        assert!(fit_scaling(&[(1.0, -1.0), (2.0, 5.0)], &ScalingFitOptions::default()).is_err());
    }

    #[test]
    fn deriv_matches_finite_difference() {
        let curve = ScalingCurve {
            a: 500.0,
            b: 0.02,
            c: 1.4,
            d: 7.0,
        };
        for n in [2.0, 17.0, 333.0] {
            let h = 1e-5 * n;
            let fd = (curve.eval(n + h) - curve.eval(n - h)) / (2.0 * h);
            assert!((curve.deriv(n) - fd).abs() < 1e-5 * (1.0 + fd.abs()));
        }
    }

    #[test]
    fn noisy_fit_keeps_high_r2() {
        // ±2 % deterministic "noise" must not destroy the fit quality —
        // this is the regime of real CESM timings (§III-C says R² ≈ 1).
        let truth = ScalingCurve {
            a: 44_000.0,
            b: 5e-4,
            c: 1.15,
            d: 25.0,
        };
        let ns = [16.0, 48.0, 128.0, 384.0, 1024.0, 2048.0];
        let data: Vec<(f64, f64)> = ns
            .iter()
            .enumerate()
            .map(|(i, &n)| {
                let eps = if i % 2 == 0 { 1.02 } else { 0.98 };
                (n, truth.eval(n) * eps)
            })
            .collect();
        let fit = fit_scaling(&data, &ScalingFitOptions::default()).unwrap();
        assert!(fit.r_squared > 0.99, "r2 = {}", fit.r_squared);
    }
}
