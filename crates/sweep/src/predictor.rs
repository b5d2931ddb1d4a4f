//! The factorized makespan predictor.
//!
//! After the calibration configurations have exact solves, the remaining
//! grid is ranked by a cheap multiplicatively-factorized model in the
//! spirit of Oskooi et al. (arXiv:2003.04287): the coupled makespan of
//! layout *l* at resolution *r* on *n* nodes is modelled as
//!
//! ```text
//!   ln T̂(l, r, n) = α_l + β_r + γ_r · ln n        (gauge: α_first = 0)
//! ```
//!
//! — a per-layout factor times a per-resolution power law. The
//! coefficients come from linear least squares over the calibration
//! samples (normal equations, Gaussian elimination with partial
//! pivoting — the system is tiny: a handful of layouts and two
//! resolutions).
//!
//! **Fail-open ladder.** The predictor refuses to calibrate — and the
//! sweep falls back to exact solves for everything — when any rung
//! fails:
//!
//! 1. *coverage*: every resolution needs at least two distinct node
//!    counts (no slope from one point) and there must be at least one
//!    more sample than free coefficients;
//! 2. *conditioning*: the normal equations must be solvably far from
//!    singular;
//! 3. *accuracy*: the worst relative residual **on the calibration set
//!    itself** must stay under a cap — a model that cannot reproduce
//!    the very solves it was fitted to has no business pruning.
//!
//! A calibrated predictor carries its worst observed relative error;
//! pruning thresholds inflate by `(1 + max_rel_err) · (1 + margin)` so a
//! configuration is dropped only when even a worst-case-misjudged
//! prediction cannot beat the incumbent. Everything is deterministic:
//! same samples, same coefficients, same decisions.

use crate::spec::CalibrationNoise;
use std::collections::BTreeMap;

/// One exact solve the predictor learns from.
#[derive(Debug, Clone, PartialEq)]
pub struct CalSample {
    pub layout: String,
    pub resolution: String,
    pub nodes: i64,
    pub makespan: f64,
}

/// Why calibration refused (each maps to a fail-open rung).
#[derive(Debug, Clone, PartialEq)]
pub enum PredictorError {
    /// Coverage rung: not enough samples, or a resolution with fewer
    /// than two distinct node counts.
    NotEnoughSamples(String),
    /// Conditioning rung: the normal equations are (near-)singular.
    Singular,
    /// Accuracy rung: worst calibration residual above the cap.
    PoorFit { max_rel_err: f64, cap: f64 },
}

impl std::fmt::Display for PredictorError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PredictorError::NotEnoughSamples(why) => write!(f, "not enough samples: {why}"),
            PredictorError::Singular => write!(f, "normal equations are singular"),
            PredictorError::PoorFit { max_rel_err, cap } => write!(
                f,
                "calibration residual {max_rel_err:.3} exceeds cap {cap:.3}"
            ),
        }
    }
}

/// A calibrated factorized model.
#[derive(Debug, Clone)]
pub struct Predictor {
    /// Per-layout log-factor α (gauge layout included, at 0).
    alpha: BTreeMap<String, f64>,
    /// Per-resolution (β intercept, γ slope in ln n).
    curves: BTreeMap<String, (f64, f64)>,
    /// Worst relative residual observed on the calibration set.
    pub max_rel_err: f64,
    /// Number of samples calibrated from.
    pub samples: usize,
}

/// Default cap on the worst calibration residual (accuracy rung).
pub const DEFAULT_REL_ERR_CAP: f64 = 0.35;

impl Predictor {
    /// Fit the factorized model; see the module docs for the fail-open
    /// rungs this enforces.
    pub fn calibrate(samples: &[CalSample], rel_err_cap: f64) -> Result<Predictor, PredictorError> {
        // Parameter layout: α per non-gauge layout (first-appearance
        // order), then (β, γ) per resolution (first-appearance order).
        let mut layouts: Vec<String> = Vec::new();
        let mut resolutions: Vec<String> = Vec::new();
        for s in samples {
            if !s.makespan.is_finite() || s.makespan <= 0.0 || s.nodes < 1 {
                return Err(PredictorError::NotEnoughSamples(format!(
                    "sample with non-positive makespan or nodes: {s:?}"
                )));
            }
            if !layouts.contains(&s.layout) {
                layouts.push(s.layout.clone());
            }
            if !resolutions.contains(&s.resolution) {
                resolutions.push(s.resolution.clone());
            }
        }
        if layouts.is_empty() {
            return Err(PredictorError::NotEnoughSamples("no samples".to_string()));
        }
        for r in &resolutions {
            let mut counts: Vec<i64> = samples
                .iter()
                .filter(|s| &s.resolution == r)
                .map(|s| s.nodes)
                .collect();
            counts.sort_unstable();
            counts.dedup();
            if counts.len() < 2 {
                return Err(PredictorError::NotEnoughSamples(format!(
                    "resolution {r} has {} distinct node count(s); need >= 2",
                    counts.len()
                )));
            }
        }
        let n_params = (layouts.len() - 1) + 2 * resolutions.len();
        if samples.len() <= n_params {
            return Err(PredictorError::NotEnoughSamples(format!(
                "{} samples for {} coefficients",
                samples.len(),
                n_params
            )));
        }

        // Normal equations AᵀA x = Aᵀy over rows
        //   y = ln T,  row = [1{layout=l} …, 1{res=r}, 1{res=r}·ln n …].
        let mut ata = vec![vec![0.0f64; n_params]; n_params];
        let mut aty = vec![0.0f64; n_params];
        let row_of = |s: &CalSample| -> Vec<(usize, f64)> {
            let mut row = Vec::with_capacity(3);
            if let Some(li) = layouts.iter().position(|l| l == &s.layout) {
                if li > 0 {
                    row.push((li - 1, 1.0));
                }
            }
            let ri = resolutions
                .iter()
                .position(|r| r == &s.resolution)
                .unwrap_or(0);
            let base = layouts.len() - 1;
            row.push((base + 2 * ri, 1.0));
            row.push((base + 2 * ri + 1, (s.nodes as f64).ln()));
            row
        };
        for s in samples {
            let row = row_of(s);
            let y = s.makespan.ln();
            for &(i, vi) in &row {
                aty[i] += vi * y;
                for &(j, vj) in &row {
                    ata[i][j] += vi * vj;
                }
            }
        }
        let x = solve_dense(&mut ata, &mut aty).ok_or(PredictorError::Singular)?;

        let mut alpha = BTreeMap::new();
        for (i, l) in layouts.iter().enumerate() {
            alpha.insert(l.clone(), if i == 0 { 0.0 } else { x[i - 1] });
        }
        let mut curves = BTreeMap::new();
        let base = layouts.len() - 1;
        for (ri, r) in resolutions.iter().enumerate() {
            curves.insert(r.clone(), (x[base + 2 * ri], x[base + 2 * ri + 1]));
        }
        let model = Predictor {
            alpha,
            curves,
            max_rel_err: 0.0,
            samples: samples.len(),
        };
        let mut max_rel_err = 0.0f64;
        for s in samples {
            let Some(pred) = model.predict(&s.layout, &s.resolution, s.nodes) else {
                return Err(PredictorError::Singular);
            };
            max_rel_err = max_rel_err.max((pred - s.makespan).abs() / s.makespan);
        }
        if !max_rel_err.is_finite() || max_rel_err > rel_err_cap {
            return Err(PredictorError::PoorFit {
                max_rel_err,
                cap: rel_err_cap,
            });
        }
        Ok(Predictor {
            max_rel_err,
            ..model
        })
    }

    /// Predicted makespan, or `None` for a layout/resolution the
    /// calibration never saw (the caller must fail open).
    pub fn predict(&self, layout: &str, resolution: &str, nodes: i64) -> Option<f64> {
        let a = self.alpha.get(layout)?;
        let (b, g) = self.curves.get(resolution)?;
        Some((a + b + g * (nodes as f64).ln()).exp())
    }

    /// The inflation factor pruning thresholds use: worst observed
    /// calibration error compounded with the spec's safety margin.
    pub fn threshold_inflation(&self, safety_margin: f64) -> f64 {
        (1.0 + self.max_rel_err) * (1.0 + safety_margin)
    }
}

/// Solve the square system in place (Gaussian elimination, partial
/// pivoting). `None` when a pivot collapses.
fn solve_dense(a: &mut [Vec<f64>], b: &mut [f64]) -> Option<Vec<f64>> {
    let n = b.len();
    for col in 0..n {
        let pivot = (col..n).max_by(|&i, &j| {
            a[i][col]
                .abs()
                .partial_cmp(&a[j][col].abs())
                .unwrap_or(std::cmp::Ordering::Equal)
        })?;
        if a[pivot][col].abs() < 1e-12 {
            return None;
        }
        a.swap(col, pivot);
        b.swap(col, pivot);
        let (pivot_rows, below) = a.split_at_mut(col + 1);
        let pivot_row = &pivot_rows[col];
        for (off, row) in below.iter_mut().enumerate() {
            let f = row[col] / pivot_row[col];
            for (k, v) in row.iter_mut().enumerate().skip(col) {
                *v -= f * pivot_row[k];
            }
            b[col + 1 + off] -= f * b[col];
        }
    }
    let mut x = vec![0.0; n];
    for col in (0..n).rev() {
        let mut acc = b[col];
        for k in (col + 1)..n {
            acc -= a[col][k] * x[k];
        }
        x[col] = acc / a[col][col];
    }
    Some(x)
}

/// Apply the chaos hook's deterministic multiplicative noise to a copy
/// of the calibration samples: sample `i` scaled by
/// `exp(amplitude · u_i)`, `u_i ∈ [-1, 1)` from a seeded splitmix
/// stream. Alternating-sign large-amplitude noise is unfittable by the
/// factorized model, tripping the accuracy rung.
pub fn apply_noise(samples: &[CalSample], noise: CalibrationNoise) -> Vec<CalSample> {
    let mut state = noise.seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut next = move || {
        state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^= z >> 31;
        (z >> 11) as f64 / (1u64 << 53) as f64 * 2.0 - 1.0
    };
    samples
        .iter()
        .map(|s| CalSample {
            makespan: s.makespan * (noise.amplitude * next()).exp(),
            ..s.clone()
        })
        .collect()
}

/// Mean absolute relative error of `(predicted, exact)` pairs — the
/// sweep's `predictor_mae`. `None` when empty.
pub fn mean_abs_rel_err(pairs: &[(f64, f64)]) -> Option<f64> {
    if pairs.is_empty() {
        return None;
    }
    let sum: f64 = pairs
        .iter()
        .map(|&(pred, exact)| {
            if exact > 0.0 {
                (pred - exact).abs() / exact
            } else {
                0.0
            }
        })
        .sum();
    Some(sum / pairs.len() as f64)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Synthesize samples from a known factorized ground truth.
    fn synth(
        layouts: &[(&str, f64)],
        curves: &[(&str, f64, f64)],
        budgets: &[i64],
    ) -> Vec<CalSample> {
        let mut out = Vec::new();
        for &(res, b, g) in curves {
            for &n in budgets {
                for &(l, a) in layouts {
                    out.push(CalSample {
                        layout: l.to_string(),
                        resolution: res.to_string(),
                        nodes: n,
                        makespan: (a + b + g * (n as f64).ln()).exp(),
                    });
                }
            }
        }
        out
    }

    #[test]
    fn recovers_exact_factorized_truth() {
        let samples = synth(
            &[("hybrid", 0.0), ("seq-ocean", 0.2), ("sequential", 0.5)],
            &[("1deg", 6.0, -0.7), ("eighth", 9.0, -0.55)],
            &[64, 128, 256],
        );
        let p = Predictor::calibrate(&samples, DEFAULT_REL_ERR_CAP).unwrap();
        assert!(p.max_rel_err < 1e-9, "residual {}", p.max_rel_err);
        let pred = p.predict("sequential", "eighth", 512).unwrap();
        let truth = (0.5 + 9.0 - 0.55 * (512f64).ln()).exp();
        assert!((pred - truth).abs() / truth < 1e-9);
        assert!(p.predict("unknown-layout", "1deg", 64).is_none());
    }

    #[test]
    fn coverage_rung_rejects_single_budget() {
        let samples = synth(
            &[("hybrid", 0.0), ("sequential", 0.5)],
            &[("1deg", 6.0, -0.7)],
            &[64],
        );
        assert!(matches!(
            Predictor::calibrate(&samples, DEFAULT_REL_ERR_CAP),
            Err(PredictorError::NotEnoughSamples(_))
        ));
    }

    #[test]
    fn accuracy_rung_rejects_seeded_noise() {
        let clean = synth(
            &[("hybrid", 0.0), ("sequential", 0.5)],
            &[("1deg", 6.0, -0.7)],
            &[64, 128, 256, 512],
        );
        assert!(Predictor::calibrate(&clean, DEFAULT_REL_ERR_CAP).is_ok());
        let noisy = apply_noise(
            &clean,
            CalibrationNoise {
                seed: 7,
                amplitude: 2.0,
            },
        );
        assert!(matches!(
            Predictor::calibrate(&noisy, DEFAULT_REL_ERR_CAP),
            Err(PredictorError::PoorFit { .. })
        ));
        // Determinism: the same seed distorts identically.
        let again = apply_noise(
            &clean,
            CalibrationNoise {
                seed: 7,
                amplitude: 2.0,
            },
        );
        assert_eq!(noisy, again);
    }

    #[test]
    fn threshold_inflation_compounds() {
        let samples = synth(
            &[("hybrid", 0.0), ("sequential", 0.4)],
            &[("1deg", 6.0, -0.7)],
            &[64, 128, 256],
        );
        let p = Predictor::calibrate(&samples, DEFAULT_REL_ERR_CAP).unwrap();
        let infl = p.threshold_inflation(0.25);
        assert!((1.25..1.25 * (1.0 + DEFAULT_REL_ERR_CAP) + 1e-9).contains(&infl));
    }
}
