//! Timing-noise specification of the simulated machine.

/// Multiplicative timing-noise magnitudes per component class.
///
/// §III-C/IV-A: most component timings are smooth enough that four points
/// fit with R² ≈ 1, but the sea-ice (CICE) timings are noisy because the
/// default decomposition choice varies with the node count ("this
/// increased the noise in the sea ice performance curve fit and impacted
/// the timing estimates").
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NoiseSpec {
    /// Relative σ of run-to-run noise for non-ice components.
    pub base_sigma: f64,
    /// Relative σ of run-to-run noise for CICE (on top of the
    /// decomposition multiplier from [`crate::decomp`]).
    pub ice_sigma: f64,
    /// Probability that a benchmark run is an *outlier* — an OS-jitter /
    /// contended-I/O event that inflates the measured time. Deterministic
    /// per `(seed, component, nodes, run)`, so experiments reproduce.
    pub outlier_rate: f64,
    /// Multiplicative inflation of an outlier run (e.g. 1.5 = 50 % slow).
    pub outlier_factor: f64,
}

impl Default for NoiseSpec {
    fn default() -> Self {
        NoiseSpec {
            base_sigma: 0.01,
            ice_sigma: 0.03,
            outlier_rate: 0.0,
            outlier_factor: 1.5,
        }
    }
}

impl NoiseSpec {
    /// A noiseless simulator (useful for exactness tests).
    pub fn none() -> Self {
        NoiseSpec {
            base_sigma: 0.0,
            ice_sigma: 0.0,
            outlier_rate: 0.0,
            outlier_factor: 1.0,
        }
    }

    /// A hostile environment: visible run-to-run noise plus occasional
    /// large outliers — the regime where §III-C says "the number of
    /// points should obviously increase with the level of noise".
    pub fn noisy() -> Self {
        NoiseSpec {
            base_sigma: 0.04,
            ice_sigma: 0.08,
            outlier_rate: 0.15,
            outlier_factor: 1.6,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_noise_is_small_and_ice_is_noisier() {
        let n = NoiseSpec::default();
        assert!(n.base_sigma < n.ice_sigma);
        assert!(n.base_sigma > 0.0);
        assert_eq!(NoiseSpec::none().base_sigma, 0.0);
    }
}
