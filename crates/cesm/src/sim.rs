//! The coupled-run simulator.

use crate::calib;
use crate::component::Component;
use crate::decomp;
use crate::fault::{BenchFault, FaultDomain, FaultOutcome, FaultSpec};
use crate::grid::{Resolution, ResolutionConfig};
use crate::layout::{Allocation, ComponentTimes, Layout};
use crate::machine::Machine;
use crate::perf::NoiseSpec;
use rand::{Rng, SeedableRng};

/// One benchmark observation: component time at a node count.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BenchPoint {
    pub component: Component,
    pub nodes: i64,
    pub seconds: f64,
}

/// Result of simulating one coupled 5-day run.
#[derive(Debug, Clone)]
pub struct RunResult {
    pub allocation: Allocation,
    pub layout: Layout,
    pub times: ComponentTimes,
    /// Makespan per the layout semantics (what HSLB reports).
    pub total: f64,
    /// The CICE decomposition the run used.
    pub ice_decomposition: decomp::Decomposition,
}

/// A deterministic CESM stand-in for one (machine, resolution) case.
///
/// Identical `(seed, allocation, run_id)` inputs always produce identical
/// timings, so experiments are exactly reproducible; distinct run ids
/// model run-to-run variance.
///
/// # Examples
///
/// ```
/// use hslb_cesm::{Allocation, Component, Layout, Simulator};
///
/// let sim = Simulator::one_degree(42);
/// // Benchmark the atmosphere at two node counts: more nodes, less time.
/// let t_small = sim.component_time(Component::Atm, 104, 0);
/// let t_large = sim.component_time(Component::Atm, 1664, 0);
/// assert!(t_large < t_small);
///
/// // Run the paper's manual 1°/128 allocation as a coupled case.
/// let alloc = Allocation::from_table_order([24, 80, 104, 24]);
/// let run = sim.run_case(&alloc, Layout::Hybrid, 0).unwrap();
/// assert!(run.total >= run.times.ocn);
/// ```
#[derive(Debug, Clone)]
pub struct Simulator {
    pub machine: Machine,
    pub config: ResolutionConfig,
    pub noise: NoiseSpec,
    /// Injected fault regime (inactive by default; see [`FaultSpec`]).
    pub faults: FaultSpec,
    /// Telemetry sink for coupled-run events (disabled by default;
    /// purely observational — timings are unaffected).
    pub telemetry: hslb_telemetry::Telemetry,
    seed: u64,
}

impl Simulator {
    /// Build a simulator for a resolution on a machine. Its timings come
    /// from the committed curves of [`calib::ground_truth`]; construction
    /// fits nothing.
    pub fn new(machine: Machine, config: ResolutionConfig, noise: NoiseSpec, seed: u64) -> Self {
        Simulator {
            machine,
            config,
            noise,
            faults: FaultSpec::none(),
            telemetry: hslb_telemetry::Telemetry::disabled(),
            seed,
        }
    }

    /// The same simulator with a fault-injection regime attached.
    pub fn with_faults(mut self, faults: FaultSpec) -> Self {
        self.faults = faults;
        self
    }

    /// The same simulator with a telemetry sink attached.
    pub fn with_telemetry(mut self, telemetry: hslb_telemetry::Telemetry) -> Self {
        self.telemetry = telemetry;
        self
    }

    /// Intrepid at 1° with default noise.
    pub fn one_degree(seed: u64) -> Self {
        Simulator::new(
            Machine::intrepid(),
            ResolutionConfig::one_degree(),
            NoiseSpec::default(),
            seed,
        )
    }

    /// Intrepid at 1/8° (constrained ocean) with default noise.
    pub fn eighth_degree(seed: u64) -> Self {
        Simulator::new(
            Machine::intrepid(),
            ResolutionConfig::eighth_degree(),
            NoiseSpec::default(),
            seed,
        )
    }

    /// The resolution simulated.
    pub fn resolution(&self) -> Resolution {
        self.config.resolution
    }

    /// The noiseless ground-truth time of a component at a node count
    /// (without the CICE decomposition penalty). HSLB itself observes it
    /// only through [`Simulator::component_time`], which adds both.
    ///
    /// Panics for a component outside [`Component::OPTIMIZED`]: only the
    /// four optimized components are simulated.
    pub fn truth(&self, c: Component, nodes: i64) -> f64 {
        match calib::ground_truth(self.resolution())
            .iter()
            .find(|(k, _)| *k == c)
        {
            Some((_, curve)) => curve.eval(nodes as f64),
            None => panic!("{c} has no ground-truth curve"),
        }
    }

    fn noise_factor(&self, c: Component, nodes: i64, run_id: u64) -> f64 {
        let sigma = match c {
            Component::Ice => self.noise.ice_sigma,
            _ => self.noise.base_sigma,
        };
        if sigma == 0.0 && self.noise.outlier_rate == 0.0 {
            return 1.0;
        }
        let mut h = self.seed;
        for k in [c as u64 + 1, nodes as u64, run_id] {
            h = (h ^ k.wrapping_mul(0x9E37_79B9_7F4A_7C15))
                .rotate_left(23)
                .wrapping_mul(0xBF58_476D_1CE4_E5B9);
        }
        let mut rng = rand::rngs::StdRng::seed_from_u64(h);
        // Sum of uniforms ≈ normal; clamp at ±3σ to keep times positive.
        let z: f64 = (0..12).map(|_| rng.gen_range(-0.5..0.5)).sum();
        let mut factor = 1.0 + sigma * z.clamp(-3.0, 3.0);
        // Occasional outlier runs (OS jitter, contended I/O): inflate only
        // — slow machines exist, anomalously fast ones do not.
        if self.noise.outlier_rate > 0.0 && rng.gen::<f64>() < self.noise.outlier_rate {
            factor *= self.noise.outlier_factor.max(1.0);
        }
        factor
    }

    /// Simulated wall-clock seconds of one component benchmarked on
    /// `nodes` nodes (run `run_id` of a repeated measurement).
    ///
    /// CICE additionally pays its default-decomposition penalty — the
    /// mechanism behind the paper's noisy ice curve (§IV-A).
    pub fn component_time(&self, c: Component, nodes: i64, run_id: u64) -> f64 {
        assert!(nodes >= 1, "component {c} needs at least one node");
        let base = self.truth(c, nodes);
        let decomp_penalty = if c == Component::Ice {
            decomp::multiplier(decomp::default_choice(nodes), nodes)
        } else {
            1.0
        };
        base * decomp_penalty * self.noise_factor(c, nodes, run_id)
    }

    /// Fault-aware benchmark of one component run: what a real gather
    /// campaign sees. Under the simulator's [`FaultSpec`] the run can
    /// fail outright, hang past `budget_seconds` (also triggered by a
    /// genuinely slow run when a budget is set), or "succeed" with a
    /// garbage timing. With [`FaultSpec::none`] and no budget this is
    /// exactly [`Simulator::component_time`].
    pub fn try_component_time(
        &self,
        c: Component,
        nodes: i64,
        run_id: u64,
        budget_seconds: Option<f64>,
    ) -> Result<f64, BenchFault> {
        let clean = self.component_time(c, nodes, run_id);
        match self
            .faults
            .draw(FaultDomain::Bench, c as u64, nodes as u64, run_id)
        {
            FaultOutcome::Fail => Err(BenchFault::Failed {
                component: c,
                nodes,
                run_id,
            }),
            FaultOutcome::Hang => {
                let budget = budget_seconds.unwrap_or(clean);
                Err(BenchFault::Hung {
                    component: c,
                    nodes,
                    run_id,
                    elapsed_seconds: budget * self.faults.hang_overrun.max(1.0),
                    budget_seconds: budget,
                })
            }
            FaultOutcome::Garbage => Ok(self.faults.garbage_value(
                clean,
                FaultDomain::Bench,
                c as u64,
                nodes as u64,
                run_id,
            )),
            FaultOutcome::None => match budget_seconds {
                Some(budget) if clean > budget => Err(BenchFault::Hung {
                    component: c,
                    nodes,
                    run_id,
                    elapsed_seconds: clean,
                    budget_seconds: budget,
                }),
                _ => Ok(clean),
            },
        }
    }

    /// Simulate a coupled run of the given allocation under a layout.
    ///
    /// Returns an error string when the allocation violates the layout's
    /// node constraints or the resolution's allowed ocean/atmosphere sets.
    pub fn run_case(
        &self,
        alloc: &Allocation,
        layout: Layout,
        run_id: u64,
    ) -> Result<RunResult, String> {
        if let Some(problem) = layout.check(alloc, self.machine.nodes) {
            return Err(problem);
        }
        for c in Component::OPTIMIZED {
            let floor = self.config.memory_floor(c);
            if alloc.get(c) < floor {
                return Err(format!(
                    "{c} on {} nodes does not fit in memory (needs ≥ {floor})",
                    alloc.get(c)
                ));
            }
        }
        if let Some(allowed) = &self.config.ocean_allowed {
            if !allowed.contains(&alloc.ocn) {
                return Err(format!(
                    "ocean count {} not in the hard-coded allowed set",
                    alloc.ocn
                ));
            }
        }
        if let Some(allowed) = &self.config.atm_allowed {
            if !allowed.contains(&alloc.atm) {
                return Err(format!(
                    "atmosphere count {} not in the allowed set",
                    alloc.atm
                ));
            }
        }
        // Coupled runs draw from their own fault stream: a valid
        // allocation can still lose its run to the cluster.
        let alloc_key = (alloc.lnd as u64)
            .wrapping_mul(31)
            .wrapping_add(alloc.ice as u64)
            .wrapping_mul(31)
            .wrapping_add(alloc.atm as u64)
            .wrapping_mul(31)
            .wrapping_add(alloc.ocn as u64);
        match self.faults.draw(
            FaultDomain::CoupledRun,
            alloc_key,
            layout.number() as u64,
            run_id,
        ) {
            FaultOutcome::Fail => {
                return Err(format!("coupled run {run_id} failed (injected fault)"))
            }
            FaultOutcome::Hang => {
                return Err(format!(
                    "coupled run {run_id} hung past its wall-clock budget (injected fault)"
                ))
            }
            FaultOutcome::Garbage => {
                return Err(format!(
                    "coupled run {run_id} produced corrupt timer output (injected fault)"
                ))
            }
            FaultOutcome::None => {}
        }
        let times = ComponentTimes {
            lnd: self.component_time(Component::Lnd, alloc.lnd, run_id),
            ice: self.component_time(Component::Ice, alloc.ice, run_id),
            atm: self.component_time(Component::Atm, alloc.atm, run_id),
            ocn: self.component_time(Component::Ocn, alloc.ocn, run_id),
        };
        let total = layout.total_time(&times) * (1.0 + calib::COUPLER_OVERHEAD_FRAC);
        self.telemetry.point(
            "sim.coupled_run",
            &[
                ("run_id", run_id as f64),
                ("total_s", total),
                ("atm", alloc.atm as f64),
                ("ocn", alloc.ocn as f64),
                ("ice", alloc.ice as f64),
                ("lnd", alloc.lnd as f64),
            ],
            &[("layout", &layout.to_string())],
        );
        Ok(RunResult {
            allocation: *alloc,
            layout,
            times,
            total,
            ice_decomposition: decomp::default_choice(alloc.ice),
        })
    }

    /// Benchmark sweep: run a component at each node count once (the
    /// paper's "multiple 5-day model runs at different node counts").
    pub fn benchmark_sweep(&self, c: Component, counts: &[i64]) -> Vec<BenchPoint> {
        counts
            .iter()
            .enumerate()
            .map(|(i, &n)| BenchPoint {
                component: c,
                nodes: n,
                seconds: self.component_time(c, n, i as u64),
            })
            .collect()
    }

    /// Benchmark all four optimized components at the same node counts.
    pub fn benchmark_all(&self, counts: &[i64]) -> Vec<BenchPoint> {
        Component::OPTIMIZED
            .iter()
            .flat_map(|&c| self.benchmark_sweep(c, counts))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn determinism() {
        let sim = Simulator::one_degree(42);
        let a = sim.component_time(Component::Atm, 104, 0);
        let b = sim.component_time(Component::Atm, 104, 0);
        assert_eq!(a, b);
        // Different run ids differ (noise), same ballpark.
        let c = sim.component_time(Component::Atm, 104, 1);
        assert_ne!(a, c);
        assert!((a - c).abs() / a < 0.2);
    }

    #[test]
    fn times_track_paper_measurements() {
        // The simulator at the paper's manual 1°/128 allocation must land
        // near the published component times (within noise + fit error).
        let sim = Simulator::one_degree(1);
        let run = sim
            .run_case(
                &Allocation::from_table_order([24, 80, 104, 24]),
                Layout::Hybrid,
                0,
            )
            .unwrap();
        let within = |got: f64, want: f64, tol: f64| {
            assert!((got - want).abs() / want < tol, "got {got}, paper {want}");
        };
        within(run.times.lnd, 63.766, 0.25);
        within(run.times.ice, 109.054, 0.25);
        within(run.times.atm, 306.952, 0.10);
        within(run.times.ocn, 362.669, 0.10);
        within(run.total, 416.006, 0.15);
    }

    #[test]
    fn invalid_allocations_are_rejected() {
        let sim = Simulator::one_degree(7);
        // Ocean 25 is not in the allowed even set.
        let bad_ocn = Allocation::from_table_order([24, 80, 104, 25]);
        assert!(sim.run_case(&bad_ocn, Layout::Hybrid, 0).is_err());
        // ice + lnd > atm violates the hybrid layout.
        let bad_fit = Allocation::from_table_order([60, 60, 104, 24]);
        assert!(sim.run_case(&bad_fit, Layout::Hybrid, 0).is_err());
    }

    #[test]
    fn ice_noise_exceeds_atm_noise() {
        // Sample times across node counts; relative deviation from the
        // smooth truth must be larger for ice than for atm.
        let sim = Simulator::one_degree(3);
        let spread = |c: Component| -> f64 {
            (60..200)
                .step_by(7)
                .map(|n| {
                    let t = sim.component_time(c, n, 0);
                    let truth = sim.truth(c, n);
                    ((t - truth) / truth).abs()
                })
                .fold(0.0_f64, f64::max)
        };
        assert!(
            spread(Component::Ice) > spread(Component::Atm),
            "ice {} vs atm {}",
            spread(Component::Ice),
            spread(Component::Atm)
        );
    }

    #[test]
    fn benchmark_sweep_shapes() {
        let sim = Simulator::eighth_degree(11);
        let pts = sim.benchmark_all(&[512, 2048, 8192, 32_768]);
        assert_eq!(pts.len(), 16);
        // Times decrease with nodes for every component in this range.
        for &c in &Component::OPTIMIZED {
            let series: Vec<&BenchPoint> = pts.iter().filter(|p| p.component == c).collect();
            assert!(
                series.windows(2).all(|w| w[1].seconds < w[0].seconds),
                "{c} not decreasing: {series:?}"
            );
        }
    }

    #[test]
    fn outliers_only_inflate_and_occur_at_the_configured_rate() {
        let sim = Simulator::new(
            Machine::intrepid(),
            crate::grid::ResolutionConfig::one_degree(),
            NoiseSpec {
                base_sigma: 0.0,
                ice_sigma: 0.0,
                outlier_rate: 0.2,
                outlier_factor: 2.0,
            },
            99,
        );
        let mut outliers = 0;
        let total = 400;
        for run in 0..total {
            let t = sim.component_time(Component::Atm, 104, run);
            let truth = sim.truth(Component::Atm, 104);
            assert!(t >= truth * 0.999, "outliers must never speed things up");
            if t > truth * 1.5 {
                outliers += 1;
            }
        }
        let rate = outliers as f64 / total as f64;
        assert!(
            (0.1..0.3).contains(&rate),
            "outlier rate {rate} far from configured 0.2"
        );
    }

    #[test]
    fn faults_are_deterministic_and_respect_rate() {
        use crate::fault::FaultSpec;
        let sim = Simulator::one_degree(42).with_faults(FaultSpec::flaky(7, 0.15));
        let mut failures = 0;
        let total = 400;
        for run in 0..total {
            let a = sim.try_component_time(Component::Atm, 104, run, None);
            let b = sim.try_component_time(Component::Atm, 104, run, None);
            assert_eq!(a, b, "fault draws must replay exactly");
            if a.is_err() {
                failures += 1;
            }
        }
        // fail + hang = 0.30 of runs produce no timing.
        let rate = failures as f64 / total as f64;
        assert!(
            (0.2..0.4).contains(&rate),
            "fault rate {rate} far from 0.30"
        );
    }

    #[test]
    fn faultless_try_matches_component_time() {
        let sim = Simulator::one_degree(42);
        assert_eq!(
            sim.try_component_time(Component::Atm, 104, 3, None)
                .unwrap(),
            sim.component_time(Component::Atm, 104, 3)
        );
    }

    #[test]
    fn budget_kills_genuinely_slow_runs() {
        use crate::fault::BenchFault;
        let sim = Simulator::one_degree(42);
        let clean = sim.component_time(Component::Ocn, 24, 0);
        match sim.try_component_time(Component::Ocn, 24, 0, Some(clean / 2.0)) {
            Err(BenchFault::Hung {
                elapsed_seconds,
                budget_seconds,
                ..
            }) => {
                assert!(elapsed_seconds > budget_seconds);
            }
            other => panic!("expected Hung, got {other:?}"),
        }
        // A generous budget lets the same run through.
        assert!(sim
            .try_component_time(Component::Ocn, 24, 0, Some(clean * 2.0))
            .is_ok());
    }

    #[test]
    fn injected_garbage_is_implausible_but_deterministic() {
        use crate::fault::FaultSpec;
        let spec = FaultSpec {
            garbage_rate: 1.0,
            ..FaultSpec::flaky(3, 0.0)
        };
        let sim = Simulator::one_degree(42).with_faults(spec);
        let g1 = sim
            .try_component_time(Component::Atm, 104, 0, None)
            .unwrap();
        let g2 = sim
            .try_component_time(Component::Atm, 104, 0, None)
            .unwrap();
        assert_eq!(g1, g2);
        let clean = sim.component_time(Component::Atm, 104, 0);
        assert!(
            !(g1.is_finite() && g1 > clean * 1e-3 && g1 < clean * 1e3),
            "garbage {g1} looks plausible next to clean {clean}"
        );
    }

    #[test]
    fn coupled_runs_fail_under_faults_but_not_without() {
        use crate::fault::FaultSpec;
        let alloc = Allocation::from_table_order([24, 80, 104, 24]);
        let clean_sim = Simulator::one_degree(42);
        let faulty_sim = Simulator::one_degree(42).with_faults(FaultSpec::flaky(9, 0.4));
        let mut failed = 0;
        for run in 0..50 {
            assert!(clean_sim.run_case(&alloc, Layout::Hybrid, run).is_ok());
            if faulty_sim.run_case(&alloc, Layout::Hybrid, run).is_err() {
                failed += 1;
            }
        }
        assert!(
            failed > 0,
            "40%-faulty coupled runs never failed in 50 tries"
        );
        // Timings of surviving runs are identical to the clean simulator's:
        // faults gate runs, they do not perturb physics.
        for run in 0..50 {
            if let Ok(r) = faulty_sim.run_case(&alloc, Layout::Hybrid, run) {
                assert_eq!(
                    r.total,
                    clean_sim
                        .run_case(&alloc, Layout::Hybrid, run)
                        .unwrap()
                        .total
                );
            }
        }
    }

    #[test]
    fn unconstrained_ocean_accepts_arbitrary_counts() {
        let sim = Simulator::new(
            Machine::intrepid(),
            ResolutionConfig::eighth_degree().without_ocean_constraint(),
            NoiseSpec::none(),
            0,
        );
        let alloc = Allocation::from_table_order([299, 22_657, 22_956, 9812]);
        assert!(sim.run_case(&alloc, Layout::Hybrid, 0).is_ok());
    }
}
