use qsim_circuit::{Circuit, LayeredCircuit};
use qsim_noise::{NoiseModel, TrialGenerator, TrialSet};
use qsim_telemetry::Recorder;

use crate::analysis::{self, CostReport};
use crate::exec::{RunResult, RunSpec};
use crate::histogram::Histogram;
use crate::SimError;

/// End-to-end façade: circuit + noise model + trial set, with analysis and
/// one [`Simulation::run`] for every execution strategy.
///
/// ```
/// use qsim_circuit::catalog;
/// use qsim_noise::NoiseModel;
/// use redsim::Simulation;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut sim = Simulation::from_circuit(
///     &catalog::seven_x1_mod15(),
///     NoiseModel::uniform(4, 1e-3, 1e-2, 1e-2),
/// )?;
/// sim.generate_trials(512, 0)?;
/// let report = sim.analyze()?;
/// assert!(report.savings() > 0.0);
/// # Ok(())
/// # }
/// ```
#[derive(Clone, Debug)]
pub struct Simulation {
    layered: LayeredCircuit,
    model: NoiseModel,
    trials: Option<TrialSet>,
}

impl Simulation {
    /// Bind a layered circuit to a noise model.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::Noise`] if the model does not cover the circuit
    /// (width, non-native gates).
    pub fn new(layered: LayeredCircuit, model: NoiseModel) -> Result<Self, SimError> {
        // Validate compatibility eagerly by constructing a generator once.
        TrialGenerator::new(&layered, &model)?;
        Ok(Simulation { layered, model, trials: None })
    }

    /// Layer a circuit and bind it to a noise model.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::Circuit`] for layering failures and
    /// [`SimError::Noise`] for model mismatches.
    pub fn from_circuit(circuit: &Circuit, model: NoiseModel) -> Result<Self, SimError> {
        let layered = circuit.layered().map_err(|e| SimError::Circuit(e.to_string()))?;
        Simulation::new(layered, model)
    }

    /// The layered circuit.
    pub fn layered(&self) -> &LayeredCircuit {
        &self.layered
    }

    /// The noise model.
    pub fn model(&self) -> &NoiseModel {
        &self.model
    }

    /// The current trial set, if generated.
    pub fn trials(&self) -> Option<&TrialSet> {
        self.trials.as_ref()
    }

    /// Generate `n` trials with the direct per-position sampler.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::Noise`] on model/circuit mismatch.
    pub fn generate_trials(&mut self, n: usize, seed: u64) -> Result<&TrialSet, SimError> {
        let generator = TrialGenerator::new(&self.layered, &self.model)?;
        self.trials = Some(generator.generate(n, seed));
        Ok(self.trials.as_ref().expect("just generated"))
    }

    /// Generate `n` trials with the binomial fast path (for very large `n`).
    ///
    /// # Errors
    ///
    /// Returns [`SimError::Noise`] on model/circuit mismatch.
    pub fn generate_trials_fast(&mut self, n: usize, seed: u64) -> Result<&TrialSet, SimError> {
        let generator = TrialGenerator::new(&self.layered, &self.model)?;
        self.trials = Some(generator.generate_fast(n, seed));
        Ok(self.trials.as_ref().expect("just generated"))
    }

    /// Adopt an externally built trial set.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::TrialMismatch`] for foreign geometry.
    pub fn set_trials(&mut self, trials: TrialSet) -> Result<(), SimError> {
        if trials.n_qubits() != self.layered.n_qubits()
            || trials.n_layers() != self.layered.n_layers()
        {
            return Err(SimError::TrialMismatch {
                trials: (trials.n_qubits(), trials.n_layers()),
                circuit: (self.layered.n_qubits(), self.layered.n_layers()),
            });
        }
        self.trials = Some(trials);
        Ok(())
    }

    /// Static cost analysis of the reordered execution (no amplitudes
    /// touched).
    ///
    /// # Errors
    ///
    /// Returns [`SimError::NoTrials`] before trial generation.
    pub fn analyze(&self) -> Result<CostReport, SimError> {
        let trials = self.trials.as_ref().ok_or(SimError::NoTrials)?;
        analysis::analyze(&self.layered, trials)
    }

    /// Execute all trials as `spec` declares: [`crate::run`] over this
    /// circuit and trial set, streaming instrumentation into `recorder`
    /// (pass [`qsim_telemetry::NullRecorder`] for none). Every walk
    /// produces outcomes bitwise identical to the baseline's.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::NoTrials`] before trial generation, and
    /// otherwise as [`crate::run`].
    pub fn run<R: Recorder + ?Sized>(
        &self,
        spec: &RunSpec<'_>,
        recorder: &R,
    ) -> Result<RunResult, SimError> {
        let trials = self.trials.as_ref().ok_or(SimError::NoTrials)?;
        crate::run(&self.layered, trials.trials(), spec, recorder)
    }

    /// [`Simulation::run`] with the default reordered walk, the call the
    /// end-to-end benchmark package (`bench-e2e`) times.
    ///
    /// # Errors
    ///
    /// As [`Simulation::run`].
    pub fn run_reordered_traced<R: Recorder + ?Sized>(
        &self,
        recorder: &R,
    ) -> Result<RunResult, SimError> {
        self.run(&RunSpec::default(), recorder)
    }

    /// Static analysis under a stored-state budget.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::NoTrials`] before trial generation.
    pub fn analyze_with_budget(&self, budget: usize) -> Result<CostReport, SimError> {
        let trials = self.trials.as_ref().ok_or(SimError::NoTrials)?.trials();
        let order = crate::order::sorted_order(trials);
        analysis::analyze_order_with_budget(&self.layered, trials, &order, budget)
    }

    /// Aggregate a run's outcomes into a histogram over the classical
    /// register.
    pub fn histogram(&self, result: &RunResult) -> Histogram {
        Histogram::from_outcomes(self.layered.n_cbits(), &result.outcomes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{RunSpec, Walk};
    use qsim_circuit::catalog;
    use qsim_statevec::StateVecError;
    use qsim_telemetry::NullRecorder;
    use redsim_msvstore::MsvStore;

    fn run(s: &Simulation, spec: RunSpec<'_>) -> Result<RunResult, SimError> {
        s.run(&spec, &NullRecorder)
    }

    fn sim() -> Simulation {
        Simulation::from_circuit(&catalog::bv(4, 0b111), NoiseModel::uniform(4, 5e-3, 5e-2, 2e-2))
            .unwrap()
    }

    #[test]
    fn requires_trials_before_analysis_or_execution() {
        let s = sim();
        assert!(matches!(s.analyze(), Err(SimError::NoTrials)));
        assert!(matches!(run(&s, RunSpec::new(Walk::Baseline)), Err(SimError::NoTrials)));
        assert!(matches!(run(&s, RunSpec::default()), Err(SimError::NoTrials)));
    }

    #[test]
    fn end_to_end_equivalence_and_savings() {
        let mut s = sim();
        s.generate_trials(400, 3).unwrap();
        let report = s.analyze().unwrap();
        assert!(report.savings() > 0.3, "saving {}", report.savings());
        let baseline = run(&s, RunSpec::new(Walk::Baseline)).unwrap();
        let reordered = run(&s, RunSpec::default()).unwrap();
        assert_eq!(baseline.outcomes, reordered.outcomes);
        assert_eq!(reordered.stats.ops, report.optimized_ops);
        assert_eq!(baseline.stats.ops, report.baseline_ops);
        let h = s.histogram(&reordered);
        assert_eq!(h.total(), 400);
        // Most outcomes should still be the hidden string at these rates.
        assert!(h.probability(0b111) > 0.5);
    }

    #[test]
    fn fast_generation_also_runs() {
        let mut s = sim();
        s.generate_trials_fast(300, 9).unwrap();
        let report = s.analyze().unwrap();
        assert_eq!(report.n_trials, 300);
        let result = run(&s, RunSpec::default()).unwrap();
        assert_eq!(result.stats.ops, report.optimized_ops);
    }

    #[test]
    fn set_trials_validates_geometry() {
        let mut s = sim();
        let foreign = TrialSet::new(9, 9, vec![]);
        assert!(matches!(s.set_trials(foreign), Err(SimError::TrialMismatch { .. })));
        let mut other = sim();
        other.generate_trials(10, 0).unwrap();
        let set = other.trials().unwrap().clone();
        s.set_trials(set).unwrap();
        assert_eq!(s.trials().unwrap().len(), 10);
    }

    #[test]
    fn rejects_untranspiled_circuit_eagerly() {
        let mut qc = Circuit::new("ccx", 3, 3);
        qc.ccx(0, 1, 2).measure_all();
        let err =
            Simulation::from_circuit(&qc, NoiseModel::uniform(3, 1e-3, 1e-2, 0.0)).unwrap_err();
        assert!(matches!(err, SimError::Noise(_)));
    }

    #[test]
    fn facade_budget_and_parallel_paths_agree() {
        let mut s = sim();
        s.generate_trials(300, 21).unwrap();
        let baseline = run(&s, RunSpec::new(Walk::Baseline)).unwrap();
        let budgeted = run(&s, RunSpec { budget: 2, ..RunSpec::default() }).unwrap();
        assert_eq!(budgeted.outcomes, baseline.outcomes);
        assert!(budgeted.stats.peak_msv <= 2);
        assert_eq!(s.analyze_with_budget(2).unwrap().optimized_ops, budgeted.stats.ops);
        let par = run(&s, RunSpec { threads: 3, ..RunSpec::default() }).unwrap();
        assert_eq!(par.outcomes, baseline.outcomes);
        let par_base = run(&s, RunSpec { threads: 3, ..RunSpec::new(Walk::Baseline) }).unwrap();
        assert_eq!(par_base.outcomes, baseline.outcomes);
    }

    #[test]
    fn facade_reuse_and_oracle_paths() {
        let mut s = sim();
        s.generate_trials(400, 8).unwrap();
        let baseline = run(&s, RunSpec::new(Walk::Baseline)).unwrap();
        let reuse = run(&s, RunSpec::default()).unwrap();
        assert_eq!(reuse.outcomes, baseline.outcomes);
        let exact = crate::reference::exact_distribution(s.layered(), s.model()).unwrap();
        assert!((exact.iter().sum::<f64>() - 1.0).abs() < 1e-9);
        let hist = s.histogram(&reuse);
        assert!(hist.tv_distance(&exact) < 0.15); // coarse at 400 trials
    }

    #[test]
    fn registers_wider_than_a_state_vector_fail_before_any_walk_allocates() {
        use crate::exec::fuse_for_trials;
        let mut wide = Circuit::new("wide", 31, 31);
        wide.h(0).cx(0, 1).measure_all();
        let mut s =
            Simulation::from_circuit(&wide, NoiseModel::uniform(31, 1e-3, 1e-2, 1e-2)).unwrap();
        s.generate_trials(2, 0).unwrap();
        let dir = std::env::temp_dir().join(format!("redsim-wide-{}", std::process::id()));
        let store = MsvStore::open(&dir, 0).unwrap();
        let state_error = StateVecError::TooManyQubits { n_qubits: 31, max: 30 };
        let too_wide = SimError::State(state_error.clone());
        for spec in [
            RunSpec::new(Walk::Baseline),
            RunSpec { threads: 2, ..RunSpec::new(Walk::Baseline) },
            RunSpec::default(),
            RunSpec { budget: 1, ..RunSpec::default() },
            RunSpec { threads: 2, ..RunSpec::default() },
            RunSpec { store: Some((&store, s.model())), ..RunSpec::default() },
        ] {
            assert_eq!(run(&s, spec).unwrap_err(), too_wide, "{}", spec.name());
        }
        let (layered, trials) = (s.layered(), s.trials().unwrap().trials());
        // So do the unfused oracle and the noiseless references.
        assert_eq!(crate::testkit::run_unfused(layered, trials), Err(too_wide.clone()));
        assert_eq!(wide.simulate().unwrap_err(), state_error);
        assert_eq!(layered.simulate().unwrap_err(), state_error);
        assert_eq!(fuse_for_trials(layered, trials).simulate().unwrap_err(), state_error);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn classical_registers_wider_than_an_outcome_fail_at_every_entry_point() {
        let mut wide = Circuit::new("wide-creg", 2, 70);
        wide.x(0).x(1).measure(0, 68).measure(1, 1);
        let mut s = Simulation::from_circuit(&wide, NoiseModel::uniform(2, 0.0, 0.0, 0.0)).unwrap();
        s.generate_trials(4, 0).unwrap();
        let dir = std::env::temp_dir().join(format!("redsim-wide-creg-{}", std::process::id()));
        let store = MsvStore::open(&dir, 0).unwrap();
        let too_wide = SimError::State(StateVecError::TooManyBits { n_bits: 70, max: 64 });
        for spec in [
            RunSpec::new(Walk::Baseline),
            RunSpec { threads: 2, ..RunSpec::new(Walk::Baseline) },
            RunSpec::default(),
            RunSpec { budget: 1, ..RunSpec::default() },
            RunSpec { threads: 2, ..RunSpec::default() },
            RunSpec { store: Some((&store, s.model())), ..RunSpec::default() },
        ] {
            assert_eq!(run(&s, spec).unwrap_err(), too_wide, "{}", spec.name());
        }
        let (layered, trials) = (s.layered(), s.trials().unwrap().trials());
        assert_eq!(crate::testkit::run_unfused(layered, trials), Err(too_wide));
        // Nothing that builds no outcome minds the width.
        assert_eq!(s.analyze().unwrap().n_trials, 4);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn accessors_expose_components() {
        let mut s = sim();
        assert_eq!(s.layered().n_qubits(), 4);
        assert_eq!(s.model().n_qubits(), 4);
        assert!(s.trials().is_none());
        s.generate_trials(5, 0).unwrap();
        assert_eq!(s.trials().unwrap().len(), 5);
    }
}
