use qsim_circuit::{Circuit, LayeredCircuit};
use qsim_noise::{NoiseModel, TrialGenerator, TrialSet};
use qsim_statevec::StateVector;
use qsim_telemetry::Recorder;
use redsim_msvstore::MsvStore;

use crate::analysis::{self, CostReport};
use crate::exec::{ReuseExecutor, RunResult};
use crate::histogram::Histogram;
use crate::parallel;
use crate::semcache::CacheOutcome;
use crate::SimError;

/// The walk a [`RunSpec`] selects.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum Walk {
    /// Every trial from `|0…0⟩` (the paper's baseline).
    Baseline,
    /// The reordered prefix-trie walk (the paper's optimization).
    #[default]
    Reuse,
}

/// What [`Simulation::run`] executes: one walk and the knobs that
/// configure it — the options of `qsim run`.
#[derive(Clone, Copy, Debug)]
pub struct RunSpec<'s> {
    /// Which walk runs.
    pub walk: Walk,
    /// Stored-state cap for the reuse walk (`usize::MAX` = unbounded).
    pub budget: usize,
    /// Worker threads for the baseline or unbounded reuse walk (`0` = all
    /// cores, `1` = sequential).
    pub threads: usize,
    /// Cross-run prefix store for the sequential, unbounded reuse walk
    /// (see [`crate::semcache`]).
    pub store: Option<&'s MsvStore>,
}

impl Default for RunSpec<'_> {
    fn default() -> Self {
        RunSpec::new(Walk::Reuse)
    }
}

impl RunSpec<'_> {
    /// `walk` with every knob at its default: unbounded, sequential,
    /// uncached.
    pub fn new(walk: Walk) -> Self {
        RunSpec { walk, budget: usize::MAX, threads: 1, store: None }
    }

    /// Reject knob combinations no executor honours, naming the two
    /// `qsim run` flags that conflict. The baseline takes only
    /// `--threads`; `--threads` and `--cache` each drive the plain reuse
    /// walk and combine with nothing else.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::ConflictingOptions`] for the first conflict.
    pub fn validate(&self) -> Result<(), SimError> {
        let set: Vec<&'static str> = [
            ("--budget", self.budget != usize::MAX),
            ("--threads", self.threads != 1),
            ("--cache", self.store.is_some()),
        ]
        .into_iter()
        .filter_map(|(flag, on)| on.then_some(flag))
        .collect();
        let conflict = |flag, with| Err(SimError::ConflictingOptions { flag, with });
        if self.walk == Walk::Baseline {
            if let Some(&with) = set.iter().find(|&&flag| flag != "--threads") {
                return conflict("--baseline", with);
            }
        }
        for lead in ["--cache", "--threads"] {
            if set.contains(&lead) {
                if let Some(&with) = set.iter().find(|&&flag| flag != lead) {
                    return conflict(lead, with);
                }
            }
        }
        Ok(())
    }

    /// The strategy name trace and live headers carry.
    pub fn name(&self) -> &'static str {
        match self.walk {
            Walk::Baseline if self.threads == 1 => "baseline",
            Walk::Baseline => "parallel-baseline",
            Walk::Reuse if self.store.is_some() => "reuse-cached",
            Walk::Reuse if self.budget != usize::MAX => "reuse-budget",
            Walk::Reuse if self.threads == 1 => "reuse",
            Walk::Reuse => "parallel-reuse",
        }
    }
}

/// What [`Simulation::run`] produced: the run itself plus the accounting
/// of the prefix store, if it used one.
#[derive(Clone, Debug, PartialEq)]
pub struct RunOutput {
    /// Outcomes and cost accounting.
    pub result: RunResult,
    /// What the prefix store did for a cached run.
    pub cache: Option<CacheOutcome>,
}

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

    /// Static cost analysis of prefix caching *without* reordering (the
    /// ablation of the paper's §IV.B motivation).
    ///
    /// # Errors
    ///
    /// Returns [`SimError::NoTrials`] before trial generation.
    pub fn analyze_generation_order(&self) -> Result<CostReport, SimError> {
        let trials = self.trials.as_ref().ok_or(SimError::NoTrials)?;
        analysis::analyze_generation_order(&self.layered, trials.trials())
    }

    /// Execute all trials as `spec` declares, streaming instrumentation
    /// into `recorder` (pass [`qsim_telemetry::NullRecorder`] for none).
    /// Every walk produces outcomes bitwise identical to the baseline's.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::ConflictingOptions`] when `spec` fails
    /// [`RunSpec::validate`], [`SimError::NoTrials`] before trial
    /// generation, [`SimError::State`] for a register wider than a dense
    /// state vector holds, or execution failures. Store I/O problems
    /// degrade to an uncached run, they never fail it.
    pub fn run<R: Recorder + ?Sized>(
        &self,
        spec: &RunSpec<'_>,
        recorder: &R,
    ) -> Result<RunOutput, SimError> {
        spec.validate()?;
        let trials = self.trials.as_ref().ok_or(SimError::NoTrials)?.trials();
        StateVector::check_width(self.layered.n_qubits())?;
        let layered = &self.layered;
        let mut cache = None;
        let result = match spec.walk {
            Walk::Baseline => {
                parallel::run_baseline_parallel(layered, trials, spec.threads, recorder)?
            }
            Walk::Reuse if spec.threads != 1 => {
                parallel::run_reordered_parallel(layered, trials, spec.threads, recorder)?
            }
            Walk::Reuse => match spec.store {
                Some(store) => {
                    let (result, outcome) = crate::semcache::run_reordered_cached(
                        layered,
                        &self.model,
                        trials,
                        store,
                        recorder,
                    )?;
                    cache = Some(outcome);
                    result
                }
                None => {
                    ReuseExecutor::new(layered).with_budget(spec.budget).run(trials, recorder)?
                }
            },
        };
        Ok(RunOutput { result, cache })
    }

    /// [`Simulation::run`] with the default reordered walk.
    ///
    /// # Errors
    ///
    /// As [`Simulation::run`].
    pub fn run_reordered_traced<R: Recorder + ?Sized>(
        &self,
        recorder: &R,
    ) -> Result<RunResult, SimError> {
        Ok(self.run(&RunSpec::default(), recorder)?.result)
    }

    /// Static analysis under a stored-state budget.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::NoTrials`] before trial generation.
    pub fn analyze_with_budget(&self, budget: usize) -> Result<CostReport, SimError> {
        let trials = self.trials.as_ref().ok_or(SimError::NoTrials)?;
        let mut sorted = trials.trials().to_vec();
        crate::order::reorder(&mut sorted);
        analysis::analyze_sorted_with_budget(&self.layered, &sorted, budget)
    }

    /// Analytic first-order prediction of the savings for `n_trials`
    /// Monte-Carlo trials (see [`crate::estimate`]); no trials generated.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::Noise`] on model/circuit mismatch.
    pub fn estimate(&self, n_trials: usize) -> Result<crate::estimate::SavingsEstimate, SimError> {
        let generator = TrialGenerator::new(&self.layered, &self.model)?;
        Ok(crate::estimate::estimate_first_order(&self.layered, &generator, n_trials))
    }

    /// The exact outcome distribution from the density-matrix oracle (see
    /// [`crate::reference`]); small registers only.
    ///
    /// # Errors
    ///
    /// Propagates oracle failures (non-native gates, oversized registers).
    pub fn exact_distribution(&self) -> Result<Vec<f64>, SimError> {
        crate::reference::exact_distribution(&self.layered, &self.model)
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
    use qsim_circuit::catalog;
    use qsim_statevec::StateVecError;
    use qsim_telemetry::NullRecorder;

    fn run(s: &Simulation, spec: RunSpec<'_>) -> Result<RunOutput, SimError> {
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
        let baseline = run(&s, RunSpec::new(Walk::Baseline)).unwrap().result;
        let reordered = run(&s, RunSpec::default()).unwrap().result;
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
        let result = run(&s, RunSpec::default()).unwrap().result;
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
        let baseline = run(&s, RunSpec::new(Walk::Baseline)).unwrap().result;
        let budgeted = run(&s, RunSpec { budget: 2, ..RunSpec::default() }).unwrap().result;
        assert_eq!(budgeted.outcomes, baseline.outcomes);
        assert!(budgeted.stats.peak_msv <= 2);
        assert_eq!(s.analyze_with_budget(2).unwrap().optimized_ops, budgeted.stats.ops);
        let par = run(&s, RunSpec { threads: 3, ..RunSpec::default() }).unwrap().result;
        assert_eq!(par.outcomes, baseline.outcomes);
        let par_base =
            run(&s, RunSpec { threads: 3, ..RunSpec::new(Walk::Baseline) }).unwrap().result;
        assert_eq!(par_base.outcomes, baseline.outcomes);
    }

    #[test]
    fn facade_reuse_and_oracle_paths() {
        let mut s = sim();
        s.generate_trials(400, 8).unwrap();
        let baseline = run(&s, RunSpec::new(Walk::Baseline)).unwrap().result;
        let reuse = run(&s, RunSpec::default()).unwrap().result;
        assert_eq!(reuse.outcomes, baseline.outcomes);
        let exact = s.exact_distribution().unwrap();
        assert!((exact.iter().sum::<f64>() - 1.0).abs() < 1e-9);
        let hist = s.histogram(&reuse);
        assert!(hist.tv_distance(&exact) < 0.15); // coarse at 400 trials
    }

    #[test]
    fn registers_wider_than_a_state_vector_fail_before_any_walk_allocates() {
        use crate::exec::{fuse_for_trials, BaselineExecutor};
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
            RunSpec { store: Some(&store), ..RunSpec::default() },
        ] {
            assert_eq!(run(&s, spec).unwrap_err(), too_wide, "{}", spec.name());
        }
        // The executors check the width themselves, whoever calls them.
        let (layered, trials) = (s.layered(), s.trials().unwrap().trials());
        assert_eq!(
            BaselineExecutor::new(layered).run(trials, &NullRecorder),
            Err(too_wide.clone())
        );
        assert_eq!(ReuseExecutor::new(layered).run(trials, &NullRecorder), Err(too_wide.clone()));
        assert_eq!(
            parallel::run_baseline_parallel(layered, trials, 2, &NullRecorder),
            Err(too_wide.clone())
        );
        assert_eq!(
            parallel::run_reordered_parallel(layered, trials, 2, &NullRecorder),
            Err(too_wide.clone())
        );
        let cached = crate::semcache::run_reordered_cached(
            layered,
            s.model(),
            trials,
            &store,
            &NullRecorder,
        );
        assert_eq!(cached.unwrap_err(), too_wide);
        // So do the unfused oracle and the noiseless references.
        assert_eq!(crate::testkit::run_unfused(layered, trials), Err(too_wide.clone()));
        assert_eq!(wide.simulate().unwrap_err(), state_error);
        assert_eq!(layered.simulate().unwrap_err(), state_error);
        assert_eq!(fuse_for_trials(layered, trials).simulate().unwrap_err(), state_error);
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
