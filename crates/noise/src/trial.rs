use std::fmt;
use std::hash::{Hash, Hasher};
use std::sync::Arc;

use crate::Injection;

/// One Monte-Carlo error-injection trial: a canonically sorted list of
/// injected errors, the trial's classical readout-flip decisions, and a
/// private seed for measurement sampling.
///
/// The seed makes a trial's measurement outcome a pure function of the trial
/// itself rather than of execution order — which is what lets the reordered
/// executor produce **bitwise identical** results to the baseline (the
/// paper's "mathematically equivalent to the original simulation").
///
/// The injection list is a range of an injection arena shared by every
/// trial of a generated or parsed [`TrialSet`], so a set of millions of
/// trials is a handful of allocations, not one per trial. Cloning a trial
/// shares the arena; equality and hashing see only the list.
/// (The arena is the generator's own buffer, moved behind the `Arc` rather
/// than copied into an `Arc<[Injection]>`: a copy would double the peak
/// memory of a large set just as it is finished.)
#[derive(Clone)]
pub struct Trial {
    arena: Arc<Vec<Injection>>,
    start: u32,
    len: u32,
    meas_flips: u64,
    seed: u64,
}

/// Sort one trial's injections into canonical (layer, site, operator)
/// order in place; a repeated error position comes back as `Err`.
fn canonicalize(injections: &mut [Injection]) -> Result<(), Injection> {
    injections.sort_unstable();
    let same_position =
        |a: &Injection, b: &Injection| (a.layer, a.low, a.high) == (b.layer, b.low, b.high);
    match injections.windows(2).find(|pair| same_position(&pair[0], &pair[1])) {
        Some(pair) => Err(pair[0]),
        None => Ok(()),
    }
}

/// `n` as an arena index.
///
/// # Panics
///
/// Panics past 2³² injections (48 GiB of them).
fn arena_index(n: usize) -> u32 {
    u32::try_from(n).expect("an injection arena holds at most 2^32 injections")
}

impl Trial {
    /// Build a trial; the injection list is sorted into canonical
    /// (layer, site, operator) order.
    ///
    /// # Panics
    ///
    /// Panics if two injections share the same error position — the
    /// depolarizing channel injects at most one operator per position.
    pub fn new(mut injections: Vec<Injection>, meas_flips: u64, seed: u64) -> Self {
        if let Err(inj) = canonicalize(&mut injections) {
            panic!("duplicate error position {inj} in one trial");
        }
        let len = arena_index(injections.len());
        Trial { arena: Arc::new(injections), start: 0, len, meas_flips, seed }
    }

    /// A trial with no injected errors (the error-free execution of the
    /// paper's Fig. 2a).
    pub fn error_free(seed: u64) -> Self {
        Trial { arena: Arc::new(Vec::new()), start: 0, len: 0, meas_flips: 0, seed }
    }

    /// The sorted injection list.
    pub fn injections(&self) -> &[Injection] {
        let start = self.start as usize;
        &self.arena[start..start + self.len as usize]
    }

    /// Number of injected errors.
    pub fn n_injections(&self) -> usize {
        self.len as usize
    }

    /// Whether the readout of `qubit` flips classically.
    pub fn flips_qubit(&self, qubit: usize) -> bool {
        qubit < 64 && self.meas_flips >> qubit & 1 == 1
    }

    /// The raw flip mask (bit *q* = flip qubit *q*).
    pub fn meas_flip_mask(&self) -> u64 {
        self.meas_flips
    }

    /// The trial's measurement-sampling seed.
    pub fn seed(&self) -> u64 {
        self.seed
    }
}

impl PartialEq for Trial {
    fn eq(&self, other: &Self) -> bool {
        self.injections() == other.injections()
            && self.meas_flips == other.meas_flips
            && self.seed == other.seed
    }
}

impl Eq for Trial {}

impl Hash for Trial {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.injections().hash(state);
        self.meas_flips.hash(state);
        self.seed.hash(state);
    }
}

impl fmt::Debug for Trial {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Trial")
            .field("injections", &self.injections())
            .field("meas_flips", &self.meas_flips)
            .field("seed", &self.seed)
            .finish()
    }
}

/// Builds a trial set's trials over one shared injection arena: a trial's
/// injections are appended, then sorted and checked in place when the trial
/// closes. The generators and the trial-file parser fill one of these, so
/// producing a set allocates independently of its trial count.
pub(crate) struct TrialArena {
    injections: Vec<Injection>,
    /// `(start, len, flips, seed)` of every closed trial.
    trials: Vec<(u32, u32, u64, u64)>,
    /// Where the open trial's injections start.
    open: usize,
}

impl TrialArena {
    /// An empty arena sized for `n_trials` trials carrying about
    /// `n_injections` injections in total.
    pub(crate) fn with_capacity(n_trials: usize, n_injections: usize) -> Self {
        TrialArena {
            injections: Vec::with_capacity(n_injections),
            trials: Vec::with_capacity(n_trials),
            open: 0,
        }
    }

    /// Append an injection to the open trial.
    pub(crate) fn push(&mut self, injection: Injection) {
        self.injections.push(injection);
    }

    /// Close the open trial: sort its injections into canonical order and
    /// record its readout flips and seed. A repeated error position comes
    /// back as `Err`.
    pub(crate) fn close(&mut self, meas_flips: u64, seed: u64) -> Result<(), Injection> {
        canonicalize(&mut self.injections[self.open..])?;
        let start = arena_index(self.open);
        let end = arena_index(self.injections.len());
        self.trials.push((start, end - start, meas_flips, seed));
        self.open = self.injections.len();
        Ok(())
    }

    /// The closed trials, each a view of the shared arena.
    pub(crate) fn finish(mut self) -> Vec<Trial> {
        self.injections.truncate(self.open);
        self.injections.shrink_to_fit();
        let arena = Arc::new(self.injections);
        self.trials
            .into_iter()
            .map(|(start, len, meas_flips, seed)| Trial {
                arena: Arc::clone(&arena),
                start,
                len,
                meas_flips,
                seed,
            })
            .collect()
    }
}

impl fmt::Display for Trial {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Trial[")?;
        for (i, inj) in self.injections().iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{inj}")?;
        }
        write!(f, "]")?;
        if self.meas_flips != 0 {
            write!(f, " flips={:b}", self.meas_flips)?;
        }
        Ok(())
    }
}

/// A complete set of statically generated trials for one circuit + model.
#[derive(Clone, Debug, PartialEq)]
pub struct TrialSet {
    n_qubits: usize,
    n_layers: usize,
    trials: Vec<Trial>,
}

impl TrialSet {
    /// Bundle trials with their circuit geometry.
    pub fn new(n_qubits: usize, n_layers: usize, trials: Vec<Trial>) -> Self {
        TrialSet { n_qubits, n_layers, trials }
    }

    /// Number of qubits of the underlying circuit.
    pub fn n_qubits(&self) -> usize {
        self.n_qubits
    }

    /// Number of layers of the underlying circuit.
    pub fn n_layers(&self) -> usize {
        self.n_layers
    }

    /// Number of trials.
    pub fn len(&self) -> usize {
        self.trials.len()
    }

    /// Whether the set is empty.
    pub fn is_empty(&self) -> bool {
        self.trials.is_empty()
    }

    /// The trials in generation order.
    pub fn trials(&self) -> &[Trial] {
        &self.trials
    }

    /// Consume into the trial vector.
    pub fn into_trials(self) -> Vec<Trial> {
        self.trials
    }

    /// Total injections across all trials.
    pub fn total_injections(&self) -> usize {
        self.trials.iter().map(Trial::n_injections).sum()
    }

    /// Mean injections per trial.
    pub fn mean_injections(&self) -> f64 {
        if self.trials.is_empty() {
            0.0
        } else {
            self.total_injections() as f64 / self.trials.len() as f64
        }
    }

    /// Histogram of injection counts: `hist[k]` = trials with `k` errors.
    pub fn injection_histogram(&self) -> Vec<usize> {
        let max = self.trials.iter().map(Trial::n_injections).max().unwrap_or(0);
        let mut hist = vec![0usize; max + 1];
        for t in &self.trials {
            hist[t.n_injections()] += 1;
        }
        hist
    }

    /// Injections per layer: `hist[ℓ]` = total errors injected after layer
    /// `ℓ` across all trials. Useful for spotting where a circuit
    /// concentrates its noise (e.g. CNOT-heavy layers).
    pub fn layer_histogram(&self) -> Vec<usize> {
        let mut hist = vec![0usize; self.n_layers];
        for trial in &self.trials {
            for inj in trial.injections() {
                hist[inj.layer()] += 1;
            }
        }
        hist
    }

    /// Injections per qubit: two-qubit errors count toward both operands.
    pub fn qubit_histogram(&self) -> Vec<usize> {
        let mut hist = vec![0usize; self.n_qubits];
        for trial in &self.trials {
            for inj in trial.injections() {
                match inj.site() {
                    crate::Site::One(q) => hist[q] += 1,
                    crate::Site::Two(a, b) => {
                        hist[a] += 1;
                        hist[b] += 1;
                    }
                }
            }
        }
        hist
    }

    /// Sorted, deduplicated union of injection layers across every trial —
    /// the cut-points a fused execution must honour: a state may need to
    /// pause after each of these layers for *some* trial, and nowhere else.
    /// Gate fusion (see `qsim-circuit`'s `fuse` module) is free to merge
    /// across every other layer boundary.
    pub fn injection_layers(&self) -> Vec<usize> {
        injection_cut_layers(&self.trials, self.n_layers)
    }

    /// Fraction of trials with no injected error at all — the paper's
    /// "error-free execution" mass, which bounds the best possible sharing.
    pub fn error_free_fraction(&self) -> f64 {
        if self.trials.is_empty() {
            return 0.0;
        }
        let clean = self.trials.iter().filter(|t| t.n_injections() == 0).count();
        clean as f64 / self.trials.len() as f64
    }
}

/// Sorted, deduplicated union of the injection layers below `n_layers`
/// across `trials` (see [`TrialSet::injection_layers`]; this form serves
/// executors that work on bare trial slices). One pass marks a flag per
/// layer of the circuit; an injection past its last layer cuts nothing
/// (the executors reject it).
pub fn injection_cut_layers(trials: &[Trial], n_layers: usize) -> Vec<usize> {
    let mut cut = vec![false; n_layers];
    for inj in trials.iter().flat_map(Trial::injections) {
        if let Some(flag) = cut.get_mut(inj.layer()) {
            *flag = true;
        }
    }
    cut.iter().enumerate().filter_map(|(layer, &c)| c.then_some(layer)).collect()
}

impl fmt::Display for TrialSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "TrialSet({} trials, {} qubits, {} layers, mean {:.2} injections)",
            self.len(),
            self.n_qubits,
            self.n_layers,
            self.mean_injections()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qsim_statevec::Pauli;

    #[test]
    fn trial_sorts_injections_canonically() {
        let t = Trial::new(
            vec![
                Injection::single(3, 0, Pauli::X),
                Injection::single(0, 2, Pauli::Z),
                Injection::single(0, 1, Pauli::Y),
            ],
            0,
            0,
        );
        let layers: Vec<usize> = t.injections().iter().map(Injection::layer).collect();
        assert_eq!(layers, vec![0, 0, 3]);
        assert!(t.injections()[0] < t.injections()[1]);
    }

    #[test]
    #[should_panic(expected = "duplicate error position")]
    fn trial_rejects_duplicate_positions() {
        let _ = Trial::new(
            vec![Injection::single(1, 0, Pauli::X), Injection::single(1, 0, Pauli::Z)],
            0,
            0,
        );
    }

    #[test]
    fn arena_trials_view_one_shared_buffer() {
        let mut arena = TrialArena::with_capacity(3, 0);
        arena.push(Injection::single(2, 0, Pauli::X));
        arena.push(Injection::single(0, 1, Pauli::Z));
        arena.close(0b1, 7).unwrap();
        arena.close(0, 8).unwrap();
        arena.push(Injection::single(1, 0, Pauli::Y));
        arena.push(Injection::single(1, 0, Pauli::X));
        assert_eq!(arena.close(0, 9), Err(Injection::single(1, 0, Pauli::X)));
        let trials = arena.finish();
        assert_eq!(
            trials,
            vec![
                Trial::new(
                    vec![Injection::single(0, 1, Pauli::Z), Injection::single(2, 0, Pauli::X)],
                    0b1,
                    7
                ),
                Trial::error_free(8),
            ],
            "sorted in place; the trial that failed to close is dropped"
        );
        assert!(Arc::ptr_eq(&trials[0].arena, &trials[1].arena));
        assert_eq!(trials[0].arena.len(), 2);
    }

    #[test]
    fn cut_layers_are_bounded_by_the_circuit() {
        let trials = [
            Trial::new(vec![Injection::single(3, 0, Pauli::X)], 0, 0),
            Trial::new(
                vec![
                    Injection::single(1, 0, Pauli::Z),
                    Injection::single(u32::MAX as usize, 1, Pauli::Y),
                ],
                0,
                1,
            ),
            Trial::new(vec![Injection::single(3, 1, Pauli::X)], 0, 2),
        ];
        assert_eq!(injection_cut_layers(&trials, 5), vec![1, 3]);
        assert_eq!(injection_cut_layers(&trials, 2), vec![1]);
        assert!(injection_cut_layers(&trials, 0).is_empty());
    }

    #[test]
    fn meas_flips_round_trip() {
        let t = Trial::new(vec![], 0b101, 9);
        assert!(t.flips_qubit(0));
        assert!(!t.flips_qubit(1));
        assert!(t.flips_qubit(2));
        assert!(!t.flips_qubit(63));
    }

    #[test]
    fn error_free_trial_is_empty() {
        let t = Trial::error_free(4);
        assert_eq!(t.n_injections(), 0);
        assert_eq!(t.seed(), 4);
        assert_eq!(t.meas_flip_mask(), 0);
    }

    #[test]
    fn set_statistics() {
        let trials = vec![
            Trial::error_free(0),
            Trial::new(vec![Injection::single(0, 0, Pauli::X)], 0, 1),
            Trial::new(
                vec![Injection::single(0, 0, Pauli::X), Injection::single(1, 0, Pauli::Z)],
                0,
                2,
            ),
        ];
        let set = TrialSet::new(2, 3, trials);
        assert_eq!(set.len(), 3);
        assert!(!set.is_empty());
        assert_eq!(set.total_injections(), 3);
        assert!((set.mean_injections() - 1.0).abs() < 1e-12);
        assert_eq!(set.injection_histogram(), vec![1, 1, 1]);
    }

    #[test]
    fn display_formats() {
        let t = Trial::new(vec![Injection::single(2, 1, Pauli::Z)], 0b10, 0);
        let text = t.to_string();
        assert!(text.contains("L2:Z@q1"));
        assert!(text.contains("flips=10"));
    }

    #[test]
    fn layer_qubit_and_error_free_statistics() {
        let trials = vec![
            Trial::error_free(0),
            Trial::new(vec![Injection::single(0, 1, Pauli::X)], 0, 1),
            Trial::new(
                vec![
                    Injection::single(0, 0, Pauli::Z),
                    Injection::pair(2, (0, 1), Some(Pauli::X), Some(Pauli::Y)),
                ],
                0,
                2,
            ),
        ];
        let set = TrialSet::new(2, 3, trials);
        assert_eq!(set.layer_histogram(), vec![2, 0, 1]);
        assert_eq!(set.qubit_histogram(), vec![2, 2]);
        assert!((set.error_free_fraction() - 1.0 / 3.0).abs() < 1e-12);
        assert_eq!(TrialSet::new(1, 1, vec![]).error_free_fraction(), 0.0);
    }
}
