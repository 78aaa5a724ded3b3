use std::collections::{HashMap, HashSet};

use qsim_circuit::{LayeredCircuit, MAX_REGISTER_QUBITS};
use rand::rngs::StdRng;
use rand::{Rng, RngExt, SeedableRng};

use qsim_statevec::Pauli;

use crate::trial::TrialArena;
use crate::{Binomial, Injection, NoiseError, NoiseModel, PauliWeights, TrialSet};

/// Public summary of one error position, for analytic cost models.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct PositionInfo {
    /// Layer after whose gates the error strikes.
    pub layer: usize,
    /// Total error probability at this position.
    pub rate: f64,
    /// Distinct error operators this position can inject.
    pub n_variants: u32,
}

/// One potential error position: a gate's operands (or an idle qubit) and
/// its error channel, by layer.
#[derive(Clone, Copy, Debug)]
struct Position {
    layer: usize,
    qubits: (usize, usize),
    is_pair: bool,
    /// Total error probability of this position.
    rate: f64,
    /// Per-operator weights (single-qubit sites only; pairs are uniform
    /// over the 15 non-identity Pauli pairs).
    weights: PauliWeights,
}

/// Statically samples complete Monte-Carlo trial sets for a circuit under a
/// noise model — the "generate all the simulation trials without actually
/// running the simulation" step of the paper's §IV.
///
/// Two samplers are provided:
///
/// * [`TrialGenerator::generate`] — the direct, paper-faithful method: one
///   Bernoulli draw per error position per trial.
/// * [`TrialGenerator::generate_fast`] — statistically identical binomial
///   sampling (count per rate class, then positions without replacement),
///   which makes the paper's 10⁶-trial scalability experiments tractable.
#[derive(Clone, Debug)]
pub struct TrialGenerator {
    n_qubits: usize,
    n_layers: usize,
    positions: Vec<Position>,
    /// `(qubit, readout rate)` for each measured qubit.
    readouts: Vec<(usize, f64)>,
}

impl TrialGenerator {
    /// Prepare a generator by enumerating every error position of the
    /// layered circuit under `model`.
    ///
    /// # Errors
    ///
    /// Returns [`NoiseError::WidthMismatch`] if the model is narrower than
    /// the circuit and [`NoiseError::NonNativeGate`] for arity ≥ 3 gates.
    pub fn new(layered: &LayeredCircuit, model: &NoiseModel) -> Result<Self, NoiseError> {
        if layered.n_qubits() > MAX_REGISTER_QUBITS {
            return Err(NoiseError::TooManyQubits {
                n_qubits: layered.n_qubits(),
                max: MAX_REGISTER_QUBITS,
            });
        }
        if model.n_qubits() < layered.n_qubits() {
            return Err(NoiseError::WidthMismatch {
                model: model.n_qubits(),
                circuit: layered.n_qubits(),
            });
        }
        let mut positions = Vec::with_capacity(layered.total_gates());
        for (layer, gates) in layered.layers().enumerate() {
            let mut busy = vec![false; layered.n_qubits()];
            for op in gates {
                let rate = model.gate_rate(op)?;
                for &q in &op.qubits {
                    busy[q] = true;
                }
                let (qubits, is_pair, weights) = match op.qubits.len() {
                    1 => ((op.qubits[0], usize::MAX), false, model.single_weights(op.qubits[0])),
                    2 => {
                        let (a, b) = (op.qubits[0], op.qubits[1]);
                        ((a.min(b), a.max(b)), true, PauliWeights::zero())
                    }
                    _ => unreachable!("gate_rate rejected arity >= 3"),
                };
                positions.push(Position { layer, qubits, is_pair, rate, weights });
            }
            // Idle errors: qubits no gate touched this layer (paper
            // para. III.B.1: errors that "can happen without an operation").
            if model.has_idle_errors() {
                for (q, &is_busy) in busy.iter().enumerate() {
                    if is_busy {
                        continue;
                    }
                    let weights = model.idle_weights(q).expect("idle errors enabled");
                    if weights.total() > 0.0 {
                        positions.push(Position {
                            layer,
                            qubits: (q, usize::MAX),
                            is_pair: false,
                            rate: weights.total(),
                            weights,
                        });
                    }
                }
            }
        }
        let readouts =
            layered.measurements().iter().map(|&(q, _)| (q, model.readout_rate(q))).collect();
        Ok(TrialGenerator {
            n_qubits: layered.n_qubits(),
            n_layers: layered.n_layers(),
            positions,
            readouts,
        })
    }

    /// Number of error positions (= gates) per trial.
    pub fn n_positions(&self) -> usize {
        self.positions.len()
    }

    /// Summary of every error position — `(layer, total rate, operator
    /// variants)` — for analytic models of the expected savings (each
    /// position splits into 3 single-qubit or 15 two-qubit operator
    /// variants with equal conditional probability under the symmetric
    /// channel; asymmetric weights keep the total).
    pub fn position_info(&self) -> Vec<PositionInfo> {
        self.positions
            .iter()
            .map(|p| PositionInfo {
                layer: p.layer,
                rate: p.rate,
                n_variants: if p.is_pair { 15 } else { 3 },
            })
            .collect()
    }

    /// Expected number of injections per trial, `Σ rate`.
    pub fn expected_injections(&self) -> f64 {
        self.positions.iter().map(|p| p.rate).sum()
    }

    /// Direct sampling: one Bernoulli draw per position per trial.
    /// Deterministic in `seed`.
    pub fn generate(&self, n_trials: usize, seed: u64) -> TrialSet {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut arena = self.arena(n_trials, 0);
        for _ in 0..n_trials {
            for pos in &self.positions {
                if rng.random::<f64>() < pos.rate {
                    arena.push(sample_operator(pos, &mut rng));
                }
            }
            let flips = self.sample_flips_direct(&mut rng);
            close(&mut arena, flips, rng.random::<u64>());
        }
        self.set(arena)
    }

    /// An empty arena for `n_trials` trials whose injection buffer will
    /// almost surely never regrow: the injection total is a sum of
    /// independent Bernoulli draws, so its variance is at most its mean,
    /// and eight standard deviations of slack cover it. `floor` adds the
    /// conditional sampler's per-trial minimum on top of the mean.
    fn arena(&self, n_trials: usize, floor: usize) -> TrialArena {
        let mean = (self.expected_injections() + floor as f64) * n_trials as f64;
        TrialArena::with_capacity(n_trials, (mean + 8.0 * mean.sqrt()).ceil() as usize + 64)
    }

    fn set(&self, arena: TrialArena) -> TrialSet {
        TrialSet::new(self.n_qubits, self.n_layers, arena.finish())
    }

    /// Binomial fast path: per rate class, draw the number of injected
    /// errors and then choose that many distinct positions. Statistically
    /// identical to [`TrialGenerator::generate`] (each position is included
    /// independently with its rate), but costs `O(errors)` instead of
    /// `O(positions)` per trial. Deterministic in `seed` (but a *different*
    /// stream than `generate`).
    pub fn generate_fast(&self, n_trials: usize, seed: u64) -> TrialSet {
        let mut rng = StdRng::seed_from_u64(seed);
        // Group positions by exact rate.
        let mut classes: HashMap<u64, Vec<usize>> = HashMap::new();
        for (i, pos) in self.positions.iter().enumerate() {
            if pos.rate > 0.0 {
                classes.entry(pos.rate.to_bits()).or_default().push(i);
            }
        }
        let mut classes: Vec<(f64, Vec<usize>)> =
            classes.into_iter().map(|(bits, idxs)| (f64::from_bits(bits), idxs)).collect();
        classes.sort_by(|a, b| a.0.partial_cmp(&b.0).expect("rates are finite"));
        let binomials: Vec<(Binomial, &[usize])> = classes
            .iter()
            .map(|(rate, idxs)| (Binomial::new(idxs.len() as u64, *rate), idxs.as_slice()))
            .collect();

        // Readout classes.
        let mut readout_classes: HashMap<u64, Vec<usize>> = HashMap::new();
        for (q, rate) in &self.readouts {
            if *rate > 0.0 {
                readout_classes.entry(rate.to_bits()).or_default().push(*q);
            }
        }
        let mut readout_classes: Vec<(f64, Vec<usize>)> =
            readout_classes.into_iter().map(|(bits, qs)| (f64::from_bits(bits), qs)).collect();
        readout_classes.sort_by(|a, b| a.0.partial_cmp(&b.0).expect("rates are finite"));
        let readout_binomials: Vec<(Binomial, &[usize])> = readout_classes
            .iter()
            .map(|(rate, qs)| (Binomial::new(qs.len() as u64, *rate), qs.as_slice()))
            .collect();

        let mut arena = self.arena(n_trials, 0);
        let mut scratch: Vec<usize> = Vec::new();
        let mut seen = HashSet::new();
        for _ in 0..n_trials {
            for (dist, idxs) in &binomials {
                let k = dist.sample(&mut rng) as usize;
                choose_distinct(idxs, k, &mut rng, &mut scratch, &mut seen);
                for &pos_idx in scratch.iter() {
                    arena.push(sample_operator(&self.positions[pos_idx], &mut rng));
                }
            }
            let mut flips = 0u64;
            for (dist, qs) in &readout_binomials {
                let k = dist.sample(&mut rng) as usize;
                choose_distinct(qs, k, &mut rng, &mut scratch, &mut seen);
                for &q in scratch.iter() {
                    flips |= 1u64 << q;
                }
            }
            close(&mut arena, flips, rng.random::<u64>());
        }
        self.set(arena)
    }

    /// Exact conditional sampling: generate `n_trials` trials **given at
    /// least `min_errors` injections**, plus the probability of that
    /// conditioning event. For rare-event studies (logical failure rates,
    /// multi-error tails) this replaces hopeless rejection sampling:
    /// an unbiased estimator of any statistic `f` is
    /// `P(≥k errors) · mean(f over the conditional set)` for the `≥ k`
    /// contribution.
    ///
    /// The sampler walks positions in order, drawing each Bernoulli
    /// conditioned on the suffix still being able to satisfy the remaining
    /// requirement (a Poisson-binomial suffix DP, `O(positions ·
    /// min_errors)` setup, exact — not an importance-sampling
    /// approximation). Readout flips and seeds are sampled as usual.
    ///
    /// Returns `(trials, event_probability)`.
    ///
    /// # Panics
    ///
    /// Panics if the conditioning event is impossible (`min_errors`
    /// exceeds the number of positions with nonzero rate).
    pub fn generate_conditional(
        &self,
        n_trials: usize,
        min_errors: usize,
        seed: u64,
    ) -> (TrialSet, f64) {
        let positions = &self.positions;
        let n_pos = positions.len();
        // Suffix DP: at_least[i][j] = P(≥ j errors among positions i..).
        // Stored flat with stride (min_errors + 1).
        let stride = min_errors + 1;
        let mut at_least = vec![0.0f64; (n_pos + 1) * stride];
        for i in (0..=n_pos).rev() {
            at_least[i * stride] = 1.0; // ≥ 0 errors is certain
            for j in 1..=min_errors {
                at_least[i * stride + j] = if i == n_pos {
                    0.0
                } else {
                    let r = positions[i].rate;
                    r * at_least[(i + 1) * stride + (j - 1)]
                        + (1.0 - r) * at_least[(i + 1) * stride + j]
                };
            }
        }
        let event_probability = at_least[min_errors];
        assert!(
            event_probability > 0.0,
            "conditioning on >= {min_errors} errors is impossible for this circuit/model"
        );

        let mut rng = StdRng::seed_from_u64(seed);
        let mut arena = self.arena(n_trials, min_errors);
        for _ in 0..n_trials {
            let mut needed = min_errors;
            for (i, pos) in positions.iter().enumerate() {
                let hit = if needed == 0 {
                    rng.random::<f64>() < pos.rate
                } else {
                    let p_hit = pos.rate * at_least[(i + 1) * stride + (needed - 1)]
                        / at_least[i * stride + needed];
                    rng.random::<f64>() < p_hit
                };
                if hit {
                    arena.push(sample_operator(pos, &mut rng));
                    needed = needed.saturating_sub(1);
                }
            }
            debug_assert_eq!(needed, 0, "the conditional sampler met its minimum");
            let flips = self.sample_flips_direct(&mut rng);
            close(&mut arena, flips, rng.random::<u64>());
        }
        (self.set(arena), event_probability)
    }

    fn sample_flips_direct(&self, rng: &mut StdRng) -> u64 {
        let mut flips = 0u64;
        for &(q, rate) in &self.readouts {
            if rng.random::<f64>() < rate {
                flips |= 1u64 << q;
            }
        }
        flips
    }
}

/// Close a generated trial. Generator positions are distinct, so a repeated
/// error position is a bug.
fn close(arena: &mut TrialArena, meas_flips: u64, seed: u64) {
    if let Err(inj) = arena.close(meas_flips, seed) {
        panic!("duplicate error position {inj} in one trial");
    }
}

/// Choose an error operator for a triggered position: one of the 3 Paulis
/// by the position's weights (single sites; the symmetric channel of the
/// paper's Fig. 3 is the uniform special case) or uniformly one of the 15
/// non-identity Pauli pairs (pair sites).
fn sample_operator<R: Rng>(pos: &Position, rng: &mut R) -> Injection {
    if pos.is_pair {
        let code = rng.random_range(1..16u8);
        let decode = |c: u8| if c == 0 { None } else { Some(Pauli::from_code(c - 1)) };
        Injection::pair(pos.layer, pos.qubits, decode(code % 4), decode(code / 4))
    } else {
        let pauli = pos.weights.sample_conditional(rng);
        Injection::single(pos.layer, pos.qubits.0, pauli)
    }
}

/// Sample `k` distinct elements of `pool` into `out`, in the order they
/// were drawn, so the result is a pure function of the generator state.
/// Uses a partial Fisher–Yates over indices when `k` is a large fraction of
/// the pool, plain rejection otherwise (`k` is almost always tiny compared
/// to the pool in this workload); `seen` is the rejection path's membership
/// scratch, never iterated.
fn choose_distinct<R: Rng>(
    pool: &[usize],
    k: usize,
    rng: &mut R,
    out: &mut Vec<usize>,
    seen: &mut HashSet<usize>,
) {
    out.clear();
    let n = pool.len();
    if k == 0 {
        return;
    }
    if k >= n {
        out.extend_from_slice(pool);
        return;
    }
    if k * 4 <= n {
        // Rejection sampling.
        seen.clear();
        while out.len() < k {
            let i = rng.random_range(0..n);
            if seen.insert(i) {
                out.push(pool[i]);
            }
        }
    } else {
        // Partial Fisher–Yates.
        let mut indices: Vec<usize> = (0..n).collect();
        for i in 0..k {
            let j = rng.random_range(i..n);
            indices.swap(i, j);
        }
        out.extend(indices[..k].iter().map(|&i| pool[i]));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qsim_circuit::catalog;

    fn bv_generator(rate_scale: f64) -> (TrialGenerator, usize) {
        let layered = catalog::bv(4, 0b111).layered().unwrap();
        let model = NoiseModel::uniform(4, 1e-2 * rate_scale, 1e-1 * rate_scale, 5e-2 * rate_scale);
        let gates = layered.total_gates();
        (TrialGenerator::new(&layered, &model).unwrap(), gates)
    }

    #[test]
    fn circuits_wider_than_an_injection_addresses_are_rejected() {
        let wide = MAX_REGISTER_QUBITS + 1;
        let mut qc = qsim_circuit::Circuit::new("wide", wide, 1);
        qc.h(wide - 1);
        let layered = qc.layered().unwrap();
        let model = NoiseModel::uniform(wide, 0.9, 0.9, 0.9);
        let err = TrialGenerator::new(&layered, &model).unwrap_err();
        assert_eq!(err, NoiseError::TooManyQubits { n_qubits: wide, max: MAX_REGISTER_QUBITS });
        assert!(err.to_string().contains("65536 qubits exceeds"), "{err}");
    }

    #[test]
    fn positions_cover_every_gate() {
        let (generator, gates) = bv_generator(1.0);
        assert_eq!(generator.n_positions(), gates);
        assert!(generator.expected_injections() > 0.0);
    }

    #[test]
    fn generation_is_deterministic_in_seed() {
        let (generator, _) = bv_generator(1.0);
        assert_eq!(generator.generate(50, 7), generator.generate(50, 7));
        assert_ne!(generator.generate(50, 7), generator.generate(50, 8));
        assert_eq!(generator.generate_fast(50, 7), generator.generate_fast(50, 7));
        // Pools far larger than the draw count take the rejection path,
        // whose draw order fixes which operator each chosen position gets.
        let layered = catalog::quantum_volume(10, 10, 2020).layered().unwrap();
        let generator = TrialGenerator::new(&layered, &NoiseModel::artificial(10, 1e-3)).unwrap();
        assert_eq!(generator.generate_fast(20_000, 2020), generator.generate_fast(20_000, 2020));
    }

    #[test]
    fn zero_noise_generates_error_free_trials() {
        let layered = catalog::bv(4, 0b111).layered().unwrap();
        let model = NoiseModel::uniform(4, 0.0, 0.0, 0.0);
        let generator = TrialGenerator::new(&layered, &model).unwrap();
        for set in [generator.generate(20, 1), generator.generate_fast(20, 1)] {
            assert_eq!(set.total_injections(), 0);
            assert!(set.trials().iter().all(|t| t.meas_flip_mask() == 0));
        }
    }

    #[test]
    fn injection_rate_matches_expectation() {
        let (generator, _) = bv_generator(1.0);
        let expected = generator.expected_injections();
        let n = 20_000;
        for set in [generator.generate(n, 42), generator.generate_fast(n, 42)] {
            let mean = set.mean_injections();
            assert!(
                (mean - expected).abs() < 0.05 * expected.max(0.1),
                "mean {mean} vs expected {expected}"
            );
        }
    }

    #[test]
    fn direct_and_fast_sampling_agree_statistically() {
        let (generator, _) = bv_generator(2.0);
        let n = 30_000;
        let direct = generator.generate(n, 1);
        let fast = generator.generate_fast(n, 2);
        let mean_d = direct.mean_injections();
        let mean_f = fast.mean_injections();
        assert!((mean_d - mean_f).abs() < 0.05 * mean_d.max(0.1), "{mean_d} vs {mean_f}");
        // Flip frequencies agree too.
        let flips = |set: &TrialSet| {
            set.trials().iter().filter(|t| t.meas_flip_mask() != 0).count() as f64
                / set.len() as f64
        };
        assert!((flips(&direct) - flips(&fast)).abs() < 0.02);
    }

    #[test]
    fn pair_sites_occur_for_cnot_errors() {
        let layered = catalog::bv(4, 0b111).layered().unwrap();
        // Only two-qubit noise.
        let model = NoiseModel::uniform(4, 0.0, 0.5, 0.0);
        let generator = TrialGenerator::new(&layered, &model).unwrap();
        let set = generator.generate(200, 3);
        assert!(set.total_injections() > 0);
        for trial in set.trials() {
            for inj in trial.injections() {
                assert!(matches!(inj.site(), crate::Site::Two(..)));
            }
        }
    }

    #[test]
    fn rejects_model_narrower_than_circuit() {
        let layered = catalog::bv(5, 0b1).layered().unwrap();
        let model = NoiseModel::uniform(3, 1e-3, 1e-2, 1e-2);
        assert!(matches!(
            TrialGenerator::new(&layered, &model),
            Err(NoiseError::WidthMismatch { .. })
        ));
    }

    #[test]
    fn rejects_untranspiled_circuits() {
        let mut qc = qsim_circuit::Circuit::new("ccx", 3, 3);
        qc.ccx(0, 1, 2).measure_all();
        let layered = qc.layered().unwrap();
        let model = NoiseModel::uniform(3, 1e-3, 1e-2, 1e-2);
        assert!(matches!(
            TrialGenerator::new(&layered, &model),
            Err(NoiseError::NonNativeGate { .. })
        ));
    }

    #[test]
    fn readout_flip_rate_matches_model() {
        let layered = catalog::bv(4, 0b101).layered().unwrap();
        let model = NoiseModel::uniform(4, 0.0, 0.0, 0.25);
        let generator = TrialGenerator::new(&layered, &model).unwrap();
        let n = 20_000;
        let set = generator.generate(n, 5);
        // 3 measured qubits, each flipping with p = 0.25.
        let mean_flips: f64 =
            set.trials().iter().map(|t| t.meas_flip_mask().count_ones() as f64).sum::<f64>()
                / n as f64;
        assert!((mean_flips - 0.75).abs() < 0.03, "mean flips {mean_flips}");
    }

    #[test]
    fn choose_distinct_returns_unique_elements() {
        let pool: Vec<usize> = (100..150).collect();
        let mut rng = StdRng::seed_from_u64(0);
        let (mut out, mut seen) = (Vec::new(), HashSet::new());
        for k in [0usize, 1, 5, 25, 49, 50, 60] {
            choose_distinct(&pool, k, &mut rng, &mut out, &mut seen);
            let expected = k.min(pool.len());
            assert_eq!(out.len(), expected);
            let unique: std::collections::HashSet<_> = out.iter().collect();
            assert_eq!(unique.len(), expected);
            assert!(out.iter().all(|v| pool.contains(v)));
        }
    }

    #[test]
    fn operator_choice_is_uniform_over_paulis() {
        let layered = catalog::bv(4, 0b1).layered().unwrap();
        let model = NoiseModel::uniform(4, 0.9, 0.0, 0.0);
        let generator = TrialGenerator::new(&layered, &model).unwrap();
        let set = generator.generate(10_000, 11);
        let mut counts = [0usize; 3];
        for trial in set.trials() {
            for inj in trial.injections() {
                let (p, _) = inj.factors();
                counts[p.unwrap().code() as usize] += 1;
            }
        }
        let total: usize = counts.iter().sum();
        for &count in &counts {
            let freq = count as f64 / total as f64;
            assert!((freq - 1.0 / 3.0).abs() < 0.02, "pauli frequency {freq}");
        }
    }

    #[test]
    fn asymmetric_weights_bias_the_operator_choice() {
        let layered = catalog::bv(4, 0b1).layered().unwrap();
        let mut model = NoiseModel::uniform(4, 0.0, 0.0, 0.0);
        for q in 0..4 {
            // 3:1 Z:X, no Y.
            model.set_single_weights(q, PauliWeights::new(0.1, 0.0, 0.3).unwrap()).unwrap();
        }
        let generator = TrialGenerator::new(&layered, &model).unwrap();
        for set in [generator.generate(8_000, 2), generator.generate_fast(8_000, 2)] {
            let mut counts = [0usize; 3];
            for trial in set.trials() {
                for inj in trial.injections() {
                    let (p, _) = inj.factors();
                    counts[p.unwrap().code() as usize] += 1;
                }
            }
            assert_eq!(counts[1], 0, "Y must never be injected");
            let x_freq = counts[0] as f64 / (counts[0] + counts[2]) as f64;
            assert!((x_freq - 0.25).abs() < 0.03, "X frequency {x_freq}");
        }
    }

    #[test]
    fn idle_positions_cover_untouched_qubits() {
        // One H on qubit 0 of a 3-qubit register: per layer, qubits 1 and 2
        // idle; the measurement-only qubits idle in no extra layers (idle
        // errors are per gate layer).
        let mut qc = qsim_circuit::Circuit::new("idle", 3, 3);
        qc.h(0).h(0).measure_all();
        let layered = qc.layered().unwrap();
        let mut model = NoiseModel::uniform(3, 1e-3, 0.0, 0.0);
        let without_idle = TrialGenerator::new(&layered, &model).unwrap();
        assert_eq!(without_idle.n_positions(), 2);
        model.set_idle_weights_all(PauliWeights::dephasing(5e-3));
        let with_idle = TrialGenerator::new(&layered, &model).unwrap();
        // 2 gate positions + 2 layers × 2 idle qubits.
        assert_eq!(with_idle.n_positions(), 6);
        let expected = 2.0 * 1e-3 + 4.0 * 5e-3;
        assert!((with_idle.expected_injections() - expected).abs() < 1e-12);
        // Idle injections land on the idle qubits only, and are pure Z.
        let set = with_idle.generate(20_000, 4);
        let mut idle_hits = 0usize;
        for trial in set.trials() {
            for inj in trial.injections() {
                if let crate::Site::One(q) = inj.site() {
                    if q != 0 {
                        idle_hits += 1;
                        assert_eq!(inj.factors().0, Some(Pauli::Z), "idle channel is dephasing");
                    }
                }
            }
        }
        assert!(idle_hits > 0, "idle errors never triggered");
    }

    #[test]
    fn conditional_trials_always_meet_the_minimum() {
        let (generator, _) = bv_generator(1.0);
        for min_errors in [1usize, 2, 3] {
            let (set, p_event) = generator.generate_conditional(2000, min_errors, 5);
            assert!(set.trials().iter().all(|t| t.n_injections() >= min_errors));
            assert!((0.0..=1.0).contains(&p_event));
        }
    }

    #[test]
    fn conditional_event_probability_matches_direct_frequency() {
        // Moderate rates so the event is common enough to check directly.
        let (generator, _) = bv_generator(3.0);
        let (_, p_event) = generator.generate_conditional(1, 2, 0);
        let n = 40_000;
        let direct = generator.generate(n, 7);
        let freq =
            direct.trials().iter().filter(|t| t.n_injections() >= 2).count() as f64 / n as f64;
        assert!(
            (p_event - freq).abs() < 4.0 * (freq * (1.0 - freq) / n as f64).sqrt() + 1e-3,
            "DP P(>=2) = {p_event} vs direct frequency {freq}"
        );
    }

    #[test]
    fn conditional_distribution_matches_rejection_sampling() {
        // The conditional injection-count histogram must match the
        // rejection-filtered direct histogram.
        let (generator, _) = bv_generator(3.0);
        let min_errors = 2;
        let (conditional, _) = generator.generate_conditional(30_000, min_errors, 1);
        let direct = generator.generate(120_000, 2);
        let hist = |counts: Vec<usize>| -> Vec<f64> {
            let total: usize = counts.iter().sum();
            counts.into_iter().map(|c| c as f64 / total.max(1) as f64).collect()
        };
        let cond_hist = hist(conditional.injection_histogram()[min_errors..].to_vec());
        let rejected: Vec<usize> =
            direct.injection_histogram().get(min_errors..).unwrap_or(&[]).to_vec();
        let reject_hist = hist(rejected);
        for (k, (a, b)) in cond_hist.iter().zip(&reject_hist).enumerate() {
            assert!((a - b).abs() < 0.03, "k = {}: {a} vs {b}", k + min_errors);
        }
    }

    #[test]
    fn conditional_weighting_reproduces_direct_tail_estimates() {
        // P(outcome has >= 2 errors AND first error in layer 0) estimated
        // directly vs conditionally-with-weight must agree.
        let (generator, _) = bv_generator(3.0);
        let statistic = |set: &TrialSet| -> f64 {
            set.trials()
                .iter()
                .filter(|t| {
                    t.n_injections() >= 2 && t.injections().first().map(|i| i.layer()) == Some(0)
                })
                .count() as f64
                / set.len() as f64
        };
        let direct = generator.generate(120_000, 3);
        let direct_estimate = statistic(&direct);
        let (conditional, p_event) = generator.generate_conditional(30_000, 2, 4);
        let conditional_frequency = conditional
            .trials()
            .iter()
            .filter(|t| t.injections().first().map(|i| i.layer()) == Some(0))
            .count() as f64
            / conditional.len() as f64;
        let weighted = p_event * conditional_frequency;
        assert!(
            (weighted - direct_estimate).abs() < 0.01,
            "weighted {weighted} vs direct {direct_estimate}"
        );
    }

    #[test]
    #[should_panic(expected = "impossible")]
    fn conditional_rejects_unsatisfiable_requirements() {
        let layered = catalog::bv(4, 0b1).layered().unwrap();
        let model = NoiseModel::uniform(4, 0.0, 0.0, 0.0);
        let generator = TrialGenerator::new(&layered, &model).unwrap();
        let _ = generator.generate_conditional(1, 1, 0);
    }

    #[test]
    fn layering_strategy_moves_idle_positions_not_counts() {
        // h(1) has no dependencies: ASAP schedules it early (qubit 1 idles
        // late), ALAP late (qubit 1 idles early). Totals are identical, so
        // savings metrics are unaffected; only positions move.
        use qsim_circuit::LayeringStrategy;
        let mut qc = qsim_circuit::Circuit::new("sched", 2, 2);
        qc.h(0).t(0).s(0).h(1).measure_all();
        let mut model = NoiseModel::uniform(2, 0.0, 0.0, 0.0);
        model.set_idle_weights_all(PauliWeights::dephasing(1e-2));
        let asap = TrialGenerator::new(&qc.layered().unwrap(), &model).unwrap();
        let alap =
            TrialGenerator::new(&qc.layered_with(LayeringStrategy::Alap).unwrap(), &model).unwrap();
        assert_eq!(asap.n_positions(), alap.n_positions());
        assert!((asap.expected_injections() - alap.expected_injections()).abs() < 1e-12);
        // Under ASAP, qubit 1 idles in layers 1..3; under ALAP in 0..2.
        let layer_mass = |generator: &TrialGenerator| -> Vec<usize> {
            let set = generator.generate(4000, 3);
            set.layer_histogram()
        };
        let asap_hist = layer_mass(&asap);
        let alap_hist = layer_mass(&alap);
        assert_eq!(asap_hist.len(), alap_hist.len());
        assert_ne!(asap_hist, alap_hist, "strategies should move idle mass");
    }

    #[test]
    fn zero_weight_idle_qubits_add_no_positions() {
        let mut qc = qsim_circuit::Circuit::new("idle", 2, 2);
        qc.h(0).measure_all();
        let layered = qc.layered().unwrap();
        let mut model = NoiseModel::uniform(2, 1e-3, 0.0, 0.0);
        model.set_idle_weights(1, PauliWeights::zero()).unwrap();
        let generator = TrialGenerator::new(&layered, &model).unwrap();
        assert_eq!(generator.n_positions(), 1);
    }
}
