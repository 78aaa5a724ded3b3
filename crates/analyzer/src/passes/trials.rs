//! Pass 3 — trial-set and noise-model lints.
//!
//! The reorder is only sound if `order` is a permutation (`TRL002`) sorted
//! under the shared reorder key (`TRL001`) — otherwise prefix reuse either
//! drops/duplicates samples or reuses a prefix the previous trial never
//! built. Each trial must also be well-formed in itself: injections inside
//! the circuit (`TRL003`/`TRL004`), canonically sorted with no duplicate
//! position (`TRL005`), and the set's geometry matching the circuit
//! (`TRL006`). When the plan carries the generating noise model, its
//! probabilities are linted too (`NSE001`).

use std::cmp::Ordering;

use qsim_noise::{compare_trials, NoiseModel, PauliWeights, Site};

use crate::diag::{DiagCode, Diagnostic, Location};
use crate::plan::ExecutionPlan;

/// Run the trial-set lints.
pub fn check(plan: &ExecutionPlan<'_>) -> Vec<Diagnostic> {
    let mut diags = Vec::new();
    let layered = plan.layered;

    if plan.n_qubits != layered.n_qubits() || plan.n_layers != layered.n_layers() {
        diags.push(Diagnostic::new(
            DiagCode::TrialGeometry,
            Location::none(),
            format!(
                "trial set generated for {} qubit(s) × {} layer(s) but the circuit has {} × {}",
                plan.n_qubits,
                plan.n_layers,
                layered.n_qubits(),
                layered.n_layers()
            ),
        ));
    }
    if plan.trials.is_empty() {
        diags.push(Diagnostic::new(
            DiagCode::EmptyTrialSet,
            Location::none(),
            "the trial set is empty; the run will produce no samples".to_string(),
        ));
    }

    // TRL002: `order` must be a permutation of 0..trials.len(). Duplicates
    // and out-of-range entries are reported per entry; a missing trial is
    // then implied by the length check (or by a reported duplicate).
    let mut seen = vec![false; plan.trials.len()];
    for idx in plan.order.iter().map(|&idx| idx as usize) {
        match seen.get_mut(idx) {
            Some(slot) if !*slot => *slot = true,
            Some(_) => diags.push(Diagnostic::new(
                DiagCode::NotPermutation,
                Location::trial(idx),
                format!("trial {idx} appears more than once in the execution order"),
            )),
            None => diags.push(Diagnostic::new(
                DiagCode::NotPermutation,
                Location::trial(idx),
                format!("execution order names trial {idx} but the set has {}", plan.trials.len()),
            )),
        }
    }
    if plan.order.len() != plan.trials.len() {
        diags.push(Diagnostic::new(
            DiagCode::NotPermutation,
            Location::none(),
            format!(
                "execution order has {} entr(ies) for {} trial(s)",
                plan.order.len(),
                plan.trials.len()
            ),
        ));
    }

    // TRL001: consecutive trials must respect the reorder key.
    for pair in plan.order.windows(2) {
        let (Some(a), Some(b)) =
            (plan.trials.get(pair[0] as usize), plan.trials.get(pair[1] as usize))
        else {
            continue;
        };
        if compare_trials(a, b) == Ordering::Greater {
            diags.push(Diagnostic::new(
                DiagCode::NotSorted,
                Location::trial(pair[1] as usize),
                format!(
                    "trial {} runs after trial {} but sorts before it under the reorder key; prefix reuse would read a cache that was never built",
                    pair[1], pair[0]
                ),
            ));
        }
    }

    // Per-trial lints.
    for (t, trial) in plan.trials.iter().enumerate() {
        let injections = trial.injections();
        for (i, injection) in injections.iter().enumerate() {
            if injection.layer() >= layered.n_layers() {
                diags.push(Diagnostic::new(
                    DiagCode::LayerOutOfRange,
                    Location::injection(t, i).at_layer(injection.layer()),
                    format!(
                        "trial {t} injects after layer {} but the circuit has {} layer(s)",
                        injection.layer(),
                        layered.n_layers()
                    ),
                ));
            }
            let (first, second) = match injection.site() {
                Site::One(q) => (q, None),
                Site::Two(low, high) => (low, Some(high)),
            };
            for q in std::iter::once(first).chain(second) {
                if q >= layered.n_qubits() {
                    diags.push(Diagnostic::new(
                        DiagCode::QubitOutOfRange,
                        Location::injection(t, i).at_qubit(q),
                        format!(
                            "trial {t} injects on qubit {q} but the register has {} qubit(s)",
                            layered.n_qubits()
                        ),
                    ));
                }
            }
        }
        for (i, pair) in injections.windows(2).enumerate() {
            if pair[0].cmp(&pair[1]) == Ordering::Greater {
                diags.push(Diagnostic::new(
                    DiagCode::NonCanonicalTrial,
                    Location::injection(t, i + 1),
                    format!("trial {t}'s injections are not in canonical (layer, site) order"),
                ));
            } else if pair[0].layer() == pair[1].layer() && pair[0].site() == pair[1].site() {
                diags.push(Diagnostic::new(
                    DiagCode::NonCanonicalTrial,
                    Location::injection(t, i + 1),
                    format!("trial {t} injects twice at layer {}, same site", pair[0].layer()),
                ));
            }
        }
    }

    if let Some(model) = &plan.model {
        check_model(model, &mut diags);
        if model.n_qubits() != layered.n_qubits() {
            diags.push(Diagnostic::new(
                DiagCode::TrialGeometry,
                Location::none(),
                format!(
                    "noise model covers {} qubit(s) but the circuit has {}",
                    model.n_qubits(),
                    layered.n_qubits()
                ),
            ));
        }
    }
    diags
}

fn valid_prob(p: f64) -> bool {
    p.is_finite() && (0.0..=1.0).contains(&p)
}

fn check_weights(what: &str, qubit: usize, w: PauliWeights, diags: &mut Vec<Diagnostic>) {
    let components_ok = [w.x, w.y, w.z].into_iter().all(valid_prob);
    // Tolerate float dust just above 1 the same way `PauliWeights::new` does.
    let total_ok = w.total() <= 1.0 + 1e-12;
    if !components_ok || !total_ok {
        diags.push(Diagnostic::new(
            DiagCode::InvalidProbability,
            Location::none().at_qubit(qubit),
            format!(
                "{what} channel on qubit {qubit} has weights x={} y={} z={} (each must lie in [0, 1], total at most 1)",
                w.x, w.y, w.z
            ),
        ));
    }
}

fn check_model(model: &NoiseModel, diags: &mut Vec<Diagnostic>) {
    for q in 0..model.n_qubits() {
        check_weights("single-qubit error", q, model.single_weights(q), diags);
        if let Some(idle) = model.idle_weights(q) {
            check_weights("idle error", q, idle, diags);
        }
        let readout = model.readout_rate(q);
        if !valid_prob(readout) {
            diags.push(Diagnostic::new(
                DiagCode::InvalidProbability,
                Location::none().at_qubit(q),
                format!("readout error rate {readout} on qubit {q} is outside [0, 1]"),
            ));
        }
    }
    if !valid_prob(model.default_pair_rate()) {
        diags.push(Diagnostic::new(
            DiagCode::InvalidProbability,
            Location::none(),
            format!("default two-qubit error rate {} is outside [0, 1]", model.default_pair_rate()),
        ));
    }
    for ((a, b), rate) in model.pair_overrides() {
        if !valid_prob(rate) {
            diags.push(Diagnostic::new(
                DiagCode::InvalidProbability,
                Location::none().at_qubit(a),
                format!("two-qubit error rate {rate} on edge ({a}, {b}) is outside [0, 1]"),
            ));
        }
    }
}
