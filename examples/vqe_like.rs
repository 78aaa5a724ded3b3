//! A VQE-style workflow: optimize a hardware-efficient two-qubit ansatz
//! against a transverse-field Ising Hamiltonian on the noiseless simulator,
//! then re-evaluate the optimum under device noise — the kind of algorithm
//! study the paper's fast noisy simulation exists to serve.
//!
//! Run with: `cargo run --release --example vqe_like`

use noisy_qsim::prelude::*;

/// Transverse-field coupling of the Hamiltonian below.
const FIELD: f64 = 0.6;

/// H = −ZZ − 0.6·(XI + IX) as `(coefficient, Pauli factor per qubit)` terms.
const HAMILTONIAN: [(f64, [Option<Pauli>; 2]); 3] = [
    (-1.0, [Some(Pauli::Z), Some(Pauli::Z)]),
    (-FIELD, [Some(Pauli::X), None]),
    (-FIELD, [None, Some(Pauli::X)]),
];

/// Hardware-efficient ansatz: Ry layer, CX, Ry layer.
fn ansatz(params: &[f64; 4]) -> Circuit {
    let mut qc = Circuit::new("ansatz", 2, 2);
    qc.ry(params[0], 0).ry(params[1], 1).cx(0, 1).ry(params[2], 0).ry(params[3], 1);
    qc
}

/// ⟨ψ|H|ψ⟩, each term's ⟨P⟩ taken as ⟨ψ|Pψ⟩ on a copy of the state.
fn energy(params: &[f64; 4]) -> f64 {
    let state = ansatz(params).simulate().expect("ansatz simulates");
    HAMILTONIAN
        .iter()
        .map(|(coeff, factors)| {
            let mut transformed = state.clone();
            for (q, factor) in factors.iter().enumerate() {
                if let Some(p) = factor {
                    transformed.apply_pauli(*p, q).expect("qubit in range");
                }
            }
            coeff * state.inner(&transformed).expect("matching width").re
        })
        .sum()
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // Closed-form ground energy: the ground state lies in the span of
    // (|00⟩+|11⟩)/√2 and (|01⟩+|10⟩)/√2, where H = [[−1, −2·FIELD],
    // [−2·FIELD, 1]], whose lower eigenvalue is −√(1 + (2·FIELD)²).
    let ground = -(1.0 + (2.0 * FIELD).powi(2)).sqrt();
    println!("exact ground energy: {ground:.6}");

    // Coordinate descent on the 4 ansatz angles.
    let mut params = [0.4f64, -0.3, 0.2, 0.1];
    let mut best = energy(&params);
    for sweep in 0..60 {
        for i in 0..4 {
            let mut step = 0.4 / (1.0 + sweep as f64 / 8.0);
            for _ in 0..8 {
                for direction in [step, -step] {
                    let mut candidate = params;
                    candidate[i] += direction;
                    let e = energy(&candidate);
                    if e < best {
                        best = e;
                        params = candidate;
                    }
                }
                step *= 0.5;
            }
        }
    }
    println!("variational optimum:  {best:.6} (gap {:.2e})", best - ground);
    assert!(best - ground < 1e-3, "optimizer failed to converge: {best} vs {ground}");

    // Under Yorktown noise the energy estimate degrades; quantify it with
    // the redundancy-eliminated Monte-Carlo run via ⟨ZZ⟩/⟨X⟩ readouts.
    // (Z-basis histogram gives ⟨ZZ⟩; an H-rotated copy gives ⟨XI⟩/⟨IX⟩.)
    let shots = 60_000;
    let mut z_circuit = ansatz(&params);
    z_circuit.measure_all();
    let mut x_circuit = ansatz(&params);
    x_circuit.h(0).h(1).measure_all();
    let model = NoiseModel::ibm_yorktown();
    let mut noisy_energy = 0.0;
    for (weight_zz, circuit) in [(true, z_circuit), (false, x_circuit)] {
        let compiled = transpile(&circuit, &TranspileOptions::for_device(CouplingMap::yorktown()))?;
        let mut sim = Simulation::from_circuit(&compiled.circuit, model.clone())?;
        sim.generate_trials(shots, 5)?;
        let run = sim.run(&RunSpec::default(), &NullRecorder)?.result;
        let histogram = sim.histogram(&run);
        if weight_zz {
            noisy_energy -= histogram.expectation_parity(&[0, 1]);
        } else {
            noisy_energy += -FIELD * (histogram.expectation_z(0) + histogram.expectation_z(1));
        }
    }
    println!("noisy estimate:       {noisy_energy:.4} (bias {:+.4})", noisy_energy - best);
    assert!(noisy_energy > best - 0.05, "noise should raise, not lower, the energy");
    Ok(())
}
