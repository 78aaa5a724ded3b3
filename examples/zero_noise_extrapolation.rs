//! Zero-noise extrapolation on the redundancy-eliminated simulator: measure
//! a GHZ pair-parity ⟨Z₀Z₁⟩ under the Yorktown model at amplified noise
//! scales, fit the decay, and extrapolate to the zero-noise limit — the
//! standard error-mitigation technique, driven end to end by this stack.
//!
//! Run with: `cargo run --release --example zero_noise_extrapolation`

use noisy_qsim::prelude::*;

fn parity_at_scale(base: &NoiseModel, scale: f64) -> Result<f64, Box<dyn std::error::Error>> {
    let mut ghz = Circuit::new("ghz3", 3, 3);
    ghz.h(0).cx(0, 1).cx(1, 2).measure_all();
    let compiled = transpile(&ghz, &TranspileOptions::for_device(CouplingMap::yorktown()))?;
    let mut sim = Simulation::from_circuit(&compiled.circuit, base.scaled(scale)?)?;
    sim.generate_trials(60_000, 11)?;
    let result = sim.run(&RunSpec::default(), &NullRecorder)?.result;
    Ok(sim.histogram(&result).expectation_parity(&[0, 1]))
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let base = NoiseModel::ibm_yorktown();
    let scales = [1.0f64, 1.5, 2.0];
    let mut points = Vec::new();
    println!("{:>8}  {:>10}", "scale", "⟨Z0·Z1⟩");
    for &scale in &scales {
        let parity = parity_at_scale(&base, scale)?;
        println!("{scale:>8.2}  {parity:>10.4}");
        points.push((scale, parity));
    }

    // Least-squares linear fit E(s) ≈ a + b·s; the mitigated estimate is a.
    let n = points.len() as f64;
    let sum_s: f64 = points.iter().map(|(s, _)| s).sum();
    let sum_e: f64 = points.iter().map(|(_, e)| e).sum();
    let sum_ss: f64 = points.iter().map(|(s, _)| s * s).sum();
    let sum_se: f64 = points.iter().map(|(s, e)| s * e).sum();
    let slope = (n * sum_se - sum_s * sum_e) / (n * sum_ss - sum_s * sum_s);
    let intercept = (sum_e - slope * sum_s) / n;

    let raw = points[0].1;
    println!("\nraw ⟨Z0·Z1⟩ at scale 1:   {raw:.4}");
    println!("extrapolated to scale 0:  {intercept:.4}  (ideal: 1.0000)");
    let raw_error = (1.0 - raw).abs();
    let mitigated_error = (1.0 - intercept).abs();
    println!("mitigation removed {:.0}% of the bias", 100.0 * (1.0 - mitigated_error / raw_error));
    assert!(
        mitigated_error < raw_error,
        "extrapolation must improve on the raw estimate ({mitigated_error} vs {raw_error})"
    );
    Ok(())
}
