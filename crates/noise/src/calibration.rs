//! A plain-text calibration format for [`NoiseModel`], so device data like
//! the paper's Fig. 4 table can live in version-controlled files.
//!
//! ```text
//! # IBM Q5 Yorktown (paper Fig. 4)
//! qubits 5
//! single 0 1.37e-3          # symmetric depolarizing, total rate
//! single 2 x=1e-3 y=1e-3 z=2e-4   # asymmetric channel
//! pair 0 1 2.72e-2
//! default-pair 3.5e-2
//! readout 0 2.4e-2
//! idle * z=1e-4             # idle channel on every qubit
//! idle 3 x=2e-4 y=0 z=5e-4  # per-qubit override
//! ```
//!
//! Lines are independent; `#` starts a comment; later lines override
//! earlier ones. [`emit`] writes a file that [`parse`] reads back into an
//! identical model.

use qsim_circuit::MAX_REGISTER_QUBITS;

use crate::{NoiseError, NoiseModel, PauliWeights};

/// Parse a calibration file into a model.
///
/// # Errors
///
/// Returns [`NoiseError::Calibration`] with the 1-based line number for any
/// syntactic or semantic problem (missing `qubits`, out-of-range indices,
/// invalid probabilities).
pub fn parse(source: &str) -> Result<NoiseModel, NoiseError> {
    let mut model: Option<NoiseModel> = None;
    for (idx, raw_line) in source.lines().enumerate() {
        let line_no = idx + 1;
        let err = |message: String| NoiseError::Calibration { line: line_no, message };
        let line = raw_line.split('#').next().unwrap_or("").trim();
        if line.is_empty() {
            continue;
        }
        let mut words = line.split_whitespace();
        let keyword = words.next().expect("nonempty line has a first word");
        let rest: Vec<&str> = words.collect();
        if keyword == "qubits" {
            let n: usize = parse_one(&rest, 0, line_no, "qubit count")?;
            if n > MAX_REGISTER_QUBITS {
                return Err(err(format!(
                    "{n} qubits exceeds the {MAX_REGISTER_QUBITS}-qubit register limit"
                )));
            }
            model = Some(NoiseModel::uniform(n, 0.0, 0.0, 0.0));
            continue;
        }
        let model =
            model.as_mut().ok_or_else(|| err("the file must start with `qubits N`".to_owned()))?;
        match keyword {
            "single" => {
                let qubit: usize = parse_one(&rest, 0, line_no, "qubit index")?;
                let weights = parse_weights(&rest[1..], line_no)?;
                model.set_single_weights(qubit, weights).map_err(|e| err(e.to_string()))?;
            }
            "pair" => {
                let a: usize = parse_one(&rest, 0, line_no, "first qubit")?;
                let b: usize = parse_one(&rest, 1, line_no, "second qubit")?;
                let rate: f64 = parse_one(&rest, 2, line_no, "pair rate")?;
                model.set_pair_rate(a, b, rate).map_err(|e| err(e.to_string()))?;
            }
            "default-pair" => {
                let rate: f64 = parse_one(&rest, 0, line_no, "default pair rate")?;
                model.set_default_pair_rate(rate).map_err(|e| err(e.to_string()))?;
            }
            "readout" => {
                let qubit: usize = parse_one(&rest, 0, line_no, "qubit index")?;
                let rate: f64 = parse_one(&rest, 1, line_no, "readout rate")?;
                model.set_readout_rate(qubit, rate).map_err(|e| err(e.to_string()))?;
            }
            "idle" => {
                let target =
                    rest.first().ok_or_else(|| err("idle needs a qubit or *".to_owned()))?;
                let weights = parse_weights(&rest[1..], line_no)?;
                if *target == "*" {
                    model.set_idle_weights_all(weights);
                } else {
                    let qubit: usize =
                        target.parse().map_err(|e| err(format!("invalid qubit index: {e}")))?;
                    model.set_idle_weights(qubit, weights).map_err(|e| err(e.to_string()))?;
                }
            }
            other => return Err(err(format!("unknown keyword {other:?}"))),
        }
    }
    model.ok_or(NoiseError::Calibration {
        line: 0,
        message: "empty calibration: no `qubits N` line".to_owned(),
    })
}

/// Render a model in the calibration format (round-trips through [`parse`]).
pub fn emit(model: &NoiseModel) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let _ = writeln!(out, "qubits {}", model.n_qubits());
    for q in 0..model.n_qubits() {
        let w = model.single_weights(q);
        let _ = writeln!(out, "single {q} x={:e} y={:e} z={:e}", w.x, w.y, w.z);
    }
    let _ = writeln!(out, "default-pair {:e}", model.default_pair_rate());
    for ((a, b), rate) in model.pair_overrides() {
        let _ = writeln!(out, "pair {a} {b} {rate:e}");
    }
    for q in 0..model.n_qubits() {
        let _ = writeln!(out, "readout {q} {:e}", model.readout_rate(q));
    }
    if model.has_idle_errors() {
        for q in 0..model.n_qubits() {
            let w = model.idle_weights(q).expect("idle errors enabled");
            let _ = writeln!(out, "idle {q} x={:e} y={:e} z={:e}", w.x, w.y, w.z);
        }
    }
    out
}

fn parse_one<T: std::str::FromStr>(
    rest: &[&str],
    index: usize,
    line: usize,
    what: &str,
) -> Result<T, NoiseError>
where
    T::Err: std::fmt::Display,
{
    rest.get(index)
        .ok_or_else(|| NoiseError::Calibration { line, message: format!("missing {what}") })?
        .parse()
        .map_err(|e| NoiseError::Calibration { line, message: format!("invalid {what}: {e}") })
}

/// Either one bare rate (symmetric) or `x=… y=… z=…` pairs.
fn parse_weights(rest: &[&str], line: usize) -> Result<PauliWeights, NoiseError> {
    let err = |message: String| NoiseError::Calibration { line, message };
    if rest.is_empty() {
        return Err(err("missing rate or x=/y=/z= weights".to_owned()));
    }
    if !rest[0].contains('=') {
        let total: f64 = rest[0].parse().map_err(|e| err(format!("invalid rate: {e}")))?;
        if !(0.0..=1.0).contains(&total) {
            return Err(err(format!("rate {total} out of [0, 1]")));
        }
        return Ok(PauliWeights::symmetric(total));
    }
    let (mut x, mut y, mut z) = (0.0f64, 0.0f64, 0.0f64);
    for part in rest {
        let (key, value) = part
            .split_once('=')
            .ok_or_else(|| err(format!("expected key=value, found {part:?}")))?;
        let value: f64 = value.parse().map_err(|e| err(format!("invalid {key} weight: {e}")))?;
        match key {
            "x" => x = value,
            "y" => y = value,
            "z" => z = value,
            other => return Err(err(format!("unknown weight key {other:?}"))),
        }
    }
    PauliWeights::new(x, y, z).map_err(|e| err(e.to_string()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_a_minimal_file() {
        let model = parse("qubits 3\nsingle 0 1e-3\npair 0 1 1e-2\nreadout 2 5e-2\n").unwrap();
        assert_eq!(model.n_qubits(), 3);
        assert!((model.single_rate(0) - 1e-3).abs() < 1e-15);
        assert_eq!(model.single_rate(1), 0.0);
        assert_eq!(model.two_rate(0, 1), 1e-2);
        assert_eq!(model.two_rate(1, 2), 0.0);
        assert_eq!(model.readout_rate(2), 5e-2);
        assert!(!model.has_idle_errors());
    }

    #[test]
    fn parses_asymmetric_and_idle_channels() {
        let model =
            parse("qubits 2\nsingle 0 x=1e-3 z=3e-3\nidle * z=1e-4\nidle 1 x=2e-4 y=0 z=0\n")
                .unwrap();
        let w = model.single_weights(0);
        assert_eq!((w.x, w.y, w.z), (1e-3, 0.0, 3e-3));
        assert_eq!(model.idle_weights(0), Some(PauliWeights::dephasing(1e-4)));
        assert_eq!(model.idle_weights(1), Some(PauliWeights::bit_flip(2e-4)));
    }

    #[test]
    fn comments_and_blank_lines_are_skipped() {
        let model = parse("# header\n\nqubits 1\nsingle 0 1e-3 # inline\n").unwrap();
        assert!((model.single_rate(0) - 1e-3).abs() < 1e-15);
    }

    #[test]
    fn yorktown_round_trips() {
        let original = NoiseModel::ibm_yorktown();
        let text = emit(&original);
        let parsed = parse(&text).unwrap();
        assert_eq!(parsed, original);
    }

    #[test]
    fn idle_model_round_trips() {
        let mut original = NoiseModel::uniform(3, 1e-3, 1e-2, 2e-2);
        original.set_idle_weights_all(PauliWeights::new(1e-4, 0.0, 3e-4).unwrap());
        original.set_single_weights(1, PauliWeights::dephasing(4e-3)).unwrap();
        let parsed = parse(&emit(&original)).unwrap();
        assert_eq!(parsed, original);
    }

    #[test]
    fn errors_carry_line_numbers() {
        let err = parse("qubits 2\nsingle 9 1e-3\n").unwrap_err();
        assert!(matches!(err, NoiseError::Calibration { line: 2, .. }), "{err}");
        let err = parse("single 0 1e-3\n").unwrap_err();
        assert!(err.to_string().contains("must start with"), "{err}");
        let err = parse("qubits 2\nfrobnicate 1\n").unwrap_err();
        assert!(err.to_string().contains("unknown keyword"), "{err}");
        let err = parse("qubits 2\nsingle 0 2.0\n").unwrap_err();
        assert!(err.to_string().contains("out of [0, 1]"), "{err}");
        let err = parse("").unwrap_err();
        assert!(err.to_string().contains("empty calibration"), "{err}");
        let err = parse("qubits 1\nsingle 0 x=1 y=1 z=1\n").unwrap_err();
        assert!(matches!(err, NoiseError::Calibration { line: 2, .. }), "{err}");
    }

    #[test]
    fn widths_past_the_register_limit_are_line_errors() {
        for width in ["65536", "99999999999", "18446744073709551615"] {
            let err = parse(&format!("# header\nqubits {width}\n")).unwrap_err();
            assert!(matches!(err, NoiseError::Calibration { line: 2, .. }), "{err}");
            assert!(err.to_string().contains("65535-qubit register limit"), "{err}");
        }
        assert_eq!(parse("qubits 65535\n").unwrap().n_qubits(), 65_535);
    }
}
