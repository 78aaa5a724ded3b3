//! Plain-text serialization for [`TrialSet`] — save a generated Monte-Carlo
//! trial set and replay it later (or on another machine) for exact
//! reproduction of a noisy-simulation run.
//!
//! ```text
//! trialset v1
//! qubits 4 layers 9
//! trial f=0 s=12345
//! trial f=5 s=99 s:0:2:X p:3:1:2:I:Z
//! ```
//!
//! Injection atoms: `s:<layer>:<qubit>:<X|Y|Z>` for single-qubit errors and
//! `p:<layer>:<low>:<high>:<X|Y|Z|I>:<X|Y|Z|I>` for two-qubit Pauli pairs
//! (low-qubit factor first, not both identity). `f=` is the hexadecimal
//! readout-flip mask and `s=` the trial's measurement seed.

use qsim_statevec::Pauli;

use crate::injection::{MAX_PACKED_LAYER, MAX_PACKED_QUBIT};
use crate::trial::TrialArena;
use crate::{Injection, NoiseError, Site, TrialSet};

/// Render a trial set (round-trips through [`parse`]).
pub fn emit(set: &TrialSet) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let _ = writeln!(out, "trialset v1");
    let _ = writeln!(out, "qubits {} layers {}", set.n_qubits(), set.n_layers());
    for trial in set.trials() {
        let _ = write!(out, "trial f={:x} s={}", trial.meas_flip_mask(), trial.seed());
        for inj in trial.injections() {
            let (low_op, high_op) = inj.factors();
            match inj.site() {
                Site::One(q) => {
                    let p = low_op.expect("single injection has an operator");
                    let _ = write!(out, " s:{}:{}:{}", inj.layer(), q, p);
                }
                Site::Two(a, b) => {
                    let render = |p: Option<Pauli>| p.map_or("I".to_owned(), |p| p.to_string());
                    let _ = write!(
                        out,
                        " p:{}:{}:{}:{}:{}",
                        inj.layer(),
                        a,
                        b,
                        render(low_op),
                        render(high_op)
                    );
                }
            }
        }
        out.push('\n');
    }
    out
}

/// Parse a serialized trial set. Every trial lands in one shared
/// injection arena.
///
/// # Errors
///
/// Returns [`NoiseError::Calibration`] with the offending 1-based line for
/// malformed syntax, an injection outside the declared `qubits`/`layers`
/// or the packed index ranges, and a repeated error position in one trial.
pub fn parse(source: &str) -> Result<TrialSet, NoiseError> {
    let mut lines = source.lines().enumerate();
    let err = |line: usize, message: String| NoiseError::Calibration { line, message };

    let (_, header) = lines.next().ok_or_else(|| err(0, "empty trial file".to_owned()))?;
    if header.trim() != "trialset v1" {
        return Err(err(1, format!("expected `trialset v1`, found {header:?}")));
    }
    let (_, geometry) =
        lines.next().ok_or_else(|| err(1, "missing `qubits N layers M` line".to_owned()))?;
    let geo: Vec<&str> = geometry.split_whitespace().collect();
    let (n_qubits, n_layers) = match geo.as_slice() {
        ["qubits", n, "layers", m] => (
            n.parse().map_err(|e| err(2, format!("invalid qubit count: {e}")))?,
            m.parse().map_err(|e| err(2, format!("invalid layer count: {e}")))?,
        ),
        _ => return Err(err(2, format!("expected `qubits N layers M`, found {geometry:?}"))),
    };

    let mut arena = TrialArena::with_capacity(0, 0);
    for (idx, line) in lines {
        let line_no = idx + 1;
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let mut words = line.split_whitespace();
        if words.next() != Some("trial") {
            return Err(err(line_no, format!("expected a `trial` line, found {line:?}")));
        }
        let mut flips: Option<u64> = None;
        let mut seed: Option<u64> = None;
        for word in words {
            if let Some(hex) = word.strip_prefix("f=") {
                flips = Some(
                    u64::from_str_radix(hex, 16)
                        .map_err(|e| err(line_no, format!("invalid flip mask: {e}")))?,
                );
            } else if let Some(v) = word.strip_prefix("s=") {
                seed = Some(v.parse().map_err(|e| err(line_no, format!("invalid seed: {e}")))?);
            } else {
                arena.push(parse_injection(word, line_no, n_qubits, n_layers)?);
            }
        }
        let flips = flips.ok_or_else(|| err(line_no, "missing f= flip mask".to_owned()))?;
        let seed = seed.ok_or_else(|| err(line_no, "missing s= seed".to_owned()))?;
        arena
            .close(flips, seed)
            .map_err(|inj| err(line_no, format!("duplicate error position {inj} in one trial")))?;
    }
    Ok(TrialSet::new(n_qubits, n_layers, arena.finish()))
}

/// Reject an injection `what` index (layer or qubit) outside the declared
/// count or the packed range, before anything is packed.
fn check_index(what: &str, index: usize, declared: usize, packed: usize) -> Result<(), String> {
    if index >= declared {
        return Err(format!("injection {what} {index} beyond the declared {declared} {what}s"));
    }
    if index > packed {
        return Err(format!("injection {what} {index} too large to pack"));
    }
    Ok(())
}

fn parse_injection(
    word: &str,
    line: usize,
    n_qubits: usize,
    n_layers: usize,
) -> Result<Injection, NoiseError> {
    let err = |message: String| NoiseError::Calibration { line, message };
    let parts: Vec<&str> = word.split(':').collect();
    let parse_pauli = |text: &str| -> Result<Option<Pauli>, NoiseError> {
        match text {
            "I" | "i" => Ok(None),
            other => other.parse::<Pauli>().map(Some).map_err(|e| err(e.to_string())),
        }
    };
    let parse_layer = |text: &str| -> Result<usize, NoiseError> {
        let layer = text.parse().map_err(|e| err(format!("invalid layer: {e}")))?;
        check_index("layer", layer, n_layers, MAX_PACKED_LAYER).map_err(err)?;
        Ok(layer)
    };
    let parse_qubit = |text: &str| -> Result<usize, NoiseError> {
        let qubit = text.parse().map_err(|e| err(format!("invalid qubit: {e}")))?;
        check_index("qubit", qubit, n_qubits, MAX_PACKED_QUBIT).map_err(err)?;
        Ok(qubit)
    };
    match parts.as_slice() {
        ["s", layer, qubit, op] => {
            let (layer, qubit) = (parse_layer(layer)?, parse_qubit(qubit)?);
            let pauli = parse_pauli(op)?
                .ok_or_else(|| err("single injection cannot be identity".to_owned()))?;
            Ok(Injection::single(layer, qubit, pauli))
        }
        ["p", layer, low, high, low_op, high_op] => {
            let layer = parse_layer(layer)?;
            let (low, high) = (parse_qubit(low)?, parse_qubit(high)?);
            if low >= high {
                return Err(err(format!("pair qubits must be low<high, found {low},{high}")));
            }
            let low_op = parse_pauli(low_op)?;
            let high_op = parse_pauli(high_op)?;
            if low_op.is_none() && high_op.is_none() {
                return Err(err("pair injection needs a non-identity factor".to_owned()));
            }
            Ok(Injection::pair(layer, (low, high), low_op, high_op))
        }
        _ => Err(err(format!("unrecognized injection atom {word:?}"))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{NoiseModel, TrialGenerator};
    use qsim_circuit::catalog;

    fn sample_set() -> TrialSet {
        let layered = catalog::qft(4).layered().unwrap();
        let model = NoiseModel::uniform(4, 0.05, 0.2, 0.1);
        TrialGenerator::new(&layered, &model).unwrap().generate(200, 7)
    }

    #[test]
    fn generated_sets_round_trip_exactly() {
        let set = sample_set();
        let text = emit(&set);
        let parsed = parse(&text).unwrap();
        assert_eq!(parsed, set);
    }

    #[test]
    fn handcrafted_file_parses() {
        let set = parse(
            "trialset v1\nqubits 4 layers 9\ntrial f=0 s=1\ntrial f=a s=2 s:0:2:X p:3:1:2:I:Z\n",
        )
        .unwrap();
        assert_eq!(set.n_qubits(), 4);
        assert_eq!(set.len(), 2);
        assert_eq!(set.trials()[1].meas_flip_mask(), 0xa);
        assert_eq!(set.trials()[1].n_injections(), 2);
    }

    #[test]
    fn empty_trial_lines_and_comments_ok() {
        let set = parse("trialset v1\nqubits 1 layers 1\n# nothing yet\n\n").unwrap();
        assert!(set.is_empty());
    }

    #[test]
    fn errors_are_positioned_and_specific() {
        assert!(parse("").is_err());
        let e = parse("bogus\n").unwrap_err();
        assert!(e.to_string().contains("trialset v1"), "{e}");
        let e = parse("trialset v1\nqubits x layers 2\n").unwrap_err();
        assert!(e.to_string().contains("invalid qubit count"), "{e}");
        let e = parse("trialset v1\nqubits 2 layers 2\ntrial s=1\n").unwrap_err();
        assert!(e.to_string().contains("missing f="), "{e}");
        let e = parse("trialset v1\nqubits 2 layers 2\ntrial f=0 s=1 s:9:0:X\n").unwrap_err();
        assert!(e.to_string().contains("beyond the declared"), "{e}");
        let e = parse("trialset v1\nqubits 2 layers 2\ntrial f=0 s=1 p:0:1:0:X:I\n").unwrap_err();
        assert!(e.to_string().contains("low<high"), "{e}");
        let e = parse("trialset v1\nqubits 2 layers 2\ntrial f=0 s=1 s:0:0:Q\n").unwrap_err();
        assert!(e.to_string().contains("expected X, Y, or Z"), "{e}");
        let e = parse("trialset v1\nqubits 2 layers 2\ntrial f=0 s=1 wat\n").unwrap_err();
        assert!(e.to_string().contains("unrecognized injection"), "{e}");
    }

    #[test]
    fn hostile_injections_are_positioned_errors_not_panics() {
        let parse_err = |body: &str, declared: &str| {
            parse(&format!("trialset v1\n{declared}\n# hostile\n{body}\n")).unwrap_err()
        };
        let geometry = "qubits 2 layers 2";
        let e = parse_err("trial f=0 s=1 s:0:0:X s:0:0:Z", geometry);
        assert_eq!(
            e.to_string(),
            "calibration line 4: duplicate error position L0:X@q0 in one trial"
        );
        let e = parse_err("trial f=0 s=1 p:1:0:1:X:I s:0:1:Y p:1:0:1:Z:Z", geometry);
        assert!(e.to_string().contains("line 4: duplicate error position L1:"), "{e}");
        let e = parse_err("trial f=0 s=1 s:0:2:X", geometry);
        assert!(e.to_string().contains("line 4: injection qubit 2 beyond the declared 2"), "{e}");
        let e = parse_err("trial f=0 s=1 p:0:0:5:X:X", geometry);
        assert!(e.to_string().contains("injection qubit 5 beyond the declared 2"), "{e}");
        let e = parse_err("trial f=0 s=1 s:0:70000:X", geometry);
        assert!(e.to_string().contains("qubit 70000 beyond the declared"), "{e}");
        let e = parse_err("trial f=0 s=1 s:0:70000:X", "qubits 100000 layers 2");
        assert!(e.to_string().contains("qubit 70000 too large to pack"), "{e}");
        let e = parse_err("trial f=0 s=1 s:99999999999:0:X", geometry);
        assert!(e.to_string().contains("layer 99999999999 beyond the declared 2"), "{e}");
        let e = parse_err("trial f=0 s=1 s:99999999999:0:X", "qubits 2 layers 999999999999");
        assert!(e.to_string().contains("layer 99999999999 too large to pack"), "{e}");
    }

    #[test]
    fn parsed_sets_emit_byte_identically() {
        let set = sample_set();
        let text = emit(&set);
        let parsed = parse(&text).unwrap();
        assert_eq!(emit(&parsed), text);
        assert_eq!(parsed.total_injections(), set.total_injections());
    }

    #[test]
    fn replay_reproduces_the_execution_exactly() {
        // The serialized trials drive an execution identical to the
        // original — the whole point of save/replay. Measurement outcomes
        // are pure functions of trial content (injections, flips, seed),
        // so trial equality implies outcome equality.
        let set = sample_set();
        let replayed = parse(&emit(&set)).unwrap();
        assert_eq!(set.trials(), replayed.trials());
    }
}
