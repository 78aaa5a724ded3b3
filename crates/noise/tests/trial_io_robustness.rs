//! Hostile trial files: truncated, byte-flipped, spliced and atom-repeated
//! copies of emitted trial sets go through `trial_io::parse`, which must
//! return a set or a positioned error — never panic — and any set it
//! returns must survive an emit/parse round trip unchanged.

use std::sync::OnceLock;

use proptest::prelude::*;
use qsim_circuit::catalog;
use qsim_noise::{trial_io, NoiseModel, TrialGenerator};

/// Emitted sets with single and pair injections, readout flips and
/// error-free trials, plus a hand-written file with comments.
fn corpus() -> &'static [String] {
    static CORPUS: OnceLock<Vec<String>> = OnceLock::new();
    CORPUS.get_or_init(|| {
        let emitted = |layered: qsim_circuit::LayeredCircuit, rates: (f64, f64, f64)| {
            let model = NoiseModel::uniform(layered.n_qubits(), rates.0, rates.1, rates.2);
            let set =
                TrialGenerator::new(&layered, &model).expect("native circuit").generate(24, 7);
            trial_io::emit(&set)
        };
        let docs = vec![
            emitted(catalog::qft(4).layered().expect("layers"), (0.05, 0.2, 0.1)),
            emitted(catalog::rb().layered().expect("layers"), (0.1, 0.3, 0.0)),
            "trialset v1\nqubits 4 layers 9\n# comment\n\ntrial f=0 s=1\n\
             trial f=a s=2 s:0:2:X p:3:1:2:I:Z\n"
                .to_owned(),
        ];
        for doc in &docs {
            trial_io::parse(doc).expect("the corpus parses");
        }
        docs
    })
}

/// A truncated (0), byte-flipped (1), spliced (2) or atom-repeated (3)
/// copy of `doc`; splices take their tail from `donor`, and repeats copy
/// one injection atom of `doc` after one of its spaces (into its own trial,
/// a repeated error position, or another one).
fn mutate(doc: &str, donor: &str, kind: u8, a: u64, b: u64, flip: u8) -> String {
    let pick = |n: usize, r: u64| (r % (n as u64 + 1)) as usize;
    if kind == 3 {
        let atoms: Vec<&str> = doc.split_whitespace().filter(|w| w.contains(':')).collect();
        let spaces: Vec<usize> = doc.match_indices(' ').map(|(i, _)| i).collect();
        let atom = atoms[pick(atoms.len() - 1, a)];
        let at = spaces[pick(spaces.len() - 1, b)];
        return format!("{} {atom}{}", &doc[..at], &doc[at..]);
    }
    let (doc, donor) = (doc.as_bytes(), donor.as_bytes());
    let at = pick(doc.len(), a);
    let bytes = match kind {
        0 => doc[..at].to_vec(),
        1 => {
            let mut bytes = doc.to_vec();
            bytes[at.min(doc.len() - 1)] ^= flip;
            bytes
        }
        _ => [&doc[..at], &donor[pick(donor.len(), b)..]].concat(),
    };
    String::from_utf8_lossy(&bytes).into_owned()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2048))]

    #[test]
    fn mutated_trial_files_are_sets_or_errors_never_panics(
        pick in 0usize..3,
        donor in 0usize..3,
        kind in 0u8..4,
        a in any::<u64>(),
        b in any::<u64>(),
        flip in 1u8..=255,
    ) {
        let corpus = corpus();
        let text = mutate(&corpus[pick], &corpus[donor], kind, a, b, flip);
        if let Ok(set) = trial_io::parse(&text) {
            let again = trial_io::parse(&trial_io::emit(&set)).expect("an emitted set parses");
            prop_assert_eq!(again, set);
        }
    }
}
