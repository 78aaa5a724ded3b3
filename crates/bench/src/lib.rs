#![warn(missing_docs)]
//! Experiment harness regenerating every table and figure of the paper's
//! evaluation (§V). Each `src/bin` binary prints one artifact:
//!
//! | Binary    | Paper artifact | Content |
//! |-----------|----------------|---------|
//! | `table1`  | Table I        | post-compilation benchmark characteristics |
//! | `fig5`    | Fig. 5         | normalized computation, realistic model, 1024–8192 trials |
//! | `fig6`    | Fig. 6         | MSVs, realistic model, 1024 trials |
//! | `fig7`    | Fig. 7         | normalized computation, QV scalability sweep |
//! | `fig8`    | Fig. 8         | MSVs, QV scalability sweep |
//! | `ablation`| §IV.B motivation | reordered vs generation-order caching |
//!
//! The library half hosts the shared experiment machinery so that the
//! binaries and the integration tests drive the *same* code paths. Every
//! bin that times wall clock does so through [`timing`].

pub mod chart;
pub mod experiments;
pub mod json;
pub mod report;
pub mod suite;
pub mod table;
pub mod timing;

/// Whether a bare `--flag` is present in raw args.
pub fn arg_flag(args: &[String], flag: &str) -> bool {
    args.iter().any(|a| a == flag)
}

/// Parse a `--flag value` style option from raw args, with a default.
///
/// # Panics
///
/// Panics with a usage message if the flag is present without a value or
/// with an unparsable one.
pub fn arg_value<T: std::str::FromStr>(args: &[String], flag: &str, default: T) -> T
where
    T::Err: std::fmt::Display,
{
    match args.iter().position(|a| a == flag) {
        None => default,
        Some(at) => {
            let value = args.get(at + 1).unwrap_or_else(|| panic!("missing value for {flag}"));
            value.parse().unwrap_or_else(|e| panic!("invalid value for {flag}: {e}"))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arg_value_parses_and_defaults() {
        let args: Vec<String> =
            ["prog", "--trials", "5000", "--seed", "7"].iter().map(|s| s.to_string()).collect();
        assert_eq!(arg_value(&args, "--trials", 0usize), 5000);
        assert_eq!(arg_value(&args, "--seed", 1u64), 7);
        assert_eq!(arg_value(&args, "--missing", 42i32), 42);
    }

    #[test]
    #[should_panic(expected = "invalid value")]
    fn arg_value_rejects_garbage() {
        let args: Vec<String> = ["prog", "--trials", "abc"].iter().map(|s| s.to_string()).collect();
        let _ = arg_value(&args, "--trials", 0usize);
    }

    #[test]
    #[should_panic(expected = "missing value for --check")]
    fn arg_value_rejects_a_flag_without_a_value() {
        let args: Vec<String> =
            ["prog", "--reps", "1", "--check"].iter().map(|s| s.to_string()).collect();
        let _ = arg_value(&args, "--check", f64::INFINITY);
    }
}
