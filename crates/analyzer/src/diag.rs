//! The diagnostic data model: codes, severities, locations, and renderers.
//!
//! Diagnostics are shaped like a compiler's: a stable machine-readable
//! [`DiagCode`], a [`Severity`], a human message, and a structured
//! [`Location`] into the plan. They serialize to JSON (under the `serde`
//! feature) for tooling and render to a terminal via [`render_tty`].

use std::fmt;

/// How bad a finding is.
///
/// `Error` means the plan is unsound — executing it could produce wrong
/// amplitudes, wrong statistics, or out-of-bounds access. `Warning` flags
/// something legal but suspicious (e.g. an empty trial set).
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub enum Severity {
    /// Suspicious but executable.
    Warning,
    /// The plan is unsound; executors must refuse it.
    Error,
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Severity::Warning => write!(f, "warning"),
            Severity::Error => write!(f, "error"),
        }
    }
}

macro_rules! diag_codes {
    ($( $variant:ident => ($code:literal, $severity:ident, $summary:literal), )*) => {
        /// Stable identifier for one plan invariant, grouped by pass:
        /// `MSV*` (cache-schedule borrow checker), `FUS*` (fusion-cut
        /// soundness), `TRL*` (trial-set lints), `NSE*` (noise-model
        /// lints), `CIR*` (circuit lints), `A2*` (structure classifier
        /// and strategy advisor).
        #[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
        #[allow(clippy::upper_case_acronyms)]
        pub enum DiagCode {
            $(
                #[doc = $summary]
                $variant,
            )*
        }

        impl DiagCode {
            /// Every code the verifier can emit, in pass order.
            pub const ALL: &'static [DiagCode] = &[$(DiagCode::$variant),*];

            /// The stable wire form, e.g. `"MSV001"`.
            pub fn as_str(self) -> &'static str {
                match self {
                    $(DiagCode::$variant => $code,)*
                }
            }

            /// Parse the wire form back; `None` for unknown codes.
            pub fn parse(text: &str) -> Option<Self> {
                match text {
                    $($code => Some(DiagCode::$variant),)*
                    _ => None,
                }
            }

            /// The severity this code always carries.
            pub fn severity(self) -> Severity {
                match self {
                    $(DiagCode::$variant => Severity::$severity,)*
                }
            }

            /// One-line description of the invariant the code guards.
            pub fn summary(self) -> &'static str {
                match self {
                    $(DiagCode::$variant => $summary,)*
                }
            }
        }
    };
}

diag_codes! {
    // ---- MSV borrow checker (cache schedule) ----
    UseAfterDrop => ("MSV001", Error, "a schedule op uses a frame after it was dropped (or never created)"),
    LeakedFrame => ("MSV002", Error, "a non-root frame is still alive when the schedule ends"),
    PeakMsvMismatch => ("MSV003", Error, "the schedule's peak cached-frame count disagrees with the cost report"),
    FrontierDesync => ("MSV004", Error, "a frame's layer frontier moves backwards, an injection misses its frontier, or cache-stack discipline is violated"),
    MeasurementCoverage => ("MSV005", Error, "a trial is measured zero times, more than once, or before its circuit completes"),
    OpsMismatch => ("MSV006", Error, "the schedule's total gate+injection work disagrees with the cost report"),
    // ---- Fusion-cut soundness ----
    MissingCut => ("FUS001", Error, "an injection layer of the trial set does not end a fused segment"),
    ProgramGeometry => ("FUS002", Error, "the fused program's qubit or layer count disagrees with the circuit"),
    SegmentTiling => ("FUS003", Error, "the fused segments do not tile the layer range exactly once"),
    NonUnitaryFusedOp => ("FUS004", Error, "a fused operator is not unitary within tolerance"),
    KernelMismatch => ("FUS005", Error, "a classified kernel does not match recompilation of its segment"),
    SourceGateMismatch => ("FUS006", Error, "a segment's source-gate accounting disagrees with the circuit"),
    // ---- Trial-set lints ----
    NotSorted => ("TRL001", Error, "consecutive trials violate the reorder sort key"),
    NotPermutation => ("TRL002", Error, "the execution order is not a permutation of the trial indices"),
    LayerOutOfRange => ("TRL003", Error, "an injection targets a layer outside the circuit"),
    QubitOutOfRange => ("TRL004", Error, "an injection targets a qubit outside the register"),
    NonCanonicalTrial => ("TRL005", Error, "a trial's injections are unsorted or duplicate a position"),
    TrialGeometry => ("TRL006", Error, "the trial set's qubit or layer count disagrees with the circuit"),
    EmptyTrialSet => ("TRL007", Warning, "the trial set has no trials; the run will produce no samples"),
    // ---- Noise-model lints ----
    InvalidProbability => ("NSE001", Error, "a noise-model probability is outside [0, 1] or a channel's total exceeds 1"),
    // ---- Circuit lints ----
    GateQubitOutOfRange => ("CIR001", Error, "a gate operates on a qubit outside the register"),
    CouplingViolation => ("CIR002", Error, "a multi-qubit gate spans qubits the coupling map does not connect"),
    NonUnitaryGate => ("CIR003", Error, "a gate's matrix is not unitary (e.g. a NaN rotation angle)"),
    InvalidMeasurement => ("CIR004", Error, "a measurement maps an out-of-range qubit or classical bit, or reuses a classical bit"),
    // ---- Structure classifier & strategy advisor ----
    SegmentClassMismatch => ("A201", Error, "a claimed segment structure class disagrees with reclassification or dense-matrix verification"),
    FrameVerdictMismatch => ("A202", Error, "a claimed Pauli-frame trackability verdict disagrees with symbolic recommutation"),
    CostPredictionMismatch => ("A203", Error, "a claimed strategy cost prediction disagrees with the analytic cost model"),
    SuboptimalStrategy => ("A204", Warning, "the declared strategy is predicted to cost more amplitude passes than the ranked best"),
    FrameTrackableSet => ("A205", Warning, "most trials are fully frame-trackable; tracking their Pauli frames (no executor does) is predicted to save amplitude passes over the declared strategy"),
}

impl fmt::Display for DiagCode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

#[cfg(feature = "serde")]
impl serde::ser::Serialize for DiagCode {
    fn to_value(&self) -> serde::value::Value {
        serde::value::Value::Str(self.as_str().to_owned())
    }
}

#[cfg(feature = "serde")]
impl<'de> serde::de::Deserialize<'de> for DiagCode {
    fn from_value(value: &serde::value::Value) -> Result<Self, serde::de::DeError> {
        let text = String::from_value(value)?;
        DiagCode::parse(&text)
            .ok_or_else(|| serde::de::DeError::new(format!("unknown diagnostic code `{text}`")))
    }
}

/// Where in the plan a diagnostic points. Every field is optional; a
/// location names only the coordinates that make sense for its code
/// (e.g. a schedule finding has `schedule_op`, a trial lint has `trial`).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct Location {
    /// Original (pre-reorder) trial index.
    pub trial: Option<usize>,
    /// Injection index within the trial.
    pub injection: Option<usize>,
    /// Circuit layer.
    pub layer: Option<usize>,
    /// Fused-program segment index.
    pub segment: Option<usize>,
    /// Index into the cache schedule's op stream.
    pub schedule_op: Option<usize>,
    /// Qubit index.
    pub qubit: Option<usize>,
}

impl Location {
    /// An empty location (plan-global finding).
    pub fn none() -> Self {
        Self::default()
    }

    /// Point at a trial.
    pub fn trial(index: usize) -> Self {
        Self { trial: Some(index), ..Self::default() }
    }

    /// Point at one injection of a trial.
    pub fn injection(trial: usize, injection: usize) -> Self {
        Self { trial: Some(trial), injection: Some(injection), ..Self::default() }
    }

    /// Point at a circuit layer.
    pub fn layer(layer: usize) -> Self {
        Self { layer: Some(layer), ..Self::default() }
    }

    /// Point at a fused segment.
    pub fn segment(index: usize) -> Self {
        Self { segment: Some(index), ..Self::default() }
    }

    /// Point at one op of the cache schedule.
    pub fn schedule_op(index: usize) -> Self {
        Self { schedule_op: Some(index), ..Self::default() }
    }

    /// Add a layer coordinate.
    pub fn at_layer(mut self, layer: usize) -> Self {
        self.layer = Some(layer);
        self
    }

    /// Add a qubit coordinate.
    pub fn at_qubit(mut self, qubit: usize) -> Self {
        self.qubit = Some(qubit);
        self
    }

    /// Add a trial coordinate.
    pub fn at_trial(mut self, trial: usize) -> Self {
        self.trial = Some(trial);
        self
    }

    fn parts(&self) -> Vec<String> {
        let mut parts = Vec::new();
        if let Some(t) = self.trial {
            parts.push(format!("trial {t}"));
        }
        if let Some(i) = self.injection {
            parts.push(format!("injection {i}"));
        }
        if let Some(l) = self.layer {
            parts.push(format!("layer {l}"));
        }
        if let Some(s) = self.segment {
            parts.push(format!("segment {s}"));
        }
        if let Some(o) = self.schedule_op {
            parts.push(format!("schedule op {o}"));
        }
        if let Some(q) = self.qubit {
            parts.push(format!("qubit {q}"));
        }
        parts
    }
}

impl fmt::Display for Location {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let parts = self.parts();
        if parts.is_empty() {
            write!(f, "plan")
        } else {
            write!(f, "{}", parts.join(", "))
        }
    }
}

/// One finding: a coded, located, human-readable statement about the plan.
#[derive(Clone, Debug, PartialEq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct Diagnostic {
    /// The invariant that failed.
    pub code: DiagCode,
    /// Error or warning (always `code.severity()` for verifier output).
    pub severity: Severity,
    /// Human-readable explanation with concrete values.
    pub message: String,
    /// Structured pointer into the plan.
    pub location: Location,
}

impl Diagnostic {
    /// Build a diagnostic; severity comes from the code.
    pub fn new(code: DiagCode, location: Location, message: impl Into<String>) -> Self {
        Diagnostic { code, severity: code.severity(), message: message.into(), location }
    }
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}[{}]: {} --> {}", self.severity, self.code, self.message, self.location)
    }
}

/// True if any diagnostic is an [`Severity::Error`].
pub fn has_errors(diagnostics: &[Diagnostic]) -> bool {
    diagnostics.iter().any(|d| d.severity == Severity::Error)
}

/// Render diagnostics the way a compiler prints to a TTY:
///
/// ```text
/// error[MSV001]: frame 3 used after drop
///   --> schedule op 17, trial 5
/// ```
///
/// followed by an `N errors, M warnings` summary line. Returns an empty
/// string for an empty slice so callers can print a success line instead.
pub fn render_tty(diagnostics: &[Diagnostic]) -> String {
    use std::fmt::Write as _;
    if diagnostics.is_empty() {
        return String::new();
    }
    let mut out = String::new();
    for d in diagnostics {
        let _ = writeln!(out, "{}[{}]: {}", d.severity, d.code, d.message);
        let _ = writeln!(out, "  --> {}", d.location);
    }
    let errors = diagnostics.iter().filter(|d| d.severity == Severity::Error).count();
    let warnings = diagnostics.len() - errors;
    let _ = writeln!(out, "{errors} error(s), {warnings} warning(s)");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn codes_round_trip_their_wire_form() {
        for &code in DiagCode::ALL {
            assert_eq!(DiagCode::parse(code.as_str()), Some(code));
            assert!(!code.summary().is_empty());
        }
        assert_eq!(DiagCode::parse("XYZ999"), None);
    }

    #[test]
    fn wire_forms_are_unique() {
        let mut seen = std::collections::BTreeSet::new();
        for &code in DiagCode::ALL {
            assert!(seen.insert(code.as_str()), "duplicate wire form {}", code.as_str());
        }
    }

    #[test]
    fn renderer_reports_counts_and_locations() {
        let diags = vec![
            Diagnostic::new(
                DiagCode::UseAfterDrop,
                Location::schedule_op(17).at_trial(5),
                "frame 3 used after drop",
            ),
            Diagnostic::new(DiagCode::EmptyTrialSet, Location::none(), "no trials"),
        ];
        let text = render_tty(&diags);
        assert!(text.contains("error[MSV001]: frame 3 used after drop"));
        assert!(text.contains("--> trial 5, schedule op 17"));
        assert!(text.contains("warning[TRL007]"));
        assert!(text.contains("1 error(s), 1 warning(s)"));
        assert!(render_tty(&[]).is_empty());
        assert!(has_errors(&diags));
        assert!(!has_errors(&diags[1..]));
    }
}
