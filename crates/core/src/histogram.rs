use std::collections::BTreeMap;
use std::fmt;

use qsim_statevec::MeasureOutcome;

/// A histogram over classical measurement outcomes — the aggregate the
/// Monte-Carlo simulation reports ("the final results are averaged to show
/// a distribution of the output on the modeled device", paper §III.B.2).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Histogram {
    counts: BTreeMap<u64, u64>,
    total: u64,
    n_bits: usize,
}

impl Histogram {
    /// An empty histogram over `n_bits` classical bits.
    pub fn new(n_bits: usize) -> Self {
        Histogram { counts: BTreeMap::new(), total: 0, n_bits }
    }

    /// Build from a batch of outcomes.
    ///
    /// # Panics
    ///
    /// Panics if outcomes disagree on width.
    pub fn from_outcomes(n_bits: usize, outcomes: &[MeasureOutcome]) -> Self {
        let mut h = Histogram::new(n_bits);
        for o in outcomes {
            h.record(o);
        }
        h
    }

    /// Record one outcome.
    ///
    /// # Panics
    ///
    /// Panics if the outcome width differs from the histogram's.
    pub fn record(&mut self, outcome: &MeasureOutcome) {
        assert_eq!(outcome.n_qubits(), self.n_bits, "outcome width mismatch");
        // Saturating: a 10⁹-trial streaming run must degrade gracefully,
        // never wrap (matches the telemetry counters' overflow policy).
        let slot = self.counts.entry(outcome.to_index() as u64).or_insert(0);
        *slot = slot.saturating_add(1);
        self.total = self.total.saturating_add(1);
    }

    /// Number of recorded outcomes.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Width in classical bits.
    pub fn n_bits(&self) -> usize {
        self.n_bits
    }

    /// Count for a bit pattern.
    pub fn count(&self, pattern: u64) -> u64 {
        self.counts.get(&pattern).copied().unwrap_or(0)
    }

    /// Empirical probability of a bit pattern.
    pub fn probability(&self, pattern: u64) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            self.count(pattern) as f64 / self.total as f64
        }
    }

    /// `(pattern, count)` pairs sorted by pattern.
    pub fn iter(&self) -> impl Iterator<Item = (u64, u64)> + '_ {
        self.counts.iter().map(|(&k, &v)| (k, v))
    }

    /// Total-variation distance to an exact distribution indexed by
    /// pattern (`reference.len()` must be `2^n_bits`). Used to check
    /// Monte-Carlo convergence against the density-matrix ground truth.
    ///
    /// # Panics
    ///
    /// Panics if `reference` has the wrong length.
    pub fn tv_distance(&self, reference: &[f64]) -> f64 {
        assert_eq!(reference.len(), 1usize << self.n_bits, "reference distribution width");
        let mut tv = 0.0;
        for (pattern, &p_ref) in reference.iter().enumerate() {
            tv += (self.probability(pattern as u64) - p_ref).abs();
        }
        tv / 2.0
    }

    /// Total-variation distance between two empirical histograms of the
    /// same width.
    ///
    /// # Panics
    ///
    /// Panics on width mismatch.
    pub fn tv_to(&self, other: &Histogram) -> f64 {
        assert_eq!(self.n_bits, other.n_bits, "histogram width mismatch");
        let patterns: std::collections::BTreeSet<u64> =
            self.counts.keys().chain(other.counts.keys()).copied().collect();
        patterns
            .into_iter()
            .map(|p| (self.probability(p) - other.probability(p)).abs())
            .sum::<f64>()
            / 2.0
    }

    /// Estimated expectation value `⟨Z⟩` of one classical bit:
    /// `P(bit = 0) − P(bit = 1)`.
    ///
    /// # Panics
    ///
    /// Panics if `bit >= n_bits`.
    pub fn expectation_z(&self, bit: usize) -> f64 {
        assert!(bit < self.n_bits, "bit {bit} out of range for {} bits", self.n_bits);
        if self.total == 0 {
            return 0.0;
        }
        let ones: u64 =
            self.counts.iter().filter(|(&p, _)| p >> bit & 1 == 1).map(|(_, &c)| c).sum();
        1.0 - 2.0 * ones as f64 / self.total as f64
    }

    /// Estimated expectation of the parity `Z⊗Z⊗…` over a set of bits
    /// (the standard stabilizer-style observable).
    ///
    /// # Panics
    ///
    /// Panics if any bit is out of range.
    pub fn expectation_parity(&self, bits: &[usize]) -> f64 {
        for &bit in bits {
            assert!(bit < self.n_bits, "bit {bit} out of range for {} bits", self.n_bits);
        }
        if self.total == 0 {
            return 0.0;
        }
        let mut acc = 0.0f64;
        for (&pattern, &count) in &self.counts {
            let parity: u32 = bits.iter().map(|&b| (pattern >> b & 1) as u32).sum();
            let sign = if parity.is_multiple_of(2) { 1.0 } else { -1.0 };
            acc += sign * count as f64;
        }
        acc / self.total as f64
    }
}

impl fmt::Display for Histogram {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "{} outcomes over {} bits:", self.total, self.n_bits)?;
        for (pattern, count) in self.iter() {
            writeln!(
                f,
                "  {:0width$b}: {} ({:.3})",
                pattern,
                count,
                count as f64 / self.total.max(1) as f64,
                width = self.n_bits
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn outcome(index: usize, bits: usize) -> MeasureOutcome {
        MeasureOutcome::from_index(index, bits)
    }

    #[test]
    fn records_and_counts() {
        let mut h = Histogram::new(2);
        h.record(&outcome(0, 2));
        h.record(&outcome(3, 2));
        h.record(&outcome(3, 2));
        assert_eq!(h.total(), 3);
        assert_eq!(h.count(3), 2);
        assert_eq!(h.count(1), 0);
        assert!((h.probability(3) - 2.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn from_outcomes_batches() {
        let outcomes: Vec<MeasureOutcome> = (0..8).map(|i| outcome(i % 4, 2)).collect();
        let h = Histogram::from_outcomes(2, &outcomes);
        assert_eq!(h.total(), 8);
        for p in 0..4u64 {
            assert_eq!(h.count(p), 2);
        }
    }

    #[test]
    fn tv_distance_zero_for_matching_distribution() {
        let outcomes: Vec<MeasureOutcome> = (0..4).map(|i| outcome(i, 2)).collect();
        let h = Histogram::from_outcomes(2, &outcomes);
        assert!(h.tv_distance(&[0.25; 4]) < 1e-12);
        assert!((h.tv_distance(&[1.0, 0.0, 0.0, 0.0]) - 0.75).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "width mismatch")]
    fn rejects_mixed_widths() {
        let mut h = Histogram::new(2);
        h.record(&outcome(0, 3));
    }

    #[test]
    fn display_lists_patterns() {
        let h = Histogram::from_outcomes(2, &[outcome(2, 2)]);
        let text = h.to_string();
        assert!(text.contains("10: 1"));
    }

    #[test]
    fn empty_histogram_probabilities() {
        let h = Histogram::new(3);
        assert_eq!(h.probability(0), 0.0);
        assert_eq!(h.total(), 0);
        assert_eq!(h.expectation_z(0), 0.0);
        assert_eq!(h.expectation_parity(&[0, 1]), 0.0);
    }

    #[test]
    fn expectation_z_signs_and_magnitudes() {
        // 3× pattern 01, 1× pattern 10 over 2 bits.
        let outcomes: Vec<MeasureOutcome> =
            [1usize, 1, 1, 2].iter().map(|&i| outcome(i, 2)).collect();
        let h = Histogram::from_outcomes(2, &outcomes);
        // Bit 0: three ones, one zero → ⟨Z⟩ = (1 − 3)/4 = −0.5.
        assert!((h.expectation_z(0) + 0.5).abs() < 1e-12);
        // Bit 1: one one, three zeros → ⟨Z⟩ = (3 − 1)/4 = +0.5.
        assert!((h.expectation_z(1) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn parity_expectation_over_ghz_like_counts() {
        // 50/50 between 00 and 11: single-bit ⟨Z⟩ = 0 but ZZ parity = +1.
        let outcomes: Vec<MeasureOutcome> =
            [0usize, 3, 0, 3].iter().map(|&i| outcome(i, 2)).collect();
        let h = Histogram::from_outcomes(2, &outcomes);
        assert_eq!(h.expectation_z(0), 0.0);
        assert_eq!(h.expectation_parity(&[0, 1]), 1.0);
        assert_eq!(h.expectation_parity(&[]), 1.0);
    }

    #[test]
    fn tv_between_histograms() {
        let a = Histogram::from_outcomes(2, &[outcome(0, 2), outcome(0, 2)]);
        let b = Histogram::from_outcomes(2, &[outcome(3, 2), outcome(3, 2)]);
        assert!((a.tv_to(&b) - 1.0).abs() < 1e-12);
        assert!(a.tv_to(&a) < 1e-12);
        let c = Histogram::from_outcomes(2, &[outcome(0, 2), outcome(3, 2)]);
        assert!((a.tv_to(&c) - 0.5).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn expectation_z_checks_bit_range() {
        let h = Histogram::new(2);
        let _ = h.expectation_z(5);
    }

    #[test]
    fn empty_run_yields_empty_histogram_with_sane_queries() {
        // A zero-trial simulation streams nothing into the histogram;
        // every read-side query must still be well-defined.
        let h = Histogram::new(4);
        assert_eq!(h.total(), 0);
        assert_eq!(h.n_bits(), 4);
        assert_eq!(h.iter().count(), 0);
        assert_eq!(h.count(7), 0);
        assert!(h.tv_distance(&[1.0 / 16.0; 16]) <= 1.0);
        assert!(h.to_string().contains("0 outcomes"));
        assert_eq!(h, Histogram::from_outcomes(4, &[]));
    }

    #[test]
    fn single_trial_run_is_a_point_mass() {
        let h = Histogram::from_outcomes(3, &[outcome(5, 3)]);
        assert_eq!(h.total(), 1);
        assert_eq!(h.count(5), 1);
        assert_eq!(h.probability(5), 1.0);
        assert_eq!(h.probability(4), 0.0);
        assert_eq!(h.iter().collect::<Vec<_>>(), vec![(5, 1)]);
        // ⟨Z⟩ on a set bit is −1, on a clear bit +1.
        assert_eq!(h.expectation_z(0), -1.0);
        assert_eq!(h.expectation_z(1), 1.0);
        let mut reference = [0.0f64; 8];
        reference[5] = 1.0;
        assert!(h.tv_distance(&reference) < 1e-12);
    }

    #[test]
    fn counters_saturate_instead_of_wrapping() {
        let mut h = Histogram::new(1);
        h.total = u64::MAX - 1;
        h.counts.insert(0, u64::MAX);
        h.record(&outcome(0, 1));
        h.record(&outcome(0, 1));
        assert_eq!(h.total(), u64::MAX);
        assert_eq!(h.count(0), u64::MAX);
        // Probabilities stay within [0, 1] even at saturation.
        assert!(h.probability(0) <= 1.0);
    }
}
