//! The one timing harness of the bench bins: named sides run in rounds,
//! and every reported ratio carries a 95 % bootstrap interval.
//!
//! Each round runs every side once, in an order that balances both which
//! side goes first and which side runs just before which (a Williams
//! design, [`side_at`]). So drift over the run, the warm-up of whichever
//! side runs first, and what a side leaves behind for the next one fall on
//! every side alike. Each side runs once untimed before the first round. A
//! side's time is its median over rounds, and a ratio of two sides is the
//! median of the per-round paired ratio.
//!
//! The statistics are pure functions of the timing matrix
//! ([`Rounds::ms`]); the interval resamples with the observatory's
//! bootstrap ([`qsim_observatory::compare::bootstrap_ci`]). A gate passes
//! only when the far end of its interval clears the budget.

use std::time::Instant;

use qsim_observatory::compare::bootstrap_ci;

/// Wall clock per round and side, in milliseconds: `ms[round][side]`.
#[derive(Clone, Debug, PartialEq)]
pub struct Rounds {
    /// One row per round, one column per side.
    pub ms: Vec<Vec<f64>>,
}

impl Rounds {
    /// One side's times, in round order.
    pub fn column(&self, side: usize) -> Vec<f64> {
        self.ms.iter().map(|row| row[side]).collect()
    }
}

/// The side that runs `k`-th in `round` of `sides`. The order is a
/// Williams design: round 0 runs `0, 1, n-1, 2, n-2, …`, each later round
/// adds its number to every side, and for an odd count every other block
/// of `sides` rounds runs reversed. Each block of `sides` rounds lets every
/// side lead once, so over `R` rounds each side leads `⌊R/sides⌋` or
/// `⌈R/sides⌉` times; and each side runs just after each other side
/// equally often, every `sides` rounds (even count) or `2 * sides` rounds
/// (odd count).
pub fn side_at(round: usize, k: usize, sides: usize) -> usize {
    let reversed = sides % 2 == 1 && (round / sides) % 2 == 1;
    let k = if reversed { sides - 1 - k } else { k };
    let step = if k % 2 == 1 { k.div_ceil(2) } else { sides - k / 2 };
    (round + step) % sides
}

/// Time `sides` sides over `rounds` rounds: one untimed warm-up run of each
/// side, then rounds in [`side_at`] order. `run(side)` is the timed work.
pub fn time_rounds(sides: usize, rounds: usize, run: impl FnMut(usize)) -> Rounds {
    time_rounds_prepared(sides, rounds, |_| {}, run)
}

/// [`time_rounds`] with an untimed `prepare(side)` before every run of
/// `side`, warm-up included.
pub fn time_rounds_prepared(
    sides: usize,
    rounds: usize,
    mut prepare: impl FnMut(usize),
    mut run: impl FnMut(usize),
) -> Rounds {
    for side in 0..sides {
        prepare(side);
        run(side);
    }
    let mut ms = vec![vec![0.0; sides]; rounds];
    for (round, row) in ms.iter_mut().enumerate() {
        for k in 0..sides {
            let side = side_at(round, k, sides);
            prepare(side);
            let start = Instant::now();
            run(side);
            row[side] = start.elapsed().as_secs_f64() * 1e3;
        }
    }
    Rounds { ms }
}

/// The median of `values` (the mean of the middle two for an even count;
/// `NaN` when empty).
pub fn median(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    match sorted.len() {
        0 => f64::NAN,
        n if n % 2 == 1 => sorted[n / 2],
        n => (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0,
    }
}

/// The mean of `values` (`NaN` when empty).
pub fn mean(values: &[f64]) -> f64 {
    values.iter().sum::<f64>() / values.len() as f64
}

/// Per-round ratios `num[r] / den[r]`.
pub fn ratios(num: &[f64], den: &[f64]) -> Vec<f64> {
    num.iter().zip(den).map(|(n, d)| n / d.max(1e-12)).collect()
}

/// A point estimate with its 95 % bootstrap interval.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Interval {
    /// The point estimate.
    pub point: f64,
    /// Lower end of the interval.
    pub lo: f64,
    /// Upper end of the interval.
    pub hi: f64,
}

/// `statistic` of `values`, with an interval over resamples of `values`:
/// the median per-round ratio of rounds timed in one process, or the mean
/// over processes of each process's median when each process carries an
/// offset of its own.
pub fn interval(values: &[f64], statistic: fn(&[f64]) -> f64, seed: u64) -> Interval {
    let (lo, hi) = bootstrap_ci(&[values.len()], seed, |draws| {
        statistic(&draws[0].iter().map(|&i| values[i]).collect::<Vec<_>>())
    });
    Interval { point: statistic(values), lo, hi }
}

/// The mean over `groups` of each group's median, with an interval that
/// resamples every group on its own (groups timed in separate rounds).
pub fn mean_of_medians(groups: &[Vec<f64>], seed: u64) -> Interval {
    let n = groups.len() as f64;
    let sizes: Vec<usize> = groups.iter().map(Vec::len).collect();
    let (lo, hi) = bootstrap_ci(&sizes, seed, |draws| {
        let resampled = |(group, draw): (&Vec<f64>, &Vec<usize>)| {
            median(&draw.iter().map(|&i| group[i]).collect::<Vec<_>>())
        };
        groups.iter().zip(draws).map(resampled).sum::<f64>() / n
    });
    Interval { point: mean(&groups.iter().map(|group| median(group)).collect::<Vec<_>>()), lo, hi }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qsim_observatory::compare::Xorshift;

    /// `n` values around `base`, spread uniformly over `±spread / 2`.
    fn noisy(base: f64, n: usize, spread: f64, seed: u64) -> Vec<f64> {
        let mut rng = Xorshift::new(seed);
        (0..n).map(|_| base + spread * ((rng.next_u64() % 1000) as f64 / 1000.0 - 0.5)).collect()
    }

    #[test]
    fn every_side_leads_equally_often() {
        for sides in 1..=5 {
            for rounds in 0..=13 {
                let mut leads = vec![0; sides];
                for round in 0..rounds {
                    leads[side_at(round, 0, sides)] += 1;
                    let mut order: Vec<usize> =
                        (0..sides).map(|k| side_at(round, k, sides)).collect();
                    order.sort_unstable();
                    assert_eq!(
                        order,
                        (0..sides).collect::<Vec<_>>(),
                        "a round runs every side once"
                    );
                }
                for &count in &leads {
                    assert!(
                        count == rounds / sides || count == rounds.div_ceil(sides),
                        "{sides} sides, {rounds} rounds: {leads:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn every_side_follows_every_other_side_equally_often() {
        for sides in 2..=7 {
            let block = if sides % 2 == 0 { sides } else { 2 * sides };
            let mut follows = vec![vec![0; sides]; sides];
            for round in 0..block {
                for k in 1..sides {
                    follows[side_at(round, k - 1, sides)][side_at(round, k, sides)] += 1;
                }
            }
            let per_pair = block / sides;
            for (before, row) in follows.iter().enumerate() {
                for (after, &count) in row.iter().enumerate() {
                    let want = if before == after { 0 } else { per_pair };
                    assert_eq!(count, want, "{sides} sides: {before} before {after}");
                }
            }
        }
    }

    #[test]
    fn rounds_run_every_side_after_a_warm_up() {
        let mut prepared = Vec::new();
        let rounds = time_rounds_prepared(3, 2, |side| prepared.push(side), |_| {});
        assert_eq!(rounds.ms.len(), 2);
        assert!(rounds.ms.iter().all(|row| row.len() == 3));
        // Three warm-ups plus two rounds of three, each one prepared.
        assert_eq!(prepared, [0, 1, 2, 0, 1, 2, 1, 2, 0]);
    }

    #[test]
    fn a_constant_ratio_is_a_point_interval() {
        let den = noisy(10.0, 9, 4.0, 3);
        let num: Vec<f64> = den.iter().map(|d| 2.5 * d).collect();
        for statistic in [median, mean] {
            let ratio = interval(&ratios(&num, &den), statistic, 11);
            for end in [ratio.point, ratio.lo, ratio.hi] {
                assert!((end - 2.5).abs() < 1e-12, "{ratio:?}");
            }
        }
        let groups = vec![vec![2.0; 5], vec![4.0; 7]];
        assert_eq!(mean_of_medians(&groups, 5), Interval { point: 3.0, lo: 3.0, hi: 3.0 });
    }

    #[test]
    fn the_interval_holds_its_point_and_repeats_for_a_seed() {
        for (n, seed) in [(5, 1u64), (8, 2), (9, 3), (30, 4), (31, 5)] {
            let num = noisy(10.0, n, 3.0, seed);
            let den = noisy(5.0, n, 1.0, seed + 100);
            let per_round = ratios(&num, &den);
            for statistic in [median, mean] {
                let ratio = interval(&per_round, statistic, seed);
                assert!(ratio.lo <= ratio.point && ratio.point <= ratio.hi, "{ratio:?}");
                assert!(ratio.lo < ratio.hi, "{ratio:?}");
                assert_eq!(interval(&per_round, statistic, seed), ratio);
            }
            let groups = vec![num.clone(), den.clone()];
            let classes = mean_of_medians(&groups, seed);
            assert!(classes.lo <= classes.point && classes.point <= classes.hi, "{classes:?}");
            assert_eq!(mean_of_medians(&groups, seed), classes);
        }
    }

    #[test]
    fn medians_and_means_of_odd_even_and_empty_inputs() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(mean(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert!(median(&[]).is_nan() && mean(&[]).is_nan());
    }
}
