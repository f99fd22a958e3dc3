//! Reduction helpers: percentiles with their "samples beyond" count,
//! best and median over repetitions of identical work, the composite of
//! identical blocks, geometric mean.

/// A percentile together with how many samples lie beyond it — the
/// figure that says whether the percentile is supported by the sample
/// (the rule of thumb is at least ten).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Percentile {
    pub value: f64,
    pub beyond: usize,
}

/// Nearest-rank percentile of `sorted` (ascending, non-empty): the
/// smallest sample with at least `q` of the sample at or below it.
pub fn percentile(sorted: &[u64], q: f64) -> Percentile {
    assert!(!sorted.is_empty(), "percentile of an empty sample");
    assert!((0.0..=1.0).contains(&q), "quantile out of range");
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    Percentile {
        value: sorted[rank - 1] as f64,
        beyond: sorted.len() - rank,
    }
}

/// A lower-is-better quantity sampled over repetitions of identical
/// work: nothing but the host can make such a repetition slower, so
/// `best` (the minimum) is the least-disturbed sample and what is
/// reported; `median` rides along as a diagnostic.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Reduced {
    pub best: f64,
    pub median: f64,
}

/// Minimum and median of `values` (non-empty, finite).
pub fn reduce(values: &[f64]) -> Reduced {
    assert!(!values.is_empty(), "nothing to reduce");
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    let median = if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    };
    Reduced {
        best: sorted[0],
        median,
    }
}

/// The least-disturbed replay of a list, assembled from many.
///
/// Every block replays the identical requests from the identical server
/// state, so sample `j` of every block times the same work and nothing
/// but the host can make one of them slower.  The composite takes each
/// sample at its fastest over all blocks: it needs every *request* to
/// have met a quiet moment once, not a whole block to have.  On a host
/// that changes speed every few seconds that is what repeats from run
/// to run; whole blocks did not, however short.
#[derive(Debug, Default)]
pub struct Composite {
    /// Per sample: its minimum over the blocks seen so far.
    best: Vec<u64>,
    /// Per block: wall time and the part of it outside any sample (the
    /// client's own checking between requests).
    walls: Vec<u64>,
    gaps: Vec<u64>,
}

impl Composite {
    /// Fold in one block: its samples in list order and its wall time.
    pub fn absorb(&mut self, samples: &[u64], wall_ns: u64) {
        if self.best.is_empty() {
            self.best = samples.to_vec();
        }
        assert_eq!(self.best.len(), samples.len(), "blocks replay one list");
        for (best, s) in self.best.iter_mut().zip(samples) {
            *best = (*best).min(*s);
        }
        self.walls.push(wall_ns);
        self.gaps
            .push(wall_ns.saturating_sub(samples.iter().sum::<u64>()));
    }

    pub fn blocks(&self) -> usize {
        self.walls.len()
    }

    /// Wall time of the composite block: every sample at its best plus
    /// the smallest between-sample remainder any block had.
    pub fn wall_ns(&self) -> u64 {
        self.samples_ns() + self.gaps.iter().min().copied().unwrap_or(0)
    }

    /// Sum of the per-sample minima: the time the composite block spent
    /// waiting for responses.
    pub fn samples_ns(&self) -> u64 {
        self.best.iter().sum()
    }

    /// Wall time of the fastest whole block, for the host-noise report.
    pub fn best_wall_ns(&self) -> u64 {
        self.walls.iter().min().copied().unwrap_or(0)
    }

    /// Wall time of the median block, for the host-noise report.
    pub fn median_wall_ns(&self) -> f64 {
        let walls: Vec<f64> = self.walls.iter().map(|w| *w as f64).collect();
        reduce(&walls).median
    }

    /// Percentile over the per-sample minima.
    pub fn percentile(&self, q: f64) -> Percentile {
        let mut sorted = self.best.clone();
        sorted.sort_unstable();
        percentile(&sorted, q)
    }
}

/// Geometric mean of positive values; 1.0 for an empty slice (the
/// neutral ratio).
pub fn geometric_mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 1.0;
    }
    let log_sum: f64 = values
        .iter()
        .map(|v| {
            assert!(*v > 0.0 && v.is_finite(), "geometric mean needs v > 0");
            v.ln()
        })
        .sum();
    (log_sum / values.len() as f64).exp()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank_and_counts_the_tail() {
        let s: Vec<u64> = (1..=40).collect();
        assert_eq!(
            percentile(&s, 0.5),
            Percentile {
                value: 20.0,
                beyond: 20
            }
        );
        // 90th of 40 is the 36th value: the 4 slowest lie beyond it.
        assert_eq!(
            percentile(&s, 0.9),
            Percentile {
                value: 36.0,
                beyond: 4
            }
        );
        assert_eq!(percentile(&s, 1.0).beyond, 0);
        assert_eq!(percentile(&s, 0.0).value, 1.0);
        assert_eq!(percentile(&[7], 0.9).value, 7.0);
    }

    #[test]
    fn reduce_gives_minimum_and_median() {
        let r = reduce(&[3.0, 1.0, 2.0, 10.0]);
        assert_eq!((r.best, r.median), (1.0, 2.5));
        assert_eq!(reduce(&[5.0, 7.0, 6.0]).median, 6.0);
        assert_eq!(
            reduce(&[4.0]),
            Reduced {
                best: 4.0,
                median: 4.0
            }
        );
    }

    #[test]
    fn composite_takes_each_sample_at_its_best() {
        let mut c = Composite::default();
        // Block 1 is disturbed on its second sample, block 2 on its
        // first; no block ran undisturbed, the composite did.
        c.absorb(&[10, 90, 30], 140);
        c.absorb(&[70, 20, 30], 126);
        c.absorb(&[12, 22, 33], 80);
        assert_eq!(c.blocks(), 3);
        assert_eq!(c.wall_ns(), 10 + 20 + 30 + 6);
        assert_eq!(c.best_wall_ns(), 80);
        assert_eq!(c.median_wall_ns(), 126.0);
        assert_eq!(c.percentile(0.5).value, 20.0);
        assert_eq!(
            c.percentile(0.9),
            Percentile {
                value: 30.0,
                beyond: 0
            }
        );
        assert_eq!(c.samples_ns(), 60);
    }

    #[test]
    fn geometric_mean_of_ratios() {
        assert_eq!(geometric_mean(&[]), 1.0);
        assert!((geometric_mean(&[0.5, 2.0]) - 1.0).abs() < 1e-12);
        assert!((geometric_mean(&[0.9, 0.9, 0.9]) - 0.9).abs() < 1e-12);
    }
}
