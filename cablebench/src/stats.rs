//! Order statistics and ratios with their bases.
//!
//! Percentiles are nearest-rank over the exact samples: the `q`-th
//! percentile of `n` sorted samples is the sample at 1-based rank
//! `ceil(q/100 · n)`. A percentile is only reported when at least ten
//! samples lie beyond it, so a tail figure always rests on a tail. A
//! refused request is a sample of `f64::INFINITY`: it misses every
//! latency limit.

/// Samples that must lie strictly above a reported percentile's rank.
pub const MIN_BEYOND: usize = 10;

/// The 1-based nearest rank of percentile `q` among `n` samples.
pub fn nearest_rank(q: f64, n: usize) -> usize {
    ((q * n as f64 / 100.0).ceil() as usize).clamp(1, n.max(1))
}

/// The nearest-rank percentile `q` of `samples`, or `None` when fewer
/// than [`MIN_BEYOND`] samples lie beyond its rank.
pub fn percentile(samples: &[f64], q: f64) -> Option<f64> {
    let n = samples.len();
    if n == 0 {
        return None;
    }
    let rank = nearest_rank(q, n);
    if n - rank < MIN_BEYOND {
        return None;
    }
    Some(sorted(samples)[rank - 1])
}

/// The median (the mean of the two middle samples for an even count).
/// Medians of a handful of passes are what the batch workloads report,
/// so this one does not ask for a tail.
pub fn median(samples: &[f64]) -> Option<f64> {
    let n = samples.len();
    if n == 0 {
        return None;
    }
    let s = sorted(samples);
    Some(if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    })
}

/// The arithmetic mean, or `None` for no samples.
pub fn mean(samples: &[f64]) -> Option<f64> {
    (!samples.is_empty()).then(|| samples.iter().sum::<f64>() / samples.len() as f64)
}

fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

/// A ratio that keeps its base, so every reported share can be traced
/// back to the two counts it came from.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Ratio {
    /// The counted outcomes.
    pub num: u64,
    /// What they are counted against.
    pub den: u64,
}

impl Ratio {
    /// `num / den`, or 0 for an empty base.
    pub fn value(self) -> f64 {
        if self.den == 0 {
            0.0
        } else {
            self.num as f64 / self.den as f64
        }
    }
}

/// Failed or refused ops (non-2xx answers, 429s, transport errors and
/// abandoned requests alike) against every op attempted.
pub fn fail_ratio(attempted: u64, failed: u64) -> Ratio {
    Ratio {
        num: failed,
        den: attempted,
    }
}

/// Reference-FA selection's useful work: one chosen session per
/// specification against every candidate session it built.
pub fn useful_ratio(specs: u64, sessions_built: u64) -> Ratio {
    Ratio {
        num: specs,
        den: sessions_built,
    }
}

/// Mutation candidates that survived the equivalence filter against
/// all candidates drawn.
pub fn survivor_ratio(survivors: u64, candidates: u64) -> Ratio {
    Ratio {
        num: survivors,
        den: candidates,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        // Shuffled on purpose: percentile must sort.
        (1..=n).rev().map(|v| v as f64).collect()
    }

    #[test]
    fn nearest_rank_picks_the_ceiling_sample() {
        let s = ramp(1000);
        assert_eq!(percentile(&s, 50.0), Some(500.0));
        assert_eq!(percentile(&s, 99.0), Some(990.0));
        // One rank further leaves nine beyond: refused.
        assert_eq!(percentile(&s, 99.05), None);
        let s = ramp(200);
        assert_eq!(percentile(&s, 90.0), Some(180.0));
        assert_eq!(nearest_rank(0.0, 7), 1);
        assert_eq!(nearest_rank(100.0, 7), 7);
    }

    #[test]
    fn a_percentile_needs_ten_samples_beyond_it() {
        // 1000 samples: p99 is rank 990, exactly ten beyond.
        assert!(percentile(&ramp(1000), 99.0).is_some());
        // 999 samples: rank 990 leaves nine beyond.
        assert_eq!(percentile(&ramp(999), 99.0), None);
        // p50 of 19 samples has nine beyond; of 20, ten.
        assert_eq!(percentile(&ramp(19), 50.0), None);
        assert_eq!(percentile(&ramp(20), 50.0), Some(10.0));
        assert_eq!(percentile(&[], 50.0), None);
    }

    #[test]
    fn refused_requests_miss_every_percentile() {
        let mut s = ramp(1000);
        for v in s.iter_mut().take(11) {
            *v = f64::INFINITY;
        }
        assert_eq!(percentile(&s, 99.0), Some(f64::INFINITY));
        assert_eq!(percentile(&s, 50.0), Some(500.0));
    }

    #[test]
    fn median_and_mean() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(median(&[]), None);
        assert_eq!(mean(&[1.0, 2.0, 6.0]), Some(3.0));
    }

    #[test]
    fn ratios_keep_their_bases() {
        let f = fail_ratio(400, 3);
        assert_eq!((f.num, f.den), (3, 400));
        assert_eq!(f.value(), 0.0075);
        let u = useful_ratio(17, 68);
        assert_eq!((u.num, u.den), (17, 68));
        assert_eq!(u.value(), 0.25);
        let s = survivor_ratio(3000, 3750);
        assert_eq!((s.num, s.den), (3000, 3750));
        assert_eq!(s.value(), 0.8);
        assert_eq!(fail_ratio(0, 0).value(), 0.0);
    }
}
