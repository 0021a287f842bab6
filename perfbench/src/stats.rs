//! Summary statistics over one run's request times.
//!
//! The tail is the highest percentile that still has at least
//! [`TAIL_BEYOND`] samples beyond it, so it is a measured order
//! statistic rather than an extrapolation, and its sample count is
//! reported beside it. Each request carries the study it verified, so
//! the summary can say which study's cluster the median and the tail
//! fall in, and how deep inside that cluster they sit.

use std::collections::BTreeMap;

/// Samples that must lie beyond the reported tail.
pub const TAIL_BEYOND: usize = 10;

pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no samples");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// The tail order statistic of a sample set.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Tail {
    pub value: f64,
    /// The percentile the value sits at, `100 * (n - beyond) / n`.
    pub percentile: f64,
    /// How many samples lie beyond it: [`TAIL_BEYOND`] whenever there are
    /// more than that many samples, else fewer (the maximum is reported).
    pub beyond: usize,
    pub samples: usize,
    /// Index of the value in ascending order.
    rank: usize,
}

pub fn tail(values: &[f64]) -> Tail {
    assert!(!values.is_empty(), "tail of no samples");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    let rank = if n > TAIL_BEYOND {
        n - 1 - TAIL_BEYOND
    } else {
        n - 1
    };
    let beyond = n - 1 - rank;
    Tail {
        value: v[rank],
        percentile: 100.0 * (n - beyond) as f64 / n as f64,
        beyond,
        samples: n,
        rank,
    }
}

pub fn geomean(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "geomean of no samples");
    (values.iter().map(|v| v.ln()).sum::<f64>() / values.len() as f64).exp()
}

/// Median request time per label (a study, or a request kind).
pub fn group_medians(samples: &[(String, f64)]) -> BTreeMap<String, f64> {
    let mut by_study: BTreeMap<String, Vec<f64>> = BTreeMap::new();
    for (study, ms) in samples {
        by_study.entry(study.clone()).or_default().push(*ms);
    }
    by_study
        .into_iter()
        .map(|(study, times)| (study, median(&times)))
        .collect()
}

/// Where one order statistic falls: the study whose request it is, and
/// its 1-based rank among that study's own samples. A rank of 1 or of
/// `of` means the statistic sits on the edge between two clusters.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Placement {
    pub study: String,
    pub rank: usize,
    pub of: usize,
}

impl Placement {
    pub fn on_edge(&self) -> bool {
        self.rank == 1 || self.rank == self.of
    }
}

impl std::fmt::Display for Placement {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{} (rank {} of {}", self.study, self.rank, self.of)?;
        if self.on_edge() {
            write!(f, ", on a cluster edge")?;
        }
        write!(f, ")")
    }
}

/// Place the sample at ascending index `index` of `samples`.
fn place(samples: &[(String, f64)], index: usize) -> Placement {
    let mut order: Vec<&(String, f64)> = samples.iter().collect();
    order.sort_by(|a, b| a.1.total_cmp(&b.1));
    let study = &order[index].0;
    let rank = order[..=index].iter().filter(|s| &s.0 == study).count();
    let of = samples.iter().filter(|s| &s.0 == study).count();
    Placement {
        study: study.clone(),
        rank,
        of,
    }
}

/// Placement of the median (the upper middle sample for an even count).
pub fn place_median(samples: &[(String, f64)]) -> Placement {
    place(samples, samples.len() / 2)
}

pub fn place_tail(samples: &[(String, f64)]) -> Placement {
    let times: Vec<f64> = samples.iter().map(|s| s.1).collect();
    place(samples, tail(&times).rank)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
    }

    #[test]
    fn tail_keeps_ten_samples_beyond() {
        let values: Vec<f64> = (1..=100).map(f64::from).collect();
        let t = tail(&values);
        assert_eq!(t.value, 90.0);
        assert_eq!(t.beyond, 10);
        assert_eq!(t.samples, 100);
        assert!((t.percentile - 90.0).abs() < 1e-9);
        assert_eq!(values.iter().filter(|&&v| v > t.value).count(), 10);
    }

    #[test]
    fn tail_of_few_samples_is_the_maximum() {
        let t = tail(&[5.0, 1.0, 3.0]);
        assert_eq!(t.value, 5.0);
        assert_eq!(t.beyond, 0);
        assert_eq!(t.percentile, 100.0);
    }

    #[test]
    fn geomean_weighs_each_value_equally() {
        assert!((geomean(&[1.0, 100.0]) - 10.0).abs() < 1e-9);
        assert!((geomean(&[4.0, 4.0, 4.0]) - 4.0).abs() < 1e-9);
    }

    #[test]
    fn group_medians_group_by_study() {
        let samples = vec![
            ("a".to_string(), 1.0),
            ("b".to_string(), 10.0),
            ("a".to_string(), 3.0),
            ("b".to_string(), 30.0),
            ("a".to_string(), 2.0),
        ];
        let m = group_medians(&samples);
        assert_eq!(m["a"], 2.0);
        assert_eq!(m["b"], 20.0);
        assert!((geomean(&m.values().copied().collect::<Vec<_>>()) - 40f64.sqrt()).abs() < 1e-9);
    }

    #[test]
    fn placements_name_the_cluster_and_depth() {
        // Three studies, 20 requests each, in well separated clusters.
        let mut samples = Vec::new();
        for i in 0..20 {
            let jitter = f64::from(i) * 0.01;
            samples.push(("fast".to_string(), 1.0 + jitter));
            samples.push(("mid".to_string(), 10.0 + jitter));
            samples.push(("slow".to_string(), 100.0 + jitter));
        }
        let p50 = place_median(&samples);
        assert_eq!((p50.study.as_str(), p50.rank, p50.of), ("mid", 11, 20));
        assert!(!p50.on_edge());
        // 60 samples: the tail is the 50th, the 10th of slow's 20.
        let t = place_tail(&samples);
        assert_eq!((t.study.as_str(), t.rank, t.of), ("slow", 10, 20));
        assert!(!t.on_edge());
        assert_eq!(t.to_string(), "slow (rank 10 of 20)");
    }

    #[test]
    fn placement_flags_a_cluster_edge() {
        // With eleven slow samples of 77, the tail is the slowest study's minimum.
        let mut samples = Vec::new();
        for i in 0..11 {
            for (k, study) in ["a", "b", "c", "d", "e", "f", "g"].iter().enumerate() {
                samples.push((
                    study.to_string(),
                    10f64.powi(k as i32) + f64::from(i) * 0.01,
                ));
            }
        }
        let t = place_tail(&samples);
        assert_eq!(t.study, "g");
        assert_eq!(t.rank, 1);
        assert!(t.on_edge());
    }
}
