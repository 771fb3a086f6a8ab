//! Sample summaries and the per-operation correctness tally.

use std::collections::BTreeMap;

/// Linearly interpolated `q`-quantile (`q` in 0..=1) of `xs`; 0 when
/// empty.
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

pub fn median(xs: &[f64]) -> f64 {
    quantile(xs, 0.5)
}

/// What a timed run reports for a repeated measurement: its fastest
/// sample.
///
/// The benchmark's host is a VM on a shared machine whose speed swings:
/// for seconds to minutes the same work takes up to twice as long while
/// other tenants contend for the core, its caches and memory. Contention
/// only ever adds time, so the fastest of many short samples estimates
/// the program's own cost and holds as long as some of the run falls in
/// an uncontended stretch; a median instead tracks the share of the run
/// the host spent slow. The program is deterministic, so every sample of
/// one measurement does the same work.
pub fn fast(xs: &[f64]) -> f64 {
    xs.iter().copied().fold(f64::INFINITY, f64::min)
}

/// The fastest of rate samples (higher is better).
pub fn fast_rate(xs: &[f64]) -> f64 {
    xs.iter().copied().fold(f64::NEG_INFINITY, f64::max)
}

/// Named per-pass values, summarised as one median per name.
#[derive(Default)]
pub struct Samples(BTreeMap<String, Vec<f64>>);

impl Samples {
    pub fn push(&mut self, name: impl Into<String>, value: f64) {
        self.0.entry(name.into()).or_default().push(value);
    }

    pub fn medians(&self) -> BTreeMap<String, f64> {
        self.summarise(median)
    }

    /// One value per name, summarised by `f`.
    pub fn summarise(&self, f: impl Fn(&[f64]) -> f64) -> BTreeMap<String, f64> {
        self.0.iter().map(|(k, v)| (k.clone(), f(v))).collect()
    }
}

/// Checked operations: how many were attempted, how many failed, and
/// the first few reasons.
#[derive(Default, Debug)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    pub problems: Vec<String>,
}

impl Tally {
    /// Count one operation; it failed if `problems` is non-empty.
    pub fn check(&mut self, what: &str, problems: Vec<String>) {
        self.attempted += 1;
        if !problems.is_empty() {
            self.failed += 1;
            if self.problems.len() < 8 {
                self.problems
                    .push(format!("{what}: {}", problems.join("; ")));
            }
        }
    }

    pub fn fail_ratio(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }
}

/// Host time of the traced passes and the part their layer spans
/// account for.
#[derive(Default)]
pub struct Attribution {
    wall_ns: f64,
    attributed_ns: f64,
}

impl Attribution {
    pub fn add(&mut self, wall_ns: f64, attributed_ns: f64) {
        self.wall_ns += wall_ns;
        self.attributed_ns += attributed_ns;
    }

    /// Share of the traced passes' wall time no layer accounts for,
    /// checked against [`crate::UNATTRIBUTED_BOUND`] as one operation.
    pub fn check(&self, tally: &mut Tally) -> f64 {
        let share = (self.wall_ns - self.attributed_ns) / self.wall_ns;
        let bound = crate::UNATTRIBUTED_BOUND;
        let bad = if share <= bound {
            Vec::new()
        } else {
            vec![format!("unattributed share {share:.3} above bound {bound}")]
        };
        tally.check("traced pass attribution", bad);
        share
    }
}

/// What one workload run hands to the output: the tally, the combined
/// digest over its deterministic runs, and every metric by name.
pub struct Outcome {
    pub tally: Tally,
    pub digest: u64,
    pub metrics: BTreeMap<String, f64>,
    /// Sample counts and other context, printed before the result.
    pub notes: Vec<String>,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let xs = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&xs), 2.5);
        assert_eq!(quantile(&xs, 0.0), 1.0);
        assert_eq!(quantile(&xs, 1.0), 4.0);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn tally_counts_failures() {
        let mut t = Tally::default();
        t.check("ok", vec![]);
        t.check("bad", vec!["wrong digest".into()]);
        assert_eq!((t.attempted, t.failed), (2, 1));
        assert_eq!(t.fail_ratio(), 0.5);
        assert!(t.problems[0].contains("wrong digest"));
    }
}
