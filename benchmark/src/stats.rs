//! Robust statistics over fixed-work blocks.
//!
//! On a shared two-vCPU host the mean and the median of identical work
//! drift by 15–25 % between runs, because they measure the neighbours.
//! The quietest decile of many short fixed-work blocks does not: a block
//! either ran undisturbed or it did not, and as long as a tenth of the
//! blocks ran undisturbed their time is the program's own. Every
//! time-based metric of the benchmark is therefore computed from the
//! quietest decile of block times — the mean of the fastest tenth, see
//! [`quiet`] — within each kind of block, see [`Blocks`]; mean, p50 and
//! p99 are printed beside it as information only.

/// A block counts as disturbed when it took longer than this multiple of
/// the run's quietest decile.
pub const DISTURBED_FACTOR: f64 = 1.25;

/// Order statistics of one series, with the sample count they rest on.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub n: usize,
    pub mean: f64,
    pub p10: f64,
    pub p50: f64,
    pub p99: f64,
}

/// The `q`-quantile of an ascending series, linearly interpolated between
/// the two nearest ranks. Panics on an empty series: a metric with no
/// samples is a bug in the benchmark, not a value to report.
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "quantile of an empty series");
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

pub fn summarize(samples: &[f64]) -> Summary {
    let s = sorted(samples);
    Summary {
        n: s.len(),
        mean: s.iter().sum::<f64>() / s.len() as f64,
        p10: quantile(&s, 0.10),
        p50: quantile(&s, 0.50),
        p99: quantile(&s, 0.99),
    }
}

/// The quietest decile: the mean of the fastest tenth of the samples
/// (rounded up, so at least one). Measured against the 10th percentile —
/// the decile's upper edge — on 150–400 s of recorded blocks cut into 18 s
/// runs, it repeats a little better on every workload (interquartile range
/// 4.3 against 4.8 % on `train-conv`, 5.9 against 6.9 % on `serve-single`,
/// 4.9 against 6.5 % on `train-dist2`): when the host alternates between a
/// quiet and a slow regime the edge of the decile is the first to cross
/// into the slow one. Averaging keeps it from resting on one lucky block.
pub fn quiet(samples: &[f64]) -> f64 {
    let s = sorted(samples);
    let n = s.len().div_ceil(10);
    s[..n].iter().sum::<f64>() / n as f64
}

pub fn median(samples: &[f64]) -> f64 {
    quantile(&sorted(samples), 0.50)
}

/// Block times grouped by kind: blocks of one kind carry identical work,
/// blocks of different kinds need not. A training slice's blocks differ —
/// Algorithm 1 raises bitwidths from epoch to epoch, so the twelfth epoch
/// costs more than the first — and the quietest decile of all of them would
/// be the cheapest *kind*, not the quietest *run* of every kind. So the kind
/// of a training block is its position in the slice, and the statistic is
/// the quietest decile within each kind, averaged over the kinds. The
/// served and the distributed workloads have one kind.
#[derive(Debug, Default, Clone)]
pub struct Blocks {
    kinds: Vec<Vec<f64>>,
}

impl Blocks {
    pub fn push(&mut self, kind: usize, secs: f64) {
        if self.kinds.len() <= kind {
            self.kinds.resize(kind + 1, Vec::new());
        }
        self.kinds[kind].push(secs);
    }

    pub fn len(&self) -> usize {
        self.kinds.iter().map(Vec::len).sum()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Seconds per block in the quietest decile: [`quiet`] within each
    /// kind, averaged over the kinds.
    pub fn quiet(&self) -> f64 {
        let kinds: Vec<f64> = self
            .kinds
            .iter()
            .filter(|k| !k.is_empty())
            .map(|k| quiet(k))
            .collect();
        assert!(!kinds.is_empty(), "no block was recorded");
        kinds.iter().sum::<f64>() / kinds.len() as f64
    }

    /// Share of blocks slower than [`DISTURBED_FACTOR`] × the quietest
    /// decile of their own kind.
    pub fn disturbed_share(&self) -> f64 {
        let over: usize = self
            .kinds
            .iter()
            .filter(|k| !k.is_empty())
            .map(|k| {
                let limit = DISTURBED_FACTOR * quiet(k);
                k.iter().filter(|&&x| x > limit).count()
            })
            .sum();
        over as f64 / self.len() as f64
    }

    /// Every block, kinds mixed — for the information-only statistics.
    pub fn all(&self) -> Summary {
        summarize(&self.kinds.concat())
    }
}

/// Interquartile range over the median — the spread the driver computes
/// from `statistics.quantiles(values, n=4)` (exclusive method).
pub fn iqr_share(samples: &[f64]) -> f64 {
    let s = sorted(samples);
    let n = s.len();
    let at = |k: f64| {
        // Python's exclusive method: position k·(n+1)/4, 1-based, clamped.
        let pos = (k * (n + 1) as f64 / 4.0).clamp(1.0, n as f64) - 1.0;
        let lo = pos.floor() as usize;
        let hi = pos.ceil() as usize;
        s[lo] + (s[hi] - s[lo]) * (pos - lo as f64)
    };
    (at(3.0) - at(1.0)) / quantile(&s, 0.5)
}

/// Round-robin slice order: which workload runs next when one invocation
/// times several. `remaining[i]` says whether workload `i` still has timed
/// work to do; the turn passes to the next such workload after `last`, so
/// every workload's blocks span the whole invocation and a slow phase of
/// the host cannot cover one workload entirely.
pub fn next_turn(remaining: &[bool], last: Option<usize>) -> Option<usize> {
    let n = remaining.len();
    let start = last.map_or(0, |l| l + 1);
    (0..n).map(|k| (start + k) % n).find(|&i| remaining[i])
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A 10 ms block with ±0.5 % deterministic jitter.
    fn series(n: usize) -> Vec<f64> {
        (0..n)
            .map(|i| 10.0 * (1.0 + 0.005 * (((i * 7919) % 21) as f64 / 10.0 - 1.0)))
            .collect()
    }

    fn moved(a: f64, b: f64) -> f64 {
        (a - b).abs() / b
    }

    #[test]
    fn bursts_move_the_mean_not_the_quietest_decile() {
        let base = series(200);
        let mut burst = base.clone();
        // Every fifth block is hit by a 2× burst.
        for x in burst.iter_mut().step_by(5) {
            *x *= 2.0;
        }
        let (a, b) = (summarize(&base), summarize(&burst));
        assert!(
            moved(b.p10, a.p10) < 0.02,
            "p10 moved {}",
            moved(b.p10, a.p10)
        );
        assert!(moved(quiet(&burst), quiet(&base)) < 0.02);
        assert!(
            moved(b.mean, a.mean) > 0.15,
            "mean moved {}",
            moved(b.mean, a.mean)
        );
    }

    #[test]
    fn slow_phase_moves_the_mean_not_the_quietest_decile() {
        let base = series(200);
        let mut slow = base.clone();
        // 30 % of the run sits inside one contiguous 1.7× slow phase.
        for x in &mut slow[60..120] {
            *x *= 1.7;
        }
        let (a, b) = (summarize(&base), summarize(&slow));
        assert!(moved(b.p10, a.p10) < 0.02);
        assert!(moved(quiet(&slow), quiet(&base)) < 0.02);
        assert!(moved(b.mean, a.mean) > 0.15);
        let blocks = |series: &[f64]| {
            let mut b = Blocks::default();
            series.iter().for_each(|&x| b.push(0, x));
            b
        };
        assert!((blocks(&slow).disturbed_share() - 0.30).abs() < 0.01);
        assert_eq!(blocks(&base).disturbed_share(), 0.0);
    }

    #[test]
    fn kinds_are_judged_apart_then_averaged() {
        // Two kinds of block, 10 ms and 13 ms, twenty of each; a plain p10
        // over all forty would report the cheap kind alone.
        let mut b = Blocks::default();
        for (i, x) in series(20).into_iter().enumerate() {
            b.push(0, x);
            // Every fourth expensive block is hit by a 2× burst.
            b.push(1, x * 1.3 * if i % 4 == 0 { 2.0 } else { 1.0 });
        }
        assert_eq!(b.len(), 40);
        assert!(moved(b.quiet(), 11.5) < 0.02, "quiet {}", b.quiet());
        assert!(moved(quiet(&b.kinds.concat()), 10.0) < 0.02);
        assert_eq!(b.disturbed_share(), 5.0 / 40.0);
    }

    #[test]
    fn quantiles_interpolate_and_count() {
        let s = summarize(&[4.0, 1.0, 3.0, 2.0, 5.0]);
        assert_eq!((s.n, s.p50, s.mean), (5, 3.0, 3.0));
        assert!((s.p10 - 1.4).abs() < 1e-12);
        assert_eq!(quantile(&[7.0], 0.99), 7.0);
        // The fastest tenth, rounded up: one of five, two of eleven.
        assert_eq!(quiet(&[4.0, 1.0, 3.0, 2.0, 5.0]), 1.0);
        let eleven: Vec<f64> = (1..=11).map(f64::from).collect();
        assert_eq!(quiet(&eleven), 1.5);
    }

    #[test]
    fn iqr_share_matches_python_exclusive_quartiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((iqr_share(&v) - (8.25 - 2.75) / 5.5).abs() < 1e-12);
    }

    #[test]
    fn turns_rotate_and_skip_finished_workloads() {
        let mut remaining = [true, true, true];
        let mut order = Vec::new();
        let mut last = None;
        for step in 0..7 {
            if step == 4 {
                remaining[1] = false;
            }
            last = next_turn(&remaining, last);
            order.push(last.unwrap());
        }
        assert_eq!(order, [0, 1, 2, 0, 2, 0, 2]);
        assert_eq!(next_turn(&[false, false], Some(0)), None);
    }
}
