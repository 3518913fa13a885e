//! `selfcheck`: does this build agree with itself?
//!
//! Runs two sets of N runs of the current executable per workload,
//! alternating A, B, A, B … so a slow phase of the host falls on both,
//! each run its own process as the driver starts them. Prints, per
//! (workload, end-to-end metric), both medians, the gap between them in
//! the metric's worse direction, each set's spread (interquartile range
//! over median, as the driver computes it) and the bound; exits non-zero
//! when a gap or a spread exceeds the bound.

use crate::{stats, Better, END_TO_END, WORKLOADS};
use std::process::Command;

/// Reads `"name": {"value": X` out of a result line this program printed.
fn value_of(line: &str, name: &str) -> Option<f64> {
    let key = format!("\"{name}\": {{\"value\": ");
    let rest = &line[line.find(&key)? + key.len()..];
    rest[..rest.find(',')?].parse().ok()
}

fn one_run(workload: &str, seed: u64, seconds: f64) -> Vec<f64> {
    let exe = std::env::current_exe().expect("the running executable has a path");
    let out = Command::new(exe)
        .args(["--workload", workload, "--trace", "0"])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .output()
        .expect("the benchmark starts");
    let stdout = String::from_utf8_lossy(&out.stdout);
    let line = stdout.lines().last().unwrap_or_default();
    if !out.status.success() || !line.contains("\"correct\": true") {
        crate::fail(&format!("{workload} seed {seed} did not verify: {line}"));
    }
    END_TO_END
        .iter()
        .map(|(name, ..)| {
            value_of(line, name)
                .unwrap_or_else(|| crate::fail(&format!("{workload}: no `{name}` in {line}")))
        })
        .collect()
}

pub fn run(runs: usize, seconds: f64) {
    if runs < 5 {
        crate::fail("selfcheck needs --runs ≥ 5");
    }
    println!(
        "{:<14} {:<18} {:>14} {:>14} {:>8} {:>8} {:>8} {:>7}",
        "workload", "metric", "median A", "median B", "gap", "iqr A", "iqr B", "bound"
    );
    let mut bad = 0;
    for workload in WORKLOADS {
        let mut sets = [Vec::new(), Vec::new()];
        for i in 0..runs {
            for set in &mut sets {
                set.push(one_run(workload, 1 + i as u64, seconds));
            }
        }
        for (m, (name, _, better, bound)) in END_TO_END.iter().enumerate() {
            let column = |set: &Vec<Vec<f64>>| set.iter().map(|r| r[m]).collect::<Vec<f64>>();
            let (a, b) = (column(&sets[0]), column(&sets[1]));
            let (ma, mb) = (stats::median(&a), stats::median(&b));
            // Positive when B is worse than A.
            let gap = match better {
                Better::Lower => (mb - ma) / ma,
                Better::Higher => (ma - mb) / ma,
            };
            let (sa, sb) = (stats::iqr_share(&a), stats::iqr_share(&b));
            // Set-up time is held to its medians only.
            let spread_ok = *name == "setup_s" || (sa <= *bound && sb <= *bound);
            let ok = gap.abs() <= *bound && spread_ok;
            println!(
                "{workload:<14} {name:<18} {ma:>14.6} {mb:>14.6} {:>7.2}% {:>7.2}% {:>7.2}% {:>6.1}% {}",
                gap * 100.0,
                sa * 100.0,
                sb * 100.0,
                bound * 100.0,
                if ok { "" } else { "FAIL" }
            );
            bad += usize::from(!ok);
        }
    }
    if bad > 0 {
        crate::fail(&format!(
            "{bad} (workload, metric) pairs outside their bound"
        ));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reads_values_back_from_a_result_line() {
        let line = "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": \
                    {\"setup_s\": {\"value\": 0.25, \"unit\": \"s\"}, \
                    \"latency_us\": {\"value\": 9412.5, \"unit\": \"us\"}}}";
        assert_eq!(value_of(line, "setup_s"), Some(0.25));
        assert_eq!(value_of(line, "latency_us"), Some(9412.5));
        assert_eq!(value_of(line, "good_share"), None);
    }
}
