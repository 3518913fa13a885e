//! Figure 4 — Normalised training energy to reach a target accuracy:
//! fixed 12/14/16/32-bit vs. APT, grouped by target.
//!
//! Paper shape: APT is the cheapest at every target; 12-bit is close but
//! *cannot reach* the highest targets at all (absent bars); the
//! fixed-precision arms pay steeply for the last fractions of a percent.
//! All energies are normalised to the 32-bit arm's **total** training
//! energy, as in the paper.
//!
//! Regenerate with `cargo run --release -p apt-bench --bin fig4 -- --scale small`.

use apt_baselines::{run_baseline, BaselineSpec};
use apt_bench::{parse_cli, pct, write_output};
use apt_core::TrainReport;
use apt_metrics::Table;
use apt_nn::models;
use apt_quant::Bitwidth;

fn main() {
    let params = parse_cli();
    println!(
        "# Figure 4: energy to reach target accuracy, scale={}",
        params.scale
    );
    let data = params.synth10().expect("dataset generation");
    // The paper sweeps 12/14/16/32-bit; we add the 10-bit arm it dropped
    // for "falling off charts", so the absent-at-high-targets behaviour is
    // visible in the output.
    // The T_min threshold is application-specific (paper §IV-B); the knee
    // of *this* synthetic task's Figure 5 frontier sits near T_min ≈ 10
    // (vs. 6.0 on CIFAR), so we report both the paper's constant and the
    // task-calibrated one.
    let arms: Vec<BaselineSpec> = vec![
        BaselineSpec::fixed(Bitwidth::new(10).expect("10 valid")),
        BaselineSpec::fixed(Bitwidth::new(12).expect("12 valid")),
        BaselineSpec::fixed(Bitwidth::new(14).expect("14 valid")),
        BaselineSpec::fixed(Bitwidth::new(16).expect("16 valid")),
        BaselineSpec::fp32(),
        BaselineSpec::apt(6.0, f64::INFINITY),
        BaselineSpec::apt(10.0, f64::INFINITY).named("apt-t10"),
    ];
    let mut reports: Vec<(String, TrainReport)> = Vec::new();
    for spec in &arms {
        eprintln!("training arm `{}`...", spec.name());
        let r = run_baseline(
            spec,
            |scheme, rng| models::resnet20(10, params.width_mult, scheme, rng),
            &data.train,
            &data.test,
            &params.train_config(),
            params.seed,
        )
        .expect("training");
        eprintln!("  best accuracy {}", pct(r.best_accuracy));
        reports.push((spec.name().to_string(), r));
    }

    // Normalise to the fp32 arm's total energy (the paper's convention).
    let fp32_total = reports
        .iter()
        .find(|(n, _)| n == "fp32")
        .expect("fp32 arm present")
        .1
        .total_energy_pj;

    // Targets: four accuracy levels spanning the band every arm's best
    // brackets — analogous to the paper's 91.0/91.5/91.75/92.0 grid.
    let best_overall = reports
        .iter()
        .map(|(_, r)| r.best_accuracy)
        .fold(0.0f64, f64::max);
    let lo = best_overall * 0.90;
    let targets: Vec<f64> = (0..4)
        .map(|i| lo + (best_overall - lo) * (i as f64 / 3.0) * 0.98)
        .collect();

    let mut cols: Vec<String> = vec!["target".into()];
    cols.extend(reports.iter().map(|(n, _)| format!("E[{n}]/E[fp32-total]")));
    let refs: Vec<&str> = cols.iter().map(String::as_str).collect();
    let mut table = Table::new(&refs);
    for &t in &targets {
        let mut row = vec![pct(t)];
        for (_, r) in &reports {
            row.push(match r.energy_to_accuracy(t) {
                Some((_, e)) => format!("{:.3}", e / fp32_total),
                None => "absent".into(), // could not reach the target (paper: 12-bit)
            });
        }
        table.push_row(row);
    }
    println!("{table}");
    write_output(false, "results/fig4.csv", &table.to_csv());
    println!(
        "shape check: APT column should be the smallest ratio at each reachable target;\n\
         low fixed-bit arms go `absent` at the top targets."
    );
}
