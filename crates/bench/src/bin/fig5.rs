//! Figure 5 — Resource consumption vs. final accuracy as the
//! application-specific threshold `T_min` sweeps 0.1 → 100 (log grid).
//!
//! Paper shape: energy, memory and accuracy all rise with `T_min`; below
//! `T_min ≈ 1` accuracy climbs steeply with spend; past it a plateau
//! appears where extra energy buys little — the knee users tune against.
//! Energy is normalised to the fp32 arm's total; memory to the fp32 model
//! size.
//!
//! Regenerate with `cargo run --release -p apt-bench --bin fig5 -- --scale small`.

use apt_baselines::{run_baseline, BaselineSpec};
use apt_bench::{parse_cli, pct, write_output};
use apt_metrics::Table;
use apt_nn::models;

fn main() {
    let params = parse_cli();
    println!(
        "# Figure 5: energy & memory vs accuracy across T_min, scale={}",
        params.scale
    );
    let data = params.synth10().expect("dataset generation");

    // fp32 reference for normalisation.
    eprintln!("training reference arm `fp32`...");
    let fp32 = run_baseline(
        &BaselineSpec::fp32(),
        |scheme, rng| models::resnet20(10, params.width_mult, scheme, rng),
        &data.train,
        &data.test,
        &params.train_config(),
        params.seed,
    )
    .expect("training");
    let (e_ref, m_ref) = (fp32.total_energy_pj, fp32.peak_memory_bits as f64);

    let t_mins: &[f64] = match params.scale {
        apt_bench::Scale::Tiny => &[0.1, 1.0, 10.0, 100.0],
        _ => &[0.1, 0.3, 1.0, 3.0, 10.0, 30.0, 100.0],
    };
    let mut table = Table::new(&[
        "t_min",
        "final_acc",
        "energy/fp32",
        "memory/fp32",
        "mean_bits_final",
    ]);
    for &t_min in t_mins {
        eprintln!("training APT with T_min = {t_min}...");
        let r = run_baseline(
            &BaselineSpec::apt(t_min, f64::INFINITY),
            |scheme, rng| models::resnet20(10, params.width_mult, scheme, rng),
            &data.train,
            &data.test,
            &params.train_config(),
            params.seed,
        )
        .expect("training");
        let last = r.epochs.last().expect("epochs");
        let mean_bits = last.layer_bits.iter().map(|&(_, b)| b as f64).sum::<f64>()
            / last.layer_bits.len().max(1) as f64;
        table.push_row(vec![
            format!("{t_min}"),
            pct(r.final_accuracy),
            format!("{:.3}", r.total_energy_pj / e_ref),
            format!("{:.3}", r.peak_memory_bits as f64 / m_ref),
            format!("{mean_bits:.2}"),
        ]);
    }
    println!("{table}");
    write_output(false, "results/fig5.csv", &table.to_csv());
    println!(
        "shape check: all three columns rise with T_min; accuracy gains flatten past T_min≈1\n\
         while energy keeps rising — the paper's trade-off knob."
    );
}
