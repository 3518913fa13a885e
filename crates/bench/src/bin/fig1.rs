//! Figure 1 — Gavg vs. epoch for two layers under APT (`T_min = 1.0`,
//! `T_max = ∞`, per the paper's demo).
//!
//! The paper's narrative: layer A starts *below* the threshold (it suffers
//! quantisation underflow) and APT allocates bitwidth to lift it above
//! `T_min`; layer B starts comfortably high and drifts down onto the
//! threshold as the loss falls, getting a bit whenever it touches it.
//!
//! Regenerate with `cargo run --release -p apt-bench --bin fig1 -- --scale small`.

use apt_baselines::{run_baseline, BaselineSpec};
use apt_bench::{parse_cli, write_output};
use apt_metrics::Table;
use apt_nn::models;

fn main() {
    let params = parse_cli();
    println!(
        "# Figure 1: Gavg vs epoch (T_min = 1.0), scale={}",
        params.scale
    );
    let data = params.synth10().expect("dataset generation");
    let spec = BaselineSpec::apt(1.0, f64::INFINITY);
    let mut cfg = params.train_config();
    cfg.policy = spec.policy().copied();
    let report = run_baseline(
        &spec,
        |scheme, rng| models::cifarnet(10, params.img_size, params.width_mult, scheme, rng),
        &data.train,
        &data.test,
        &cfg,
        params.seed,
    )
    .expect("training");

    // Pick layer A = lowest initial Gavg, layer B = highest initial Gavg.
    let first = &report.epochs[0].gavg;
    assert!(first.len() >= 2, "need at least two profiled layers");
    let a = first
        .iter()
        .min_by(|x, y| x.1.total_cmp(&y.1))
        .expect("nonempty")
        .0
        .clone();
    let b = first
        .iter()
        .max_by(|x, y| x.1.total_cmp(&y.1))
        .expect("nonempty")
        .0
        .clone();

    let mut table = Table::new(&[
        "epoch",
        &format!("gavg[A={a}]"),
        "bits[A]",
        &format!("gavg[B={b}]"),
        "bits[B]",
    ]);
    let lookup = |v: &[(String, f64)], k: &str| {
        v.iter()
            .find(|(n, _)| n == k)
            .map(|&(_, g)| g)
            .unwrap_or(f64::NAN)
    };
    let lookup_bits =
        |v: &[(String, u32)], k: &str| v.iter().find(|(n, _)| n == k).map(|&(_, g)| g).unwrap_or(0);
    for e in &report.epochs {
        table.push_row(vec![
            e.epoch.to_string(),
            format!("{:.4}", lookup(&e.gavg, &a)),
            lookup_bits(&e.layer_bits, &a).to_string(),
            format!("{:.4}", lookup(&e.gavg, &b)),
            lookup_bits(&e.layer_bits, &b).to_string(),
        ]);
    }
    println!("{table}");
    write_output(false, "results/fig1.csv", &table.to_csv());
    println!(
        "final accuracy {:.1}% | shape check: APT raises bitwidth wherever Gavg < T_min",
        100.0 * report.final_accuracy
    );
}
