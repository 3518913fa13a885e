//! Figure 3 — Layer-wise bitwidth vs. epoch under APT for ResNet-20 (the
//! APT arm of Figure 2; the paper shows four of the twenty weight layers
//! for clarity).
//!
//! Paper shape: all layers start at 6 bits; layers gain precision at
//! different times as their Gavg hits `T_min`; the first and last layers
//! climb highest (the paper reports ~13 bits by the post-decay epochs).
//!
//! Regenerate with `cargo run --release -p apt-bench --bin fig3 -- --scale small`.

use apt_baselines::{run_baseline, BaselineSpec};
use apt_bench::{parse_cli, write_output};
use apt_metrics::Table;
use apt_nn::models;

fn main() {
    let params = parse_cli();
    println!(
        "# Figure 3: layer-wise bitwidth vs epoch, APT ResNet-20, scale={}",
        params.scale
    );
    let data = params.synth10().expect("dataset generation");
    let spec = BaselineSpec::apt(6.0, f64::INFINITY);
    let report = run_baseline(
        &spec,
        |scheme, rng| models::resnet20(10, params.width_mult, scheme, rng),
        &data.train,
        &data.test,
        &params.train_config(),
        params.seed,
    )
    .expect("training");

    // The paper plots 4 layers: first conv, an early-stage conv, a
    // late-stage conv, and the final classifier.
    let all: Vec<String> = report.epochs[0]
        .layer_bits
        .iter()
        .map(|(n, _)| n.clone())
        .collect();
    let pick =
        |pred: &dyn Fn(&str) -> bool| -> Option<String> { all.iter().find(|n| pred(n)).cloned() };
    let mut chosen: Vec<String> = Vec::new();
    for cand in [
        pick(&|n| n.starts_with("stem")),
        pick(&|n| n.contains("stage1.block0.conv1")),
        pick(&|n| n.contains("stage3.block0.conv1")),
        pick(&|n| n.contains("head.fc")),
    ]
    .into_iter()
    .flatten()
    {
        if !chosen.contains(&cand) {
            chosen.push(cand);
        }
    }
    assert!(
        chosen.len() >= 2,
        "expected recognisable resnet layer names: {all:?}"
    );

    let mut cols: Vec<String> = vec!["epoch".into()];
    cols.extend(chosen.iter().map(|n| format!("bits[{n}]")));
    let col_refs: Vec<&str> = cols.iter().map(String::as_str).collect();
    let mut table = Table::new(&col_refs);
    for e in &report.epochs {
        let mut row = vec![e.epoch.to_string()];
        for name in &chosen {
            let bits = e
                .layer_bits
                .iter()
                .find(|(n, _)| n == name)
                .map(|&(_, b)| b)
                .unwrap_or(0);
            row.push(bits.to_string());
        }
        table.push_row(row);
    }
    println!("{table}");
    write_output(false, "results/fig3.csv", &table.to_csv());

    // Also dump every layer's trajectory for completeness.
    let mut full_cols: Vec<String> = vec!["epoch".into()];
    full_cols.extend(all.iter().cloned());
    let refs: Vec<&str> = full_cols.iter().map(String::as_str).collect();
    let mut full = Table::new(&refs);
    for e in &report.epochs {
        let mut row = vec![e.epoch.to_string()];
        for name in &all {
            let bits = e
                .layer_bits
                .iter()
                .find(|(n, _)| n == name)
                .map(|&(_, b)| b)
                .unwrap_or(0);
            row.push(bits.to_string());
        }
        full.push_row(row);
    }
    write_output(false, "results/fig3_all_layers.csv", &full.to_csv());

    let start: u32 = report.epochs[0].layer_bits.iter().map(|&(_, b)| b).sum();
    let end: u32 = report
        .epochs
        .last()
        .expect("epochs")
        .layer_bits
        .iter()
        .map(|&(_, b)| b)
        .sum();
    println!(
        "shape check: mean bits {:.2} → {:.2} (adaptive growth, layer-dependent timing)",
        start as f64 / all.len() as f64,
        end as f64 / all.len() as f64
    );
}
