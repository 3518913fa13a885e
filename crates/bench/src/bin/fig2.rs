//! Figure 2 — Test accuracy vs. epoch for ResNet-20 on the CIFAR-10
//! analogue, four arms: fp32, 16-bit, 8-bit, APT (init 6-bit, `T_min=6`).
//!
//! Paper shape: fp32 and 16-bit climb fastest; 8-bit stalls (model-wide
//! Gavg collapse); APT starts lowest but overtakes 8-bit and catches the
//! high-precision arms by adapting layer-wise bitwidth.
//!
//! Regenerate with `cargo run --release -p apt-bench --bin fig2 -- --scale small`.

use apt_baselines::{run_baseline, BaselineSpec};
use apt_bench::{parse_cli, pct, write_output};
use apt_metrics::Table;
use apt_nn::models;
use apt_quant::Bitwidth;

fn main() {
    let params = parse_cli();
    println!(
        "# Figure 2: test accuracy vs epoch, ResNet-20, scale={}",
        params.scale
    );
    let data = params.synth10().expect("dataset generation");
    let arms = vec![
        BaselineSpec::fp32(),
        BaselineSpec::fixed(Bitwidth::new(16).expect("16 valid")),
        BaselineSpec::fixed(Bitwidth::new(8).expect("8 valid")),
        BaselineSpec::apt(6.0, f64::INFINITY),
    ];
    let mut curves = Vec::new();
    for spec in &arms {
        eprintln!("training arm `{}`...", spec.name());
        let report = run_baseline(
            spec,
            |scheme, rng| models::resnet20(10, params.width_mult, scheme, rng),
            &data.train,
            &data.test,
            &params.train_config(),
            params.seed,
        )
        .expect("training");
        curves.push((spec.name().to_string(), report));
    }

    let mut cols: Vec<String> = vec!["epoch".into()];
    cols.extend(curves.iter().map(|(n, _)| format!("acc[{n}]")));
    let col_refs: Vec<&str> = cols.iter().map(String::as_str).collect();
    let mut table = Table::new(&col_refs);
    for epoch in 0..params.epochs {
        let mut row = vec![epoch.to_string()];
        for (_, r) in &curves {
            row.push(format!("{:.4}", r.epochs[epoch].test_accuracy));
        }
        table.push_row(row);
    }
    println!("{table}");
    write_output(false, "results/fig2.csv", &table.to_csv());

    println!("\nfinal accuracies:");
    for (name, r) in &curves {
        println!("  {name:<12} {}", pct(r.final_accuracy));
    }
}
