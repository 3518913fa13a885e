//! Table I — comparison of network quantisation methods: model precision
//! in BPROP, optimiser, and accuracy on the CIFAR-10/100 analogues.
//!
//! Paper shape: methods keeping an fp32 master copy (BNN/TWN/TTQ/DoReFa/
//! TernGrad) save no training memory; WAGE trains at 8-bit; APT trains at
//! *adaptive* precision with plain SGD and stays accuracy-competitive while
//! using less model memory than fp32. The extra "train-mem/fp32" column
//! makes the paper's §IV-C structural argument measurable.
//!
//! Regenerate with `cargo run --release -p apt-bench --bin table1 -- --scale small`.

use apt_baselines::{run_baseline, BaselineSpec};
use apt_bench::{parse_cli, pct, write_output};
use apt_metrics::Table;
use apt_nn::models;
use apt_quant::Bitwidth;

fn main() {
    let params = parse_cli();
    println!(
        "# Table I: quantisation method comparison, scale={}",
        params.scale
    );
    let d10 = params.synth10().expect("dataset generation");
    let d100 = params.synth100().expect("dataset generation");

    let arms: Vec<BaselineSpec> = vec![
        BaselineSpec::bnn(),
        BaselineSpec::twn(),
        BaselineSpec::ttq(),
        BaselineSpec::dorefa(
            Bitwidth::new(8).expect("8 valid"),
            Bitwidth::new(8).expect("8 valid"),
        ),
        BaselineSpec::terngrad(),
        BaselineSpec::wage(),
        BaselineSpec::fp32(),
        BaselineSpec::apt(6.0, f64::INFINITY),
    ];

    // fp32 reference memory for the structural column.
    eprintln!("measuring fp32 reference memory...");
    let fp32_mem = run_baseline(
        &BaselineSpec::fp32(),
        |scheme, rng| models::resnet20(10, params.width_mult, scheme, rng),
        &d10.train,
        &d10.test,
        &{
            let mut c = params.train_config();
            c.epochs = 1;
            c
        },
        params.seed,
    )
    .expect("training")
    .peak_memory_bits as f64;

    let mut table = Table::new(&[
        "method",
        "bprop precision",
        "optimizer",
        "synth10 (ResNet-20)",
        "synth100 (ResNet-20)",
        "train-mem/fp32",
    ]);
    for spec in &arms {
        eprintln!("training `{}` on synth10...", spec.name());
        let r10 = run_baseline(
            spec,
            |scheme, rng| models::resnet20(10, params.width_mult, scheme, rng),
            &d10.train,
            &d10.test,
            &params.train_config(),
            params.seed,
        )
        .expect("training");
        // The paper reports CIFAR-100 only for TWN/DoReFa/APT; we mirror
        // that selection to keep the run time bounded.
        let acc100 = if ["twn", "dorefa-w8g8", "apt"].contains(&spec.name()) {
            eprintln!("training `{}` on synth100...", spec.name());
            let r100 = run_baseline(
                spec,
                |scheme, rng| models::resnet20(100, params.width_mult, scheme, rng),
                &d100.train,
                &d100.test,
                &params.train_config(),
                params.seed,
            )
            .expect("training");
            pct(r100.final_accuracy)
        } else {
            "NA".into()
        };
        table.push_row(vec![
            spec.name().to_string(),
            spec.bprop_precision(),
            spec.optimizer_name().into(),
            pct(r10.final_accuracy),
            acc100,
            format!("{:.2}", r10.peak_memory_bits as f64 / fp32_mem),
        ]);
    }

    // The paper also reports APT on MobileNetV2 for CIFAR-10.
    eprintln!("training `apt` on synth10 with MobileNetV2...");
    let apt = BaselineSpec::apt(6.0, f64::INFINITY);
    let mobile = run_baseline(
        &apt,
        |scheme, rng| models::mobilenet_v2(10, params.width_mult, scheme, rng),
        &d10.train,
        &d10.test,
        &params.train_config(),
        params.seed,
    )
    .expect("training");
    table.push_row(vec![
        "apt (MobileNetV2)".into(),
        "Adaptive".into(),
        "SGD".into(),
        pct(mobile.final_accuracy),
        "NA".into(),
        String::new(),
    ]);

    println!("{table}");
    write_output(false, "results/table1.csv", &table.to_csv());
    println!(
        "shape check: every fp32-master method shows train-mem/fp32 > 1.0; APT < 1.0 with\n\
         competitive accuracy under plain SGD."
    );
}
