//! Ablations of APT's design choices (DESIGN.md §4):
//!
//! 1. **Gavg sampling interval** (Algorithm 2's `INTERVAL`) — coarser
//!    profiles are cheaper but noisier.
//! 2. **Initial bitwidth** — §IV-A claims starting points other than 6
//!    reach similar results because the policy finds its own level.
//! 3. **EMA factor** for Gavg smoothing.
//! 4. **Finite `T_max`** — enables precision *reduction* for easy layers.
//! 5. **Rounding mode** of the Eq. 3 update (truncate vs nearest vs
//!    stochastic à la Gupta et al. \[3\]).
//!
//! Regenerate with `cargo run --release -p apt-bench --bin ablations -- --scale small`.

use apt_baselines::{run_baseline, BaselineSpec};
use apt_bench::{parse_cli, pct, write_output, ExpParams};
use apt_core::{PolicyConfig, TrainConfig, Trainer};
use apt_metrics::Table;
use apt_nn::{models, QuantScheme};
use apt_quant::{Bitwidth, RoundingMode};
use apt_tensor::rng as trng;

fn run_apt(
    params: &ExpParams,
    data: &apt_data::SynthCifar,
    mutate: impl FnOnce(&mut TrainConfig),
    scheme: &QuantScheme,
) -> apt_core::TrainReport {
    let mut cfg = params.train_config();
    cfg.policy = Some(PolicyConfig::paper_default());
    mutate(&mut cfg);
    let mut rng = trng::substream(params.seed, 0xAB1A);
    let net =
        models::cifarnet(10, params.img_size, params.width_mult, scheme, &mut rng).expect("model");
    let mut trainer = Trainer::new(net, cfg).expect("trainer");
    trainer.train(&data.train, &data.test).expect("training")
}

fn main() {
    let params = parse_cli();
    println!("# Ablations (CifarNet backbone), scale={}", params.scale);
    let data = params.synth10().expect("dataset generation");
    let paper = QuantScheme::paper_apt();
    let mut table = Table::new(&["ablation", "setting", "final_acc", "energy_pj", "mean_bits"]);

    let mut push = |group: &str, setting: String, r: &apt_core::TrainReport| {
        let last = r.epochs.last().expect("epochs");
        let mean_bits = last.layer_bits.iter().map(|&(_, b)| b as f64).sum::<f64>()
            / last.layer_bits.len().max(1) as f64;
        table.push_row(vec![
            group.to_string(),
            setting,
            pct(r.final_accuracy),
            format!("{:.3e}", r.total_energy_pj),
            format!("{mean_bits:.2}"),
        ]);
    };

    // 1. Gavg sampling interval.
    for interval in [1usize, 4, 16] {
        let r = run_apt(&params, &data, |c| c.interval = interval, &paper);
        push("interval", interval.to_string(), &r);
    }

    // 2. Initial bitwidth (policy finds its own level — §IV-A).
    for init in [2u32, 4, 6, 8, 10] {
        let scheme = QuantScheme::fixed(Bitwidth::new(init).expect("valid bits"));
        let r = run_apt(&params, &data, |_| {}, &scheme);
        push("init_bits", init.to_string(), &r);
    }

    // 3. EMA smoothing factor.
    for alpha in [0.1f64, 0.3, 1.0] {
        let r = run_apt(&params, &data, |c| c.ema_alpha = alpha, &paper);
        push("ema_alpha", alpha.to_string(), &r);
    }

    // 4. Finite T_max: allow shedding precision on easy layers.
    for t_max in [f64::INFINITY, 100.0, 30.0] {
        let r = run_apt(
            &params,
            &data,
            |c| c.policy = Some(PolicyConfig { t_min: 6.0, t_max }),
            &paper,
        );
        push("t_max", format!("{t_max}"), &r);
    }

    // 5. Rounding mode of the quantised update.
    for mode in [
        RoundingMode::Truncate,
        RoundingMode::Nearest,
        RoundingMode::Stochastic,
    ] {
        let r = run_apt(&params, &data, |c| c.sgd.rounding = mode, &paper);
        push("rounding", mode.to_string(), &r);
    }

    // 6. Range calibration: the paper's per-tensor (S, Z) vs the
    //    per-output-channel refinement of Krishnamoorthi [13].
    for (label, scheme) in [
        ("per-tensor", QuantScheme::paper_apt()),
        (
            "per-channel",
            QuantScheme::per_channel(Bitwidth::PAPER_INITIAL),
        ),
    ] {
        let r = run_apt(&params, &data, |_| {}, &scheme);
        push("calibration", label.to_string(), &r);
    }

    // Reference arm for context.
    let fp32 = run_baseline(
        &BaselineSpec::fp32(),
        |scheme, rng| models::cifarnet(10, params.img_size, params.width_mult, scheme, rng),
        &data.train,
        &data.test,
        &params.train_config(),
        params.seed,
    )
    .expect("training");
    push("reference", "fp32".into(), &fp32);

    println!("{table}");
    write_output(false, "results/ablations.csv", &table.to_csv());
}
