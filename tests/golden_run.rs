//! Bit-identity tripwire for performance work on the training step.
//!
//! Nine short runs cross both model families with every rounding mode and
//! every parameter-store kind (all three `CodeStore` tiers), Algorithm 1
//! active, and pin what each run ends with: the CRC-32 and length of
//! `save_full`, a fold of every velocity bit, the per-epoch `train_loss`
//! bits and the final `layer_bits`. A change to the optimiser, the code
//! store, the checkpoint writer or a kernel under forward/backward that
//! moves a single trained bit fails here.
//!
//! The values were recorded at commit 6aa81c8 (PR 17). They are not
//! expectations to refresh: a PR that claims "every trained bit unchanged"
//! must pass with them as they stand.

use apt::core::{IntegrityConfig, PolicyConfig, SentinelConfig, TrainConfig, Trainer};
use apt::data::{SynthCifar, SynthCifarConfig};
use apt::nn::{checkpoint, models, Network, QuantScheme};
use apt::optim::{LrSchedule, SgdConfig};
use apt::quant::{Bitwidth, RoundingMode};
use apt::tensor::rng;

const EPOCHS: usize = 8;

#[derive(Clone, Copy, Debug)]
enum Model {
    /// `mlp([192, 37, 4])`: 7104- and 148-element weights, so the packed
    /// tier ends mid-word and the `i8` tier mid-`u64`.
    Mlp,
    /// `cifarnet(4, 8, 0.25)`: conv + batch-norm + linear.
    CifarNet,
}

struct Run {
    name: &'static str,
    model: Model,
    scheme: fn() -> QuantScheme,
    sgd: SgdConfig,
    policy: (f64, f64),
    /// Sentinel and integrity guard armed (both are passive on clean runs).
    guarded: bool,
}

/// What a finished run is pinned by.
#[derive(Debug, PartialEq, Eq)]
struct Golden {
    crc: u32,
    len: usize,
    velocity_fold: u64,
    loss_bits: [u64; EPOCHS],
    layer_bits: &'static [(&'static str, u32)],
}

fn b(k: u32) -> Bitwidth {
    Bitwidth::new(k).expect("valid bitwidth")
}

fn sgd(rounding: RoundingMode, momentum: f32, weight_decay: f32, clip: Option<f32>) -> SgdConfig {
    SgdConfig {
        momentum,
        weight_decay,
        rounding,
        clip_grad_norm: clip,
    }
}

fn runs() -> Vec<Run> {
    use RoundingMode::{Nearest, Stochastic, Truncate};
    vec![
        Run {
            name: "mlp/truncate/paper_apt",
            model: Model::Mlp,
            scheme: QuantScheme::paper_apt,
            sgd: sgd(Truncate, 0.9, 1e-4, None),
            policy: (6.0, f64::INFINITY),
            guarded: true,
        },
        Run {
            name: "cifarnet/truncate/paper_apt",
            model: Model::CifarNet,
            scheme: QuantScheme::paper_apt,
            sgd: sgd(Truncate, 0.9, 1e-4, None),
            policy: (6.0, f64::INFINITY),
            guarded: false,
        },
        Run {
            name: "mlp/nearest/fully_quantized(4)",
            model: Model::Mlp,
            scheme: || QuantScheme::fully_quantized(b(4)),
            sgd: sgd(Nearest, 0.9, 1e-4, Some(1.0)),
            policy: (6.0, f64::INFINITY),
            guarded: false,
        },
        Run {
            name: "cifarnet/stochastic/fully_quantized(4)",
            model: Model::CifarNet,
            scheme: || QuantScheme::fully_quantized(b(4)),
            sgd: sgd(Stochastic, 0.9, 1e-4, None),
            policy: (2.0, 40.0),
            guarded: false,
        },
        Run {
            name: "mlp/stochastic/fixed(20)",
            model: Model::Mlp,
            scheme: || QuantScheme::fixed(b(20)),
            sgd: sgd(Stochastic, 0.0, 1e-4, None),
            policy: (6.0, 4000.0),
            guarded: false,
        },
        Run {
            name: "cifarnet/nearest/per_channel(6)",
            model: Model::CifarNet,
            scheme: || QuantScheme::per_channel(b(6)),
            sgd: sgd(Nearest, 0.9, 0.0, None),
            policy: (6.0, f64::INFINITY),
            guarded: false,
        },
        Run {
            name: "mlp/truncate/per_channel(6)",
            model: Model::Mlp,
            scheme: || QuantScheme::per_channel(b(6)),
            sgd: sgd(Truncate, 0.9, 1e-4, Some(0.5)),
            policy: (6.0, f64::INFINITY),
            guarded: false,
        },
        Run {
            name: "cifarnet/truncate/master_copy(8)",
            model: Model::CifarNet,
            scheme: || QuantScheme::master_copy(b(8)),
            sgd: sgd(Truncate, 0.9, 1e-4, None),
            policy: (6.0, f64::INFINITY),
            guarded: false,
        },
        Run {
            name: "mlp/stochastic/float32",
            model: Model::Mlp,
            scheme: QuantScheme::float32,
            sgd: sgd(Stochastic, 0.9, 1e-4, Some(1.0)),
            policy: (6.0, f64::INFINITY),
            guarded: false,
        },
    ]
}

fn data() -> SynthCifar {
    SynthCifar::generate(&SynthCifarConfig {
        num_classes: 4,
        train_per_class: 40,
        test_per_class: 6,
        img_size: 8,
        seed: 5,
        ..Default::default()
    })
    .expect("dataset")
}

fn net(model: Model, scheme: &QuantScheme) -> Network {
    let r = &mut rng::seeded(11);
    match model {
        Model::Mlp => models::mlp("mlp", &[192, 37, 4], scheme, r),
        Model::CifarNet => models::cifarnet(4, 8, 0.25, scheme, r),
    }
    .expect("model")
}

/// The run's outcome in the shape of a [`Golden`], `layer_bits` owned.
type Outcome = (u32, usize, u64, [u64; EPOCHS], Vec<(String, u32)>);

fn execute(run: &Run, data: &SynthCifar) -> Outcome {
    let cfg = TrainConfig {
        epochs: EPOCHS,
        batch_size: 16,
        schedule: LrSchedule::Constant(0.05),
        sgd: run.sgd,
        policy: Some(PolicyConfig::new(run.policy.0, run.policy.1).expect("policy")),
        interval: 2,
        seed: 13,
        sentinel: run.guarded.then(|| SentinelConfig {
            spike_factor: 50.0,
            ..SentinelConfig::default()
        }),
        integrity: run.guarded.then(IntegrityConfig::default),
        threads: Some(1),
        ..TrainConfig::default()
    };
    let mut trainer = Trainer::new(net(run.model, &(run.scheme)()), cfg).expect("trainer");
    let report = trainer.train(&data.train, &data.test).expect("train");
    assert!(report.integrity.is_clean(), "{}", run.name);
    let mut loss_bits = [0u64; EPOCHS];
    for (slot, e) in loss_bits.iter_mut().zip(&report.epochs) {
        *slot = e.train_loss.to_bits();
    }
    let layer_bits = report.epochs.last().expect("epochs").layer_bits.clone();
    // Every velocity bit of every parameter, in visit order; a parameter
    // without a buffer folds a marker instead.
    let mut fold = 0xcbf2_9ce4_8422_2325u64;
    let mut absorb = |w: u64| fold = (fold ^ w).wrapping_mul(0x100_0000_01b3).rotate_left(23);
    trainer
        .network()
        .visit_params_ref(&mut |p| match p.velocity() {
            None => absorb(u64::MAX),
            Some(v) => v.data().iter().for_each(|x| absorb(u64::from(x.to_bits()))),
        });
    let blob = checkpoint::save_full(trainer.network_mut());
    (
        checkpoint::crc32(&blob),
        blob.len(),
        fold,
        loss_bits,
        layer_bits,
    )
}

#[test]
fn nine_run_matrix_reproduces_the_recorded_bits() {
    let data = data();
    let runs = runs();
    assert_eq!(runs.len(), GOLDEN.len());
    let mut actual = String::new();
    let mut moved = Vec::new();
    for (run, golden) in runs.iter().zip(&GOLDEN) {
        let (crc, len, velocity_fold, loss_bits, layer_bits) = execute(run, &data);
        let same = crc == golden.crc
            && len == golden.len
            && velocity_fold == golden.velocity_fold
            && loss_bits == golden.loss_bits
            && layer_bits
                .iter()
                .map(|(n, k)| (n.as_str(), *k))
                .eq(golden.layer_bits.iter().copied());
        if !same {
            moved.push(run.name);
        }
        let losses: Vec<String> = loss_bits.iter().map(|l| format!("{l:#018X}")).collect();
        actual.push_str(&format!(
            "    // {}\n    Golden {{\n        crc: {crc:#010X},\n        len: {len},\n        \
             velocity_fold: {velocity_fold:#018X},\n        loss_bits: [{}],\n        \
             layer_bits: &{layer_bits:?},\n    }},\n",
            run.name,
            losses.join(", ")
        ));
    }
    assert!(
        moved.is_empty(),
        "trained bits moved in {moved:?}; this build produces:\n{actual}"
    );
}

/// Recorded at 6aa81c8; see the module docs before editing.
const GOLDEN: [Golden; 9] = [
    // mlp/truncate/paper_apt
    Golden {
        crc: 0xBA1C204F,
        len: 8452,
        velocity_fold: 0xF44018A66B569976,
        loss_bits: [
            0x3FFA75B20CCCCCCD,
            0x3FF8D63D6999999A,
            0x3FF55A7320000000,
            0x3FF4DF7CE0000000,
            0x3FF24261CCCCCCCD,
            0x3FEF96C76999999A,
            0x3FF14F6410000000,
            0x3FECCF861CCCCCCD,
        ],
        layer_bits: &[("fc0.weight", 9), ("fc1.weight", 8)],
    },
    // cifarnet/truncate/paper_apt
    Golden {
        crc: 0x9573402A,
        len: 5632,
        velocity_fold: 0xC23574A3A3A2C4AD,
        loss_bits: [
            0x4001C29DD6666666,
            0x3FF5C05DECCCCCCD,
            0x3FF3EB9AF6666666,
            0x3FEF031E1999999A,
            0x3FE7AA489999999A,
            0x3FE8DDD1C3333333,
            0x3FE07E8BD0CCCCCD,
            0x3FDE3971AE666666,
        ],
        layer_bits: &[
            ("conv1.weight", 9),
            ("conv2.weight", 10),
            ("fc1.weight", 11),
            ("fc2.weight", 10),
        ],
    },
    // mlp/nearest/fully_quantized(4)
    Golden {
        crc: 0x7CC8EB3C,
        len: 8346,
        velocity_fold: 0x856F10C6BBA04067,
        loss_bits: [
            0x3FFADF57F0000000,
            0x3FF9CBC77CCCCCCD,
            0x3FF82AF143333333,
            0x3FF6BFBBE999999A,
            0x3FF50CBFF6666666,
            0x3FF291C9F6666666,
            0x3FF32B0470000000,
            0x3FF1688E5999999A,
        ],
        layer_bits: &[("fc0.weight", 9), ("fc1.weight", 8)],
    },
    // cifarnet/stochastic/fully_quantized(4)
    Golden {
        crc: 0xC0D74EAC,
        len: 4822,
        velocity_fold: 0x061264608B842FA3,
        loss_bits: [
            0x3FFF4E6340000000,
            0x3FF54FC9B0000000,
            0x3FF39E381999999A,
            0x3FEC99ED2999999A,
            0x3FEE32FDA999999A,
            0x3FE4B46ACE666666,
            0x3FE212CED6666666,
            0x3FE61123E8000000,
        ],
        layer_bits: &[
            ("conv1.weight", 8),
            ("conv2.weight", 8),
            ("fc1.weight", 10),
            ("fc2.weight", 8),
        ],
    },
    // mlp/stochastic/fixed(20)
    Golden {
        crc: 0x1DF84FA8,
        len: 15684,
        velocity_fold: 0x7042A71391514774,
        loss_bits: [
            0x3FF9F03CCCCCCCCD,
            0x3FF8E429D0000000,
            0x3FF6E4CEB0000000,
            0x3FF7815FB6666666,
            0x3FF686FF60000000,
            0x3FF50D5876666666,
            0x3FF5CB3B2CCCCCCD,
            0x3FF4307526666666,
        ],
        layer_bits: &[("fc0.weight", 17), ("fc1.weight", 15)],
    },
    // cifarnet/nearest/per_channel(6)
    Golden {
        crc: 0xD148D015,
        len: 6320,
        velocity_fold: 0x9AEB0ABF9A6BD6C6,
        loss_bits: [
            0x3FFF8D29BCCCCCCD,
            0x3FF575A803333333,
            0x3FF2FFC266666666,
            0x3FEC1AE2B999999A,
            0x3FE67866A4CCCCCD,
            0x3FE6269BBB333333,
            0x3FD969DD94CCCCCD,
            0x3FE2071DA6CCCCCD,
        ],
        layer_bits: &[
            ("conv1.weight", 9),
            ("conv2.weight", 10),
            ("fc1.weight", 11),
            ("fc2.weight", 10),
        ],
    },
    // mlp/truncate/per_channel(6)
    Golden {
        crc: 0x0E316DDB,
        len: 8912,
        velocity_fold: 0x8812E964724BD900,
        loss_bits: [
            0x3FFB059FF6666666,
            0x3FFA333D6CCCCCCD,
            0x3FF91B610CCCCCCD,
            0x3FF8A46FF3333333,
            0x3FF7A4026999999A,
            0x3FF60E51B6666666,
            0x3FF69CC4A0000000,
            0x3FF47D6A8CCCCCCD,
        ],
        layer_bits: &[("fc0.weight", 9), ("fc1.weight", 7)],
    },
    // cifarnet/truncate/master_copy(8)
    Golden {
        crc: 0x74B606FC,
        len: 15096,
        velocity_fold: 0xFAA006C15422C027,
        loss_bits: [
            0x3FFEFD2FB3333333,
            0x3FF56E21F6666666,
            0x3FF3034263333333,
            0x3FEE0E2016666666,
            0x3FEDB94AE6666666,
            0x3FEDF36E10000000,
            0x3FE805C6ACCCCCCD,
            0x3FE0B81E2599999A,
        ],
        layer_bits: &[
            ("conv1.weight", 8),
            ("conv2.weight", 8),
            ("fc1.weight", 8),
            ("fc2.weight", 8),
        ],
    },
    // mlp/stochastic/float32
    Golden {
        crc: 0x95CE9BC9,
        len: 29290,
        velocity_fold: 0xE5BBC95D7B092E08,
        loss_bits: [
            0x3FF9DEA283333333,
            0x3FF723EC33333333,
            0x3FF3E906A6666666,
            0x3FF4434AA999999A,
            0x3FF1158EC0000000,
            0x3FEE5EA990000000,
            0x3FF06AB7D0000000,
            0x3FE8E4F99999999A,
        ],
        layer_bits: &[],
    },
];
