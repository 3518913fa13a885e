//! Train → ship → resume: the deployment loop an edge fleet needs.
//!
//! ```bash
//! cargo run --release --example deploy_checkpoint
//! ```
//!
//! Trains a model with APT, saves it **at its adapted per-layer bitwidths**
//! (integer codes, no fp32 anywhere), "ships" the blob into a frozen
//! [`InferenceSession`] (the serving runtime's loader), checks it against
//! the trained network, then resumes in-situ training from the same
//! checkpoint — the paper's §I scenario of a device that "has to learn
//! in-situ frequently after deployment".

use apt::core::{PolicyConfig, TrainConfig, Trainer};
use apt::data::{SynthCifar, SynthCifarConfig};
use apt::nn::{checkpoint, models, Mode, QuantScheme};
use apt::optim::LrSchedule;
use apt::serve::{InferenceSession, ModelArch, ModelSpec};
use apt::tensor::{rng, Tensor};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let data = SynthCifar::generate(&SynthCifarConfig {
        num_classes: 10,
        train_per_class: 50,
        test_per_class: 15,
        img_size: 12,
        seed: 41,
        ..Default::default()
    })?;

    // Phase 1: train with APT "at the factory".
    let net = models::cifarnet(10, 12, 0.25, &QuantScheme::paper_apt(), &mut rng::seeded(1))?;
    let cfg = TrainConfig {
        epochs: 12,
        batch_size: 32,
        schedule: LrSchedule::paper_cifar10(12),
        policy: Some(PolicyConfig::paper_default()),
        seed: 2,
        ..Default::default()
    };
    let mut trainer = Trainer::new(net, cfg.clone())?;
    let report = trainer.train(&data.train, &data.test)?;
    println!(
        "factory training: {:.1}% accuracy, adapted bits: {:?}",
        100.0 * report.final_accuracy,
        trainer.layer_bits()
    );

    // Phase 2: checkpoint at the adapted precision.
    let mut trained = trainer.into_network();
    let blob = checkpoint::save_full(&mut trained);
    let fp32_equiv = trained.num_params() * 4;
    println!(
        "checkpoint: {} bytes on flash ({} bytes would hold the fp32 weights alone)",
        blob.len(),
        fp32_equiv
    );

    // Phase 3: "ship" — the device loads the blob into a frozen inference
    // session (exactly what `apt serve` does). The plan folds each batch
    // norm into the convolution before it, which reassociates float
    // products: it agrees with the trainer's eval forward within 1e-4 of
    // each row's largest logit (at least 1), and bit-exactly only on a
    // network without batch norm. One request alone and the same request
    // in a batch run the same plan, so those two must match bit-exactly.
    let spec = ModelSpec {
        arch: ModelArch::Cifarnet,
        classes: 10,
        img_size: 12,
        width_mult: 0.25,
    };
    let session = InferenceSession::from_checkpoint(&spec, &blob)?;
    let (n, outputs) = (4, session.num_outputs());
    let mut input = Vec::with_capacity(n * session.sample_len());
    for i in 0..n {
        input.extend_from_slice(data.test.image(i).data());
    }
    let mut batch = vec![0.0; n * outputs];
    session.infer_into(&input, n, &mut batch)?;
    let eval = trained.forward(
        &Tensor::from_vec(input.clone(), &[n, 3, 12, 12])?,
        Mode::Eval,
    )?;
    let mut worst = 0.0f32;
    for (want, got) in eval.data().chunks(outputs).zip(batch.chunks(outputs)) {
        let scale = want.iter().fold(1.0f32, |m, v| m.max(v.abs()));
        for (e, g) in want.iter().zip(got) {
            worst = worst.max((e - g).abs() / scale);
        }
    }
    assert!(
        worst <= 1e-4,
        "shipped model must match eval within 1e-4 relative, off by {worst:e}"
    );
    for (sample, row) in input
        .chunks(session.sample_len())
        .zip(batch.chunks(outputs))
    {
        assert_eq!(
            session.infer_one(sample)?,
            row,
            "single-sample path matches the batch path bit-exactly"
        );
    }
    println!(
        "shipped model verified in the serving session: within {worst:.1e} of eval \
         (bound 1e-4 relative), single-sample path bit-exact with the batch path \
         ({} resident bytes, {} outputs)",
        session.network().resident_bytes(),
        outputs
    );

    // Phase 4: resume learning in-situ on the device's own (shifted) data.
    // Training needs a mutable network, so load the same blob once more.
    let mut device = models::cifarnet(
        10,
        12,
        0.25,
        &QuantScheme::paper_apt(),
        &mut rng::seeded(99),
    )?;
    checkpoint::load(&mut device, &blob)?;
    let local = SynthCifar::generate(&SynthCifarConfig {
        num_classes: 10,
        train_per_class: 20,
        test_per_class: 10,
        img_size: 12,
        seed: 43, // different environment
        ..Default::default()
    })?;
    let mut onboard = Trainer::new(
        device,
        TrainConfig {
            epochs: 6,
            schedule: LrSchedule::Constant(0.01),
            ..cfg
        },
    )?;
    let before = onboard.evaluate(&local.test)?;
    let resumed = onboard.train(&local.train, &local.test)?;
    println!(
        "in-situ adaptation on new environment: {:.1}% -> {:.1}% using {:.1} µJ",
        100.0 * before,
        100.0 * resumed.final_accuracy,
        resumed.total_energy_pj / 1e6
    );
    Ok(())
}
