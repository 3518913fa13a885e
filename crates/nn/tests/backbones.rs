//! Cross-cutting backbone tests: compute accounting, parameter naming
//! discipline, scheme coverage and train/eval semantics for every model in
//! the zoo.

use apt_nn::{checkpoint, models, Mode, Network, QuantScheme};
use apt_quant::Bitwidth;
use apt_tensor::rng::{normal, seeded};
use apt_tensor::Tensor;

fn zoo(scheme: &QuantScheme) -> Vec<(Network, Vec<usize>)> {
    let mut r = seeded(7);
    vec![
        (
            models::resnet20(10, 0.25, scheme, &mut r).unwrap(),
            vec![2, 3, 8, 8],
        ),
        (
            models::resnet(8, 10, 0.25, scheme, &mut r).unwrap(),
            vec![2, 3, 8, 8],
        ),
        (
            models::mobilenet_v2(10, 0.25, scheme, &mut r).unwrap(),
            vec![2, 3, 8, 8],
        ),
        (
            models::cifarnet(10, 8, 0.25, scheme, &mut r).unwrap(),
            vec![2, 3, 8, 8],
        ),
        (
            models::vgg_small(10, 8, 0.05, scheme, &mut r).unwrap(),
            vec![2, 3, 8, 8],
        ),
        (
            models::mlp("m", &[16, 8, 10], scheme, &mut r).unwrap(),
            vec![2, 16],
        ),
    ]
}

#[test]
fn visit_compute_totals_match_macs_last_forward() {
    for (mut net, dims) in zoo(&QuantScheme::float32()) {
        let x = normal(&dims, 1.0, &mut seeded(1));
        let _ = net.forward(&x, Mode::Train).unwrap();
        let mut total = 0u64;
        net.visit_compute(&mut |_, macs| total += macs);
        assert_eq!(
            total,
            net.macs_last_forward(),
            "{}: per-tensor MACs must sum to the network total",
            net.name()
        );
        assert!(total > 0, "{}", net.name());
    }
}

#[test]
fn parameter_names_are_unique_and_prefixed() {
    for (net, _) in zoo(&QuantScheme::paper_apt()) {
        let mut names = Vec::new();
        net.visit_params_ref(&mut |p| names.push(p.name().to_string()));
        let mut dedup = names.clone();
        dedup.sort();
        dedup.dedup();
        assert_eq!(
            dedup.len(),
            names.len(),
            "{}: duplicate param names",
            net.name()
        );
        // Every weight tensor has a compute record under the same name.
        let mut compute_names = Vec::new();
        net.visit_compute(&mut |n, _| compute_names.push(n.to_string()));
        for n in &compute_names {
            assert!(
                names.contains(n),
                "{}: compute name {n} not a param",
                net.name()
            );
        }
    }
}

#[test]
fn eval_is_deterministic_and_differs_from_train_stats() {
    for (mut net, dims) in zoo(&QuantScheme::float32()) {
        let x = normal(&dims, 1.0, &mut seeded(2));
        // Train once so BN statistics move, then eval twice.
        let _ = net.forward(&x, Mode::Train).unwrap();
        let a = net.forward(&x, Mode::Eval).unwrap();
        let b = net.forward(&x, Mode::Eval).unwrap();
        assert_eq!(
            a.data(),
            b.data(),
            "{}: eval must be deterministic",
            net.name()
        );
    }
}

#[test]
fn every_scheme_builds_every_backbone() {
    for scheme in [
        QuantScheme::float32(),
        QuantScheme::paper_apt(),
        QuantScheme::fixed(Bitwidth::new(12).unwrap()),
        QuantScheme::master_copy(Bitwidth::new(8).unwrap()),
        QuantScheme::fully_quantized(Bitwidth::new(8).unwrap()),
    ] {
        for (mut net, dims) in zoo(&scheme) {
            let x = normal(&dims, 1.0, &mut seeded(3));
            let y = net.forward(&x, Mode::Train).unwrap();
            assert_eq!(y.dims()[1], 10, "{}", net.name());
            net.backward(&Tensor::ones(y.dims())).unwrap();
            let mut with_grad = 0;
            net.visit_params_ref(&mut |p| with_grad += usize::from(p.grad().l2_norm() > 0.0));
            assert!(
                with_grad > 0,
                "{}: backward reached no parameter",
                net.name()
            );
        }
    }
}

#[test]
fn checkpoints_roundtrip_every_backbone() {
    for (mut net, dims) in zoo(&QuantScheme::paper_apt()) {
        let x = normal(&dims, 1.0, &mut seeded(4));
        let _ = net.forward(&x, Mode::Train).unwrap();
        let expected = net.forward(&x, Mode::Eval).unwrap();
        let blob = checkpoint::save_full(&mut net);
        // Rebuild the same architecture with different init and restore.
        let name = net.name().to_string();
        let mut fresh = match name.as_str() {
            "resnet20" => models::resnet20(10, 0.25, &QuantScheme::paper_apt(), &mut seeded(50)),
            "resnet8" => models::resnet(8, 10, 0.25, &QuantScheme::paper_apt(), &mut seeded(50)),
            "mobilenet_v2" => {
                models::mobilenet_v2(10, 0.25, &QuantScheme::paper_apt(), &mut seeded(50))
            }
            "cifarnet" => models::cifarnet(10, 8, 0.25, &QuantScheme::paper_apt(), &mut seeded(50)),
            "vgg_small" => {
                models::vgg_small(10, 8, 0.05, &QuantScheme::paper_apt(), &mut seeded(50))
            }
            "m" => models::mlp(
                "m",
                &[16, 8, 10],
                &QuantScheme::paper_apt(),
                &mut seeded(50),
            ),
            other => panic!("unknown backbone {other}"),
        }
        .unwrap();
        checkpoint::load(&mut fresh, &blob).unwrap();
        let got = fresh.forward(&x, Mode::Eval).unwrap();
        assert_eq!(got.data(), expected.data(), "{name}");
    }
}

#[test]
fn quantized_memory_is_a_fraction_of_fp32_across_backbones() {
    for ((q, _), (f, _)) in zoo(&QuantScheme::paper_apt())
        .into_iter()
        .zip(zoo(&QuantScheme::float32()))
    {
        // Weights dominate; biases/BN stay fp32 under the paper scheme, so
        // total memory must land strictly between 6/32 and 1.0 of fp32.
        let ratio = q.memory_bits() as f64 / f.memory_bits() as f64;
        assert!(
            ratio > 6.0 / 32.0 - 1e-9 && ratio < 1.0,
            "{}: ratio={ratio}",
            q.name()
        );
    }
}
