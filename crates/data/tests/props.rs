//! Property-based tests of the data pipeline.

use apt_data::{blobs, AugmentConfig, Batcher, Dataset, SynthCifar, SynthCifarConfig};
use apt_tensor::{rng, Tensor};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn augmentation_preserves_shape(
        seed in 0u64..500,
        pad in 0usize..5,
        flip in any::<bool>(),
        size in 4usize..12,
    ) {
        let cfg = AugmentConfig { pad, flip };
        let img = rng::normal(&[3, size, size], 1.0, &mut rng::seeded(seed));
        let out = cfg.apply(&img, &mut rng::seeded(seed + 1)).unwrap();
        prop_assert_eq!(out.dims(), img.dims());
    }

    #[test]
    fn batcher_covers_every_example_exactly_once(
        n in 1usize..60,
        batch in 1usize..16,
        epoch in 0usize..4,
        seed in 0u64..200,
    ) {
        let mut r = rng::seeded(seed);
        let images: Vec<Tensor> =
            (0..n).map(|i| Tensor::full(&[1, 1, 1], i as f32)).collect();
        let _ = &mut r;
        let labels: Vec<usize> = (0..n).map(|i| i % 3).collect();
        let data = Dataset::new(images, labels, 3).unwrap();
        let b = Batcher::new(batch, None, seed).unwrap();
        let batches = b.epoch(&data, epoch).unwrap();
        let mut seen: Vec<i64> = batches
            .iter()
            .flat_map(|bt| {
                let n = bt.labels.len();
                let per = bt.images.len() / n;
                (0..n).map(move |i| bt.images.data()[i * per] as i64)
            })
            .collect();
        seen.sort_unstable();
        prop_assert_eq!(seen, (0..n as i64).collect::<Vec<_>>());
    }

    #[test]
    fn split_partitions_dataset(n_per in 2usize..20, cut_frac in 0.1f64..0.9, seed in 0u64..200) {
        let data = blobs(3, n_per, 4, 0.3, seed).unwrap();
        let total = data.len();
        let cut = ((total as f64) * cut_frac) as usize;
        let (a, b) = data.split_shuffled(cut, seed).unwrap();
        prop_assert_eq!(a.len(), cut);
        prop_assert_eq!(a.len() + b.len(), total);
        prop_assert_eq!(a.num_classes(), 3);
    }

    #[test]
    fn synth_cifar_is_seed_deterministic(seed in 0u64..100) {
        let cfg = SynthCifarConfig {
            num_classes: 3,
            train_per_class: 4,
            test_per_class: 2,
            img_size: 6,
            seed,
            ..Default::default()
        };
        let a = SynthCifar::generate(&cfg).unwrap();
        let b = SynthCifar::generate(&cfg).unwrap();
        for i in 0..a.train.len() {
            prop_assert_eq!(a.train.image(i).data(), b.train.image(i).data());
            prop_assert_eq!(a.train.label(i), b.train.label(i));
        }
    }

    #[test]
    fn synth_cifar_labels_balanced(classes in 2usize..6, per in 2usize..8) {
        let cfg = SynthCifarConfig {
            num_classes: classes,
            train_per_class: per,
            test_per_class: 2,
            img_size: 6,
            seed: 5,
            ..Default::default()
        };
        let d = SynthCifar::generate(&cfg).unwrap();
        for c in 0..classes {
            let count = (0..d.train.len()).filter(|&i| d.train.label(i) == c).count();
            prop_assert_eq!(count, per);
        }
    }
}
