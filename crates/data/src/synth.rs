//! SynthCifar — the procedurally generated CIFAR stand-in.

use crate::{DataError, Dataset};
use apt_tensor::{rng as trng, Tensor};
use rand::rngs::StdRng;
use rand::Rng;

/// Configuration of a SynthCifar generation run.
#[derive(Debug, Clone, PartialEq)]
pub struct SynthCifarConfig {
    /// Number of classes (10 for the CIFAR-10 analogue, 100 for CIFAR-100).
    pub num_classes: usize,
    /// Training examples generated per class.
    pub train_per_class: usize,
    /// Test examples generated per class.
    pub test_per_class: usize,
    /// Image side length (images are `3 × img_size × img_size`).
    pub img_size: usize,
    /// Std-dev of per-pixel instance noise (relative to unit templates).
    pub noise_std: f32,
    /// Maximum ± spatial jitter in pixels when rendering an instance.
    pub max_jitter: usize,
    /// Number of sinusoidal components per channel in each class template.
    pub components: usize,
    /// Master seed; train/test/template streams are derived from it.
    pub seed: u64,
}

impl Default for SynthCifarConfig {
    fn default() -> Self {
        SynthCifarConfig {
            num_classes: 10,
            train_per_class: 100,
            test_per_class: 20,
            img_size: 16,
            noise_std: 0.35,
            max_jitter: 2,
            components: 3,
            seed: 42,
        }
    }
}

impl SynthCifarConfig {
    /// The CIFAR-10 analogue at a given scale (examples per class).
    pub fn cifar10_like(train_per_class: usize, img_size: usize, seed: u64) -> Self {
        SynthCifarConfig {
            num_classes: 10,
            train_per_class,
            test_per_class: (train_per_class / 5).max(1),
            img_size,
            seed,
            ..Default::default()
        }
    }
}

/// One sinusoidal component of a class template.
#[derive(Debug, Clone, Copy)]
struct Component {
    fx: f32,
    fy: f32,
    phase: f32,
    amp: f32,
}

/// A generated SynthCifar dataset pair (standardised with train statistics).
#[derive(Debug, Clone)]
pub struct SynthCifar {
    /// Training split.
    pub train: Dataset,
    /// Test split (evaluated single-view, per the paper).
    pub test: Dataset,
}

impl SynthCifar {
    /// Generates the dataset pair described by `cfg`.
    ///
    /// Deterministic given `cfg.seed`; train and test instances come from
    /// disjoint RNG streams over the same class templates, so
    /// generalisation is a real requirement.
    ///
    /// # Errors
    ///
    /// Returns [`DataError::BadConfig`] for zero-sized configuration
    /// fields or jitter exceeding the image.
    pub fn generate(cfg: &SynthCifarConfig) -> crate::Result<Self> {
        if cfg.num_classes == 0
            || cfg.train_per_class == 0
            || cfg.test_per_class == 0
            || cfg.img_size == 0
            || cfg.components == 0
        {
            return Err(DataError::BadConfig {
                reason: "all size fields must be ≥ 1".into(),
            });
        }
        if cfg.max_jitter >= cfg.img_size {
            return Err(DataError::BadConfig {
                reason: format!(
                    "max_jitter {} must be < img_size {}",
                    cfg.max_jitter, cfg.img_size
                ),
            });
        }
        let templates = Self::make_templates(cfg);
        let mut train = Self::render_split(cfg, &templates, 1, cfg.train_per_class)?;
        let mut test = Self::render_split(cfg, &templates, 2, cfg.test_per_class)?;
        train.standardize_with(&mut test);
        Ok(SynthCifar { train, test })
    }

    fn make_templates(cfg: &SynthCifarConfig) -> Vec<Vec<Vec<Component>>> {
        let mut rng = trng::substream(cfg.seed, 0);
        (0..cfg.num_classes)
            .map(|_| {
                (0..3)
                    .map(|_| {
                        (0..cfg.components)
                            .map(|_| Component {
                                fx: rng.gen_range(0.5..3.0),
                                fy: rng.gen_range(0.5..3.0),
                                phase: rng.gen_range(0.0..std::f32::consts::TAU),
                                amp: rng.gen_range(0.4..1.0),
                            })
                            .collect()
                    })
                    .collect()
            })
            .collect()
    }

    fn render_split(
        cfg: &SynthCifarConfig,
        templates: &[Vec<Vec<Component>>],
        stream: u64,
        per_class: usize,
    ) -> crate::Result<Dataset> {
        let mut rng = trng::substream(cfg.seed, stream);
        let mut images = Vec::with_capacity(cfg.num_classes * per_class);
        let mut labels = Vec::with_capacity(cfg.num_classes * per_class);
        for (class, template) in templates.iter().enumerate() {
            for _ in 0..per_class {
                images.push(Self::render_instance(cfg, template, &mut rng));
                labels.push(class);
            }
        }
        Dataset::new(images, labels, cfg.num_classes)
    }

    fn render_instance(
        cfg: &SynthCifarConfig,
        template: &[Vec<Component>],
        rng: &mut StdRng,
    ) -> Tensor {
        let s = cfg.img_size;
        let jx = if cfg.max_jitter == 0 {
            0.0
        } else {
            rng.gen_range(-(cfg.max_jitter as f32)..=cfg.max_jitter as f32)
        };
        let jy = if cfg.max_jitter == 0 {
            0.0
        } else {
            rng.gen_range(-(cfg.max_jitter as f32)..=cfg.max_jitter as f32)
        };
        let brightness = rng.gen_range(0.8..1.2);
        let mut img = Tensor::zeros(&[3, s, s]);
        let d = img.data_mut();
        for (ch, comps) in template.iter().enumerate() {
            for y in 0..s {
                for x in 0..s {
                    let (u, v) = ((x as f32 + jx) / s as f32, (y as f32 + jy) / s as f32);
                    let mut val = 0.0;
                    for c in comps {
                        val +=
                            c.amp * (std::f32::consts::TAU * (c.fx * u + c.fy * v) + c.phase).sin();
                    }
                    d[ch * s * s + y * s + x] =
                        brightness * val + cfg.noise_std * trng::standard_normal(rng);
                }
            }
        }
        img
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_cfg() -> SynthCifarConfig {
        SynthCifarConfig {
            num_classes: 4,
            train_per_class: 10,
            test_per_class: 5,
            img_size: 8,
            seed: 3,
            ..Default::default()
        }
    }

    #[test]
    fn sizes_and_labels() {
        let d = SynthCifar::generate(&small_cfg()).unwrap();
        assert_eq!(d.train.len(), 40);
        assert_eq!(d.test.len(), 20);
        assert_eq!(d.train.num_classes(), 4);
        for c in 0..4 {
            assert_eq!(d.train.labels().iter().filter(|&&l| l == c).count(), 10);
        }
        assert_eq!(d.train.image_dims().unwrap(), &[3, 8, 8]);
    }

    #[test]
    fn deterministic_given_seed() {
        let a = SynthCifar::generate(&small_cfg()).unwrap();
        let b = SynthCifar::generate(&small_cfg()).unwrap();
        assert_eq!(a.train.image(7).data(), b.train.image(7).data());
        let mut cfg2 = small_cfg();
        cfg2.seed = 4;
        let c = SynthCifar::generate(&cfg2).unwrap();
        assert_ne!(a.train.image(7).data(), c.train.image(7).data());
    }

    #[test]
    fn train_and_test_instances_differ() {
        let d = SynthCifar::generate(&small_cfg()).unwrap();
        assert_ne!(d.train.image(0).data(), d.test.image(0).data());
    }

    #[test]
    fn standardised_statistics() {
        let d = SynthCifar::generate(&small_cfg()).unwrap();
        let total: f64 = (0..d.train.len())
            .map(|i| {
                d.train
                    .image(i)
                    .data()
                    .iter()
                    .map(|&x| x as f64)
                    .sum::<f64>()
            })
            .sum();
        let count: usize = (0..d.train.len()).map(|i| d.train.image(i).len()).sum();
        assert!((total / count as f64).abs() < 1e-4);
    }

    #[test]
    fn classes_are_statistically_separable() {
        // Nearest-template classification on noiseless means should beat
        // chance by a wide margin: check that same-class images correlate
        // more with each other than cross-class on average.
        let mut cfg = small_cfg();
        cfg.noise_std = 0.2;
        cfg.max_jitter = 1;
        let d = SynthCifar::generate(&cfg).unwrap();
        let corr = |a: &Tensor, b: &Tensor| -> f64 {
            a.data()
                .iter()
                .zip(b.data())
                .map(|(&x, &y)| (x * y) as f64)
                .sum::<f64>()
        };
        let (mut same, mut cross, mut ns, mut nc) = (0.0, 0.0, 0, 0);
        for i in 0..d.train.len() {
            for j in (i + 1)..d.train.len() {
                let c = corr(d.train.image(i), d.train.image(j));
                if d.train.label(i) == d.train.label(j) {
                    same += c;
                    ns += 1;
                } else {
                    cross += c;
                    nc += 1;
                }
            }
        }
        assert!(
            same / ns as f64 > cross / nc as f64 + 1.0,
            "classes not separable"
        );
    }

    #[test]
    fn config_validation() {
        let mut cfg = small_cfg();
        cfg.num_classes = 0;
        assert!(SynthCifar::generate(&cfg).is_err());
        let mut cfg = small_cfg();
        cfg.max_jitter = 8;
        assert!(SynthCifar::generate(&cfg).is_err());
        let mut cfg = small_cfg();
        cfg.components = 0;
        assert!(SynthCifar::generate(&cfg).is_err());
    }

    #[test]
    fn preset_constructors() {
        let c10 = SynthCifarConfig::cifar10_like(50, 16, 1);
        assert_eq!(c10.num_classes, 10);
        assert_eq!(c10.test_per_class, 10);
    }
}
