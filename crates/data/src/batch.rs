use crate::{AugmentConfig, DataError, Dataset};
use apt_tensor::{ops::pad, rng as trng, Tensor};

/// One mini-batch: stacked NCHW images plus labels.
#[derive(Debug, Clone)]
pub struct Batch {
    /// Images, `[n, c, h, w]`.
    pub images: Tensor,
    /// Labels, length `n`.
    pub labels: Vec<usize>,
}

impl Batch {
    /// Number of examples in the batch.
    pub fn len(&self) -> usize {
        self.labels.len()
    }

    /// `true` for an empty batch.
    pub fn is_empty(&self) -> bool {
        self.labels.is_empty()
    }
}

/// Deterministic shuffling mini-batch iterator with optional augmentation.
///
/// A `Batcher` is bound to a dataset and a master seed; each call to
/// [`epoch`](Batcher::epoch) derives an epoch-specific RNG stream, so the
/// whole training run is reproducible while every epoch sees a fresh
/// shuffle and fresh augmentation draws (the paper's training recipe).
#[derive(Debug, Clone)]
pub struct Batcher {
    batch_size: usize,
    augment: Option<AugmentConfig>,
    seed: u64,
    skip_corrupt: Option<Option<f32>>,
}

impl Batcher {
    /// Creates a batcher.
    ///
    /// # Errors
    ///
    /// Returns [`DataError::BadConfig`] for `batch_size == 0`.
    pub fn new(
        batch_size: usize,
        augment: Option<AugmentConfig>,
        seed: u64,
    ) -> crate::Result<Self> {
        if batch_size == 0 {
            return Err(DataError::BadConfig {
                reason: "batch_size must be ≥ 1".into(),
            });
        }
        Ok(Batcher {
            batch_size,
            augment,
            seed,
            skip_corrupt: None,
        })
    }

    /// Enables the skip-and-count policy: samples with non-finite pixels —
    /// or, when `max_abs` is given, pixels beyond `±max_abs` — are silently
    /// excluded from every epoch instead of poisoning a whole batch.
    ///
    /// The check runs on the *raw* stored sample, before augmentation, so a
    /// sensor glitch is caught at the source. [`Batcher::epoch`] applies the
    /// policy transparently.
    pub fn skip_corrupt(mut self, max_abs: Option<f32>) -> Self {
        self.skip_corrupt = Some(max_abs);
        self
    }

    /// Materialises the shuffled, augmented batches of epoch `epoch`.
    ///
    /// # Errors
    ///
    /// Propagates augmentation/stacking errors.
    pub fn epoch(&self, data: &Dataset, epoch: usize) -> crate::Result<Vec<Batch>> {
        Ok(self.epoch_counted(data, epoch)?.0)
    }

    /// [`Batcher::epoch`], plus how many samples the skip-and-count policy
    /// dropped (always 0 unless [`Batcher::skip_corrupt`] was enabled).
    fn epoch_counted(&self, data: &Dataset, epoch: usize) -> crate::Result<(Vec<Batch>, usize)> {
        let mut rng = trng::substream(self.seed, 0x6000 + epoch as u64);
        let mut indices: Vec<usize> = (0..data.len()).collect();
        trng::shuffle_indices(&mut indices, &mut rng);
        let mut skipped = 0usize;
        if let Some(max_abs) = self.skip_corrupt {
            let before = indices.len();
            indices
                .retain(|&i| crate::dataset::sample_corruption(data.image(i), max_abs).is_none());
            skipped = before - indices.len();
        }
        let mut batches = Vec::new();
        for chunk in indices.chunks(self.batch_size) {
            let mut images = Vec::with_capacity(chunk.len());
            let mut labels = Vec::with_capacity(chunk.len());
            for &i in chunk {
                let img = match &self.augment {
                    Some(a) => a.apply(data.image(i), &mut rng)?,
                    None => data.image(i).clone(),
                };
                images.push(img);
                labels.push(data.label(i));
            }
            batches.push(Batch {
                images: pad::stack_chw(&images)?,
                labels,
            });
        }
        Ok((batches, skipped))
    }

    /// Materialises the dataset in order, un-augmented (evaluation).
    ///
    /// # Errors
    ///
    /// Propagates stacking errors.
    pub fn eval_batches(&self, data: &Dataset) -> crate::Result<Vec<Batch>> {
        let mut batches = Vec::new();
        let indices: Vec<usize> = (0..data.len()).collect();
        for chunk in indices.chunks(self.batch_size) {
            let images: Vec<Tensor> = chunk.iter().map(|&i| data.image(i).clone()).collect();
            let labels: Vec<usize> = chunk.iter().map(|&i| data.label(i)).collect();
            batches.push(Batch {
                images: pad::stack_chw(&images)?,
                labels,
            });
        }
        Ok(batches)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use apt_tensor::rng::{normal, seeded};

    fn dataset(n: usize) -> Dataset {
        let mut rng = seeded(1);
        let images = (0..n).map(|_| normal(&[1, 4, 4], 1.0, &mut rng)).collect();
        let labels = (0..n).map(|i| i % 2).collect();
        Dataset::new(images, labels, 2).unwrap()
    }

    #[test]
    fn epoch_covers_every_example_once() {
        let data = dataset(10);
        let b = Batcher::new(3, None, 7).unwrap();
        let batches = b.epoch(&data, 0).unwrap();
        assert_eq!(batches.len(), 4); // 3+3+3+1
        let total: usize = batches.iter().map(Batch::len).sum();
        assert_eq!(total, 10);
    }

    #[test]
    fn epochs_are_deterministic_but_differ() {
        let data = dataset(8);
        let b = Batcher::new(4, Some(AugmentConfig::default()), 9).unwrap();
        let e0a = b.epoch(&data, 0).unwrap();
        let e0b = b.epoch(&data, 0).unwrap();
        assert_eq!(e0a[0].images.data(), e0b[0].images.data());
        assert_eq!(e0a[0].labels, e0b[0].labels);
        let e1 = b.epoch(&data, 1).unwrap();
        assert_ne!(e0a[0].images.data(), e1[0].images.data());
    }

    #[test]
    fn eval_batches_are_ordered_and_unaugmented() {
        let data = dataset(5);
        let b = Batcher::new(2, Some(AugmentConfig::default()), 9).unwrap();
        let batches = b.eval_batches(&data).unwrap();
        assert_eq!(batches.len(), 3);
        assert_eq!(batches[0].labels, vec![0, 1]);
        assert_eq!(batches[0].images.dims()[0], 2);
        // first image must equal the stored one exactly (no augmentation)
        assert_eq!(&batches[0].images.data()[..16], data.image(0).data());
    }

    #[test]
    fn skip_corrupt_drops_and_counts_bad_samples() {
        let mut rng = seeded(1);
        let mut images: Vec<Tensor> = (0..10).map(|_| normal(&[1, 4, 4], 1.0, &mut rng)).collect();
        images[3].data_mut()[0] = f32::NAN;
        images[7].data_mut()[5] = 1e9; // finite but absurd
        let labels = (0..10).map(|i| i % 2).collect();
        let data = Dataset::new(images, labels, 2).unwrap();

        // Without the policy every sample flows through (NaN included).
        let plain = Batcher::new(3, None, 7).unwrap();
        let (batches, skipped) = plain.epoch_counted(&data, 0).unwrap();
        assert_eq!(skipped, 0);
        assert_eq!(batches.iter().map(Batch::len).sum::<usize>(), 10);

        // Non-finite-only policy drops just the NaN sample.
        let finite = plain.clone().skip_corrupt(None);
        let (batches, skipped) = finite.epoch_counted(&data, 0).unwrap();
        assert_eq!(skipped, 1);
        assert_eq!(batches.iter().map(Batch::len).sum::<usize>(), 9);
        assert!(batches
            .iter()
            .all(|b| b.images.data().iter().all(|x| x.is_finite())));

        // With a magnitude bound, the absurd pixel goes too — and `epoch`
        // applies the same policy.
        let bounded = plain.clone().skip_corrupt(Some(100.0));
        let (_, skipped) = bounded.epoch_counted(&data, 0).unwrap();
        assert_eq!(skipped, 2);
        let total: usize = bounded
            .epoch(&data, 0)
            .unwrap()
            .iter()
            .map(Batch::len)
            .sum();
        assert_eq!(total, 8);
    }

    #[test]
    fn skip_corrupt_on_clean_data_changes_nothing() {
        let data = dataset(10);
        let plain = Batcher::new(3, None, 7).unwrap();
        let guarded = plain.clone().skip_corrupt(Some(1000.0));
        let a = plain.epoch(&data, 2).unwrap();
        let (b, skipped) = guarded.epoch_counted(&data, 2).unwrap();
        assert_eq!(skipped, 0);
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.images.data(), y.images.data());
            assert_eq!(x.labels, y.labels);
        }
    }

    #[test]
    fn batch_size_validated() {
        assert!(Batcher::new(0, None, 1).is_err());
    }

    #[test]
    fn empty_dataset_yields_no_batches() {
        let data = Dataset::new(vec![], vec![], 2).unwrap();
        let b = Batcher::new(4, None, 1).unwrap();
        assert!(b.epoch(&data, 0).unwrap().is_empty());
        assert!(b.eval_batches(&data).unwrap().is_empty());
    }
}
