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
        })
    }

    /// Materialises the shuffled, augmented batches of epoch `epoch`.
    ///
    /// # Errors
    ///
    /// Propagates augmentation/stacking errors.
    pub fn epoch(&self, data: &Dataset, epoch: usize) -> crate::Result<Vec<Batch>> {
        let mut rng = trng::substream(self.seed, 0x6000 + epoch as u64);
        let mut indices: Vec<usize> = (0..data.len()).collect();
        trng::shuffle_indices(&mut indices, &mut rng);
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
        Ok(batches)
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
