use crate::{AugmentConfig, DataError, Dataset};
use apt_tensor::{ops::pad, rng as trng, Tensor};
use rand::rngs::StdRng;

/// One mini-batch: stacked NCHW images plus labels.
#[derive(Debug, Clone)]
pub struct Batch {
    /// Images, `[n, c, h, w]`.
    pub images: Tensor,
    /// Labels, length `n`.
    pub labels: Vec<usize>,
}

impl Batch {
    /// `true` for an empty batch.
    pub fn is_empty(&self) -> bool {
        self.labels.is_empty()
    }
}

/// Deterministic shuffling mini-batch generator with optional augmentation.
///
/// A `Batcher` is bound to a batch size, an augmentation and a master seed.
/// [`stream`](Batcher::stream) walks one pass over a dataset a batch at a
/// time; each training epoch derives its own RNG stream, so the whole run
/// is reproducible while every epoch sees a fresh shuffle and fresh
/// augmentation draws (the paper's training recipe).
#[derive(Debug, Clone)]
pub struct Batcher {
    batch_size: usize,
    augment: Option<AugmentConfig>,
    seed: u64,
}

/// One pass over a dataset, built a batch per [`next`](Iterator::next) —
/// what [`Batcher::stream`] returns. Only the index order is held; each
/// batch is gathered (and augmented) when it is pulled, and is the
/// caller's.
#[derive(Debug)]
pub struct Batches<'a> {
    data: &'a Dataset,
    order: Vec<usize>,
    at: usize,
    batch_size: usize,
    /// A training epoch's augmentation and the RNG stream it draws from,
    /// where the shuffle left it.
    augment: Option<(AugmentConfig, StdRng)>,
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

    /// The batches of one pass over `data`, built one at a time as they are
    /// pulled.
    ///
    /// `Some(epoch)` is a training epoch: its RNG stream shuffles the order
    /// first, then draws each image's augmentation in batch order. A
    /// resumed run must still pull the batches before its cursor — their
    /// draws are in the stream — and `skip`, which pulls them, keeps every
    /// later batch the uninterrupted run's. `None` is evaluation: in order,
    /// un-augmented.
    pub fn stream<'a>(&self, data: &'a Dataset, epoch: Option<usize>) -> Batches<'a> {
        let mut order: Vec<usize> = (0..data.len()).collect();
        let rng = epoch.map(|epoch| {
            let mut rng = trng::substream(self.seed, 0x6000 + epoch as u64);
            trng::shuffle_indices(&mut order, &mut rng);
            rng
        });
        Batches {
            data,
            order,
            at: 0,
            batch_size: self.batch_size,
            augment: self.augment.zip(rng),
        }
    }

    /// Every batch of training epoch `epoch` at once: [`stream`](Self::stream)
    /// collected.
    ///
    /// # Errors
    ///
    /// Propagates augmentation/stacking errors.
    pub fn epoch(&self, data: &Dataset, epoch: usize) -> crate::Result<Vec<Batch>> {
        self.stream(data, Some(epoch)).collect()
    }

    /// The dataset in order, un-augmented (evaluation), at once.
    ///
    /// # Errors
    ///
    /// Propagates stacking errors.
    pub fn eval_batches(&self, data: &Dataset) -> crate::Result<Vec<Batch>> {
        self.stream(data, None).collect()
    }
}

impl Iterator for Batches<'_> {
    type Item = crate::Result<Batch>;

    fn next(&mut self) -> Option<Self::Item> {
        let rest = &self.order[self.at..];
        if rest.is_empty() {
            return None;
        }
        let chunk = &rest[..rest.len().min(self.batch_size)];
        self.at += chunk.len();
        Some(gather(self.data, chunk, self.augment.as_mut()))
    }
}

/// Stacks the examples `chunk` names into one batch, augmenting each first
/// when there is an augmentation and its RNG.
fn gather(
    data: &Dataset,
    chunk: &[usize],
    augment: Option<&mut (AugmentConfig, StdRng)>,
) -> crate::Result<Batch> {
    let mut images = Vec::with_capacity(chunk.len());
    match augment {
        Some((a, rng)) => {
            for &i in chunk {
                images.push(a.apply(data.image(i), rng)?);
            }
        }
        None => images.extend(chunk.iter().map(|&i| data.image(i).clone())),
    }
    Ok(Batch {
        images: pad::stack_chw(&images)?,
        labels: chunk.iter().map(|&i| data.label(i)).collect(),
    })
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
        let total: usize = batches.iter().map(|b| b.labels.len()).sum();
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
    fn a_resumed_stream_draws_what_the_whole_epoch_draws() {
        // Augmentation draws from the epoch's one stream in batch order, so
        // the batches a resume skips must still be drawn.
        let data = dataset(10);
        let b = Batcher::new(3, Some(AugmentConfig::default()), 9).unwrap();
        let whole = b.epoch(&data, 2).unwrap();
        let resumed: Vec<Batch> = b
            .stream(&data, Some(2))
            .skip(2)
            .map(Result::unwrap)
            .collect();
        assert_eq!(resumed.len(), whole.len() - 2);
        for (r, w) in resumed.iter().zip(&whole[2..]) {
            assert_eq!(r.images.data(), w.images.data());
            assert_eq!(r.labels, w.labels);
        }
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
