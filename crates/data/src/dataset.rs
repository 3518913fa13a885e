use crate::DataError;
use apt_tensor::Tensor;

/// An in-memory labelled image dataset (CHW float images).
///
/// Both SynthCifar splits and any user-provided data use this container;
/// the [`crate::Batcher`] iterates it in shuffled mini-batches.
#[derive(Debug, Clone)]
pub struct Dataset {
    images: Vec<Tensor>,
    labels: Vec<usize>,
    num_classes: usize,
}

impl Dataset {
    /// Builds a dataset from parallel image/label vectors.
    ///
    /// # Errors
    ///
    /// Returns [`DataError::Inconsistent`] if lengths differ, a label is
    /// `≥ num_classes`, or image shapes are not all identical.
    pub fn new(images: Vec<Tensor>, labels: Vec<usize>, num_classes: usize) -> crate::Result<Self> {
        if images.len() != labels.len() {
            return Err(DataError::Inconsistent {
                reason: format!("{} images vs {} labels", images.len(), labels.len()),
            });
        }
        if num_classes == 0 {
            return Err(DataError::Inconsistent {
                reason: "num_classes == 0".into(),
            });
        }
        if let Some(&bad) = labels.iter().find(|&&l| l >= num_classes) {
            return Err(DataError::Inconsistent {
                reason: format!("label {bad} >= num_classes {num_classes}"),
            });
        }
        if let Some(first) = images.first() {
            if let Some(mismatch) = images.iter().find(|img| img.dims() != first.dims()) {
                return Err(DataError::Inconsistent {
                    reason: format!(
                        "image shape {:?} != first shape {:?}",
                        mismatch.dims(),
                        first.dims()
                    ),
                });
            }
        }
        Ok(Dataset {
            images,
            labels,
            num_classes,
        })
    }

    /// Scans every sample for corrupt pixel data and reports the first
    /// offender.
    ///
    /// Construction ([`Dataset::new`]) validates *structure* — counts,
    /// label ranges, shapes — but deliberately not *values*, since tensors
    /// may be standardised in place afterwards. `validate` is the value
    /// check: it rejects non-finite pixels and, when `max_abs` is given,
    /// pixels whose magnitude exceeds it (a sane bound for standardised
    /// sensor data is single digits). Call it after ingest/augmentation.
    ///
    /// # Errors
    ///
    /// Returns [`DataError::CorruptSample`] for the first bad sample found.
    pub fn validate(&self, max_abs: Option<f32>) -> crate::Result<()> {
        for (i, img) in self.images.iter().enumerate() {
            if let Some(reason) = sample_corruption(img, max_abs) {
                return Err(DataError::CorruptSample { index: i, reason });
            }
        }
        Ok(())
    }

    /// Number of examples.
    pub fn len(&self) -> usize {
        self.images.len()
    }

    /// `true` if the dataset holds no examples.
    pub fn is_empty(&self) -> bool {
        self.images.is_empty()
    }

    /// Number of label classes.
    pub fn num_classes(&self) -> usize {
        self.num_classes
    }

    /// The `i`-th image (CHW).
    ///
    /// # Panics
    ///
    /// Panics if `i >= len()`.
    pub fn image(&self, i: usize) -> &Tensor {
        &self.images[i]
    }

    /// The `i`-th label.
    ///
    /// # Panics
    ///
    /// Panics if `i >= len()`.
    pub fn label(&self, i: usize) -> usize {
        self.labels[i]
    }

    /// All labels.
    pub fn labels(&self) -> &[usize] {
        &self.labels
    }

    /// Shape of one image, or `None` for an empty dataset.
    pub fn image_dims(&self) -> Option<&[usize]> {
        self.images.first().map(|t| t.dims())
    }

    /// Standardises this dataset *and* `other` using this dataset's global
    /// mean/std (the usual train-statistics normalisation).
    ///
    /// Returns `(mean, std)` used.
    pub fn standardize_with(&mut self, other: &mut Dataset) -> (f32, f32) {
        let (mean, std) = self.mean_std();
        let inv = 1.0 / std;
        for img in self.images.iter_mut().chain(other.images.iter_mut()) {
            img.map_in_place(|x| (x - mean) * inv);
        }
        (mean, std)
    }

    /// Splits the dataset into `(first, rest)` after a deterministic
    /// shuffle — the standard way to carve a held-out set from one
    /// generated corpus.
    ///
    /// # Errors
    ///
    /// Returns [`DataError::BadConfig`] if `first > len()`.
    pub fn split_shuffled(self, first: usize, seed: u64) -> crate::Result<(Dataset, Dataset)> {
        if first > self.len() {
            return Err(DataError::BadConfig {
                reason: format!("split point {first} > dataset size {}", self.len()),
            });
        }
        let mut indices: Vec<usize> = (0..self.len()).collect();
        let mut rng = apt_tensor::rng::substream(seed, 0x59117);
        apt_tensor::rng::shuffle_indices(&mut indices, &mut rng);
        let take = |idx: &[usize]| -> (Vec<Tensor>, Vec<usize>) {
            (
                idx.iter().map(|&i| self.images[i].clone()).collect(),
                idx.iter().map(|&i| self.labels[i]).collect(),
            )
        };
        let (img_a, lab_a) = take(&indices[..first]);
        let (img_b, lab_b) = take(&indices[first..]);
        Ok((
            Dataset::new(img_a, lab_a, self.num_classes)?,
            Dataset::new(img_b, lab_b, self.num_classes)?,
        ))
    }

    /// The deterministic shard of this dataset owned by `rank` out of
    /// `world` data-parallel workers.
    ///
    /// Samples are dealt round-robin (`rank`, `rank + world`, …) over the
    /// first `world · ⌊len/world⌋` samples, so every shard has **exactly**
    /// the same size — the property that keeps all ranks' per-epoch batch
    /// counts equal and the step barrier in lockstep. The few trailing
    /// samples that don't fill a full deal are dropped on every rank
    /// identically. `world == 1` returns the dataset unchanged (the
    /// single-worker bit-identity path).
    ///
    /// # Errors
    ///
    /// Returns [`DataError::BadConfig`] if `world == 0`, `rank >= world`,
    /// or the dataset is too small to give every rank at least one sample.
    pub fn shard(&self, rank: usize, world: usize) -> crate::Result<Dataset> {
        if world == 0 || rank >= world {
            return Err(DataError::BadConfig {
                reason: format!("rank {rank} out of range for world size {world}"),
            });
        }
        if world == 1 {
            return Ok(self.clone());
        }
        let per_rank = self.len() / world;
        if per_rank == 0 {
            return Err(DataError::BadConfig {
                reason: format!("{} samples cannot shard across {world} ranks", self.len()),
            });
        }
        let idx = (0..per_rank).map(|i| rank + i * world);
        let images = idx.clone().map(|i| self.images[i].clone()).collect();
        let labels = idx.map(|i| self.labels[i]).collect();
        Dataset::new(images, labels, self.num_classes)
    }

    fn mean_std(&self) -> (f32, f32) {
        let mut count = 0usize;
        let mut sum = 0.0f64;
        for img in &self.images {
            sum += img.data().iter().map(|&x| x as f64).sum::<f64>();
            count += img.len();
        }
        if count == 0 {
            return (0.0, 1.0);
        }
        let mean = sum / count as f64;
        let mut sq = 0.0f64;
        for img in &self.images {
            sq += img
                .data()
                .iter()
                .map(|&x| (x as f64 - mean).powi(2))
                .sum::<f64>();
        }
        let std = (sq / count as f64).sqrt().max(1e-8);
        (mean as f32, std as f32)
    }
}

/// Returns why an image is corrupt (`None` when it is clean): the first
/// non-finite pixel, or the first pixel whose magnitude exceeds `max_abs`.
fn sample_corruption(img: &Tensor, max_abs: Option<f32>) -> Option<String> {
    for (j, &x) in img.data().iter().enumerate() {
        if !x.is_finite() {
            return Some(format!("non-finite pixel {x} at offset {j}"));
        }
        if let Some(limit) = max_abs {
            if x.abs() > limit {
                return Some(format!("pixel {x} at offset {j} exceeds |{limit}|"));
            }
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    fn img(v: f32) -> Tensor {
        Tensor::full(&[1, 2, 2], v)
    }

    #[test]
    fn construction_validates() {
        assert!(Dataset::new(vec![img(0.0)], vec![0, 1], 2).is_err());
        assert!(Dataset::new(vec![img(0.0)], vec![5], 2).is_err());
        assert!(Dataset::new(vec![img(0.0)], vec![0], 0).is_err());
        assert!(Dataset::new(vec![img(0.0), Tensor::zeros(&[1, 3, 3])], vec![0, 1], 2).is_err());
        let d = Dataset::new(vec![img(1.0), img(2.0)], vec![0, 1], 2).unwrap();
        assert_eq!(d.len(), 2);
        assert_eq!(d.num_classes(), 2);
        assert_eq!(d.label(1), 1);
        assert_eq!(d.image_dims().unwrap(), &[1, 2, 2]);
    }

    #[test]
    fn validate_flags_corrupt_pixels() {
        let clean = Dataset::new(vec![img(0.5), img(-0.5)], vec![0, 1], 2).unwrap();
        assert!(clean.validate(None).is_ok());
        assert!(clean.validate(Some(1.0)).is_ok());
        // Out-of-range but finite: only caught with a bound.
        assert_eq!(
            Dataset::new(vec![img(0.5), img(1e7)], vec![0, 1], 2)
                .unwrap()
                .validate(Some(100.0)),
            Err(DataError::CorruptSample {
                index: 1,
                reason: "pixel 10000000 at offset 0 exceeds |100|".into()
            })
        );
        // Non-finite: always caught, and the index is the offender's.
        let mut bad = img(0.0);
        bad.data_mut()[3] = f32::NAN;
        let d = Dataset::new(vec![img(0.0), bad, img(1.0)], vec![0, 1, 0], 2).unwrap();
        match d.validate(None) {
            Err(DataError::CorruptSample { index: 1, .. }) => {}
            other => panic!("expected CorruptSample at 1, got {other:?}"),
        }
        let mut inf = img(0.0);
        inf.data_mut()[0] = f32::NEG_INFINITY;
        assert!(Dataset::new(vec![inf], vec![0], 2)
            .unwrap()
            .validate(None)
            .is_err());
    }

    #[test]
    fn empty_dataset_is_fine() {
        let d = Dataset::new(vec![], vec![], 3).unwrap();
        assert!(d.is_empty());
        assert!(d.image_dims().is_none());
    }

    #[test]
    fn shard_is_deterministic_equal_sized_and_disjoint() {
        let images: Vec<Tensor> = (0..10).map(|i| img(i as f32)).collect();
        let labels: Vec<usize> = (0..10).map(|i| i % 3).collect();
        let d = Dataset::new(images, labels, 3).unwrap();
        // world == 1 is the identity.
        let whole = d.shard(0, 1).unwrap();
        assert_eq!(whole.len(), 10);
        for i in 0..10 {
            assert_eq!(whole.image(i).data(), d.image(i).data());
        }
        // world == 3: 3 samples each, round-robin, sample 9 dropped.
        let mut seen = Vec::new();
        for rank in 0..3 {
            let s = d.shard(rank, 3).unwrap();
            assert_eq!(s.len(), 3, "equal shard sizes");
            for i in 0..s.len() {
                let v = s.image(i).data()[0] as usize;
                assert_eq!(v, rank + i * 3, "round-robin deal");
                assert_eq!(s.label(i), d.label(v));
                seen.push(v);
            }
            // Deterministic: the same call yields the same shard.
            let again = d.shard(rank, 3).unwrap();
            for i in 0..s.len() {
                assert_eq!(again.image(i).data(), s.image(i).data());
            }
        }
        seen.sort_unstable();
        assert_eq!(seen, (0..9).collect::<Vec<_>>(), "disjoint cover");
        // Errors.
        assert!(d.shard(3, 3).is_err());
        assert!(d.shard(0, 0).is_err());
        assert!(d.shard(0, 11).is_err());
    }

    #[test]
    fn standardize_centres_train_statistics() {
        let mut train = Dataset::new(vec![img(2.0), img(4.0)], vec![0, 1], 2).unwrap();
        let mut test = Dataset::new(vec![img(3.0)], vec![0], 2).unwrap();
        let (mean, std) = train.standardize_with(&mut test);
        assert_eq!(mean, 3.0);
        assert!(std > 0.0);
        let total: f32 = (0..train.len()).map(|i| train.image(i).sum()).sum();
        assert!(total.abs() < 1e-4);
        // test transformed with the same statistics
        assert!(test.image(0).data().iter().all(|&x| x.abs() < 1e-6));
    }
}
