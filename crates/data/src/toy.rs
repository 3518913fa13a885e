//! Toy vector datasets for MLP-scale tests and examples.

use crate::{DataError, Dataset};
use apt_tensor::{rng as trng, Tensor};
use rand::Rng;

/// Gaussian blobs: `num_classes` isotropic clusters in `dim` dimensions.
///
/// Images are degenerate CHW tensors of shape `[1, 1, dim]` so the standard
/// [`Dataset`]/[`crate::Batcher`] machinery applies; flatten to `[n, dim]`
/// before an MLP.
///
/// # Errors
///
/// Returns [`DataError::BadConfig`] for zero-sized arguments.
pub fn blobs(
    num_classes: usize,
    per_class: usize,
    dim: usize,
    spread: f32,
    seed: u64,
) -> crate::Result<Dataset> {
    if num_classes == 0 || per_class == 0 || dim == 0 {
        return Err(DataError::BadConfig {
            reason: "blobs: all sizes must be ≥ 1".into(),
        });
    }
    let mut rng = trng::substream(seed, 0xB10B);
    // Class centres on a scaled hypercube diagonal pattern.
    let centres: Vec<Vec<f32>> = (0..num_classes)
        .map(|_| (0..dim).map(|_| rng.gen_range(-2.0..2.0)).collect())
        .collect();
    let mut images = Vec::with_capacity(num_classes * per_class);
    let mut labels = Vec::with_capacity(num_classes * per_class);
    for (class, centre) in centres.iter().enumerate() {
        for _ in 0..per_class {
            let data: Vec<f32> = centre
                .iter()
                .map(|&c| c + spread * trng::standard_normal(&mut rng))
                .collect();
            images.push(Tensor::from_vec(data, &[1, 1, dim])?);
            labels.push(class);
        }
    }
    Dataset::new(images, labels, num_classes)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn blobs_shape_and_determinism() {
        let a = blobs(3, 5, 4, 0.3, 1).unwrap();
        assert_eq!(a.len(), 15);
        assert_eq!(a.num_classes(), 3);
        assert_eq!(a.image_dims().unwrap(), &[1, 1, 4]);
        let b = blobs(3, 5, 4, 0.3, 1).unwrap();
        assert_eq!(a.image(7).data(), b.image(7).data());
        assert!(blobs(0, 5, 4, 0.3, 1).is_err());
    }

    #[test]
    fn blobs_classes_cluster() {
        let d = blobs(2, 50, 2, 0.1, 3).unwrap();
        // mean intra-class distance < mean inter-class distance
        let dist = |a: &Tensor, b: &Tensor| -> f32 {
            a.data()
                .iter()
                .zip(b.data())
                .map(|(x, y)| (x - y) * (x - y))
                .sum::<f32>()
                .sqrt()
        };
        let (mut intra, mut inter, mut ni, mut nx) = (0.0, 0.0, 0, 0);
        for i in 0..d.len() {
            for j in (i + 1)..d.len() {
                let v = dist(d.image(i), d.image(j));
                if d.label(i) == d.label(j) {
                    intra += v;
                    ni += 1;
                } else {
                    inter += v;
                    nx += 1;
                }
            }
        }
        assert!((intra / ni as f32) < (inter / nx as f32));
    }
}
