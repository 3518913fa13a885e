//! The paper's training-time augmentation (§IV): pad 4, random crop,
//! random horizontal flip. Test images are evaluated single-view.

use apt_tensor::{ops::pad, Tensor};
use rand::rngs::StdRng;
use rand::Rng;

/// Augmentation configuration applied per training image.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AugmentConfig {
    /// Pixels of zero padding on each side before cropping (paper: 4).
    pub pad: usize,
    /// Probability of a horizontal flip (paper: 0.5).
    pub flip: bool,
}

impl Default for AugmentConfig {
    /// The paper's CIFAR recipe: pad 4, random crop, random flip.
    fn default() -> Self {
        AugmentConfig { pad: 4, flip: true }
    }
}

impl AugmentConfig {
    /// Applies pad→random-crop→maybe-flip to one CHW image.
    ///
    /// # Errors
    ///
    /// Propagates tensor errors for non-CHW input.
    pub fn apply(&self, img: &Tensor, rng: &mut StdRng) -> crate::Result<Tensor> {
        let mut out = if self.pad > 0 {
            let padded = pad::pad_chw(img, self.pad)?;
            let (h, w) = (img.dims()[1], img.dims()[2]);
            let top = rng.gen_range(0..=2 * self.pad);
            let left = rng.gen_range(0..=2 * self.pad);
            pad::crop_chw(&padded, top, left, h, w)?
        } else {
            img.clone()
        };
        if self.flip && rng.gen::<bool>() {
            out = pad::hflip_chw(&out)?;
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use apt_tensor::rng::{normal, seeded};

    #[test]
    fn preserves_shape() {
        let cfg = AugmentConfig::default();
        let img = normal(&[3, 8, 8], 1.0, &mut seeded(1));
        let out = cfg.apply(&img, &mut seeded(2)).unwrap();
        assert_eq!(out.dims(), img.dims());
    }

    #[test]
    fn none_is_identity() {
        let cfg = AugmentConfig {
            pad: 0,
            flip: false,
        };
        let img = normal(&[3, 8, 8], 1.0, &mut seeded(1));
        let out = cfg.apply(&img, &mut seeded(2)).unwrap();
        assert_eq!(out.data(), img.data());
    }

    #[test]
    fn produces_varied_views() {
        let cfg = AugmentConfig::default();
        let img = normal(&[3, 8, 8], 1.0, &mut seeded(1));
        let mut rng = seeded(3);
        let a = cfg.apply(&img, &mut rng).unwrap();
        let b = cfg.apply(&img, &mut rng).unwrap();
        assert_ne!(a.data(), b.data());
    }

    #[test]
    fn crop_content_comes_from_padded_image() {
        // With pad p, every output pixel is either zero (border) or an
        // original pixel value.
        let cfg = AugmentConfig {
            pad: 2,
            flip: false,
        };
        let img = normal(&[1, 4, 4], 1.0, &mut seeded(4));
        let out = cfg.apply(&img, &mut seeded(5)).unwrap();
        let orig: std::collections::BTreeSet<i64> =
            img.data().iter().map(|&x| (x * 1e6) as i64).collect();
        for &v in out.data() {
            assert!(v == 0.0 || orig.contains(&((v * 1e6) as i64)));
        }
    }

    #[test]
    fn rejects_bad_rank() {
        let cfg = AugmentConfig::default();
        assert!(cfg.apply(&Tensor::zeros(&[4, 4]), &mut seeded(0)).is_err());
    }
}
