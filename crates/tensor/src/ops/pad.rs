//! Spatial padding, cropping and flipping on NCHW/CHW tensors.
//!
//! These back the data-augmentation pipeline the paper uses for CIFAR
//! training (§IV): "4 pixels are padded on each side, and a 32x32 patch is
//! randomly cropped from the padded image or its horizontal flip".

use crate::{Result, Tensor, TensorError};

fn check_chw(op: &'static str, t: &Tensor) -> Result<(usize, usize, usize)> {
    if t.rank() != 3 {
        return Err(TensorError::RankMismatch {
            op,
            expected: 3,
            actual: t.rank(),
        });
    }
    Ok((t.dims()[0], t.dims()[1], t.dims()[2]))
}

/// Zero-pads a CHW image by `p` pixels on each spatial side.
///
/// # Errors
///
/// Returns [`TensorError::RankMismatch`] unless the input is rank 3.
pub fn pad_chw(img: &Tensor, p: usize) -> Result<Tensor> {
    let (c, h, w) = check_chw("pad_chw", img)?;
    let (ph, pw) = (h + 2 * p, w + 2 * p);
    let mut out = Tensor::zeros(&[c, ph, pw]);
    let src = img.data();
    let dst = out.data_mut();
    for ch in 0..c {
        for i in 0..h {
            let s = ch * h * w + i * w;
            let d = ch * ph * pw + (i + p) * pw + p;
            dst[d..d + w].copy_from_slice(&src[s..s + w]);
        }
    }
    Ok(out)
}

/// Extracts an `[c, th, tw]` crop whose top-left corner is `(top, left)`.
///
/// # Errors
///
/// Returns an error if the crop window falls outside the image.
pub fn crop_chw(img: &Tensor, top: usize, left: usize, th: usize, tw: usize) -> Result<Tensor> {
    let (c, h, w) = check_chw("crop_chw", img)?;
    if top + th > h || left + tw > w {
        return Err(TensorError::InvalidArgument {
            op: "crop_chw",
            reason: format!("crop {th}x{tw}@({top},{left}) exceeds image {h}x{w}"),
        });
    }
    let mut out = Tensor::zeros(&[c, th, tw]);
    let src = img.data();
    let dst = out.data_mut();
    for ch in 0..c {
        for i in 0..th {
            let s = ch * h * w + (top + i) * w + left;
            let d = ch * th * tw + i * tw;
            dst[d..d + tw].copy_from_slice(&src[s..s + tw]);
        }
    }
    Ok(out)
}

/// Horizontally flips a CHW image (mirror along the width axis).
///
/// # Errors
///
/// Returns [`TensorError::RankMismatch`] unless the input is rank 3.
pub fn hflip_chw(img: &Tensor) -> Result<Tensor> {
    let (c, h, w) = check_chw("hflip_chw", img)?;
    let mut out = Tensor::zeros(&[c, h, w]);
    let src = img.data();
    let dst = out.data_mut();
    for ch in 0..c {
        for i in 0..h {
            let row = ch * h * w + i * w;
            for j in 0..w {
                dst[row + j] = src[row + w - 1 - j];
            }
        }
    }
    Ok(out)
}

/// Stacks a batch of same-shaped CHW images into an NCHW tensor.
///
/// # Errors
///
/// Returns an error if the batch is empty or shapes disagree.
pub fn stack_chw(images: &[Tensor]) -> Result<Tensor> {
    let first = images.first().ok_or_else(|| TensorError::InvalidArgument {
        op: "stack_chw",
        reason: "empty batch".into(),
    })?;
    let (c, h, w) = check_chw("stack_chw", first)?;
    let mut out = Tensor::zeros(&[images.len(), c, h, w]);
    let item = c * h * w;
    for (idx, img) in images.iter().enumerate() {
        if img.dims() != [c, h, w] {
            return Err(TensorError::ShapeMismatch {
                op: "stack_chw",
                lhs: first.dims().to_vec(),
                rhs: img.dims().to_vec(),
            });
        }
        out.data_mut()[idx * item..(idx + 1) * item].copy_from_slice(img.data());
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn img2x2() -> Tensor {
        Tensor::from_vec(vec![1., 2., 3., 4.], &[1, 2, 2]).unwrap()
    }

    #[test]
    fn pad_places_image_centrally() {
        let p = pad_chw(&img2x2(), 1).unwrap();
        assert_eq!(p.dims(), &[1, 4, 4]);
        let expected = [
            0., 0., 0., 0., 0., 1., 2., 0., 0., 3., 4., 0., 0., 0., 0., 0.,
        ];
        assert_eq!(p.data(), &expected);
    }

    #[test]
    fn pad_zero_is_identity() {
        let x = img2x2();
        assert_eq!(pad_chw(&x, 0).unwrap(), x);
    }

    #[test]
    fn crop_inverse_of_pad() {
        let x = img2x2();
        let padded = pad_chw(&x, 2).unwrap();
        let back = crop_chw(&padded, 2, 2, 2, 2).unwrap();
        assert_eq!(back, x);
    }

    #[test]
    fn crop_bounds_checked() {
        let x = img2x2();
        assert!(crop_chw(&x, 1, 1, 2, 2).is_err());
        assert!(crop_chw(&x, 0, 0, 3, 1).is_err());
    }

    #[test]
    fn hflip_mirrors_and_is_involutive() {
        let x = img2x2();
        let f = hflip_chw(&x).unwrap();
        assert_eq!(f.data(), &[2., 1., 4., 3.]);
        assert_eq!(hflip_chw(&f).unwrap(), x);
    }

    #[test]
    fn stack_builds_batch() {
        let x = img2x2();
        let b = stack_chw(&[x.clone(), x.clone(), x.clone()]).unwrap();
        assert_eq!(b.dims(), &[3, 1, 2, 2]);
        assert_eq!(b.data().iter().sum::<f32>(), 30.0);
        assert!(stack_chw(&[]).is_err());
        let y = Tensor::zeros(&[1, 3, 3]);
        assert!(stack_chw(&[x, y]).is_err());
    }

    #[test]
    fn rank_validation() {
        let bad = Tensor::zeros(&[2, 2]);
        assert!(pad_chw(&bad, 1).is_err());
        assert!(hflip_chw(&bad).is_err());
        assert!(crop_chw(&bad, 0, 0, 1, 1).is_err());
    }
}
