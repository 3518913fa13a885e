//! # apt-data
//!
//! Data substrate for the APT reproduction.
//!
//! The paper trains on CIFAR-10/100, which are not available offline, so
//! this crate provides **SynthCifar** — a procedurally generated image
//! classification task with the same tensor interface (3×H×W float images,
//! integer labels, 10- or 100-class variants) and the same augmentation
//! pipeline the paper describes (§IV): *"4 pixels are padded on each side,
//! and a 32x32 patch is randomly cropped from the padded image or its
//! horizontal flip. For testing, only single view of the original 32x32
//! image is evaluated."*
//!
//! Each class is a smooth random spectral template (a small sum of 2-D
//! sinusoids per channel); samples add instance noise, spatial jitter and
//! brightness variation. This yields a task where a CNN must actually learn
//! spatial features over multiple epochs — reproducing the training-dynamics
//! phenomena APT is about (gradient decay, quantisation underflow) without
//! the natural-image corpus. See DESIGN.md §2 for the substitution argument.
//!
//! ```
//! use apt_data::{SynthCifar, SynthCifarConfig};
//! let cfg = SynthCifarConfig { num_classes: 4, train_per_class: 8, test_per_class: 4,
//!                              img_size: 8, seed: 7, ..Default::default() };
//! let data = SynthCifar::generate(&cfg)?;
//! assert_eq!(data.train.len(), 32);
//! assert_eq!(data.test.len(), 16);
//! # Ok::<(), apt_data::DataError>(())
//! ```

#![deny(missing_docs)]
#![forbid(unsafe_code)]

mod augment;
mod batch;
mod dataset;
mod error;
mod synth;
mod toy;

pub use augment::AugmentConfig;
pub use batch::{Batch, Batcher, Batches};
pub use dataset::Dataset;
pub use error::DataError;
pub use synth::{SynthCifar, SynthCifarConfig};
pub use toy::blobs;

/// Convenience result alias used across the crate.
pub type Result<T> = std::result::Result<T, DataError>;
