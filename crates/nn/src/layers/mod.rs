//! Layer implementations.
//!
//! Primitive layers ([`Linear`], [`Conv2d`], [`BatchNorm2d`], [`Relu`] and
//! [`Relu6`] — the two instances of [`Clamp`] —, [`MaxPool2d`],
//! [`AvgPool2d`], [`GlobalAvgPool`], [`Flatten`], [`ZeroPad2d`],
//! [`ActQuant`]) and the two composites every deeper architecture is built
//! from: [`Sequential`], a named chain, and [`Residual`],
//! `act(body(x) + shortcut(x))`. The paper's ResNet and MobileNetV2 blocks
//! are builders over these two in [`crate::models`].

mod activation;
mod actquant;
mod batchnorm;
mod compose;
mod conv;
mod flatten;
mod linear;
mod pad;
mod pool;

pub use activation::{Clamp, Relu, Relu6};
pub use actquant::ActQuant;
pub use batchnorm::BatchNorm2d;
#[cfg(test)]
pub(crate) use compose::tests::assert_input_gradient;
pub use compose::{Residual, Sequential};
pub use conv::Conv2d;
pub use flatten::Flatten;
pub use linear::Linear;
pub use pad::ZeroPad2d;
pub use pool::{AvgPool2d, GlobalAvgPool, MaxPool2d};
