//! Neural-network layers used across the floorplanning models.
//!
//! Every layer runs a whole batch per call, laid out batch-innermost
//! (`[sample shape…, B]`, see [`crate::Layer`]); the per-sample calls are the
//! `B = 1` case. The conv, deconv and dense kernels keep the summation order
//! of the naive per-element loops, one sample after another, so a seeded
//! minibatch replays a per-sample loop bit for bit.

mod activation;
mod conv;
mod deconv;
mod dense;
mod flatten;
mod sequential;

pub use activation::{Activation, ActivationKind};
pub use conv::Conv2d;
pub use deconv::ConvTranspose2d;
pub use dense::Dense;
pub use flatten::{Flatten, Reshape};
pub use sequential::Sequential;
