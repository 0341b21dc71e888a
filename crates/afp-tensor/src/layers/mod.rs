//! Neural-network layers used across the floorplanning models.
//!
//! All layers operate on single samples (no batch dimension); minibatches are
//! handled by looping `forward` / `backward` and relying on gradient
//! accumulation inside [`crate::Param`]. The conv, deconv and dense kernels
//! keep the summation order of the naive per-element loops, so a seeded
//! minibatch replays bit for bit.

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
