//! # afp-tensor — neural-network substrate for the analog floorplanning stack
//!
//! The paper *Effective Analog ICs Floorplanning with Relational Graph Neural
//! Networks and Reinforcement Learning* (Basso et al., DATE 2025) builds its
//! models on DGL and Stable-Baselines3. Neither library exists in Rust, so this
//! crate provides the minimal — but fully tested — machinery the rest of the
//! workspace needs:
//!
//! * a dense row-major [`Tensor`] type with the linear-algebra operations used
//!   by the models (matmul, softmax, reductions, …),
//! * [`layers`]: dense, 2-D convolution, 2-D transposed convolution,
//!   activations, flatten/reshape and a [`layers::Sequential`] container, all
//!   implementing the explicit-backprop [`Layer`] trait,
//! * [`optim`]: SGD and Adam with gradient clipping,
//! * [`loss`]: MSE / Huber regression losses, categorical cross-entropy and
//!   entropy with analytic gradients (the pieces PPO needs),
//! * [`copy_values`]: parameter-to-parameter weight copies between networks
//!   of one architecture (how a trained agent is duplicated in process),
//! * [`gradcheck`]: finite-difference gradient checking used across test
//!   suites.
//!
//! # Examples
//!
//! Train a tiny regression network:
//!
//! ```
//! use afp_tensor::{layers::{Activation, Dense, Sequential}, loss::mse, optim::Adam, Layer, Tensor};
//! use rand::SeedableRng;
//!
//! let mut rng = rand::rngs::StdRng::seed_from_u64(0);
//! let mut net = Sequential::new();
//! net.push(Dense::new(1, 8, &mut rng));
//! net.push(Activation::tanh());
//! net.push(Dense::new(8, 1, &mut rng));
//! let mut opt = Adam::new(0.01);
//!
//! for _ in 0..50 {
//!     net.zero_grad();
//!     for i in 0..8 {
//!         let x = i as f32 / 8.0;
//!         let pred = net.forward(&Tensor::from_slice(&[x]));
//!         let (_, grad) = mse(&pred, &Tensor::from_slice(&[2.0 * x]));
//!         net.backward(&grad);
//!     }
//!     opt.step(&mut net.params_mut());
//! }
//! let out = net.forward(&Tensor::from_slice(&[0.5]));
//! assert!(out.get(0).is_finite());
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod init;
mod kernel;
mod layer;
mod param;
mod tensor;

pub mod gradcheck;
pub mod layers;
pub mod loss;
pub mod optim;

pub use init::Init;
pub use layer::Layer;
pub use param::{copy_values, Param};
pub use tensor::Tensor;
