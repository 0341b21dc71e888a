//! # analog-floorplan — workspace facade
//!
//! This crate re-exports the public API of the analog IC floorplanning stack
//! (R-GCN + reinforcement-learning floorplanner, metaheuristic baselines,
//! global router and procedural layout generator) so that the examples and
//! integration tests in the repository root can use a single dependency.
//!
//! See the individual crates for full documentation:
//!
//! * [`afp_circuit`] — circuit netlists, functional blocks, constraints,
//!   synthetic industrial circuit generators, structure recognition.
//! * [`afp_layout`] — placement grid, masks, HPWL / dead-space metrics,
//!   sequence-pair model, floorplan export.
//! * [`afp_tensor`] — the neural-network substrate.
//! * [`afp_gnn`] — R-GCN circuit representation learning.
//! * [`afp_rl`] — the masked-PPO floorplanning agent and curriculum training.
//! * [`afp_metaheuristics`] — SA / GA / PSO / RL-SA / sequence-pair RL baselines.
//! * [`afp_route`] — OARSMT global routing and procedural layout completion.
//! * [`afp_core`] — the end-to-end [`afp_core::pipeline::LayoutPipeline`].
//! * [`afp_par`] — scoped-thread fan-out of independent jobs and the
//!   run-control vocabulary (deadlines, budgets, cancellation).
//! * [`afp_serve`] — floorplanning as a service: canonical problem
//!   fingerprints, the content-addressed result cache, and the sharded,
//!   cancellable job engine.

pub use afp_circuit as circuit;
pub use afp_core as core;
pub use afp_par as par;
pub use afp_gnn as gnn;
pub use afp_layout as layout;
pub use afp_metaheuristics as metaheuristics;
pub use afp_rl as rl;
pub use afp_route as route;
pub use afp_serve as serve;
pub use afp_tensor as tensor;
