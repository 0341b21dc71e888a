//! # afp-layout — floorplan geometry, metrics and observation masks
//!
//! Everything geometric that the floorplanning methods share:
//!
//! * the 32×32 placement `grid` and continuous [`Canvas`] (paper §IV-D1),
//! * the [`bitgrid`] occupancy bitboard (one `u64` word per row, grid sides
//!   up to 64) behind every footprint query, snap search and positional
//!   mask,
//! * the incremental [`Floorplan`] state with overlap-free placement,
//! * [`metrics`]: HPWL (Eq. 3), dead space, the intermediate reward (Eq. 4)
//!   and the episode reward (Eq. 5) with the paper's fixed weights,
//! * [`constraints`]: grid-level symmetry / alignment masks and the
//!   end-of-episode violation check,
//! * [`masks`]: the six observation maps of the RL agent state
//!   (`f_g`, `f_w`, `f_ds`, `f_p`),
//! * [`sequence_pair`]: the topological model used by the metaheuristic
//!   baselines,
//! * [`spacing`]: the one congestion-aware device spacing applied to every
//!   baseline so that the comparison against routing-ready floorplans is
//!   fair (§V-B),
//! * [`export`]: ASCII / SVG rendering for the figure reproductions.
//!
//! # The cost pipeline
//!
//! The optimizer hot path (pack → realize → metrics, millions of evaluations
//! per Table I sweep) runs every stage from scratch into reused buffers:
//! [`sequence_pair::realize_floorplan`] packs with one full FAST-SP sweep
//! ([`lcs_pack::pack_coords`]) and snaps every block onto the [`BitGrid`],
//! and the metrics stage is a plain rescan ([`metrics::episode_reward`]) that
//! reads each pin's centre through the floorplan's O(1) block → slot table.
//! The evaluation context is constants: the Eq. 5 weights
//! ([`metrics::ALPHA`], [`metrics::BETA`], [`metrics::GAMMA`],
//! [`metrics::VIOLATION_PENALTY`]) and the spacing parameters
//! ([`spacing::TRACK_PITCH_UM`], [`spacing::TRACKS_PER_NET`],
//! [`spacing::MAX_RELATIVE_MARGIN`]).
//!
//! See `ARCHITECTURE.md` at the repository root for the full stack picture
//! and the bit-identity contract.
//!
//! # Examples
//!
//! ```
//! use afp_circuit::{generators, Shape, BlockId};
//! use afp_layout::{Canvas, Cell, Floorplan, metrics};
//!
//! let circuit = generators::ota3();
//! let mut floorplan = Floorplan::new(Canvas::for_circuit(&circuit));
//! floorplan.place(BlockId(0), 0, Shape::new(8.0, 7.0), Cell::new(0, 0))?;
//! floorplan.place(BlockId(1), 0, Shape::new(7.0, 7.0), Cell::new(10, 0))?;
//! let m = metrics::metrics(&circuit, &floorplan);
//! assert!(m.dead_space < 1.0);
//! # Ok::<(), afp_layout::PlaceError>(())
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod grid;
mod placement;
mod rect;

pub mod bitgrid;
pub mod constraints;
pub mod export;
pub mod lcs_pack;
pub mod masks;
pub mod metrics;
pub mod sequence_pair;
pub mod spacing;

pub use bitgrid::BitGrid;
pub use grid::{Canvas, Cell, DEFAULT_MAX_ASPECT_RATIO, GRID_SIZE};
pub use lcs_pack::PackScratch;
pub use masks::{Mask, StateMasks, STATE_CHANNELS};
pub use metrics::FloorplanMetrics;
pub use placement::{Floorplan, PlaceError, PlacedBlock};
pub use rect::Rect;
pub use sequence_pair::{PackedFloorplan, SequencePair};
