//! # afp-core — the end-to-end analog layout pipeline
//!
//! This facade crate ties the whole reproduction together, mirroring the
//! paper's Fig. 1 pipeline, and provides the reporting machinery the
//! experiment harnesses use:
//!
//! * [`LayoutPipeline`] — schematic → structure recognition → floorplanning
//!   (R-GCN + RL agent, greedy placer or any baseline) → OARSMT global routing
//!   → procedural layout completion; the only choice is the floorplanning
//!   method, and every run scores with the default reward weights and
//!   completes with the default procedural configuration,
//! * [`report`] — the Table I / Table II row structures, the paper's recorded
//!   manual-design reference values and plain-text rendering,
//! * [`stats`] — interquartile means and standard deviations.
//!
//! The run-control vocabulary (`afp-par`) and the solve service
//! (`afp-serve`) sit beside this crate, not under it: use them directly or
//! through the root facade's `par` and `serve` modules.
//!
//! # Examples
//!
//! ```
//! use afp_circuit::generators;
//! use afp_core::LayoutPipeline;
//!
//! let mut pipeline = LayoutPipeline::with_greedy();
//! let result = pipeline.run(&generators::ota3());
//! assert!(result.layout.area_um2 > 0.0);
//! assert!(result.report.clean || !result.layout.drc_violations.is_empty());
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod pipeline;
pub mod report;
pub mod stats;

pub use pipeline::{FloorplanMethod, LayoutPipeline, PipelineResult};
pub use report::{
    format_table_one, format_table_two, paper_manual_references, ManualReference,
    MethodMeasurements, MethodSummary, TableOneRow, TableTwoRow,
};
pub use stats::{interquartile_mean, mean, std_dev, Summary};
