//! XPro: a cross-end analytic engine architecture for wearable computing.
//!
//! This crate is the primary contribution of the reproduced paper — *XPro: A
//! Cross-End Processing Architecture for Data Analytics in Wearables* (ISCA
//! 2017). It partitions a generic biosignal classification pipeline into
//! fine-grained functional cells distributed between a wearable sensor node
//! and a data aggregator, minimizing sensor energy under a system delay
//! constraint:
//!
//! * [`layout`] — the 7-domain × 8-feature vector of the generic framework;
//! * [`cellgraph`] / [`builder`] — functional-cell dataflow graphs built
//!   from a trained random-subspace classifier;
//! * [`config`] / [`instance`] — whole-system configuration and per-cell
//!   pricing (hardware library + aggregator CPU model);
//! * [`stgraph`] — the s-t graph whose min-cut is the optimal partition;
//! * [`generator`] — the Automatic XPro Generator and the four engine
//!   designs (in-sensor, in-aggregator, trivial cut, cross-end);
//! * [`partition`] — partition evaluation: energy/delay breakdowns, battery
//!   life on both ends;
//! * [`pipeline`] — end-to-end training and functionally equivalent
//!   partitioned execution;
//! * [`aggregator`] — the back-end Cortex-A8-class CPU model;
//! * [`report`] — engine comparisons in the paper's normalized form.
//!
//! # Examples
//!
//! Train on a Table-1 case and compare the four engine designs:
//!
//! ```
//! use xpro_core::prelude::*;
//! use xpro_data::{generate_case_sized, CaseId};
//! use xpro_ml::SubspaceConfig;
//!
//! # fn main() -> Result<(), XProError> {
//! let data = generate_case_sized(CaseId::C1, 80, 42);
//! let cfg = PipelineConfig::builder()
//!     .subspace(SubspaceConfig { candidates: 8, folds: 2, ..Default::default() })
//!     .build()?;
//! let pipeline = XProPipeline::train(&data, &cfg)?;
//! let segment_len = pipeline.segment_len();
//! let instance = XProInstance::try_new(
//!     pipeline.into_built(),
//!     SystemConfig::default(),
//!     segment_len,
//! )?;
//! let cmp = EngineComparison::evaluate("C1", &instance)?;
//! assert!(cmp.lifetime_gain_over(Engine::InAggregator) >= 1.0);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod aggregator;
pub mod analysis;
pub mod approx;
pub mod builder;
pub mod cellgraph;
pub mod certificate;
pub mod config;
pub mod error;
pub mod generator;
pub mod heuristics;
pub mod instance;
pub mod layout;
pub mod multiclass;
pub mod multinode;
pub mod partition;
pub mod pipeline;
pub mod plancache;
pub mod prelude;
pub mod profile;
pub mod report;
pub mod stgraph;
#[doc(hidden)]
pub mod testutil;

pub use aggregator::AggregatorModel;
pub use analysis::{analyze_graph, cell_specs};
pub use approx::{
    assignment_for_graph, plan_approximate, ApproxEvaluator, ApproxLevel, ApproxPlanOptions,
    ApproxPlanOutcome,
};
pub use builder::{build_cell_graph, build_full_cell_graph, BuildOptions, BuiltGraph};
pub use cellgraph::{Cell, CellGraph, CellId, PortRef};
pub use certificate::{
    check_cut_certificate, derive_delay_s, verify_plan, CertificateViolation, CutCertificate,
};
pub use config::SystemConfig;
pub use error::XProError;
pub use generator::{replan, replan_certified, Engine, XProGenerator};
pub use instance::XProInstance;
pub use layout::{Domain, FeatureLayout};
pub use multiclass::MulticlassPipeline;
pub use multinode::{BsnEvaluation, BsnSystem};
pub use partition::{evaluate, DelayBreakdown, EnergyBreakdown, Evaluation, Partition};
pub use pipeline::{extract_features, PipelineConfig, XProPipeline};
pub use plancache::{CachedPlan, PlanCache, PlanCacheStats};
pub use profile::{segment_profile, FrameProfile, SegmentProfile};
pub use report::EngineComparison;
