//! Streaming cross-end executor for partitioned XPro engines.
//!
//! `xpro-core` answers the *static* question — where should each
//! functional cell run, and what does one event cost there. This crate
//! answers the *dynamic* one: what happens when a fleet of sensor nodes
//! streams segments through that partition continuously, sharing one
//! lossy wireless channel and one aggregator.
//!
//! The centrepiece is the sharded fleet executor — a [`FleetSpec`]
//! validated and run through [`ExecutorBuilder`] — a deterministic
//! virtual-time discrete-event simulation:
//!
//! * per-node segment windowing at the configured sampling rate, sharded
//!   by node into per-core shards simulated node by node ([`shard`]) with
//!   deterministic barrier merges — reports are bit-identical for any shard count;
//! * per-cell sensor/aggregator execution using the instance's energy and
//!   delay prices (the same numbers as `xpro_core::partition::evaluate`);
//! * each node's wireless radio as a lossy half-duplex link
//!   ([`LossyLink`]) with seeded per-node Bernoulli drops, fleet-global
//!   burst weather, bounded exponential-backoff retransmission and a
//!   per-segment deadline — overload and loss degrade the stream
//!   gracefully instead of stalling it;
//! * aggregator batching across nodes on the shared serial CPU, behind a
//!   bounded inbox with counted backpressure overflows;
//! * per-node battery drawdown;
//! * lifecycle fault injection ([`lifecycle`]): Gilbert–Elliott channel
//!   bursts, per-node crash/reboot windows, battery-depletion shutdown and
//!   periodic aggregator outages — all derived from the one seed, so the
//!   fault environment is identical across runs being compared;
//! * the adaptive partition [`controller`]: observed attempt inflation
//!   re-enters the XPro generator mid-run, with graceful-degradation tiers
//!   (classify-only transmission, segment shedding) when no feasible cut
//!   meets the baseline delay limit.
//!
//! A run yields a [`RunReport`] — per-node throughput, p50/p95/p99
//! latency, drop/retry counters, the energy split and a battery-life
//! estimate — with every number held once, in a typed field.
//!
//! The single-event dataflow simulator that used to live in the retired
//! `xpro-sim` crate is absorbed here as [`trace`].
//!
//! The [`soundness`] module closes the loop with the static calculus in
//! `xpro-analyze`: it extracts the plain-number timing/energy model of a
//! deployment and cross-checks a finished [`RunReport`] against the
//! statically derived WCRT, queue, energy and channel bounds.
//!
//! The [`tenant`] module turns the aggregator into a multi-tenant
//! admission layer: a [`TenantSpec`] table partitions the fleet into
//! contiguous per-tenant node ranges with weighted-fair inbox shares,
//! token-bucket rate quotas, overload degradation through the existing
//! tiers and a quarantining circuit breaker — all advancing at barrier
//! rounds so reports stay byte-identical for any shard count.
//!
//! The [`sketch`] module keeps latency telemetry fixed-size: per-node,
//! per-tenant and fleet percentiles come from mergeable log-linear
//! [`QuantileSketch`]es (documented worst-case relative error
//! [`QuantileSketch::REL_ERROR`], exact min/max/count) instead of raw
//! sample buffers, so telemetry memory is O(nodes · sketch) rather than
//! O(completed segments). The [`columnar`] module rides the same barrier
//! rounds: per-round fleet counters fold (in global node order) into a
//! [`ColumnBatch`] written as length-prefixed typed columns with a
//! footer index (`runtime --export <dir>`), plus the aggregation layer
//! ([`summarize_timesteps`]) that folds exported columns back into the
//! report's totals.
//!
//! ```
//! use xpro_runtime::{ExecutorBuilder, FleetSpec, RuntimeConfig, ShardCount};
//! # use xpro_core::pipeline::{PipelineConfig, XProPipeline};
//! # use xpro_core::config::SystemConfig;
//! # use xpro_core::generator::{Engine, XProGenerator};
//! # use xpro_core::instance::XProInstance;
//! # use xpro_data::{generate_case_sized, CaseId};
//! # fn main() -> Result<(), xpro_core::XProError> {
//! # let data = generate_case_sized(CaseId::C1, 60, 7);
//! # let cfg = PipelineConfig::builder().seed(7).build()?;
//! # let pipeline = XProPipeline::train(&data, &cfg)?;
//! # let instance = XProInstance::try_new(
//! #     pipeline.built().clone(), SystemConfig::default(), pipeline.segment_len())?;
//! let partition = XProGenerator::new(&instance).generate()?;
//! let config = RuntimeConfig::builder()
//!     .nodes(4)
//!     .duration_s(2.0)
//!     .drop_rate(0.05)
//!     .seed(42)
//!     .build()?;
//! let handle = ExecutorBuilder::new(FleetSpec::new(&instance, &partition, config)?)
//!     .shards(ShardCount::Auto)
//!     .build()?
//!     .run();
//! assert!(handle.report.total_completed() > 0);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod columnar;
pub mod config;
pub mod controller;
pub mod executor;
pub mod lifecycle;
pub mod link;
pub mod report;
pub mod rng;
pub mod shard;
pub mod sketch;
pub mod soundness;
pub mod tenant;
pub mod trace;

#[cfg(test)]
mod testutil;

pub use columnar::{
    node_columns, summarize_timesteps, ColumnBatch, ColumnData, ColumnIndex, TimestepSummary,
};
pub use config::{RuntimeConfig, RuntimeConfigBuilder};
pub use controller::{PartitionSwitch, PlanAudit, Tier, TierTimes};
pub use executor::{ExecutorBuilder, FleetExecutor, FleetSpec, RunHandle, ShardCount};
pub use lifecycle::{NodeLifecycle, OutageSchedule};
pub use link::{BurstProfile, LossyLink};
pub use report::{AggregatorReport, LatencyStats, NodeReport, RunReport, TenantReport};
pub use sketch::QuantileSketch;
pub use soundness::{
    check_report, check_score_deviations, check_tenant_report, deployment_bounds,
    envelope_timing_model, tenant_bounds, tenant_models, timing_model, BoundViolation,
};
pub use tenant::TenantSpec;
