//! An XPro instance: a cell graph priced under a concrete system
//! configuration.
//!
//! Instantiation applies design rule 2 (paper §3.1.2): every cell gets the
//! most energy-efficient monotonic ALU mode for its module, as chosen by the
//! hardware library's Figure-4 characterization.

use crate::analysis::cell_specs;
use crate::builder::BuiltGraph;
use crate::config::SystemConfig;
use crate::error::XProError;
use std::collections::BTreeMap;
use xpro_analyze::{analyze_approx, AnalysisReport, AnalyzeOptions, SignalBounds, Verdict};
use xpro_hw::approx::approx_op_counts;
use xpro_hw::{AluMode, ApproxConfig, CellCost};

/// A priced XPro instance ready for partitioning.
#[derive(Clone, Debug)]
pub struct XProInstance {
    built: BuiltGraph,
    config: SystemConfig,
    /// True (unpadded) raw segment length of the workload, which sets the
    /// raw-upload payload and the event rate.
    segment_len: usize,
    /// Input-signal bounds the numeric analysis ran against; kept so a
    /// re-priced instance ([`XProInstance::reconfigured`]) analyzes the
    /// graph under the same assumptions.
    bounds: SignalBounds,
    /// Per-cell approximation knobs the instance is priced (and analyzed)
    /// under; empty for an exact instance. Hashed into
    /// [`crate::plancache::PlanCache::key`], so approximate and exact
    /// configurations never share a cache entry.
    approx: BTreeMap<usize, ApproxConfig>,
    sensor_costs: Vec<CellCost>,
    sensor_modes: Vec<AluMode>,
    agg_energy_pj: Vec<f64>,
    agg_time_s: Vec<f64>,
    analysis: AnalysisReport,
}

impl XProInstance {
    /// Prices a built graph under a system configuration, assuming the
    /// normalized `[-1, 1]` input range for the numeric analysis.
    ///
    /// # Errors
    ///
    /// Returns [`XProError::Config`] if `segment_len == 0` or the graph is
    /// empty.
    pub fn try_new(
        built: BuiltGraph,
        config: SystemConfig,
        segment_len: usize,
    ) -> Result<Self, XProError> {
        XProInstance::try_with_bounds(built, config, segment_len, SignalBounds::default())
    }

    /// Prices a built graph under a system configuration and runs the
    /// static range analysis against explicit input-signal bounds (e.g.
    /// from dataset metadata).
    ///
    /// # Errors
    ///
    /// Returns [`XProError::Config`] if `segment_len == 0` or the graph is
    /// empty.
    pub fn try_with_bounds(
        built: BuiltGraph,
        config: SystemConfig,
        segment_len: usize,
        bounds: SignalBounds,
    ) -> Result<Self, XProError> {
        XProInstance::try_with_approx(built, config, segment_len, bounds, BTreeMap::new())
    }

    /// Prices a built graph under a system configuration *and* a per-cell
    /// approximation assignment: approximated cells are priced with their
    /// approximate kernels (truncated multiplier array, skipped DWT level,
    /// power-gated pruned SVMs) and the static range analysis runs with
    /// each knob's worst-case deviation injected as fresh affine noise, so
    /// the instance's verdicts and envelopes are sound for the approximate
    /// datapath.
    ///
    /// The aggregator side keeps exact per-op energies (its multiplier
    /// hardware is fixed) but runs the same approximate algorithms, so
    /// pruned and skipped cells shed their op counts on both ends.
    ///
    /// # Errors
    ///
    /// Returns [`XProError::Config`] if `segment_len == 0`, the graph is
    /// empty, or an assigned [`ApproxConfig`] is invalid or names a cell
    /// outside the graph.
    pub fn try_with_approx(
        built: BuiltGraph,
        config: SystemConfig,
        segment_len: usize,
        bounds: SignalBounds,
        approx: BTreeMap<usize, ApproxConfig>,
    ) -> Result<Self, XProError> {
        if segment_len == 0 {
            return Err(XProError::config("segment length must be positive"));
        }
        if built.graph.is_empty() {
            return Err(XProError::config("cell graph has no cells"));
        }
        check_assignment(&built, &approx)?;
        let analysis = analyze_approx(
            &cell_specs(&built.graph),
            bounds,
            &AnalyzeOptions::default(),
            &approx,
        );
        Ok(XProInstance::priced(
            built,
            config,
            segment_len,
            bounds,
            approx,
            analysis,
        ))
    }

    /// Prices every cell of a validated graph under `config` and `approx`;
    /// `analysis` must be the range analysis of the same graph, bounds and
    /// assignment.
    fn priced(
        built: BuiltGraph,
        config: SystemConfig,
        segment_len: usize,
        bounds: SignalBounds,
        approx: BTreeMap<usize, ApproxConfig>,
        analysis: AnalysisReport,
    ) -> Self {
        let mut sensor_costs = Vec::with_capacity(built.graph.len());
        let mut sensor_modes = Vec::with_capacity(built.graph.len());
        let mut agg_energy_pj = Vec::with_capacity(built.graph.len());
        let mut agg_time_s = Vec::with_capacity(built.graph.len());
        for (i, cell) in built.graph.cells().iter().enumerate() {
            let cfg = approx.get(&i).copied().unwrap_or(ApproxConfig::EXACT);
            let (mode, cost) = config
                .cost_model
                .best_mode_approx(&cell.module, config.node, &cfg);
            sensor_modes.push(mode);
            sensor_costs.push(cost);
            let ops = approx_op_counts(&cell.module, &cfg);
            agg_energy_pj.push(config.aggregator.energy_pj(&ops));
            agg_time_s.push(config.aggregator.time_s(&ops));
        }
        XProInstance {
            built,
            config,
            segment_len,
            bounds,
            approx,
            sensor_costs,
            sensor_modes,
            agg_energy_pj,
            agg_time_s,
            analysis,
        }
    }

    /// Re-prices this instance's graph under a per-cell approximation
    /// assignment, keeping the workload, configuration, and analysis
    /// bounds.
    ///
    /// # Errors
    ///
    /// Same as [`XProInstance::try_with_approx`].
    pub fn with_approx(&self, approx: BTreeMap<usize, ApproxConfig>) -> Result<Self, XProError> {
        XProInstance::try_with_approx(
            self.built.clone(),
            self.config.clone(),
            self.segment_len,
            self.bounds,
            approx,
        )
    }

    /// [`XProInstance::with_approx`] with the assignment's range analysis
    /// supplied by the caller, who must have computed it as
    /// `analyze_approx(&cell_specs(&graph), self.bounds(),
    /// &AnalyzeOptions::default(), &approx)` (the approximate run of a
    /// budget proof is exactly that).
    ///
    /// # Errors
    ///
    /// Returns [`XProError::Config`] if an assigned [`ApproxConfig`] is
    /// invalid or names a cell outside the graph.
    pub(crate) fn with_approx_analyzed(
        &self,
        approx: BTreeMap<usize, ApproxConfig>,
        analysis: AnalysisReport,
    ) -> Result<Self, XProError> {
        check_assignment(&self.built, &approx)?;
        Ok(XProInstance::priced(
            self.built.clone(),
            self.config.clone(),
            self.segment_len,
            self.bounds,
            approx,
            analysis,
        ))
    }

    /// Re-prices this instance's graph under a different system
    /// configuration, keeping the workload (graph, segment length), the
    /// numeric-analysis input bounds and the approximation assignment.
    ///
    /// The range analysis depends only on the graph, the bounds and the
    /// assignment, never on the configuration, so it is reused rather than
    /// re-run; only the per-cell prices are re-derived. The result equals
    /// a fresh [`XProInstance::try_with_approx`] over the same inputs.
    ///
    /// This is the generator re-entry path of the adaptive controller: when
    /// runtime observation shows the wireless channel costing more (or
    /// less) than the static plan assumed, the controller derates the radio
    /// model, reconfigures the instance and re-runs
    /// [`crate::generator::XProGenerator::generate`] on the result.
    ///
    /// # Errors
    ///
    /// Never fails: the instance's inputs were validated when it was
    /// built, and a configuration change cannot invalidate them. The
    /// signature stays fallible so callers compose it with `?`.
    pub fn reconfigured(&self, config: SystemConfig) -> Result<Self, XProError> {
        Ok(XProInstance::priced(
            self.built.clone(),
            config,
            self.segment_len,
            self.bounds,
            self.approx.clone(),
            self.analysis.clone(),
        ))
    }

    /// The per-cell approximation assignment this instance is priced
    /// under; empty for an exact instance.
    pub fn approx(&self) -> &BTreeMap<usize, ApproxConfig> {
        &self.approx
    }

    /// Whether any cell carries a non-exact approximation knob.
    pub fn is_approximate(&self) -> bool {
        !self.approx.is_empty()
    }

    /// Input-signal bounds the numeric analysis ran against.
    pub fn bounds(&self) -> SignalBounds {
        self.bounds
    }

    /// The static range analysis of the graph under this instance's input
    /// bounds.
    pub fn analysis(&self) -> &AnalysisReport {
        &self.analysis
    }

    /// Numeric verdict of a cell.
    pub fn cell_verdict(&self, cell: usize) -> Verdict {
        self.analysis.verdict(cell)
    }

    /// Whether a cell is safe to run on the fixed-point sensor end: the
    /// analysis could not find a reachable input that saturates it.
    pub fn cell_numerically_safe(&self, cell: usize) -> bool {
        self.cell_verdict(cell).is_overflow_free()
    }

    /// The underlying graph and classifier wiring.
    pub fn built(&self) -> &BuiltGraph {
        &self.built
    }

    /// The system configuration.
    pub fn config(&self) -> &SystemConfig {
        &self.config
    }

    /// Raw (unpadded) segment length in samples.
    pub fn segment_len(&self) -> usize {
        self.segment_len
    }

    /// Events analyzed per second under the configured sampling rate.
    pub fn events_per_second(&self) -> f64 {
        self.config.events_per_second(self.segment_len)
    }

    /// In-sensor cost (best monotonic mode) of a cell.
    pub fn sensor_cost(&self, cell: usize) -> CellCost {
        self.sensor_costs[cell]
    }

    /// Chosen ALU mode of a cell.
    pub fn sensor_mode(&self, cell: usize) -> AluMode {
        self.sensor_modes[cell]
    }

    /// In-sensor latency of a cell in seconds at the 16 MHz sensor clock.
    pub fn sensor_time_s(&self, cell: usize) -> f64 {
        self.sensor_costs[cell].delay_s(xpro_hw::SENSOR_CLOCK_HZ)
    }

    /// In-aggregator energy of a cell in picojoules.
    pub fn aggregator_energy_pj(&self, cell: usize) -> f64 {
        self.agg_energy_pj[cell]
    }

    /// In-aggregator execution time of a cell in seconds.
    pub fn aggregator_time_s(&self, cell: usize) -> f64 {
        self.agg_time_s[cell]
    }

    /// Number of cells.
    pub fn num_cells(&self) -> usize {
        self.built.graph.len()
    }
}

/// Checks that every assigned knob is valid and names a cell of the graph.
fn check_assignment(
    built: &BuiltGraph,
    approx: &BTreeMap<usize, ApproxConfig>,
) -> Result<(), XProError> {
    for (&cell, cfg) in approx {
        if cell >= built.graph.len() {
            return Err(XProError::config(format!(
                "approx assignment names cell {cell} of a {}-cell graph",
                built.graph.len()
            )));
        }
        cfg.validate().map_err(XProError::config)?;
    }
    Ok(())
}
