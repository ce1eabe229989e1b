//! End-to-end training and execution of the generic classification pipeline.
//!
//! Ties the substrates together for one Table-1 case: feature extraction
//! (time domain + 5-level DWT, 56 features), min-max scaling, random-
//! subspace training, cell-graph construction and functional execution of a
//! partitioned engine. The partitioned execution path reproduces exactly the
//! ensemble's predictions — asserted by the cross-end equivalence tests —
//! because a cut changes *where* cells run, never *what* they compute.

use crate::builder::{build_cell_graph, BuildOptions, BuiltGraph};
use crate::error::XProError;
use crate::layout::{Domain, FeatureLayout, DWT_INPUT_LEN, DWT_LEVELS};
use crate::partition::Partition;
use std::collections::BTreeMap;
use xpro_data::Dataset;
use xpro_hw::ApproxConfig;
use xpro_ml::cv::{gather, stratified_split};
use xpro_ml::metrics::accuracy;
use xpro_ml::{MinMaxScaler, RandomSubspaceModel, SubspaceConfig};
use xpro_signal::dwt::{dwt_multilevel, dwt_multilevel_approx, dwt_multilevel_q16_approx, Wavelet};
use xpro_signal::fixed::Q16;
use xpro_signal::stats::{all_features_q16, feature_f64, FeatureKind};
use xpro_signal::window::fit_length;

/// Training options for a pipeline.
#[derive(Clone, Debug, PartialEq)]
pub struct PipelineConfig {
    /// Random-subspace training configuration.
    pub subspace: SubspaceConfig,
    /// Fraction of segments used for training (paper §4.4: 75 %).
    pub train_fraction: f64,
    /// Wavelet family for the DWT cells.
    pub wavelet: Wavelet,
    /// Cell-graph construction options.
    pub build: BuildOptions,
    /// Split seed.
    pub seed: u64,
}

impl Default for PipelineConfig {
    fn default() -> Self {
        PipelineConfig {
            subspace: SubspaceConfig::default(),
            train_fraction: 0.75,
            wavelet: Wavelet::Haar,
            build: BuildOptions::default(),
            seed: 7,
        }
    }
}

impl PipelineConfig {
    /// Starts a fluent builder seeded with the default configuration.
    ///
    /// ```
    /// use xpro_core::pipeline::PipelineConfig;
    ///
    /// let cfg = PipelineConfig::builder().train_fraction(0.8).seed(3).build()?;
    /// assert_eq!(cfg.seed, 3);
    /// # Ok::<(), xpro_core::XProError>(())
    /// ```
    pub fn builder() -> PipelineConfigBuilder {
        PipelineConfigBuilder::default()
    }

    /// Re-opens this configuration as a builder, for deriving variants.
    ///
    /// ```
    /// use xpro_core::pipeline::PipelineConfig;
    ///
    /// let base = PipelineConfig::builder().seed(3).build()?;
    /// let variant = base.into_builder().train_fraction(0.8).build()?;
    /// assert_eq!(variant.seed, 3);
    /// # Ok::<(), xpro_core::XProError>(())
    /// ```
    pub fn into_builder(self) -> PipelineConfigBuilder {
        PipelineConfigBuilder { cfg: self }
    }
}

/// Fluent builder for [`PipelineConfig`]; ranges are validated once, at
/// [`PipelineConfigBuilder::build`].
#[derive(Clone, Debug, Default)]
pub struct PipelineConfigBuilder {
    cfg: PipelineConfig,
}

impl PipelineConfigBuilder {
    /// Random-subspace training configuration.
    pub fn subspace(mut self, subspace: SubspaceConfig) -> Self {
        self.cfg.subspace = subspace;
        self
    }

    /// Fraction of segments used for training (must land in `(0, 1)`).
    pub fn train_fraction(mut self, fraction: f64) -> Self {
        self.cfg.train_fraction = fraction;
        self
    }

    /// Wavelet family for the DWT cells.
    pub fn wavelet(mut self, wavelet: Wavelet) -> Self {
        self.cfg.wavelet = wavelet;
        self
    }

    /// Cell-graph construction options.
    pub fn build_options(mut self, build: BuildOptions) -> Self {
        self.cfg.build = build;
        self
    }

    /// Train/test split seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.cfg.seed = seed;
        self
    }

    /// Validates the accumulated configuration.
    ///
    /// # Errors
    ///
    /// Returns [`XProError::Config`] when the train fraction leaves either
    /// split empty, the subspace has no candidates or features, the kept
    /// fraction is out of `(0, 1]`, or cross-validation has fewer than two
    /// folds.
    pub fn build(self) -> Result<PipelineConfig, XProError> {
        let c = &self.cfg;
        if !(c.train_fraction > 0.0 && c.train_fraction < 1.0) {
            return Err(XProError::config(format!(
                "train_fraction must be in (0, 1), got {}",
                c.train_fraction
            )));
        }
        if c.subspace.candidates == 0 {
            return Err(XProError::config("subspace.candidates must be positive"));
        }
        if c.subspace.features_per_base == 0 {
            return Err(XProError::config(
                "subspace.features_per_base must be positive",
            ));
        }
        if !(c.subspace.keep_fraction > 0.0 && c.subspace.keep_fraction <= 1.0) {
            return Err(XProError::config(format!(
                "subspace.keep_fraction must be in (0, 1], got {}",
                c.subspace.keep_fraction
            )));
        }
        if c.subspace.folds < 2 {
            return Err(XProError::config("subspace.folds must be at least 2"));
        }
        if c.build.dwt_taps < 2 {
            return Err(XProError::config("build.dwt_taps must be at least 2"));
        }
        Ok(self.cfg)
    }
}

/// Extracts the 56-entry feature vector of the generic framework from one
/// raw segment (any length; padded/truncated to the 128-sample DWT input).
pub fn extract_features(segment: &[f64], wavelet: Wavelet) -> Vec<f64> {
    let padded = fit_length(segment, DWT_INPUT_LEN);
    let dec = dwt_multilevel(&padded, DWT_LEVELS, wavelet);
    let mut out = vec![0.0; FeatureLayout::DIM];
    let mut fill = |domain: Domain, window: &[f64]| {
        for kind in FeatureKind::ALL {
            out[FeatureLayout::index(domain, kind)] = feature_f64(kind, window);
        }
    };
    fill(Domain::Time, &padded);
    for (level, detail) in dec.details.iter().enumerate() {
        fill(Domain::Detail(level as u8 + 1), detail);
    }
    fill(Domain::Approx, &dec.approx);
    out
}

/// One segment's feature layer on both datapaths: for every feature cell
/// of a pipeline's graph, the value it computes on the aggregator (`f64`)
/// and on the sensor (Q16.16, widened exactly to `f64`), indexed by
/// [`FeatureLayout::index`]. A Std cell that reuses Var derives its value
/// from the Var entry instead of reading its own.
///
/// A partition only selects which of the two values each SVM reads, so
/// one front end serves every partition and every assignment with the
/// same `dwt_skip` flag.
#[derive(Debug)]
pub(crate) struct FrontEnd {
    float: [f64; FeatureLayout::DIM],
    fixed: [f64; FeatureLayout::DIM],
}

/// A trained XPro pipeline for one dataset case.
#[derive(Clone, Debug)]
pub struct XProPipeline {
    model: RandomSubspaceModel,
    scaler: MinMaxScaler,
    built: BuiltGraph,
    wavelet: Wavelet,
    /// Accuracy on the held-out test split.
    test_accuracy: f64,
    /// Raw (unpadded) segment length of the case.
    segment_len: usize,
}

impl XProPipeline {
    /// Trains the full pipeline on a dataset: 75/25 stratified split,
    /// feature extraction, scaling, random-subspace training, cell-graph
    /// construction.
    ///
    /// # Errors
    ///
    /// Returns [`XProError::Train`] when ensemble training fails (e.g. a
    /// degenerate dataset) and [`XProError::Config`] for an empty dataset.
    pub fn train(dataset: &Dataset, cfg: &PipelineConfig) -> Result<Self, XProError> {
        if dataset.segments.is_empty() {
            return Err(XProError::config("dataset has no segments"));
        }
        let features: Vec<Vec<f64>> = dataset
            .segments
            .iter()
            .map(|s| extract_features(s, cfg.wavelet))
            .collect();
        let split = stratified_split(&dataset.labels, cfg.train_fraction, cfg.seed);
        let train_x = gather(&features, &split.train);
        let train_y = gather(&dataset.labels, &split.train);
        let scaler = MinMaxScaler::fit(&train_x);
        let train_x = scaler.transform(&train_x);
        let model = RandomSubspaceModel::train(&train_x, &train_y, &cfg.subspace)?;

        let test_x = scaler.transform(&gather(&features, &split.test));
        let test_y = gather(&dataset.labels, &split.test);
        let preds: Vec<f64> = test_x.iter().map(|x| model.predict(x)).collect();
        let test_accuracy = accuracy(&preds, &test_y);

        let built = build_cell_graph(&model, &cfg.build);
        Ok(XProPipeline {
            model,
            scaler,
            built,
            wavelet: cfg.wavelet,
            test_accuracy,
            segment_len: dataset.segment_len,
        })
    }

    /// Classifies a raw segment through the monolithic (vector) path.
    pub fn classify(&self, segment: &[f64]) -> f64 {
        let features = extract_features(segment, self.wavelet);
        self.model.predict(&self.scaler.transform_one(&features))
    }

    /// Classifies a raw segment by executing the functional-cell graph under
    /// an explicit partition. Cell placement affects only where work runs;
    /// the returned label is identical to [`XProPipeline::classify`] — the
    /// functional-equivalence property of the cross-end architecture.
    ///
    /// # Panics
    ///
    /// Panics if the partition size differs from the cell count.
    pub fn classify_partitioned(&self, segment: &[f64], partition: &Partition) -> f64 {
        assert_eq!(
            partition.in_sensor.len(),
            self.built.graph.len(),
            "partition size mismatch"
        );
        let padded = fit_length(segment, DWT_INPUT_LEN);
        let dec = dwt_multilevel(&padded, DWT_LEVELS, self.wavelet);
        let window_of = |domain: Domain| -> &[f64] {
            match domain {
                Domain::Time => &padded,
                Domain::Detail(l) => &dec.details[l as usize - 1],
                Domain::Approx => &dec.approx,
            }
        };

        // Execute feature cells (graph order is topological).
        let mut raw_feature: Vec<f64> = vec![0.0; FeatureLayout::DIM];
        for (&fi, &cid) in &self.built.feature_cells {
            let (domain, kind) = FeatureLayout::decode(fi);
            let cell = &self.built.graph.cells()[cid];
            let value = match cell.module {
                xpro_hw::ModuleKind::Feature {
                    reuses_var: true, ..
                } => {
                    // Std reusing Var: sqrt of the upstream Var cell value.
                    let var_idx = FeatureLayout::index(domain, FeatureKind::Var);
                    raw_feature[var_idx].max(0.0).sqrt()
                }
                _ => feature_f64(kind, window_of(domain)),
            };
            raw_feature[fi] = value;
        }

        // SVM cells vote on their (scaled) feature subsets.
        let votes: Vec<f64> = self
            .built
            .svm_cells
            .iter()
            .zip(self.model.bases())
            .map(|(_, base)| {
                let projected: Vec<f64> = base
                    .feature_indices
                    .iter()
                    .map(|&fi| self.scaler.transform_feature(fi, raw_feature[fi]))
                    .collect();
                base.svm.predict(&projected)
            })
            .collect();

        // Fusion cell.
        self.model.fusion().predict(&votes)
    }

    /// Classifies a raw segment with the in-sensor cells running on the
    /// Q16.16 fixed-point datapath (paper §4.4: "32-bit fixed-number with
    /// 16-bit integer and 16-bit decimals for functional cells") and the
    /// in-aggregator cells in `f64` software — the numerically faithful
    /// cross-end execution. This is
    /// [`XProPipeline::classify_partitioned_q16_approx`] with no
    /// approximation knob set.
    ///
    /// Quantization can flip predictions on segments close to the decision
    /// boundary; the integration tests bound the disagreement rate against
    /// [`XProPipeline::classify`].
    ///
    /// # Panics
    ///
    /// Panics if the partition size differs from the cell count.
    pub fn classify_partitioned_q16(&self, segment: &[f64], partition: &Partition) -> f64 {
        self.classify_partitioned_q16_approx(segment, partition, &BTreeMap::new())
    }

    /// Per-base decision scores of the cross-end Q16 execution path under a
    /// partition — the raw SVM decision values before thresholding into
    /// votes. In-sensor SVM cells evaluate on the Q16 datapath; aggregator
    /// cells in `f64`.
    ///
    /// # Panics
    ///
    /// Panics if the partition size differs from the cell count.
    pub fn base_scores_q16(&self, segment: &[f64], partition: &Partition) -> Vec<f64> {
        self.base_scores_q16_approx(segment, partition, &BTreeMap::new())
    }

    /// Per-base decision scores under a partition *and* a per-cell
    /// approximation assignment, executing the approximate kernels:
    ///
    /// * `dwt_skip` on the deepest DWT cell replaces that level's filter
    ///   bank with the decimation approximation on **both** ends (an
    ///   algorithmic knob: placement changes where cells run, never what
    ///   they compute);
    /// * `mul_truncation_bits` applies only to in-sensor SVM cells (it
    ///   models the sensor's truncated multiplier array; the aggregator's
    ///   hardware is exact);
    /// * `svm_prune` power-gates a base entirely — its score is reported
    ///   as `0.0` and it abstains from fusion on both ends.
    ///
    /// A `dwt_skip` assigned to any non-deepest DWT cell is ignored by
    /// execution (the planner only ever assigns the deepest level; the
    /// static analysis of such an assignment is conservative).
    ///
    /// # Panics
    ///
    /// Panics if the partition size differs from the cell count.
    pub fn base_scores_q16_approx(
        &self,
        segment: &[f64],
        partition: &Partition,
        assignment: &BTreeMap<usize, ApproxConfig>,
    ) -> Vec<f64> {
        assert_eq!(
            partition.in_sensor.len(),
            self.built.graph.len(),
            "partition size mismatch"
        );
        let front = self.front_end(segment, self.skips_deepest_dwt(assignment));
        (0..self.built.svm_cells.len())
            .map(|b| self.base_score(&front, b, partition, self.svm_knob(b, assignment)))
            .collect()
    }

    /// Classifies a raw segment on the cross-end Q16 path under a partition
    /// and an approximation assignment (see
    /// [`XProPipeline::base_scores_q16_approx`] for the kernel semantics).
    /// Pruned bases abstain (vote `0.0`); all other scores threshold at
    /// zero as usual.
    ///
    /// # Panics
    ///
    /// Panics if the partition size differs from the cell count.
    pub fn classify_partitioned_q16_approx(
        &self,
        segment: &[f64],
        partition: &Partition,
        assignment: &BTreeMap<usize, ApproxConfig>,
    ) -> f64 {
        let scores = self.base_scores_q16_approx(segment, partition, assignment);
        let pruned: Vec<bool> = (0..scores.len())
            .map(|b| self.svm_knob(b, assignment).svm_prune)
            .collect();
        self.predict_from_scores(&scores, &pruned)
    }

    /// Whether `assignment` skips the deepest DWT level — the only level
    /// the reduced-depth kernel applies to.
    pub(crate) fn skips_deepest_dwt(&self, assignment: &BTreeMap<usize, ApproxConfig>) -> bool {
        let cells = self.built.graph.cells();
        cells
            .iter()
            .rposition(|c| matches!(c.module, xpro_hw::ModuleKind::DwtLevel { .. }))
            .and_then(|cid| assignment.get(&cid).map(|cfg| (cid, cfg)))
            .is_some_and(|(cid, cfg)| cfg.effective_for(&cells[cid].module).dwt_skip)
    }

    /// The knob base `b`'s SVM cell honours under `assignment`.
    pub(crate) fn svm_knob(
        &self,
        b: usize,
        assignment: &BTreeMap<usize, ApproxConfig>,
    ) -> ApproxConfig {
        let cid = self.built.svm_cells[b];
        assignment.get(&cid).map_or(ApproxConfig::EXACT, |cfg| {
            cfg.effective_for(&self.built.graph.cells()[cid].module)
        })
    }

    /// Runs a segment through the front end on both datapaths: the padded
    /// input, its `f64` and Q16.16 DWTs (deepest level skipped when
    /// `skip_deepest_dwt`), every feature cell's `f64` output, and all
    /// eight Q16 features of every domain that holds a feature cell.
    pub(crate) fn front_end(&self, segment: &[f64], skip_deepest_dwt: bool) -> FrontEnd {
        let padded = fit_length(segment, DWT_INPUT_LEN);
        let dec = dwt_multilevel_approx(&padded, DWT_LEVELS, self.wavelet, skip_deepest_dwt);
        let padded_q: Vec<Q16> = padded.iter().map(|&v| Q16::from_f64(v)).collect();
        let (details_q, approx_q) =
            dwt_multilevel_q16_approx(&padded_q, DWT_LEVELS, self.wavelet, skip_deepest_dwt);

        let mut front = FrontEnd {
            float: [0.0; FeatureLayout::DIM],
            fixed: [0.0; FeatureLayout::DIM],
        };
        for domain in Domain::all() {
            let holds_cell = FeatureKind::ALL.iter().any(|&kind| {
                self.built
                    .feature_cells
                    .contains_key(&FeatureLayout::index(domain, kind))
            });
            if !holds_cell {
                continue;
            }
            let (float_window, fixed_window): (&[f64], &[Q16]) = match domain {
                Domain::Time => (&padded, &padded_q),
                Domain::Detail(l) => (&dec.details[l as usize - 1], &details_q[l as usize - 1]),
                Domain::Approx => (&dec.approx, &approx_q),
            };
            let fixed = all_features_q16(fixed_window);
            for kind in FeatureKind::ALL {
                let fi = FeatureLayout::index(domain, kind);
                if self
                    .built
                    .feature_cells
                    .get(&fi)
                    .is_some_and(|&cid| !self.reuses_var(cid))
                {
                    front.float[fi] = feature_f64(kind, float_window);
                }
                front.fixed[fi] = fixed[kind.index()].to_f64();
            }
        }
        front
    }

    /// Whether feature cell `cid` is a Std that reuses its domain's Var
    /// cell (paper §3.1.3).
    fn reuses_var(&self, cid: usize) -> bool {
        matches!(
            self.built.graph.cells()[cid].module,
            xpro_hw::ModuleKind::Feature {
                reuses_var: true,
                ..
            }
        )
    }

    /// The value feature `fi` reaches the SVMs with: its cell's output on
    /// the end `partition` places it. A Std that reuses Var takes the
    /// square root of the Var cell's output on its own end.
    fn cell_feature(&self, front: &FrontEnd, fi: usize, partition: &Partition) -> f64 {
        let Some(&cid) = self.built.feature_cells.get(&fi) else {
            return 0.0;
        };
        let on_sensor = partition.in_sensor[cid];
        if self.reuses_var(cid) {
            let (domain, _) = FeatureLayout::decode(fi);
            let var = self.cell_feature(
                front,
                FeatureLayout::index(domain, FeatureKind::Var),
                partition,
            );
            if on_sensor {
                Q16::from_f64(var).sqrt().to_f64()
            } else {
                var.max(0.0).sqrt()
            }
        } else if on_sensor {
            front.fixed[fi]
        } else {
            front.float[fi]
        }
    }

    /// The placements base `b`'s score reads under `partition`: each input
    /// feature cell's, followed by the Var cell's for an input Std that
    /// reuses it. A feature without a cell reads as aggregator-placed.
    pub(crate) fn score_placements(&self, b: usize, partition: &Partition) -> Vec<bool> {
        let mut out = Vec::new();
        for &fi in &self.model.bases()[b].feature_indices {
            let Some(&cid) = self.built.feature_cells.get(&fi) else {
                out.push(false);
                continue;
            };
            out.push(partition.in_sensor[cid]);
            if self.reuses_var(cid) {
                let (domain, _) = FeatureLayout::decode(fi);
                let var = FeatureLayout::index(domain, FeatureKind::Var);
                out.push(partition.in_sensor[self.built.feature_cells[&var]]);
            }
        }
        out
    }

    /// Decision score of base `b` from a segment's front end, as its SVM
    /// cell computes it under `partition` with the effective knob `knob`
    /// (`0.0` for a pruned base).
    pub(crate) fn base_score(
        &self,
        front: &FrontEnd,
        b: usize,
        partition: &Partition,
        knob: ApproxConfig,
    ) -> f64 {
        if knob.svm_prune {
            return 0.0;
        }
        let base = &self.model.bases()[b];
        let projected: Vec<f64> = base
            .feature_indices
            .iter()
            .map(|&fi| {
                self.scaler
                    .transform_feature(fi, self.cell_feature(front, fi, partition))
            })
            .collect();
        if partition.in_sensor[self.built.svm_cells[b]] {
            let projected_q: Vec<Q16> = projected.iter().map(|&v| Q16::from_f64(v)).collect();
            base.svm
                .decision_q16_trunc(&projected_q, u32::from(knob.mul_truncation_bits))
                .to_f64()
        } else {
            base.svm.decision(&projected)
        }
    }

    /// The fused ±1 prediction from per-base scores: pruned bases abstain
    /// (vote `0.0`), the others vote by the sign of their score.
    pub(crate) fn predict_from_scores(&self, scores: &[f64], pruned: &[bool]) -> f64 {
        let votes: Vec<f64> = scores
            .iter()
            .zip(pruned)
            .map(|(&score, &pruned)| {
                if pruned {
                    0.0
                } else if score >= 0.0 {
                    1.0
                } else {
                    -1.0
                }
            })
            .collect();
        self.model.fusion().predict(&votes)
    }

    /// The trained ensemble.
    pub fn model(&self) -> &RandomSubspaceModel {
        &self.model
    }

    /// The fitted feature scaler.
    pub fn scaler(&self) -> &MinMaxScaler {
        &self.scaler
    }

    /// The constructed cell graph and wiring.
    pub fn built(&self) -> &BuiltGraph {
        &self.built
    }

    /// Consumes the pipeline, returning the cell graph and wiring.
    pub fn into_built(self) -> BuiltGraph {
        self.built
    }

    /// Held-out test accuracy measured during training.
    pub fn test_accuracy(&self) -> f64 {
        self.test_accuracy
    }

    /// Raw segment length of the trained case.
    pub fn segment_len(&self) -> usize {
        self.segment_len
    }

    /// Wavelet used by the DWT cells.
    pub fn wavelet(&self) -> Wavelet {
        self.wavelet
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used)] // tests fail loudly by design

    use super::*;
    use xpro_data::{generate_case_sized, CaseId};

    fn quick_cfg() -> PipelineConfig {
        PipelineConfig::builder()
            .subspace(SubspaceConfig {
                candidates: 10,
                features_per_base: 8,
                keep_fraction: 0.3,
                min_keep: 3,
                folds: 2,
                ..SubspaceConfig::default()
            })
            .build()
            .unwrap()
    }

    #[test]
    fn builder_defaults_match_default_impl() {
        assert_eq!(
            PipelineConfig::builder().build().unwrap(),
            PipelineConfig::default()
        );
    }

    #[test]
    fn builder_rejects_out_of_range_values() {
        for bad in [
            PipelineConfig::builder().train_fraction(0.0).build(),
            PipelineConfig::builder().train_fraction(1.0).build(),
            PipelineConfig::builder()
                .subspace(SubspaceConfig {
                    candidates: 0,
                    ..SubspaceConfig::default()
                })
                .build(),
            PipelineConfig::builder()
                .subspace(SubspaceConfig {
                    keep_fraction: 0.0,
                    ..SubspaceConfig::default()
                })
                .build(),
            PipelineConfig::builder()
                .subspace(SubspaceConfig {
                    folds: 1,
                    ..SubspaceConfig::default()
                })
                .build(),
        ] {
            assert!(matches!(bad, Err(crate::XProError::Config(_))), "{bad:?}");
        }
    }

    #[test]
    fn trains_on_a_small_case_with_decent_accuracy() {
        let data = generate_case_sized(CaseId::E2, 120, 1);
        let p = XProPipeline::train(&data, &quick_cfg()).unwrap();
        assert!(
            p.test_accuracy() > 0.6,
            "test accuracy {}",
            p.test_accuracy()
        );
        assert_eq!(p.segment_len(), 128);
    }

    #[test]
    fn feature_extraction_has_layout_dim() {
        let seg = vec![0.5; 82];
        let f = extract_features(&seg, Wavelet::Haar);
        assert_eq!(f.len(), FeatureLayout::DIM);
    }

    #[test]
    fn partitioned_execution_matches_vector_path() {
        let data = generate_case_sized(CaseId::C1, 100, 2);
        let p = XProPipeline::train(&data, &quick_cfg()).unwrap();
        let n = p.built().graph.len();
        let partitions = [
            Partition::all_sensor(n),
            Partition::all_aggregator(n),
            Partition {
                in_sensor: (0..n).map(|i| i % 2 == 0).collect(),
            },
        ];
        for seg in data.segments.iter().take(30) {
            let reference = p.classify(seg);
            for part in &partitions {
                assert_eq!(
                    p.classify_partitioned(seg, part),
                    reference,
                    "cross-end execution diverged"
                );
            }
        }
    }

    #[test]
    fn fixed_point_execution_rarely_disagrees_with_float() {
        let data = generate_case_sized(CaseId::E1, 100, 4);
        let p = XProPipeline::train(&data, &quick_cfg()).unwrap();
        let n = p.built().graph.len();
        let all_sensor = Partition::all_sensor(n);
        let mut disagreements = 0usize;
        for seg in &data.segments {
            if p.classify_partitioned_q16(seg, &all_sensor) != p.classify(seg) {
                disagreements += 1;
            }
        }
        // Q16.16 quantization may flip boundary segments, but only rarely.
        assert!(
            disagreements <= data.len() / 10,
            "{disagreements}/{} disagreements",
            data.len()
        );
    }

    #[test]
    fn q16_execution_on_all_aggregator_matches_float_exactly() {
        // With every cell on the aggregator, the Q16 path computes nothing
        // in fixed point and must equal the monolithic classifier.
        let data = generate_case_sized(CaseId::M2, 60, 5);
        let p = XProPipeline::train(&data, &quick_cfg()).unwrap();
        let part = Partition::all_aggregator(p.built().graph.len());
        for seg in data.segments.iter().take(20) {
            assert_eq!(p.classify_partitioned_q16(seg, &part), p.classify(seg));
        }
    }

    #[test]
    fn empty_assignment_matches_exact_q16_path() {
        let data = generate_case_sized(CaseId::E1, 80, 6);
        let p = XProPipeline::train(&data, &quick_cfg()).unwrap();
        let n = p.built().graph.len();
        let parts = [
            Partition::all_sensor(n),
            Partition {
                in_sensor: (0..n).map(|i| i % 3 != 0).collect(),
            },
        ];
        for seg in data.segments.iter().take(20) {
            for part in &parts {
                assert_eq!(
                    p.classify_partitioned_q16_approx(seg, part, &BTreeMap::new()),
                    p.classify_partitioned_q16(seg, part),
                );
            }
        }
    }

    #[test]
    fn pruned_bases_abstain_and_report_zero_scores() {
        let data = generate_case_sized(CaseId::C1, 80, 7);
        let p = XProPipeline::train(&data, &quick_cfg()).unwrap();
        let n = p.built().graph.len();
        let part = Partition::all_sensor(n);
        let mut assignment = BTreeMap::new();
        for &cid in &p.built().svm_cells {
            assignment.insert(
                cid,
                ApproxConfig {
                    svm_prune: true,
                    ..ApproxConfig::EXACT
                },
            );
        }
        let seg = &data.segments[0];
        let scores = p.base_scores_q16_approx(seg, &part, &assignment);
        assert!(scores.iter().all(|&s| s == 0.0));
        // All bases abstaining, the fusion sees a zero score: predicts +1.
        assert_eq!(
            p.classify_partitioned_q16_approx(seg, &part, &assignment),
            1.0
        );
    }

    #[test]
    fn truncation_deviates_scores_only_on_sensor_side() {
        let data = generate_case_sized(CaseId::E2, 80, 8);
        let p = XProPipeline::train(&data, &quick_cfg()).unwrap();
        let n = p.built().graph.len();
        let mut assignment = BTreeMap::new();
        for &cid in &p.built().svm_cells {
            assignment.insert(
                cid,
                ApproxConfig {
                    mul_truncation_bits: 8,
                    ..ApproxConfig::EXACT
                },
            );
        }
        let seg = &data.segments[0];
        // Aggregator-side: the truncated multiplier is sensor hardware, so
        // scores are identical to exact.
        let agg = Partition::all_aggregator(n);
        assert_eq!(
            p.base_scores_q16_approx(seg, &agg, &assignment),
            p.base_scores_q16(seg, &agg),
        );
        // Sensor-side: the approximate kernel runs; scores may move but
        // stay finite.
        let sens = Partition::all_sensor(n);
        let exact = p.base_scores_q16(seg, &sens);
        let approx = p.base_scores_q16_approx(seg, &sens, &assignment);
        assert_eq!(exact.len(), approx.len());
        assert!(approx.iter().all(|s| s.is_finite()));
    }

    #[test]
    fn classify_agrees_with_model_predict_on_test_data() {
        let data = generate_case_sized(CaseId::M1, 80, 3);
        let p = XProPipeline::train(&data, &quick_cfg()).unwrap();
        let seg = &data.segments[0];
        let features = extract_features(seg, Wavelet::Haar);
        let direct = p.model().predict(&p.scaler().transform_one(&features));
        assert_eq!(p.classify(seg), direct);
    }
}
