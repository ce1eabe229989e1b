//! The Automatic XPro Generator (paper §3.2).
//!
//! Produces functional-cell partitions for the four designs of the paper's
//! evaluation:
//!
//! * **in-aggregator engine** — every cell on the back-end (Fig. 7, Cut-1);
//! * **in-sensor engine** — every cell on the front-end (Cut-2);
//! * **trivial cut** — feature extractors (and the DWT feeding them) on the
//!   sensor, classifiers on the aggregator (the "intuitive" cut of §5.5);
//! * **cross-end engine** — the generator's optimal cut under the delay
//!   constraint `T_XPro = min(T_F, T_B)` (§3.2.3, Eq. 4).
//!
//! The unconstrained optimum is a single s-t min-cut. The delay-constrained
//! variant runs a Lagrangian sweep: min-cuts of `energy + λ·delay` over a
//! log-spaced λ grid, keeping the cheapest partition whose *measured* delay
//! meets the bound. The two single-end designs are always candidates, so a
//! feasible solution always exists — the same guarantee the paper gives.

use crate::certificate::{check_against, verify_plan, CutCertificate};
use crate::config::SystemConfig;
use crate::error::XProError;
use crate::instance::XProInstance;
use crate::partition::{evaluate, Evaluation, Partition};
use crate::stgraph::{certified_min_cut_partition, StTemplate};
use xpro_hw::ModuleKind;
use xpro_wireless::TransceiverModel;

/// The four engine designs compared throughout the paper's §5.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
#[non_exhaustive]
pub enum Engine {
    /// Everything on the aggregator (state of the art "A").
    InAggregator,
    /// Everything on the sensor node (state of the art "S").
    InSensor,
    /// Features + DWT on the sensor, classifiers on the aggregator — the
    /// intuitive cut of Fig. 12.
    TrivialCut,
    /// The Automatic XPro Generator's delay-constrained optimum ("C").
    CrossEnd,
}

impl Engine {
    /// The engines in the paper's comparison order.
    pub const ALL: [Engine; 4] = [
        Engine::InAggregator,
        Engine::InSensor,
        Engine::TrivialCut,
        Engine::CrossEnd,
    ];

    /// The single-letter label used in the paper's figures.
    pub fn short(self) -> &'static str {
        match self {
            Engine::InAggregator => "A",
            Engine::InSensor => "S",
            Engine::TrivialCut => "T",
            Engine::CrossEnd => "C",
        }
    }
}

impl std::fmt::Display for Engine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let name = match self {
            Engine::InAggregator => "aggregator engine",
            Engine::InSensor => "sensor node engine",
            Engine::TrivialCut => "trivial cut",
            Engine::CrossEnd => "cross-end engine",
        };
        f.write_str(name)
    }
}

/// The Automatic XPro Generator over one priced instance.
#[derive(Clone, Debug)]
pub struct XProGenerator<'a> {
    instance: &'a XProInstance,
}

impl<'a> XProGenerator<'a> {
    /// Wraps an instance.
    pub fn new(instance: &'a XProInstance) -> Self {
        XProGenerator { instance }
    }

    /// The partition realizing a given engine design.
    ///
    /// # Errors
    ///
    /// Returns [`XProError::Partition`] when the cross-end generator finds
    /// no feasible cut (cannot happen at the paper's default delay limit).
    pub fn partition_for(&self, engine: Engine) -> Result<Partition, XProError> {
        let n = self.instance.num_cells();
        Ok(match engine {
            Engine::InAggregator => Partition::all_aggregator(n),
            Engine::InSensor => Partition::all_sensor(n),
            Engine::TrivialCut => self.trivial_cut(),
            Engine::CrossEnd => self.generate()?,
        })
    }

    /// Evaluates an engine design under the instance's configuration.
    ///
    /// # Errors
    ///
    /// Propagates [`XProGenerator::partition_for`] failures.
    pub fn evaluate_engine(&self, engine: Engine) -> Result<Evaluation, XProError> {
        Ok(evaluate(self.instance, &self.partition_for(engine)?))
    }

    /// The intuitive feature/classifier cut: everything up to and including
    /// feature extraction on the sensor, SVMs and fusion on the aggregator.
    pub fn trivial_cut(&self) -> Partition {
        let in_sensor = self
            .instance
            .built()
            .graph
            .cells()
            .iter()
            .map(|c| {
                !matches!(
                    c.module,
                    ModuleKind::Svm { .. } | ModuleKind::ScoreFusion { .. }
                )
            })
            .collect();
        Partition { in_sensor }
    }

    /// The classification-only fallback plan a degraded deployment runs:
    /// the all-sensor partition when its fixed-point cells are numerically
    /// valid, otherwise the [trivial cut](Self::trivial_cut).
    pub fn fallback_cut(&self) -> Partition {
        let all_sensor = Partition::all_sensor(self.instance.num_cells());
        if self.numerically_valid(&all_sensor) {
            all_sensor
        } else {
            self.trivial_cut()
        }
    }

    /// The unconstrained minimum-energy partition (§3.2.2): one min-cut.
    pub fn unconstrained_cut(&self) -> Partition {
        certified_min_cut_partition(self.instance, 0.0).0
    }

    /// The paper's delay limit `T_XPro = min(T_F, T_B)` (Eq. 4).
    ///
    /// A single-end design only contributes its delay if it passes the
    /// numeric validation stage: an in-sensor engine whose fixed-point
    /// cells can overflow does not produce correct results, so its latency
    /// cannot define the bar. The all-aggregator design always validates,
    /// so the limit is always finite and feasible.
    pub fn default_delay_limit(&self) -> f64 {
        let n = self.instance.num_cells();
        let t_b = evaluate(self.instance, &Partition::all_aggregator(n))
            .delay
            .total_s();
        let sensor = Partition::all_sensor(n);
        if self.numerically_valid(&sensor) {
            let t_f = evaluate(self.instance, &sensor).delay.total_s();
            t_f.min(t_b)
        } else {
            t_b
        }
    }

    /// The generator's default output: minimum sensor energy subject to
    /// `delay ≤ min(T_F, T_B)`.
    ///
    /// # Errors
    ///
    /// Returns [`XProError::Partition`] when no candidate meets the limit —
    /// impossible at the default limit (the all-aggregator design always
    /// validates and defines the bound), but the signature is fallible so
    /// the whole generator surface composes with `?`.
    pub fn generate(&self) -> Result<Partition, XProError> {
        self.delay_constrained_cut(self.default_delay_limit())
    }

    /// Whether a partition passes the numeric validation stage: no cell
    /// that the instance's static range analysis marked as overflow-prone
    /// is mapped to the fixed-point sensor end. The aggregator runs cells
    /// in floating point, so aggregator-side cells are always valid.
    pub fn numerically_valid(&self, partition: &Partition) -> bool {
        partition
            .in_sensor
            .iter()
            .enumerate()
            .all(|(i, &on_sensor)| !on_sensor || self.instance.cell_numerically_safe(i))
    }

    /// Minimum-energy partition with measured delay at most `t_limit_s`.
    ///
    /// Candidates failing the numeric validation stage
    /// ([`XProGenerator::numerically_valid`]) are rejected before costing.
    /// The all-aggregator design always passes validation, so at the
    /// paper's default delay limit a feasible design always exists; under
    /// widened input bounds *and* a delay limit only the sensor can meet,
    /// the search can come up empty.
    ///
    /// # Errors
    ///
    /// Returns [`XProError::Config`] when `t_limit_s` is not positive and
    /// [`XProError::Partition`] when no explored candidate meets the limit.
    pub fn delay_constrained_cut(&self, t_limit_s: f64) -> Result<Partition, XProError> {
        self.delay_constrained_cut_certified(t_limit_s)
            .map(|(p, _)| p)
    }

    /// Like [`XProGenerator::delay_constrained_cut`], but also returns the
    /// winning partition's [`CutCertificate`] when it came from the min-cut
    /// solver (`None` for the single-end and trivial-cut fallbacks, which
    /// are not cut-derived).
    ///
    /// Every cut-derived candidate is re-verified against its certificate
    /// before it may compete, and the winner — whatever its origin — is
    /// re-checked end to end ([`verify_plan`]): numeric validity of every
    /// sensor-side cell plus an independent static re-derivation of the
    /// delay bound. A violation surfaces as [`XProError::Certificate`]
    /// naming the broken invariant rather than as a silently wrong plan.
    ///
    /// # Errors
    ///
    /// Returns [`XProError::Config`] when `t_limit_s` is not positive,
    /// [`XProError::Partition`] when no explored candidate meets the limit,
    /// and [`XProError::Certificate`] when a generated cut fails its
    /// certificate check.
    pub fn delay_constrained_cut_certified(
        &self,
        t_limit_s: f64,
    ) -> Result<(Partition, Option<CutCertificate>), XProError> {
        check_limit(t_limit_s)?;
        let (search, certificates) = self.search()?;
        self.plan_searched(&search, certificates, t_limit_s)
    }

    /// The limit-dependent half of
    /// [`XProGenerator::delay_constrained_cut_certified`]: selects from
    /// this instance's `search` and verifies the winner with its
    /// certificate from `certificates`.
    pub(crate) fn plan_searched(
        &self,
        search: &CutSearch,
        mut certificates: Vec<Option<CutCertificate>>,
        t_limit_s: f64,
    ) -> Result<(Partition, Option<CutCertificate>), XProError> {
        let winner = search.select(t_limit_s)?;
        let partition = search.candidates[winner].partition.clone();
        let certificate = certificates.swap_remove(winner);
        verify_plan(self.instance, &partition, certificate.as_ref(), t_limit_s)?;
        Ok((partition, certificate))
    }

    /// The limit-independent half of
    /// [`XProGenerator::delay_constrained_cut_certified`]: the numerically
    /// valid candidates in order, priced, with the certificate of each
    /// cut-derived one (`None` for the single-end and trivial designs).
    ///
    /// Every cut is re-verified against its certificate before it may
    /// compete.
    pub(crate) fn search(&self) -> Result<(CutSearch, Vec<Option<CutCertificate>>), XProError> {
        let n = self.instance.num_cells();
        let mut candidates: Vec<(Partition, Option<CutCertificate>)> = vec![
            (Partition::all_aggregator(n), None),
            (Partition::all_sensor(n), None),
            (self.trivial_cut(), None),
        ];
        // The network topology does not depend on λ: derive it once, build
        // one network, then re-price, solve and certify it per λ.
        let template = StTemplate::new(self.instance);
        let grid = lambda_grid();
        let mut network = template.network(grid[0]);
        let mut solve = |lambda: f64| -> Result<(Partition, CutCertificate), XProError> {
            let (p, cert) = template.min_cut_in(&mut network, lambda);
            check_against(&template, &p, &cert)?;
            Ok((p, cert))
        };
        // Bisect the grid: when both ends of an index range yield the same
        // cut, so does every λ between them (DESIGN.md §7), so only the
        // points next to a change of cut are solved. Every cut's first
        // grid λ is such a point, so visiting the solved points in grid
        // order adds the candidates, with their certificates, that solving
        // every point would.
        let last = grid.len() - 1;
        let mut solved: Vec<Option<(Partition, CutCertificate)>> = vec![None; grid.len()];
        solved[0] = Some(solve(grid[0])?);
        solved[last] = Some(solve(grid[last])?);
        let mut ranges = vec![(0, last)];
        while let Some((lo, hi)) = ranges.pop() {
            let cut = |i: usize| solved[i].as_ref().map(|(p, _)| p);
            if hi - lo > 1 && cut(lo) != cut(hi) {
                let mid = (lo + hi) / 2;
                solved[mid] = Some(solve(grid[mid])?);
                ranges.extend([(mid, hi), (lo, mid)]);
            }
        }
        for (p, cert) in solved.into_iter().flatten() {
            if !candidates.iter().any(|(q, _)| *q == p) {
                candidates.push((p, Some(cert)));
            }
        }
        let (candidates, certificates) = candidates
            .into_iter()
            .filter(|(p, _)| self.numerically_valid(p))
            .map(|(partition, cert)| {
                let e = evaluate(self.instance, &partition);
                let candidate = Candidate {
                    partition,
                    sensor_pj: e.sensor.total_pj(),
                    delay_s: e.delay.total_s(),
                    lambda_pj_per_s: cert.as_ref().map(|c| c.lambda_pj_per_s),
                };
                (candidate, cert)
            })
            .unzip();
        Ok((CutSearch { candidates }, certificates))
    }

    /// Plans `t_limit_s` from a search of an instance with this one's
    /// inputs, without searching again: selects the winner, re-solves a
    /// cut-derived winner once at its λ on this instance for its
    /// certificate, and verifies the plan ([`verify_plan`]).
    ///
    /// Returns `Ok(None)` when the re-solve does not reproduce the
    /// search's cut or the plan fails verification: the search then does
    /// not describe this instance, and only a fresh one can plan it.
    ///
    /// # Errors
    ///
    /// Those of [`CutSearch::select`].
    pub(crate) fn plan_from(
        &self,
        search: &CutSearch,
        t_limit_s: f64,
    ) -> Result<Option<(Partition, Option<CutCertificate>)>, XProError> {
        let winner = &search.candidates[search.select(t_limit_s)?];
        let certificate = match winner.lambda_pj_per_s {
            None => None,
            Some(lambda) => {
                let (p, cert) = StTemplate::new(self.instance).min_cut(lambda);
                if p != winner.partition {
                    return Ok(None);
                }
                Some(cert)
            }
        };
        Ok(verify_plan(
            self.instance,
            &winner.partition,
            certificate.as_ref(),
            t_limit_s,
        )
        .is_ok()
        .then(|| (winner.partition.clone(), certificate)))
    }
}

/// A numerically valid candidate of a [`CutSearch`], priced.
#[derive(Clone, Debug)]
pub(crate) struct Candidate {
    pub(crate) partition: Partition,
    /// Sensor-node energy per event.
    pub(crate) sensor_pj: f64,
    /// End-to-end event delay.
    pub(crate) delay_s: f64,
    /// The first grid λ whose min cut this is; `None` for the single-end
    /// and trivial designs.
    pub(crate) lambda_pj_per_s: Option<f64>,
}

/// The delay-limit-independent result of the generator's λ search: the
/// numerically valid candidates, in the order the selection breaks ties
/// by (single-end and trivial designs, then grid cuts in grid order).
/// It holds no certificates.
#[derive(Clone, Debug)]
pub(crate) struct CutSearch {
    pub(crate) candidates: Vec<Candidate>,
}

impl CutSearch {
    /// Index of the minimum-energy candidate whose delay meets
    /// `t_limit_s` (the first such, on ties).
    ///
    /// # Errors
    ///
    /// Returns [`XProError::Config`] when `t_limit_s` is not positive and
    /// [`XProError::Partition`] when no candidate meets the limit.
    pub(crate) fn select(&self, t_limit_s: f64) -> Result<usize, XProError> {
        check_limit(t_limit_s)?;
        // Tolerate floating-point noise in the measured delay: the
        // single-end designs define the limit, so they must stay feasible.
        let tol = t_limit_s * 1e-9;
        self.candidates
            .iter()
            .enumerate()
            .filter(|(_, c)| c.delay_s <= t_limit_s + tol)
            .min_by(|a, b| {
                a.1.sensor_pj
                    .partial_cmp(&b.1.sensor_pj)
                    .expect("energies are finite")
            })
            .map(|(i, _)| i)
            .ok_or_else(|| {
                XProError::partition(format!(
                    "no numerically valid partition meets the {t_limit_s} s delay limit"
                ))
            })
    }
}

/// Rejects a delay limit that is not positive.
pub(crate) fn check_limit(t_limit_s: f64) -> Result<(), XProError> {
    if t_limit_s.is_nan() || t_limit_s <= 0.0 {
        return Err(XProError::config(format!(
            "delay limit must be positive, got {t_limit_s}"
        )));
    }
    Ok(())
}

/// The Lagrangian sweep's λ grid in pJ/s: 0, then 1e5·3^k up to 1e14.
/// Cell energies sit around 1e4–1e6 pJ and event delays around
/// 1e-4–1e-3 s, so the interesting λ range brackets 1e7–1e12; the grid
/// is wider to be safe.
fn lambda_grid() -> Vec<f64> {
    let mut grid = vec![0.0];
    let mut lambda = 1.0e5;
    while lambda <= 1.0e14 {
        grid.push(lambda);
        lambda *= 3.0;
    }
    grid
}

/// Generator re-entry for runtime adaptation: re-prices `instance` under a
/// replacement radio model (typically the nominal radio derated by an
/// observed attempt-inflation factor) and re-runs the delay-constrained
/// min-cut against `t_limit_s`.
///
/// The limit should be the *baseline* delay bound the deployment promised
/// (`XProGenerator::default_delay_limit` of the pristine instance), not one
/// recomputed from the degraded prices — under a degraded channel even the
/// single-end designs may miss the original bound, and that infeasibility
/// is exactly the signal the adaptive controller uses to drop into a
/// degradation tier.
///
/// Returns the re-priced instance together with the new cut so the caller
/// can keep evaluating against the prices the cut was chosen under.
///
/// # Errors
///
/// Returns [`XProError::Config`] for a non-positive limit and
/// [`XProError::Partition`] when no numerically valid candidate meets it.
pub fn replan(
    instance: &XProInstance,
    radio: TransceiverModel,
    t_limit_s: f64,
) -> Result<(XProInstance, Partition), XProError> {
    replan_certified(instance, radio, t_limit_s).map(|(inst, p, _)| (inst, p))
}

/// Like [`replan`], but also returns the new cut's [`CutCertificate`]
/// (when cut-derived) so the adaptive controller can re-verify the plan
/// against the re-priced instance before committing it.
///
/// # Errors
///
/// Same as [`replan`], plus [`XProError::Certificate`] when the re-planned
/// cut fails its certificate check.
pub fn replan_certified(
    instance: &XProInstance,
    radio: TransceiverModel,
    t_limit_s: f64,
) -> Result<(XProInstance, Partition, Option<CutCertificate>), XProError> {
    let config = SystemConfig {
        radio,
        ..instance.config().clone()
    };
    let replanned = instance.reconfigured(config)?;
    let (cut, cert) = XProGenerator::new(&replanned).delay_constrained_cut_certified(t_limit_s)?;
    Ok((replanned, cut, cert))
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used)] // tests fail loudly by design

    use super::*;
    use crate::testutil::tiny_instance;

    #[test]
    fn engines_have_expected_shapes() {
        let inst = tiny_instance(1);
        let gen = XProGenerator::new(&inst);
        let n = inst.num_cells();
        assert_eq!(
            gen.partition_for(Engine::InSensor).unwrap().sensor_count(),
            n
        );
        assert_eq!(
            gen.partition_for(Engine::InAggregator)
                .unwrap()
                .sensor_count(),
            0
        );
        let trivial = gen.partition_for(Engine::TrivialCut).unwrap();
        // 2 SVMs + fusion on the aggregator.
        assert_eq!(trivial.sensor_count(), n - 3);
    }

    #[test]
    fn cross_end_energy_never_worse_than_single_ends() {
        for seed in 0..8 {
            let inst = tiny_instance(seed);
            let gen = XProGenerator::new(&inst);
            let c = gen.evaluate_engine(Engine::CrossEnd).unwrap();
            let s = gen.evaluate_engine(Engine::InSensor).unwrap();
            let a = gen.evaluate_engine(Engine::InAggregator).unwrap();
            assert!(
                c.sensor.total_pj() <= s.sensor.total_pj() + 1e-6,
                "seed {seed}: C {} > S {}",
                c.sensor.total_pj(),
                s.sensor.total_pj()
            );
            assert!(
                c.sensor.total_pj() <= a.sensor.total_pj() + 1e-6,
                "seed {seed}: C {} > A {}",
                c.sensor.total_pj(),
                a.sensor.total_pj()
            );
        }
    }

    #[test]
    fn cross_end_meets_the_delay_constraint() {
        for seed in 0..8 {
            let inst = tiny_instance(seed);
            let gen = XProGenerator::new(&inst);
            let limit = gen.default_delay_limit();
            let c = gen.evaluate_engine(Engine::CrossEnd).unwrap();
            assert!(
                c.delay.total_s() <= limit * (1.0 + 1e-9),
                "seed {seed}: delay {} > limit {limit}",
                c.delay.total_s()
            );
        }
    }

    #[test]
    fn unconstrained_cut_is_exhaustively_optimal() {
        // On the ≤ 10-cell test instance, compare against brute force.
        for seed in [0, 3, 7] {
            let inst = tiny_instance(seed);
            let gen = XProGenerator::new(&inst);
            let cut = gen.unconstrained_cut();
            let e_cut = evaluate(&inst, &cut).sensor.total_pj();
            let n = inst.num_cells();
            let mut best = f64::INFINITY;
            for mask in 0..(1u32 << n) {
                let p = Partition {
                    in_sensor: (0..n).map(|i| mask & (1 << i) != 0).collect(),
                };
                best = best.min(evaluate(&inst, &p).sensor.total_pj());
            }
            assert!(
                (e_cut - best).abs() < 1e-6,
                "seed {seed}: min-cut {e_cut} vs exhaustive {best}"
            );
        }
    }

    #[test]
    fn tight_delay_limit_is_respected_or_rejected() {
        let inst = tiny_instance(2);
        let gen = XProGenerator::new(&inst);
        // A generous limit (2× the default) must also be satisfiable, and
        // can only lower (or keep) the energy found under the default.
        let loose = gen
            .delay_constrained_cut(gen.default_delay_limit() * 2.0)
            .unwrap();
        let tight = gen.generate().unwrap();
        let e_loose = evaluate(&inst, &loose).sensor.total_pj();
        let e_tight = evaluate(&inst, &tight).sensor.total_pj();
        assert!(e_loose <= e_tight + 1e-6);
    }

    #[test]
    fn wide_input_bounds_keep_flagged_cells_off_the_sensor() {
        use crate::builder::{build_full_cell_graph, BuildOptions};
        use crate::config::SystemConfig;
        use crate::instance::XProInstance;
        use xpro_analyze::SignalBounds;

        let built = build_full_cell_graph(&BuildOptions::default(), 2, 10);
        let inst = XProInstance::try_with_bounds(
            built,
            SystemConfig::default(),
            128,
            SignalBounds::new(-4.0, 4.0),
        )
        .unwrap();
        // The widened bounds make the deep fourth-moment cells unsafe…
        assert!(!inst.analysis().is_overflow_free());
        let gen = XProGenerator::new(&inst);
        let n = inst.num_cells();
        assert!(!gen.numerically_valid(&Partition::all_sensor(n)));
        // …and the generator's output never maps one to the sensor end.
        let cut = gen.generate().unwrap();
        assert!(gen.numerically_valid(&cut));
        for (i, &on_sensor) in cut.in_sensor.iter().enumerate() {
            if on_sensor {
                assert!(inst.cell_numerically_safe(i));
            }
        }
    }

    #[test]
    fn replan_reproduces_the_static_cut_at_unity_derating() {
        let inst = tiny_instance(3);
        let gen = XProGenerator::new(&inst);
        let limit = gen.default_delay_limit();
        let base = gen.generate().unwrap();
        let (_, same) = replan(&inst, inst.config().radio.clone(), limit).unwrap();
        assert_eq!(same, base);
    }

    #[test]
    fn replan_under_a_degraded_channel_meets_the_baseline_limit_or_reports() {
        let inst = tiny_instance(4);
        let gen = XProGenerator::new(&inst);
        let limit = gen.default_delay_limit();
        // A 50x costlier channel: the new cut must still meet the original
        // bound, priced under the degraded radio.
        match replan(&inst, inst.config().radio.derated(50.0), limit) {
            Ok((repriced, cut)) => {
                let e = evaluate(&repriced, &cut);
                assert!(e.delay.total_s() <= limit * (1.0 + 1e-9));
                assert!(XProGenerator::new(&repriced).numerically_valid(&cut));
            }
            Err(XProError::Partition(_)) => {} // genuine infeasibility signal
            Err(other) => panic!("unexpected error: {other}"),
        }
        // An absurd derating must eventually report infeasibility rather
        // than hand back a cut that cannot meet the promised delay.
        let err = replan(&inst, inst.config().radio.derated(1e9), limit).unwrap_err();
        assert!(matches!(err, XProError::Partition(_)), "got {err}");
    }

    #[test]
    fn engine_labels() {
        assert_eq!(Engine::InAggregator.short(), "A");
        assert_eq!(Engine::CrossEnd.to_string(), "cross-end engine");
        assert_eq!(Engine::ALL.len(), 4);
    }
}
