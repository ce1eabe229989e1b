//! Certificate-guarded memoized plan cache.
//!
//! The Automatic XPro Generator (`XProGenerator`) prices every candidate
//! λ in a sweep and solves a min-cut per candidate — cheap for one
//! device, wasteful for a fleet where thousands of devices share a
//! handful of distinct `(pipeline, tech node, radio, deadline)`
//! configurations. [`PlanCache`] collapses those invocations to
//! once-per-distinct-config: plans are memoized in a sharded map keyed
//! by a canonical digest of the instance's inputs (cell graph, system
//! config, signal bounds, approximation assignment, segment length) and
//! the deadline, and **every hit is re-verified by
//! the independent min-cut certificate checker before it is handed
//! out** ([`verify_plan`]). A stale or corrupted entry can therefore
//! never ship an unsound plan: verification failure evicts the entry
//! and falls back to cold generation, exactly as if the cache did not
//! exist.
//!
//! Beneath the plans, the cache memoizes the generator's λ search per
//! priced instance (the plan key without the deadline). The search does
//! not depend on the deadline, so a new deadline for a known instance
//! only selects among the memoized candidates and re-solves the winner's
//! λ once for its certificate; a re-solve that does not reproduce the
//! memoized cut drops the memo and searches afresh (DESIGN.md §7, "One
//! search per priced instance"). Memoized searches hold no certificates.
//!
//! The cache is deliberately free of interior mutability (no locks, no
//! `RefCell`) — all mutation flows through `&mut self`, which keeps it
//! inside the workspace's sharding lint rules and makes its behaviour
//! a pure function of the call sequence (determinism-friendly). Shard
//! selection uses a fixed FNV-1a hash of the canonical key, not the
//! randomized `std` hasher, so shard layout is stable across processes.

use std::collections::BTreeMap;

use crate::certificate::{verify_plan, CutCertificate};
use crate::error::XProError;
use crate::generator::{check_limit, CutSearch, XProGenerator};
use crate::instance::XProInstance;
use crate::partition::Partition;

/// A memoized plan: the partition the generator chose for a
/// configuration plus the min-cut certificate that proves it (when the
/// winning cut came out of the certified λ-sweep; reference engines may
/// legitimately carry no certificate).
#[derive(Clone, Debug)]
pub struct CachedPlan {
    /// The memoized cut.
    pub partition: Partition,
    /// The min-cut/delay certificate verified on every hit.
    pub certificate: Option<CutCertificate>,
}

/// Hit/miss/rejection counters for a [`PlanCache`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PlanCacheStats {
    /// Lookups served from the cache after certificate re-verification.
    pub hits: u64,
    /// Lookups whose plan key was not cached (or was evicted), whether
    /// they were planned from a memoized search or by a full one.
    pub misses: u64,
    /// Cached entries that failed certificate re-verification and were
    /// evicted (the lookup then proceeds as a miss, counted separately).
    pub rejected: u64,
}

impl PlanCacheStats {
    /// Fraction of lookups served from the cache, in `[0, 1]`.
    /// Zero when no lookups have been made.
    #[must_use]
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// 64-bit FNV-1a: fixed, process-independent keys and shard selection
/// (the `std` hasher is randomized per process). It is a
/// [`std::fmt::Write`] sink, so a `Debug` rendering is hashed as it is
/// produced, without building the string.
struct Fnv1a(u64);

impl Fnv1a {
    fn new() -> Self {
        Fnv1a(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

impl std::fmt::Write for Fnv1a {
    fn write_str(&mut self, s: &str) -> std::fmt::Result {
        self.bytes(s.as_bytes());
        Ok(())
    }
}

/// Sharded, certificate-guarded memoization of
/// [`XProGenerator::delay_constrained_cut_certified`].
///
/// See the [module docs](self) for the safety argument. Typical use:
///
/// ```
/// use xpro_core::plancache::PlanCache;
/// # use xpro_core::config::SystemConfig;
/// # use xpro_core::instance::XProInstance;
/// # use xpro_core::pipeline::{PipelineConfig, XProPipeline};
/// # use xpro_data::{generate_case, CaseId};
/// # let data = generate_case(CaseId::C1, 42);
/// # let pipeline =
/// #     XProPipeline::train(&data, &PipelineConfig::default()).unwrap();
/// # let len = pipeline.segment_len();
/// # let instance = XProInstance::try_new(
/// #     pipeline.into_built(), SystemConfig::default(), len).unwrap();
/// let mut cache = PlanCache::new(8);
/// let limit = 0.5;
/// let (cold, _) = cache.plan_for(&instance, limit).unwrap();
/// let (hit, _) = cache.plan_for(&instance, limit).unwrap();
/// assert_eq!(cold, hit);
/// assert_eq!(cache.stats().hits, 1);
/// ```
#[derive(Clone, Debug)]
pub struct PlanCache {
    shards: Vec<BTreeMap<String, CachedPlan>>,
    /// The generator's λ search per priced instance, by
    /// [`PlanCache::key`]'s instance part.
    searches: BTreeMap<InstanceKey, CutSearch>,
    stats: PlanCacheStats,
}

/// The instance part of a plan key: input digest, cell count and segment
/// length.
type InstanceKey = (u64, usize, usize);

impl PlanCache {
    /// Creates a cache with `shards` internal map shards (clamped to at
    /// least one). Sharding bounds per-map size when many distinct
    /// configurations are cached; it does not affect results.
    #[must_use]
    pub fn new(shards: usize) -> Self {
        Self {
            shards: vec![BTreeMap::new(); shards.max(1)],
            searches: BTreeMap::new(),
            stats: PlanCacheStats::default(),
        }
    }

    /// Canonical cache key for `(instance, deadline)`: an FNV-1a digest
    /// of the debug rendering of the instance's *inputs* — the cells and
    /// raw length of the graph, the system config (cost model, tech node,
    /// radio, aggregator, batteries, sampling rate), the signal bounds and
    /// the approximation assignment — plus the segment length and the
    /// exact bit pattern of the deadline.
    ///
    /// The per-cell prices and the range analysis are not hashed: they
    /// are functions of those inputs, so two instances that agree on every
    /// input price and analyze identically, and one that differs in any
    /// input gets a different digest. Because every hit is re-verified
    /// against the *presented* instance, even a digest collision cannot
    /// yield an unsound plan.
    #[must_use]
    pub fn key(instance: &XProInstance, t_limit_s: f64) -> String {
        Self::plan_key(Self::instance_key(instance), t_limit_s)
    }

    /// The deadline-independent part of [`PlanCache::key`].
    fn instance_key(instance: &XProInstance) -> InstanceKey {
        use std::fmt::Write as _;
        let graph = &instance.built().graph;
        let mut hash = Fnv1a::new();
        write!(
            hash,
            "{:?}{}{:?}{:?}{:?}",
            graph.cells(),
            graph.raw_samples(),
            instance.config(),
            instance.bounds(),
            instance.approx(),
        )
        .expect("hashing a rendering cannot fail");
        (hash.0, instance.num_cells(), instance.segment_len())
    }

    fn plan_key((digest, cells, segment_len): InstanceKey, t_limit_s: f64) -> String {
        format!(
            "{digest:016x}:{:016x}:{cells}c{segment_len}s",
            t_limit_s.to_bits(),
        )
    }

    fn shard_of(&self, key: &str) -> usize {
        let mut hash = Fnv1a::new();
        hash.bytes(key.as_bytes());
        (hash.0 % self.shards.len() as u64) as usize
    }

    /// Returns the delay-constrained certified plan for `instance`,
    /// from cache when a previously memoized plan for an identical
    /// configuration re-passes certificate verification, otherwise by
    /// invoking the generator cold (and memoizing the result). A cold
    /// plan for an instance whose λ search is memoized selects from that
    /// search and re-solves only the winner's λ.
    ///
    /// # Errors
    ///
    /// Propagates generator failure ([`XProError`]) on a cold miss;
    /// never fails on the cache path itself (verification failure
    /// silently degrades to a cold miss).
    pub fn plan_for(
        &mut self,
        instance: &XProInstance,
        t_limit_s: f64,
    ) -> Result<(Partition, Option<CutCertificate>), XProError> {
        let instance_key = Self::instance_key(instance);
        let key = Self::plan_key(instance_key, t_limit_s);
        let shard = self.shard_of(&key);
        if let Some(cached) = self.shards[shard].get(&key) {
            if verify_plan(
                instance,
                &cached.partition,
                cached.certificate.as_ref(),
                t_limit_s,
            )
            .is_ok()
            {
                self.stats.hits += 1;
                return Ok((cached.partition.clone(), cached.certificate.clone()));
            }
            // Certificate no longer checks out against the presented
            // instance: evict and regenerate.
            self.stats.rejected += 1;
            self.shards[shard].remove(&key);
        }
        self.stats.misses += 1;
        let generator = XProGenerator::new(instance);
        let memoized = match self.searches.get(&instance_key) {
            Some(search) => generator.plan_from(search, t_limit_s)?,
            None => None,
        };
        let (partition, certificate) = match memoized {
            Some(plan) => plan,
            None => {
                // No memo, or one this instance does not reproduce.
                self.searches.remove(&instance_key);
                check_limit(t_limit_s)?;
                let (search, certificates) = generator.search()?;
                let plan = generator.plan_searched(&search, certificates, t_limit_s);
                self.searches.insert(instance_key, search);
                plan?
            }
        };
        self.shards[shard].insert(
            key,
            CachedPlan {
                partition: partition.clone(),
                certificate: certificate.clone(),
            },
        );
        Ok((partition, certificate))
    }

    /// [`PlanCache::plan_for`] for instances that may carry a per-cell
    /// approximation assignment: before any plan (cached *or* cold) is
    /// handed out, the assignment's budget proof is re-derived against
    /// the presented instance and must come back `approx.budget_proven`.
    /// A cached plan therefore never outlives its numeric safety
    /// argument — the exact analogue of the certificate re-verification
    /// on the placement axis. Exact instances skip the proof and behave
    /// like [`PlanCache::plan_for`].
    ///
    /// # Errors
    ///
    /// Returns [`XProError::Config`] when the budget proof fails or is
    /// unprovable, and propagates generator failure on a cold miss.
    pub fn plan_for_approx(
        &mut self,
        instance: &XProInstance,
        t_limit_s: f64,
        budget: &xpro_analyze::ApproxBudget,
    ) -> Result<(Partition, Option<CutCertificate>), XProError> {
        if instance.is_approximate() {
            let analysis = xpro_analyze::analyze_approx_budget(
                &crate::analysis::cell_specs(&instance.built().graph),
                instance.bounds(),
                &xpro_analyze::AnalyzeOptions::default(),
                instance.approx(),
                budget,
            )
            .map_err(|e| XProError::config(e.to_string()))?;
            if analysis.verdict != xpro_analyze::ApproxVerdict::BudgetProven {
                return Err(XProError::config(format!(
                    "approximate plan rejected: budget proof came back {}",
                    analysis.verdict
                )));
            }
        }
        self.plan_for(instance, t_limit_s)
    }

    /// Re-plans `instance` under a different radio (the adaptive
    /// controller's derated-channel path), reusing memoized plans per
    /// distinct effective configuration. The cached-or-cold plan is
    /// certificate-verified either way; the repriced instance is
    /// returned alongside it so callers audit against the same pricing.
    ///
    /// An approximate instance keeps its assignment across the
    /// reprice ([`XProInstance::reconfigured`]) and goes through
    /// [`PlanCache::plan_for_approx`] with the default budget, so
    /// adaptive replans re-verify the budget proof too.
    ///
    /// # Errors
    ///
    /// Propagates reconfiguration, budget-proof or generator failure.
    pub fn replan(
        &mut self,
        instance: &XProInstance,
        radio: xpro_wireless::TransceiverModel,
        t_limit_s: f64,
    ) -> Result<(XProInstance, Partition, Option<CutCertificate>), XProError> {
        let mut config = instance.config().clone();
        config.radio = radio;
        let repriced = instance.reconfigured(config)?;
        let (partition, certificate) = if repriced.is_approximate() {
            self.plan_for_approx(&repriced, t_limit_s, &xpro_analyze::ApproxBudget::default())?
        } else {
            self.plan_for(&repriced, t_limit_s)?
        };
        Ok((repriced, partition, certificate))
    }

    /// Hit/miss/rejection counters since construction.
    #[must_use]
    pub fn stats(&self) -> PlanCacheStats {
        self.stats
    }

    /// Number of memoized configurations across all shards.
    #[must_use]
    pub fn len(&self) -> usize {
        self.shards.iter().map(BTreeMap::len).sum()
    }

    /// Whether nothing has been memoized yet.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.shards.iter().all(BTreeMap::is_empty)
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used)]

    use super::*;
    use crate::config::SystemConfig;
    use crate::pipeline::{PipelineConfig, XProPipeline};
    use xpro_data::{generate_case, CaseId};

    fn instance() -> XProInstance {
        let data = generate_case(CaseId::C1, 42);
        let pipeline = XProPipeline::train(&data, &PipelineConfig::default()).unwrap();
        let segment_len = pipeline.segment_len();
        XProInstance::try_new(pipeline.into_built(), SystemConfig::default(), segment_len).unwrap()
    }

    /// A smaller trained instance whose SVM bases stay under the
    /// trunc-4 deviation margin, so the approximation ladder's mild
    /// rungs are budget-provable.
    fn small_instance() -> XProInstance {
        use xpro_data::generate_case_sized;
        use xpro_ml::SubspaceConfig;
        let data = generate_case_sized(CaseId::C1, 90, 42);
        let cfg = PipelineConfig::builder()
            .subspace(SubspaceConfig {
                candidates: 10,
                features_per_base: 8,
                keep_fraction: 0.3,
                min_keep: 3,
                folds: 2,
                ..SubspaceConfig::default()
            })
            .build()
            .unwrap();
        let pipeline = XProPipeline::train(&data, &cfg).unwrap();
        let segment_len = pipeline.segment_len();
        XProInstance::try_new(pipeline.into_built(), SystemConfig::default(), segment_len).unwrap()
    }

    #[test]
    fn hit_matches_cold_generation_exactly() {
        let inst = instance();
        let limit = XProGenerator::new(&inst).default_delay_limit();
        let (cold, cold_cert) = XProGenerator::new(&inst)
            .delay_constrained_cut_certified(limit)
            .unwrap();

        let mut cache = PlanCache::new(4);
        let (first, _) = cache.plan_for(&inst, limit).unwrap();
        let (second, second_cert) = cache.plan_for(&inst, limit).unwrap();
        assert_eq!(first, cold);
        assert_eq!(second, cold);
        assert_eq!(cold_cert.is_some(), second_cert.is_some());
        assert_eq!(
            cache.stats(),
            PlanCacheStats {
                hits: 1,
                misses: 1,
                rejected: 0
            }
        );
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn distinct_deadlines_are_distinct_entries() {
        let inst = instance();
        let limit = XProGenerator::new(&inst).default_delay_limit();
        let mut cache = PlanCache::new(4);
        cache.plan_for(&inst, limit).unwrap();
        cache.plan_for(&inst, limit * 2.0).unwrap();
        assert_eq!(cache.len(), 2);
        assert_eq!(cache.stats().misses, 2);
        assert_eq!(cache.stats().hits, 0);
    }

    #[test]
    fn reconfigured_instance_misses_then_hits() {
        let inst = instance();
        let limit = XProGenerator::new(&inst).default_delay_limit();
        let mut cache = PlanCache::new(4);
        cache.plan_for(&inst, limit).unwrap();

        // A derated radio stretches airtime, so give the re-plan a
        // proportionally relaxed deadline (the controller keeps the
        // baseline limit but sees a 2x-priced channel; here the point
        // is key separation and the miss-then-hit sequence).
        let relaxed = limit * 4.0;
        let derated = inst.config().radio.derated(2.0);
        let (repriced, p1, _) = cache.replan(&inst, derated.clone(), relaxed).unwrap();
        assert_eq!(cache.stats().misses, 2);
        let (_, p2, _) = cache.replan(&inst, derated, relaxed).unwrap();
        assert_eq!(p1, p2);
        assert_eq!(cache.stats().hits, 1);
        assert!(PlanCache::key(&inst, relaxed) != PlanCache::key(&repriced, relaxed));
    }

    #[test]
    fn corrupted_entry_is_rejected_and_regenerated() {
        let inst = instance();
        let limit = XProGenerator::new(&inst).default_delay_limit();
        let mut cache = PlanCache::new(1);
        let (good, _) = cache.plan_for(&inst, limit).unwrap();

        // Tamper: swap the cached partition out from under its
        // certificate. The hit-side `verify_plan` must catch the
        // mismatch, evict, and regenerate the original plan. (Only
        // meaningful when the winning cut carried a certificate.)
        let key = PlanCache::key(&inst, limit);
        if cache.shards[0].get(&key).unwrap().certificate.is_none() {
            return;
        }
        let tampered =
            XProGenerator::new(&inst).partition_for(if good.sensor_count() == inst.num_cells() {
                crate::generator::Engine::InAggregator
            } else {
                crate::generator::Engine::InSensor
            });
        if let Ok(bad) = tampered {
            if bad != good {
                cache.shards[0].get_mut(&key).unwrap().partition = bad;
                let (replanned, _) = cache.plan_for(&inst, limit).unwrap();
                assert_eq!(replanned, good);
                assert_eq!(cache.stats().rejected, 1);
            }
        }
    }

    /// `instance()` re-priced under radios derated 1× and 4×: both
    /// searches yield a cut-derived candidate.
    fn priced_instances() -> Vec<XProInstance> {
        let base = instance();
        [1.0, 4.0]
            .into_iter()
            .map(|derate| {
                let config = SystemConfig {
                    radio: base.config().radio.derated(derate),
                    ..base.config().clone()
                };
                base.reconfigured(config).unwrap()
            })
            .collect()
    }

    #[test]
    fn one_search_serves_every_deadline_of_a_priced_instance() {
        let mut cache = PlanCache::new(2);
        let mut requests = 0;
        for inst in priced_instances() {
            let gen = XProGenerator::new(&inst);
            let base = gen.default_delay_limit();
            for factor in [1.0, 0.5, 2.0, 1.25, 4.0] {
                let limit = base * factor;
                let got = cache.plan_for(&inst, limit);
                let want = gen.delay_constrained_cut_certified(limit);
                requests += 1;
                match (got, want) {
                    (Ok((p, c)), Ok((wp, wc))) => {
                        assert_eq!(p, wp, "{factor}x");
                        assert_eq!(
                            c.map(|c| (c.lambda_pj_per_s.to_bits(), c.witness)),
                            wc.map(|c| (c.lambda_pj_per_s.to_bits(), c.witness)),
                            "{factor}x"
                        );
                    }
                    (Err(_), Err(_)) => {}
                    (got, want) => panic!("{factor}x: {got:?} vs {want:?}"),
                }
            }
        }
        // One search per priced instance; every request is a key miss.
        assert_eq!(cache.searches.len(), 2);
        assert_eq!(cache.stats().misses, requests);
        assert_eq!(cache.stats().hits, 0);
    }

    #[test]
    fn forged_memo_cut_falls_back_to_a_full_search() {
        for inst in priced_instances() {
            let gen = XProGenerator::new(&inst);
            let limit = gen.default_delay_limit() * 2.0;
            let (fresh, fresh_cert) = gen.delay_constrained_cut_certified(limit).unwrap();
            let (mut search, _) = gen.search().unwrap();
            // Forge the memo: a cut-derived candidate records a cut its λ
            // does not yield, and is made the cheapest feasible choice.
            let candidate = search
                .candidates
                .iter_mut()
                .find(|c| c.lambda_pj_per_s.is_some())
                .expect("a cut-derived candidate");
            let forged = Partition {
                in_sensor: candidate.partition.in_sensor.iter().map(|&b| !b).collect(),
            };
            assert_ne!(forged, fresh);
            candidate.partition = forged.clone();
            candidate.sensor_pj = -1.0;
            candidate.delay_s = 0.0;
            let key = PlanCache::instance_key(&inst);
            let mut cache = PlanCache::new(1);
            cache.searches.insert(key, search);

            let (planned, cert) = cache.plan_for(&inst, limit).unwrap();
            assert_ne!(planned, forged, "the forged cut shipped");
            assert_eq!(planned, fresh);
            assert_eq!(cert.map(|c| c.witness), fresh_cert.map(|c| c.witness));
            // The forged memo was replaced by the instance's own search.
            let cuts = |s: &CutSearch| -> Vec<Partition> {
                s.candidates.iter().map(|c| c.partition.clone()).collect()
            };
            assert_eq!(cuts(&cache.searches[&key]), cuts(&gen.search().unwrap().0));
            assert_eq!(
                cache.stats(),
                PlanCacheStats {
                    hits: 0,
                    misses: 1,
                    rejected: 0
                }
            );
        }
    }

    #[test]
    fn approx_plan_is_budget_checked_on_hits_and_separated_from_exact() {
        use crate::approx::{assignment_for_graph, ApproxLevel};
        use xpro_analyze::ApproxBudget;

        let inst = small_instance();
        let limit = XProGenerator::new(&inst).default_delay_limit();
        let assignment = assignment_for_graph(inst.built(), ApproxLevel::SvmTrunc4);
        let approx_inst = inst.with_approx(assignment).unwrap();
        assert!(PlanCache::key(&inst, limit) != PlanCache::key(&approx_inst, limit));

        let budget = ApproxBudget::default();
        let mut cache = PlanCache::new(4);
        let (p1, _) = cache.plan_for_approx(&approx_inst, limit, &budget).unwrap();
        let (p2, _) = cache.plan_for_approx(&approx_inst, limit, &budget).unwrap();
        assert_eq!(p1, p2);
        assert_eq!(cache.stats().hits, 1);
        assert_eq!(cache.stats().misses, 1);

        // Exact instances are unaffected by the budget parameter.
        let (pe, _) = cache.plan_for_approx(&inst, limit, &budget).unwrap();
        let (pc, _) = cache.plan_for(&inst, limit).unwrap();
        assert_eq!(pe, pc);
    }

    #[test]
    fn unprovable_budget_rejects_cached_and_cold_approx_plans() {
        use crate::approx::{assignment_for_graph, ApproxLevel};
        use xpro_analyze::ApproxBudget;

        let inst = small_instance();
        let limit = XProGenerator::new(&inst).default_delay_limit();
        let assignment = assignment_for_graph(inst.built(), ApproxLevel::SvmTrunc4Prune1);
        let approx_inst = inst.with_approx(assignment).unwrap();

        let mut cache = PlanCache::new(4);
        // Prime the cache under the permissive default budget.
        cache
            .plan_for_approx(&approx_inst, limit, &ApproxBudget::default())
            .unwrap();
        // A zero fused-deviation budget cannot admit the pruned base:
        // even the cached plan must be refused.
        let strict = ApproxBudget {
            fused_dev: 0.0,
            ..ApproxBudget::default()
        };
        let refused = cache.plan_for_approx(&approx_inst, limit, &strict);
        assert!(matches!(refused, Err(XProError::Config(_))), "{refused:?}");
    }

    #[test]
    fn zero_shards_clamps_to_one() {
        let cache = PlanCache::new(0);
        assert!(cache.is_empty());
        assert_eq!(cache.shards.len(), 1);
    }
}
