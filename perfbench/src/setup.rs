//! Seeded inputs shared by the workloads: datasets, trained pipelines and
//! the certified cross-end cut. The seed is the only source of variation;
//! the program under test receives only what is generated here.

use xpro::core::config::SystemConfig;
use xpro::core::generator::XProGenerator;
use xpro::core::instance::XProInstance;
use xpro::core::partition::Partition;
use xpro::core::pipeline::XProPipeline;
use xpro::core::XProError;
use xpro::data::{generate_case_sized, CaseId, Dataset};

/// The seed whose digests are pinned in the fleet workloads.
pub const DEFAULT_SEED: u64 = 1;

/// Seed of every workload's datasets, whatever the run's seed. A seeded
/// dataset changes the trained models and with them the work a run does:
/// C1's fleet cut flips to a feature-upload cut on some datasets, and
/// `plan_sweep`'s 18 approximate plans took 0.57 s on seed 109's datasets
/// against 0.83 s on seed 106's. The run's seed drives the fleets' random
/// streams and `plan_sweep`'s request order.
pub const DATASET_SEED: u64 = 1;

/// A Table-1 case trained at harness scale on a seeded dataset.
#[derive(Debug)]
pub struct Trained {
    /// The case.
    pub case: CaseId,
    /// The seeded dataset it was trained on.
    pub data: Dataset,
    /// The trained pipeline.
    pub pipeline: XProPipeline,
    /// The pipeline priced under the default system configuration.
    pub instance: XProInstance,
}

/// Generates `case`'s dataset from `seed` ([`xpro_bench::QUICK_SEGMENTS`]
/// segments) and trains the harness pipeline on it.
///
/// # Errors
///
/// Propagates training and pricing failures.
pub fn train(case: CaseId, seed: u64) -> Result<Trained, XProError> {
    let data = generate_case_sized(case, xpro_bench::QUICK_SEGMENTS, seed);
    let pipeline = XProPipeline::train(&data, &xpro_bench::harness_pipeline_config())?;
    let instance = XProInstance::try_new(
        pipeline.built().clone(),
        SystemConfig::default(),
        pipeline.segment_len(),
    )?;
    Ok(Trained {
        case,
        data,
        pipeline,
        instance,
    })
}

/// The generator's certified cross-end cut at its default delay limit.
///
/// # Errors
///
/// Propagates generator failure.
pub fn certified_cut(instance: &XProInstance) -> Result<Partition, XProError> {
    let generator = XProGenerator::new(instance);
    let (cut, _) = generator.delay_constrained_cut_certified(generator.default_delay_limit())?;
    Ok(cut)
}

/// SplitMix64: the benchmark's own deterministic stream for request
/// order, independent of any generator inside the program.
#[derive(Clone, Debug)]
pub struct SplitMix(u64);

impl SplitMix {
    /// A stream seeded from the benchmark seed and a salt.
    pub fn new(seed: u64, salt: u64) -> Self {
        SplitMix(seed ^ salt.wrapping_mul(0x9e37_79b9_7f4a_7c15))
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = (self.next_u64() % (i as u64 + 1)) as usize;
            items.swap(i, j);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_inputs_other_seed_other_inputs() {
        let a = generate_case_sized(CaseId::C1, 24, 5);
        let b = generate_case_sized(CaseId::C1, 24, 5);
        let c = generate_case_sized(CaseId::C1, 24, 6);
        assert_eq!(a.segments, b.segments);
        assert_eq!(a.labels, b.labels);
        assert_ne!(a.segments, c.segments);

        let order = |seed| {
            let mut v: Vec<u32> = (0..216).collect();
            SplitMix::new(seed, 1).shuffle(&mut v);
            v
        };
        assert_eq!(order(5), order(5));
        assert_ne!(order(5), order(6));
    }
}
