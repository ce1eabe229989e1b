//! Property tests for the synthetic dataset generators.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use xpro_data::ecg::{generate_ecg, EcgParams};
use xpro_data::eeg::{generate_eeg, EegParams};
use xpro_data::emg::{generate_emg, EmgParams};
use xpro_data::grasps::generate_grasps;
use xpro_data::table1::{generate_case_sized, CaseId};

fn arb_case() -> impl Strategy<Value = CaseId> {
    prop::sample::select(CaseId::ALL.to_vec())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn case_shape_always_matches_table1(case in arb_case(), count in 1usize..60, seed in 0u64..500) {
        let d = generate_case_sized(case, count, seed);
        prop_assert_eq!(d.len(), count);
        prop_assert_eq!(d.segment_len, case.segment_len());
        prop_assert!(d.segments.iter().all(|s| s.len() == case.segment_len()));
        prop_assert!(d.labels.iter().all(|&l| l == 1.0 || l == -1.0));
    }

    #[test]
    fn classes_balanced_within_one(case in arb_case(), count in 2usize..80, seed in 0u64..100) {
        let d = generate_case_sized(case, count, seed);
        let pos = d.positives();
        prop_assert!(pos.abs_diff(count - pos) <= 1, "pos {} of {}", pos, count);
    }

    #[test]
    fn signals_are_finite_and_bounded(case in arb_case(), seed in 0u64..200) {
        let d = generate_case_sized(case, 10, seed);
        for seg in &d.segments {
            for &v in seg {
                prop_assert!(v.is_finite());
                prop_assert!(v.abs() < 100.0, "unreasonable amplitude {v}");
            }
        }
    }

    #[test]
    fn generators_honour_length(len in 1usize..400, seed in 0u64..100) {
        let mut rng = StdRng::seed_from_u64(seed);
        prop_assert_eq!(generate_ecg(&EcgParams::normal(), len, &mut rng).len(), len);
        prop_assert_eq!(generate_eeg(&EegParams::e1_rest(), len, &mut rng).len(), len);
        prop_assert_eq!(generate_emg(&EmgParams::m2_tip(), len, &mut rng).len(), len);
    }

    #[test]
    fn seeds_are_reproducible(case in arb_case(), seed in 0u64..100) {
        prop_assert_eq!(
            generate_case_sized(case, 6, seed),
            generate_case_sized(case, 6, seed)
        );
    }

    #[test]
    fn grasp_labels_are_dense(count in 4usize..80, seed in 0u64..100) {
        let d = generate_grasps(count, seed);
        prop_assert!(d.labels.iter().all(|&l| l < 4));
        prop_assert_eq!(d.class_names.len(), 4);
    }
}
