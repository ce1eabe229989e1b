//! Multi-class EMG grasp dataset for the paper's §5.7 multi-classification
//! extension.
//!
//! The UCI corpus behind M1/M2 distinguishes six basic hand movements; the
//! paper's binary cases pick pairs (lateral/spherical, tip/hook). This
//! module exposes all four of those grasps as one 4-class problem, which is
//! exactly the workload §5.7's "simply add more base classifiers" extension
//! targets.

use crate::emg::{generate_emg, EmgParams};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// The four grasp classes, with their UCI-style names.
pub const GRASP_NAMES: [&str; 4] = ["lateral", "spherical", "tip", "hook"];

/// Samples per grasp segment (matches the binary EMG cases of Table 1).
pub const GRASP_SEGMENT_LEN: usize = 132;

/// A multi-class labeled segment collection.
#[derive(Clone, Debug, PartialEq)]
pub struct MulticlassDataset {
    /// Dataset name.
    pub name: String,
    /// Samples per segment.
    pub segment_len: usize,
    /// The segments.
    pub segments: Vec<Vec<f64>>,
    /// Class label per segment (0-based, dense).
    pub labels: Vec<u32>,
    /// Human-readable class names, indexed by label.
    pub class_names: Vec<String>,
}

impl MulticlassDataset {
    /// Number of segments.
    pub fn len(&self) -> usize {
        self.segments.len()
    }

    /// Whether the dataset is empty.
    pub fn is_empty(&self) -> bool {
        self.segments.is_empty()
    }
}

fn grasp_params(class: u32) -> EmgParams {
    match class {
        0 => EmgParams::m1_lateral(),
        1 => EmgParams::m1_spherical(),
        2 => EmgParams::m2_tip(),
        3 => EmgParams::m2_hook(),
        _ => unreachable!("grasp classes are 0..4"),
    }
}

/// Generates the 4-class grasp dataset with `count` segments, classes
/// interleaved (balanced to within one segment).
///
/// # Panics
///
/// Panics if `count == 0`.
pub fn generate_grasps(count: usize, seed: u64) -> MulticlassDataset {
    assert!(count > 0, "segment count must be positive");
    let mut rng = StdRng::seed_from_u64(seed ^ 0x6ea5);
    let mut segments = Vec::with_capacity(count);
    let mut labels = Vec::with_capacity(count);
    for i in 0..count {
        let class = (i % 4) as u32;
        segments.push(generate_emg(
            &grasp_params(class),
            GRASP_SEGMENT_LEN,
            &mut rng,
        ));
        labels.push(class);
    }
    MulticlassDataset {
        name: "EMGHandGrasps".into(),
        segment_len: GRASP_SEGMENT_LEN,
        segments,
        labels,
        class_names: GRASP_NAMES
            .iter()
            .map(std::string::ToString::to_string)
            .collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn four_balanced_classes() {
        let d = generate_grasps(80, 1);
        assert_eq!(d.len(), 80);
        assert_eq!(d.class_names.len(), 4);
        for class in 0..4u32 {
            let count = d.labels.iter().filter(|&&l| l == class).count();
            assert_eq!(count, 20, "class {class}");
        }
    }

    #[test]
    fn segments_match_table1_emg_length() {
        let d = generate_grasps(8, 2);
        assert!(d.segments.iter().all(|s| s.len() == 132));
        assert!(!d.is_empty());
    }

    #[test]
    fn generation_is_deterministic() {
        assert_eq!(generate_grasps(12, 5), generate_grasps(12, 5));
        assert_ne!(generate_grasps(12, 5), generate_grasps(12, 6));
    }
}
