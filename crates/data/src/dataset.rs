//! Labeled segment collections.

/// The biosignal modality of a dataset (drives generator choice and, in the
//  paper's narrative, which features are most descriptive — §2.1).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Modality {
    /// Electrocardiography: salient time-domain morphology.
    Ecg,
    /// Electroencephalography: wavelet-domain representation.
    Eeg,
    /// Electromyography: classifier-sensitive broadband activity.
    Emg,
}

impl std::fmt::Display for Modality {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            Modality::Ecg => "ECG",
            Modality::Eeg => "EEG",
            Modality::Emg => "EMG",
        };
        f.write_str(s)
    }
}

/// A binary-labeled collection of equal-length biosignal segments.
#[derive(Clone, Debug, PartialEq)]
pub struct Dataset {
    /// Human-readable dataset name (e.g. "ECGTwoLead").
    pub name: String,
    /// Short case symbol from Table 1 (e.g. "C1").
    pub symbol: String,
    /// Signal modality.
    pub modality: Modality,
    /// Samples per segment.
    pub segment_len: usize,
    /// The segments; every inner vector has length `segment_len`.
    pub segments: Vec<Vec<f64>>,
    /// ±1 label per segment.
    pub labels: Vec<f64>,
}

impl Dataset {
    /// Creates a dataset, validating shape invariants.
    ///
    /// # Panics
    ///
    /// Panics if segments are ragged, labels mismatch in count, labels are
    /// not ±1, or the dataset is empty.
    pub fn new(
        name: impl Into<String>,
        symbol: impl Into<String>,
        modality: Modality,
        segment_len: usize,
        segments: Vec<Vec<f64>>,
        labels: Vec<f64>,
    ) -> Self {
        assert!(!segments.is_empty(), "dataset has no segments");
        assert_eq!(segments.len(), labels.len(), "label count mismatch");
        assert!(
            segments.iter().all(|s| s.len() == segment_len),
            "ragged segments"
        );
        assert!(
            labels.iter().all(|&l| l == 1.0 || l == -1.0),
            "labels must be ±1"
        );
        Dataset {
            name: name.into(),
            symbol: symbol.into(),
            modality,
            segment_len,
            segments,
            labels,
        }
    }

    /// Number of segments.
    pub fn len(&self) -> usize {
        self.segments.len()
    }

    /// Whether the dataset is empty (never true for a constructed dataset).
    pub fn is_empty(&self) -> bool {
        self.segments.is_empty()
    }

    /// Count of positive-class segments.
    pub fn positives(&self) -> usize {
        self.labels.iter().filter(|&&l| l == 1.0).count()
    }

    /// Smallest and largest sample value over every segment — the input
    /// bounds the static range analyzer should assume when checking
    /// whether the fixed-point dataflow can overflow on this dataset.
    /// Nothing normalizes raw segments before the pipeline quantizes them,
    /// so this range can exceed the `[-1, 1]` that instances built with
    /// default bounds are analyzed under (DESIGN.md §8, "Input bounds").
    pub fn signal_range(&self) -> (f64, f64) {
        let mut lo = f64::INFINITY;
        let mut hi = f64::NEG_INFINITY;
        for segment in &self.segments {
            for &v in segment {
                lo = lo.min(v);
                hi = hi.max(v);
            }
        }
        (lo, hi)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> Dataset {
        Dataset::new(
            "T",
            "T1",
            Modality::Ecg,
            2,
            vec![vec![0.0, 1.0], vec![1.0, 0.0]],
            vec![1.0, -1.0],
        )
    }

    #[test]
    fn construction_and_accessors() {
        let d = tiny();
        assert_eq!(d.len(), 2);
        assert!(!d.is_empty());
        assert_eq!(d.positives(), 1);
        assert_eq!(d.signal_range(), (0.0, 1.0));
    }

    #[test]
    #[should_panic(expected = "ragged")]
    fn ragged_segments_panic() {
        Dataset::new(
            "T",
            "T1",
            Modality::Ecg,
            2,
            vec![vec![0.0, 1.0], vec![1.0]],
            vec![1.0, -1.0],
        );
    }

    #[test]
    #[should_panic(expected = "±1")]
    fn bad_labels_panic() {
        Dataset::new("T", "T1", Modality::Ecg, 1, vec![vec![0.0]], vec![0.5]);
    }

    #[test]
    #[should_panic(expected = "no segments")]
    fn empty_panics() {
        Dataset::new("T", "T1", Modality::Ecg, 1, vec![], vec![]);
    }

    #[test]
    fn modality_display() {
        assert_eq!(Modality::Ecg.to_string(), "ECG");
        assert_eq!(Modality::Eeg.to_string(), "EEG");
        assert_eq!(Modality::Emg.to_string(), "EMG");
    }
}
