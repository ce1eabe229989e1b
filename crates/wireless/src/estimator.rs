//! Online estimation of the *effective* cost of the wireless channel.
//!
//! The transceiver models of §4.2 price a bit under ideal delivery. A
//! deployed link retransmits: every lost attempt burns the full frame's
//! tx + rx energy and airtime again, so the energy (and latency) actually
//! paid per *delivered* bit is the nominal figure times the attempt
//! inflation factor. [`EffectiveEnergyEstimator`] tracks that factor over
//! a sliding window of observed segment transfers, and
//! [`TransceiverModel::derated`](crate::TransceiverModel::derated) turns
//! it back into a radio model the partition generator can re-plan with —
//! the feedback path of the adaptive cross-end controller.

use std::collections::VecDeque;

/// One observed segment transfer: how many frame transmissions the plan
/// called for, and how many attempts the channel actually consumed.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TransferSample {
    /// Frames the segment plan required (one per cross-end producer port).
    pub planned_frames: u64,
    /// Attempts actually spent, retransmissions included. For a segment
    /// abandoned mid-transfer this still counts every attempt made, so
    /// hopeless channels inflate the estimate instead of hiding in skips.
    pub attempts: u64,
}

/// Sliding-window estimator of the attempt inflation factor
/// `attempts / planned_frames` (≥ 1 on a healthy channel).
///
/// The window is segment-granular: each completed (or abandoned) segment
/// transfer contributes one sample, and only the most recent `window`
/// samples vote. The estimate therefore tracks channel drift at the same
/// cadence the executor streams segments, which is exactly the cadence at
/// which a re-partition can be applied.
#[derive(Clone, Debug)]
pub struct EffectiveEnergyEstimator {
    window: usize,
    samples: VecDeque<TransferSample>,
    planned_sum: u64,
    attempt_sum: u64,
}

impl EffectiveEnergyEstimator {
    /// An estimator voting over the last `window` segment transfers.
    ///
    /// # Panics
    ///
    /// Panics if `window == 0`.
    pub fn new(window: usize) -> Self {
        assert!(window > 0, "estimator window must be positive");
        EffectiveEnergyEstimator {
            window,
            samples: VecDeque::with_capacity(window),
            planned_sum: 0,
            attempt_sum: 0,
        }
    }

    /// Records one segment transfer, evicting the oldest beyond the window.
    pub fn record(&mut self, sample: TransferSample) {
        if sample.planned_frames == 0 {
            // An all-one-end partition transmits nothing; there is no
            // channel evidence in such a segment.
            return;
        }
        if self.samples.len() == self.window {
            if let Some(old) = self.samples.pop_front() {
                self.planned_sum -= old.planned_frames;
                self.attempt_sum -= old.attempts;
            }
        }
        self.planned_sum += sample.planned_frames;
        self.attempt_sum += sample.attempts;
        self.samples.push_back(sample);
    }

    /// Number of samples currently in the window.
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// Whether no transfer has been observed yet.
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// The attempt inflation factor over the window: observed attempts per
    /// planned frame, clamped to ≥ 1. Returns 1 with no evidence.
    pub fn factor(&self) -> f64 {
        if self.planned_sum == 0 {
            return 1.0;
        }
        (self.attempt_sum as f64 / self.planned_sum as f64).max(1.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::TransceiverModel;

    fn s(planned: u64, attempts: u64) -> TransferSample {
        TransferSample {
            planned_frames: planned,
            attempts,
        }
    }

    #[test]
    fn empty_estimator_reports_unity() {
        let e = EffectiveEnergyEstimator::new(8);
        assert!(e.is_empty());
        assert_eq!(e.factor(), 1.0);
    }

    #[test]
    fn factor_tracks_retransmissions() {
        let mut e = EffectiveEnergyEstimator::new(8);
        e.record(s(2, 2));
        assert_eq!(e.factor(), 1.0);
        e.record(s(2, 6)); // two retries per frame on this segment
        assert_eq!(e.factor(), 2.0); // (2 + 6) / (2 + 2)
    }

    #[test]
    fn window_evicts_stale_evidence() {
        let mut e = EffectiveEnergyEstimator::new(2);
        e.record(s(1, 10));
        e.record(s(1, 1));
        e.record(s(1, 1));
        assert_eq!(e.len(), 2);
        assert_eq!(e.factor(), 1.0, "the lossy segment aged out");
    }

    #[test]
    fn zero_plan_segments_carry_no_evidence() {
        let mut e = EffectiveEnergyEstimator::new(4);
        e.record(s(0, 0));
        assert!(e.is_empty());
        assert_eq!(e.factor(), 1.0);
    }

    #[test]
    fn factor_never_dips_below_one() {
        let mut e = EffectiveEnergyEstimator::new(4);
        e.record(s(4, 2)); // impossible in practice; clamp anyway
        assert_eq!(e.factor(), 1.0);
    }

    #[test]
    fn derated_radio_scales_energy_up_and_rate_down() {
        let mut e = EffectiveEnergyEstimator::new(4);
        e.record(s(1, 3));
        let base = TransceiverModel::model2();
        let derated = base.derated(e.factor());
        assert!((derated.tx_nj_per_bit() - base.tx_nj_per_bit() * 3.0).abs() < 1e-12);
        assert!((derated.rx_nj_per_bit() - base.rx_nj_per_bit() * 3.0).abs() < 1e-12);
        assert!((derated.data_rate_bps() - base.data_rate_bps() / 3.0).abs() < 1e-9);
    }
}
