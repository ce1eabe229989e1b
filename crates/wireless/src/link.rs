//! Link-level effects on top of the raw transceiver model: payload
//! fragmentation to a maximum frame size and bit-error-driven
//! retransmissions.
//!
//! The paper's simulator "employs a common communication protocol and
//! considers an 8-bit header in each payload" and evaluates ideal channels;
//! this module extends the substrate with the two first-order non-idealities
//! a deployed BSN link has (MedRadio frames have a bounded payload, and
//! on-body channels see bit-error rates around 10⁻⁶–10⁻⁴), so sensitivity
//! studies don't need to leave the library.

use crate::frame::Frame;
use crate::model::TransceiverModel;

/// Link-layer configuration.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct LinkConfig {
    /// Maximum payload bits per frame; larger payloads fragment into
    /// multiple frames, each paying the 8-bit header.
    pub mtu_payload_bits: u64,
    /// Channel bit-error rate (0 = the paper's ideal channel).
    pub bit_error_rate: f64,
}

impl Default for LinkConfig {
    /// 256-byte MTU (MedRadio-class), ideal channel.
    fn default() -> Self {
        LinkConfig {
            mtu_payload_bits: 2048,
            bit_error_rate: 0.0,
        }
    }
}

impl LinkConfig {
    /// An ideal, unfragmented link — exactly the paper's §4.2 model.
    pub fn ideal() -> Self {
        LinkConfig {
            mtu_payload_bits: u64::MAX,
            bit_error_rate: 0.0,
        }
    }
}

/// A transceiver plus link-layer behaviour.
#[derive(Clone, Debug, PartialEq)]
pub struct Link {
    radio: TransceiverModel,
    config: LinkConfig,
}

impl Link {
    /// Combines a radio with link-layer configuration.
    ///
    /// # Panics
    ///
    /// Panics if the MTU is zero or the BER is outside `[0, 0.5)`.
    pub fn new(radio: TransceiverModel, config: LinkConfig) -> Self {
        assert!(config.mtu_payload_bits > 0, "MTU must be positive");
        assert!(
            (0.0..0.5).contains(&config.bit_error_rate),
            "BER must be in [0, 0.5)"
        );
        Link { radio, config }
    }

    /// Fragments a payload into frames, each within the MTU.
    pub fn fragment(&self, payload_bits: u64) -> Vec<Frame> {
        if payload_bits == 0 {
            return vec![Frame::new(0)];
        }
        let mtu = self.config.mtu_payload_bits;
        let full = payload_bits / mtu;
        let rem = payload_bits % mtu;
        let mut frames = Vec::with_capacity((full + 1) as usize);
        for _ in 0..full {
            frames.push(Frame::new(mtu));
        }
        if rem > 0 {
            frames.push(Frame::new(rem));
        }
        frames
    }

    /// Expected number of transmissions per frame under the configured BER
    /// with stop-and-wait retransmission (a frame is lost when any of its
    /// bits flips).
    pub fn expected_transmissions(&self, frame: Frame) -> f64 {
        let ber = self.config.bit_error_rate;
        if ber == 0.0 {
            return 1.0;
        }
        let p_ok = (1.0 - ber).powi(frame.total_bits().min(i32::MAX as u64) as i32);
        1.0 / p_ok.max(f64::MIN_POSITIVE)
    }

    /// Expected transmit energy (pJ) for a payload, with fragmentation and
    /// retransmissions.
    pub fn tx_payload_pj(&self, payload_bits: u64) -> f64 {
        self.fragment(payload_bits)
            .into_iter()
            .map(|f| self.radio.tx_frame_pj(f) * self.expected_transmissions(f))
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frame::HEADER_BITS;

    fn ideal_link() -> Link {
        Link::new(TransceiverModel::model2(), LinkConfig::ideal())
    }

    #[test]
    fn ideal_link_matches_raw_model() {
        let link = ideal_link();
        let radio = TransceiverModel::model2();
        let payload = 4096;
        assert_eq!(
            link.tx_payload_pj(payload),
            radio.tx_frame_pj(Frame::new(payload))
        );
        assert_eq!(link.expected_transmissions(Frame::new(100)), 1.0);
    }

    #[test]
    fn fragmentation_splits_at_the_mtu() {
        let link = Link::new(TransceiverModel::model2(), LinkConfig::default());
        let frames = link.fragment(5000);
        assert_eq!(frames.len(), 3); // 2048 + 2048 + 904
        assert_eq!(frames[0].payload_bits(), 2048);
        assert_eq!(frames[2].payload_bits(), 904);
        let total: u64 = frames
            .iter()
            .map(super::super::frame::Frame::payload_bits)
            .sum();
        assert_eq!(total, 5000);
    }

    #[test]
    fn fragmentation_costs_extra_headers() {
        let frag = Link::new(TransceiverModel::model2(), LinkConfig::default());
        let ideal = ideal_link();
        let payload = 4096; // exactly two MTUs → one extra header
        let extra = frag.tx_payload_pj(payload) - ideal.tx_payload_pj(payload);
        let one_header = HEADER_BITS as f64 * 1.53 * 1000.0;
        assert!((extra - one_header).abs() < 1e-6, "extra {extra}");
    }

    #[test]
    fn ber_inflates_energy_smoothly() {
        let clean = Link::new(
            TransceiverModel::model2(),
            LinkConfig {
                bit_error_rate: 0.0,
                ..LinkConfig::default()
            },
        );
        let noisy = Link::new(
            TransceiverModel::model2(),
            LinkConfig {
                bit_error_rate: 1e-4,
                ..LinkConfig::default()
            },
        );
        let payload = 2048;
        let factor = noisy.tx_payload_pj(payload) / clean.tx_payload_pj(payload);
        // (1 - 1e-4)^-2056 ≈ e^0.206 ≈ 1.23
        assert!((1.15..1.35).contains(&factor), "factor {factor}");
    }

    #[test]
    fn smaller_frames_survive_noise_better() {
        // Under heavy BER, fragmenting reduces expected retransmission cost.
        let big = Link::new(
            TransceiverModel::model2(),
            LinkConfig {
                mtu_payload_bits: u64::MAX,
                bit_error_rate: 5e-4,
            },
        );
        let small = Link::new(
            TransceiverModel::model2(),
            LinkConfig {
                mtu_payload_bits: 512,
                bit_error_rate: 5e-4,
            },
        );
        let payload = 8192;
        assert!(small.tx_payload_pj(payload) < big.tx_payload_pj(payload));
    }

    #[test]
    fn zero_payload_is_one_header_frame() {
        let link = ideal_link();
        let frames = link.fragment(0);
        assert_eq!(frames.len(), 1);
        assert_eq!(frames[0].total_bits(), HEADER_BITS);
    }

    #[test]
    #[should_panic(expected = "BER")]
    fn rejects_half_ber() {
        Link::new(
            TransceiverModel::model2(),
            LinkConfig {
                mtu_payload_bits: 100,
                bit_error_rate: 0.5,
            },
        );
    }
}
