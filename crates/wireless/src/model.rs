//! Transceiver energy/time models.

use crate::frame::Frame;

/// An asymmetric-energy wireless transceiver model.
///
/// Energy per bit differs between transmission and reception, matching the
/// three medical-implant radios of the paper's §4.2.
///
/// # Examples
///
/// ```
/// use xpro_wireless::TransceiverModel;
///
/// let radio = TransceiverModel::model2();
/// // One 32-bit sample plus the 8-bit protocol header.
/// let e = radio.tx_energy_pj(40);
/// assert!((e - 40.0 * 1530.0).abs() < 1e-9);
/// ```
#[derive(Clone, Debug, PartialEq)]
pub struct TransceiverModel {
    name: String,
    tx_nj_per_bit: f64,
    rx_nj_per_bit: f64,
    data_rate_bps: f64,
}

impl TransceiverModel {
    /// Creates a custom transceiver model.
    ///
    /// # Panics
    ///
    /// Panics if any parameter is non-positive.
    pub fn new(
        name: impl Into<String>,
        tx_nj_per_bit: f64,
        rx_nj_per_bit: f64,
        data_rate_bps: f64,
    ) -> Self {
        assert!(tx_nj_per_bit > 0.0, "tx energy must be positive");
        assert!(rx_nj_per_bit > 0.0, "rx energy must be positive");
        assert!(data_rate_bps > 0.0, "data rate must be positive");
        TransceiverModel {
            name: name.into(),
            tx_nj_per_bit,
            rx_nj_per_bit,
            data_rate_bps,
        }
    }

    /// Paper Model 1: "high-energy" MSK/OOK pair (2.9 / 3.3 nJ/bit).
    pub fn model1() -> Self {
        TransceiverModel::new("Model 1 (MSK/OOK 2.9/3.3)", 2.9, 3.3, 2.0e6)
    }

    /// Paper Model 2: "medium-energy" current-reuse OOK (1.53 / 1.71 nJ/bit
    /// at 2 Mbps) — the default radio from §5.2 onward.
    pub fn model2() -> Self {
        TransceiverModel::new("Model 2 (OOK 1.53/1.71)", 1.53, 1.71, 2.0e6)
    }

    /// Paper Model 3: "low-energy" MedRadio OOK (0.42 / 0.295 nJ/bit).
    pub fn model3() -> Self {
        TransceiverModel::new("Model 3 (OOK 0.42/0.295)", 0.42, 0.295, 2.0e6)
    }

    /// The three paper radios in §4.2 order.
    pub fn paper_models() -> [TransceiverModel; 3] {
        [Self::model1(), Self::model2(), Self::model3()]
    }

    /// Bluetooth Low Energy, for the §4.2 counter-argument only.
    ///
    /// The paper deliberately excludes BLE: measured BLE stacks land around
    /// tens of nJ/bit effective (connection events, advertising and protocol
    /// overhead included) — "orders of magnitude higher than the required
    /// µW level sensor hardware design". This model (50 nJ/bit at 1 Mbps
    /// application throughput) exists so the exclusion can be demonstrated
    /// quantitatively; see the `ablation_ble` bench.
    pub fn ble() -> Self {
        TransceiverModel::new("BLE (effective 50nJ/bit)", 50.0, 50.0, 1.0e6)
    }

    /// Human-readable model name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Transmission energy in nJ per bit.
    pub fn tx_nj_per_bit(&self) -> f64 {
        self.tx_nj_per_bit
    }

    /// Reception energy in nJ per bit.
    pub fn rx_nj_per_bit(&self) -> f64 {
        self.rx_nj_per_bit
    }

    /// Link data rate in bits per second.
    pub fn data_rate_bps(&self) -> f64 {
        self.data_rate_bps
    }

    /// This radio as a planner sees it through a lossy channel with the
    /// given attempt inflation `factor` (observed attempts per planned
    /// frame): per-bit energies scale up by the factor and the effective
    /// data rate scales down by it, since every delivered bit occupies the
    /// channel `factor` times. `factor = 1` returns an identical model.
    ///
    /// # Panics
    ///
    /// Panics if `factor` is not finite and ≥ 1.
    pub fn derated(&self, factor: f64) -> TransceiverModel {
        assert!(
            factor.is_finite() && factor >= 1.0,
            "derating factor must be finite and >= 1, got {factor}"
        );
        TransceiverModel {
            name: format!("{} (derated x{factor:.2})", self.name),
            tx_nj_per_bit: self.tx_nj_per_bit * factor,
            rx_nj_per_bit: self.rx_nj_per_bit * factor,
            data_rate_bps: self.data_rate_bps / factor,
        }
    }

    /// Energy to transmit `bits` bits, in picojoules.
    pub fn tx_energy_pj(&self, bits: u64) -> f64 {
        bits as f64 * self.tx_nj_per_bit * 1000.0
    }

    /// Energy to receive `bits` bits, in picojoules.
    pub fn rx_energy_pj(&self, bits: u64) -> f64 {
        bits as f64 * self.rx_nj_per_bit * 1000.0
    }

    /// Air time of `bits` bits in seconds.
    pub fn airtime_s(&self, bits: u64) -> f64 {
        bits as f64 / self.data_rate_bps
    }

    /// Energy to transmit one framed payload (header included), in pJ.
    pub fn tx_frame_pj(&self, frame: Frame) -> f64 {
        self.tx_energy_pj(frame.total_bits())
    }

    /// Energy to receive one framed payload (header included), in pJ.
    pub fn rx_frame_pj(&self, frame: Frame) -> f64 {
        self.rx_energy_pj(frame.total_bits())
    }

    /// Air time of one framed payload in seconds.
    pub fn frame_airtime_s(&self, frame: Frame) -> f64 {
        self.airtime_s(frame.total_bits())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_models_match_section_4_2() {
        let [m1, m2, m3] = TransceiverModel::paper_models();
        assert_eq!((m1.tx_nj_per_bit(), m1.rx_nj_per_bit()), (2.9, 3.3));
        assert_eq!((m2.tx_nj_per_bit(), m2.rx_nj_per_bit()), (1.53, 1.71));
        assert_eq!((m3.tx_nj_per_bit(), m3.rx_nj_per_bit()), (0.42, 0.295));
        for m in [&m1, &m2, &m3] {
            assert_eq!(m.data_rate_bps(), 2.0e6);
        }
    }

    #[test]
    fn energies_scale_linearly_with_bits() {
        let m = TransceiverModel::model2();
        assert_eq!(m.tx_energy_pj(0), 0.0);
        assert!((m.tx_energy_pj(100) - 153_000.0).abs() < 1e-9);
        assert!((m.rx_energy_pj(100) - 171_000.0).abs() < 1e-9);
    }

    #[test]
    fn airtime_follows_data_rate() {
        let m = TransceiverModel::model2();
        assert!((m.airtime_s(2_000_000) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn frame_energy_includes_header() {
        let m = TransceiverModel::model3();
        let f = Frame::for_samples(1, 32);
        assert!((m.tx_frame_pj(f) - 40.0 * 420.0).abs() < 1e-9);
    }

    #[test]
    fn models_are_ordered_by_energy() {
        let [m1, m2, m3] = TransceiverModel::paper_models();
        assert!(m1.tx_energy_pj(100) > m2.tx_energy_pj(100));
        assert!(m2.tx_energy_pj(100) > m3.tx_energy_pj(100));
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn rejects_zero_rate() {
        TransceiverModel::new("bad", 1.0, 1.0, 0.0);
    }
}
