//! Ultra-low-power wireless transceiver models for BSN inter-end links.
//!
//! The paper evaluates three medical-implant transceivers (§4.2):
//!
//! | Model | Transmit | Receive | Reference design |
//! |-------|----------|---------|------------------|
//! | 1 | 2.9 nJ/bit | 3.3 nJ/bit | 350 µW MSK TX / 400 µW OOK super-regenerative RX |
//! | 2 | 1.53 nJ/bit | 1.71 nJ/bit | current-reuse, inductor-sharing OOK at 2 Mbps |
//! | 3 | 0.42 nJ/bit | 0.295 nJ/bit | MedRadio-band low-energy-per-bit OOK |
//!
//! "The simulator employs a common communication protocol and considers an
//! 8-bit header in each payload." Bluetooth Low Energy is priced only for
//! the `ablation_ble` study (§4.2: orders of magnitude above the µW sensor
//! budget).
//!
//! [`estimator`] tracks the retransmission inflation the adaptive
//! controller re-plans with. [`link`] (MTU fragmentation and a BER
//! retransmission model) is exercised only by tests; the fleet executor's
//! lossy channel is `xpro-runtime`'s own link.
//!
//! # Examples
//!
//! Price the raw-segment upload the in-aggregator engine performs per event:
//!
//! ```
//! use xpro_wireless::{Frame, TransceiverModel};
//!
//! let radio = TransceiverModel::model2();
//! let raw = Frame::for_samples(128, 32);
//! let uj = radio.tx_frame_pj(raw) / 1e6;
//! assert!((6.2..6.4).contains(&uj)); // ≈ 6.3 µJ per event
//! ```

pub mod estimator;
pub mod frame;
pub mod link;
pub mod model;

pub use estimator::{EffectiveEnergyEstimator, TransferSample};
pub use frame::{Frame, HEADER_BITS};
pub use link::{Link, LinkConfig};
pub use model::TransceiverModel;
