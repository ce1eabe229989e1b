//! Cross-end partitions and their energy/delay evaluation.
//!
//! A [`Partition`] assigns every functional cell to the sensor node or the
//! aggregator. [`evaluate`] prices a partition exactly as the paper's §3.2
//! energy model does: in-sensor compute energy plus wireless energy for
//! every producer port whose data crosses ends (each distinct output is
//! transmitted at most once — the "grouped cells" rule), plus delivery of
//! the classification result to the aggregator.

use crate::instance::XProInstance;
use crate::profile::segment_profile;

/// An assignment of cells to ends.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Partition {
    /// `in_sensor[c]` is `true` when cell `c` runs on the sensor node.
    pub in_sensor: Vec<bool>,
}

impl Partition {
    /// All cells on the sensor node — the in-sensor engine of the paper.
    pub fn all_sensor(num_cells: usize) -> Self {
        Partition {
            in_sensor: vec![true; num_cells],
        }
    }

    /// All cells on the aggregator — the in-aggregator engine.
    pub fn all_aggregator(num_cells: usize) -> Self {
        Partition {
            in_sensor: vec![false; num_cells],
        }
    }

    /// Number of cells placed on the sensor node.
    pub fn sensor_count(&self) -> usize {
        self.in_sensor.iter().filter(|&&s| s).count()
    }

    /// Whether any cell runs on each end (a strictly cross-end design).
    pub fn is_cross_end(&self) -> bool {
        let s = self.sensor_count();
        s > 0 && s < self.in_sensor.len()
    }
}

/// Sensor-node energy per event, split as in the paper's Fig. 11.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct EnergyBreakdown {
    /// Energy of in-sensor functional cells (pJ).
    pub compute_pj: f64,
    /// Energy of the sensor's wireless transmissions and receptions (pJ).
    pub wireless_pj: f64,
}

impl EnergyBreakdown {
    /// Total sensor energy per event in picojoules.
    pub fn total_pj(&self) -> f64 {
        self.compute_pj + self.wireless_pj
    }
}

/// End-to-end event delay, split as in the paper's Fig. 10.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct DelayBreakdown {
    /// Front-end (sensor) computation time in seconds.
    pub front_end_s: f64,
    /// Wireless transfer time in seconds.
    pub wireless_s: f64,
    /// Back-end (aggregator) computation time in seconds.
    pub back_end_s: f64,
}

impl DelayBreakdown {
    /// Total event delay in seconds.
    pub fn total_s(&self) -> f64 {
        self.front_end_s + self.wireless_s + self.back_end_s
    }
}

/// Complete evaluation of a partition.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Evaluation {
    /// Sensor energy per event.
    pub sensor: EnergyBreakdown,
    /// Event delay breakdown.
    pub delay: DelayBreakdown,
    /// Aggregator energy per event in pJ (radio + compute), Fig. 13.
    pub aggregator_pj: f64,
    /// Sensor battery lifetime in hours at the configured event rate.
    pub sensor_battery_hours: f64,
    /// Aggregator battery lifetime in hours at the configured event rate.
    pub aggregator_battery_hours: f64,
}

/// Prices a partition under an instance's system configuration.
///
/// # Panics
///
/// Panics if the partition size differs from the instance's cell count.
pub fn evaluate(instance: &XProInstance, partition: &Partition) -> Evaluation {
    // The walk itself — per-end compute plus cross-end frames — is the
    // shared `profile::segment_profile`; this function only repackages it
    // into the paper's breakdowns and battery lifetimes.
    let profile = segment_profile(instance, partition);

    let sensor = EnergyBreakdown {
        compute_pj: profile.sensor_compute_pj,
        wireless_pj: profile.sensor_wireless_pj(),
    };
    let delay = DelayBreakdown {
        front_end_s: profile.front_s,
        wireless_s: profile.wireless_s(),
        back_end_s: profile.back_s,
    };
    let aggregator_pj = profile.agg_compute_pj + profile.agg_wireless_pj();

    let rate = instance.events_per_second();
    let sensor_battery_hours = instance
        .config()
        .sensor_battery
        .lifetime_hours(sensor.total_pj(), rate);
    let aggregator_battery_hours = instance
        .config()
        .aggregator_battery
        .lifetime_hours(aggregator_pj, rate);

    Evaluation {
        sensor,
        delay,
        aggregator_pj,
        sensor_battery_hours,
        aggregator_battery_hours,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn breakdown_totals() {
        let e = EnergyBreakdown {
            compute_pj: 2.0,
            wireless_pj: 3.0,
        };
        assert_eq!(e.total_pj(), 5.0);
        let d = DelayBreakdown {
            front_end_s: 1.0,
            wireless_s: 2.0,
            back_end_s: 3.0,
        };
        assert_eq!(d.total_s(), 6.0);
    }

    #[test]
    fn partition_constructors() {
        let s = Partition::all_sensor(4);
        assert_eq!(s.sensor_count(), 4);
        assert!(!s.is_cross_end());
        let a = Partition::all_aggregator(4);
        assert_eq!(a.sensor_count(), 0);
        assert!(!a.is_cross_end());
        let mut mixed = a;
        mixed.in_sensor[0] = true;
        assert!(mixed.is_cross_end());
    }
}
