//! The shared per-segment execution profile of a partition.
//!
//! Three consumers need the same walk over a partitioned cell graph —
//! in-sensor compute time/energy, in-aggregator compute time/energy, and
//! one wireless frame per cross-end producer port (the grouped-cells rule)
//! plus the one-sample result frame:
//!
//! * [`crate::partition::evaluate`] prices a partition per the paper's
//!   §3.2 model;
//! * [`crate::certificate::derive_delay_s`] re-derives the end-to-end
//!   delay for plan verification;
//! * the runtime executor builds its per-epoch segment plan from it, and
//!   the static WCRT analyzer's best-case sanity check compares against
//!   its uncontended delay.
//!
//! Historically each carried its own copy of the walk; [`segment_profile`]
//! is now the single implementation they all share, so a pricing fix (or
//! bug) lands in every consumer at once and the cross-checks among them
//! test the *uses* of the numbers rather than three transcriptions of the
//! same loop.

use crate::cellgraph::PortRef;
use crate::instance::XProInstance;
use crate::layout::BITS_PER_SAMPLE;
use crate::partition::Partition;
use xpro_wireless::Frame;

/// One planned cross-end wireless transfer of a segment.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct FrameProfile {
    /// The producer port whose output the frame carries (port 0 of the
    /// result cell for the result frame).
    pub port: PortRef,
    /// Payload samples carried (header excluded).
    pub samples: u64,
    /// Channel occupancy of one transmission attempt, in seconds.
    pub airtime_s: f64,
    /// Sensor-side radio energy per attempt in picojoules (tx for uplink
    /// frames, rx for downlink frames).
    pub sensor_pj: f64,
    /// Aggregator-side radio energy per attempt in picojoules.
    pub agg_pj: f64,
}

/// Per-segment execution profile of one partition: the three serialized
/// phases every segment flows through, priced per the paper's §3.2 model.
#[derive(Clone, Debug, PartialEq)]
pub struct SegmentProfile {
    /// Front-end (in-sensor) computation time per segment, in seconds.
    pub front_s: f64,
    /// Back-end (in-aggregator) computation time per segment, in seconds.
    pub back_s: f64,
    /// In-sensor compute energy per segment, in picojoules.
    pub sensor_compute_pj: f64,
    /// In-aggregator compute energy per segment, in picojoules.
    pub agg_compute_pj: f64,
    /// Every cross-end transfer of the segment, in port-table order
    /// with the result frame (when the classifier output is produced on
    /// the sensor) last.
    pub frames: Vec<FrameProfile>,
}

impl SegmentProfile {
    /// Total single-attempt wireless transfer time, in seconds.
    pub fn wireless_s(&self) -> f64 {
        self.frames.iter().map(|f| f.airtime_s).sum()
    }

    /// Uncontended fault-free end-to-end delay of one segment: the three
    /// phases back to back with every frame delivered on its first
    /// attempt. This is the number `partition::evaluate` reports as the
    /// delay total and `certificate::derive_delay_s` checks against the
    /// promised limit.
    pub fn delay_s(&self) -> f64 {
        self.front_s + self.wireless_s() + self.back_s
    }

    /// Sensor radio energy per segment at one attempt per frame, in pJ.
    pub fn sensor_wireless_pj(&self) -> f64 {
        self.frames.iter().map(|f| f.sensor_pj).sum()
    }

    /// Aggregator radio energy per segment at one attempt per frame, in pJ.
    pub fn agg_wireless_pj(&self) -> f64 {
        self.frames.iter().map(|f| f.agg_pj).sum()
    }
}

/// Walks a partitioned cell graph once and extracts its
/// [`SegmentProfile`]: per-end compute time and energy summed over the
/// cells of each end, plus one [`FrameProfile`] per producer port with a
/// cross-end consumer (each distinct output is transmitted at most once —
/// the grouped-cells rule), plus the one-sample result frame when the
/// classification output is produced on the sensor.
///
/// # Panics
///
/// Panics if the partition size differs from the instance's cell count.
pub fn segment_profile(instance: &XProInstance, partition: &Partition) -> SegmentProfile {
    assert_eq!(
        partition.in_sensor.len(),
        instance.num_cells(),
        "partition size mismatch"
    );
    let graph = &instance.built().graph;
    let radio = &instance.config().radio;
    let mut profile = SegmentProfile {
        front_s: 0.0,
        back_s: 0.0,
        sensor_compute_pj: 0.0,
        agg_compute_pj: 0.0,
        frames: Vec::new(),
    };

    for c in 0..instance.num_cells() {
        if partition.in_sensor[c] {
            profile.sensor_compute_pj += instance.sensor_cost(c).energy_pj;
            profile.front_s += instance.sensor_time_s(c);
        } else {
            profile.agg_compute_pj += instance.aggregator_energy_pj(c);
            profile.back_s += instance.aggregator_time_s(c);
        }
    }

    let mut push = |port: PortRef, samples: u64, producer_sensor: bool| {
        let frame = Frame::for_samples(samples, BITS_PER_SAMPLE);
        let (sensor_pj, agg_pj) = if producer_sensor {
            (radio.tx_frame_pj(frame), radio.rx_frame_pj(frame))
        } else {
            (radio.rx_frame_pj(frame), radio.tx_frame_pj(frame))
        };
        profile.frames.push(FrameProfile {
            port,
            samples,
            airtime_s: radio.frame_airtime_s(frame),
            sensor_pj,
            agg_pj,
        });
    };
    for (port, consumers) in graph.port_table() {
        // Raw data originates at the sensor.
        let producer_sensor = port.producer.is_none_or(|c| partition.in_sensor[c]);
        let any_cross = consumers
            .iter()
            .any(|&c| partition.in_sensor[c] != producer_sensor);
        if !any_cross {
            continue;
        }
        let samples = match port.producer {
            // The raw upload carries the true (unpadded) segment.
            None => instance.segment_len() as u64,
            Some(_) => graph.port_samples(*port),
        };
        push(*port, samples, producer_sensor);
    }
    if partition.in_sensor[graph.result_cell()] {
        push(PortRef::cell(graph.result_cell()), 1, true);
    }
    profile
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::tiny_instance;

    #[test]
    fn all_aggregator_uploads_exactly_the_raw_segment() {
        let inst = tiny_instance(1);
        let p = Partition::all_aggregator(inst.num_cells());
        let profile = segment_profile(&inst, &p);
        assert_eq!(profile.front_s, 0.0);
        assert_eq!(profile.sensor_compute_pj, 0.0);
        assert!(profile.back_s > 0.0);
        assert_eq!(profile.frames.len(), 1, "one raw upload frame");
        assert_eq!(profile.frames[0].samples, inst.segment_len() as u64);
        assert!(profile.frames[0].sensor_pj > 0.0);
    }

    #[test]
    fn all_sensor_sends_only_the_result_frame() {
        let inst = tiny_instance(2);
        let p = Partition::all_sensor(inst.num_cells());
        let profile = segment_profile(&inst, &p);
        assert_eq!(profile.back_s, 0.0);
        assert_eq!(profile.agg_compute_pj, 0.0);
        assert_eq!(profile.frames.len(), 1, "one result frame");
        assert_eq!(profile.frames[0].samples, 1);
    }

    #[test]
    fn totals_sum_the_frames() {
        let inst = tiny_instance(3);
        let p = Partition::all_aggregator(inst.num_cells());
        let profile = segment_profile(&inst, &p);
        let airtime: f64 = profile.frames.iter().map(|f| f.airtime_s).sum();
        assert_eq!(profile.wireless_s(), airtime);
        assert_eq!(
            profile.delay_s(),
            profile.front_s + airtime + profile.back_s
        );
    }

    #[test]
    #[should_panic(expected = "partition size mismatch")]
    fn rejects_mismatched_partition() {
        let inst = tiny_instance(4);
        let p = Partition::all_sensor(inst.num_cells() + 1);
        let _ = segment_profile(&inst, &p);
    }
}
