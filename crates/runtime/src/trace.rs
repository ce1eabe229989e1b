//! Single-event dataflow simulation of a partitioned engine (absorbed from
//! the retired `xpro-sim` crate).
//!
//! The analytic evaluator in `xpro-core` prices a partition with a
//! *serialized* delay model (front-end + wireless + back-end sums — the
//! stacked bars of the paper's Fig. 10). This module executes the same
//! partition as a discrete-event simulation that honours the architecture's
//! actual concurrency:
//!
//! * in-sensor functional cells are independent asynchronous
//!   micro-computing units (paper Fig. 3) — any cell fires as soon as all
//!   of its inputs are available on its end, concurrently with its peers;
//! * the wireless link is a single half-duplex channel transferring one
//!   frame at a time, FIFO;
//! * the aggregator CPU executes its cells one at a time from a ready
//!   queue (software, single core).
//!
//! Compute times and frame prices come from the shared cost walk
//! ([`segment_profile`]), so the simulated *energy* is the analytic
//! evaluator's to the bit; the simulated *makespan* is a lower bound on
//! the serialized delay and quantifies how much overlap the dataflow
//! execution recovers. [`simulate_stream`] chains events, carrying the busy
//! state of the channel, the CPU and every cell from one event to the
//! next, to measure steady-state throughput and channel utilization. For
//! fleet-scale streaming with loss, retries and batching, use
//! [`crate::FleetExecutor`].

use std::collections::BTreeMap;
use xpro_core::cellgraph::PortRef;
use xpro_core::instance::XProInstance;
use xpro_core::layout::BITS_PER_SAMPLE;
use xpro_core::partition::Partition;
use xpro_core::profile::segment_profile;
use xpro_wireless::Frame;

/// Where a piece of work runs.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum End {
    /// The wearable sensor node.
    Sensor,
    /// The data aggregator.
    Aggregator,
}

impl std::fmt::Display for End {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            End::Sensor => "sensor",
            End::Aggregator => "aggregator",
        })
    }
}

/// One cell execution in the trace.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct CellRun {
    /// Cell id in the instance's graph.
    pub cell: usize,
    /// Which end executed it.
    pub end: End,
    /// Start time, in seconds from the first event's arrival.
    pub start_s: f64,
    /// Finish time.
    pub finish_s: f64,
}

/// One wireless frame in the trace.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct FrameTransfer {
    /// Producing port's cell (`None` = the raw segment).
    pub producer: Option<usize>,
    /// Direction of travel.
    pub from: End,
    /// Payload + header bits.
    pub bits: u64,
    /// Channel occupancy start.
    pub start_s: f64,
    /// Channel occupancy end.
    pub finish_s: f64,
}

/// The full trace of one simulated event.
#[derive(Clone, Debug, PartialEq)]
pub struct SimTrace {
    /// Every cell execution, in cell (topological) order.
    pub runs: Vec<CellRun>,
    /// Every wireless frame, in channel order.
    pub frames: Vec<FrameTransfer>,
    /// Time from the event's arrival until its classification result is
    /// available at the aggregator.
    pub makespan_s: f64,
    /// Sensor energy in pJ (compute + radio), matching the analytic model.
    pub sensor_energy_pj: f64,
}

impl SimTrace {
    /// Total time the shared channel was busy.
    pub fn channel_busy_s(&self) -> f64 {
        self.frames.iter().map(|f| f.finish_s - f.start_s).sum()
    }

    /// Critical-path overlap factor: serialized work divided by makespan
    /// (≥ 1; higher means the dataflow execution recovered more
    /// parallelism).
    pub fn overlap_factor(&self) -> f64 {
        let serial: f64 = self
            .runs
            .iter()
            .map(|r| r.finish_s - r.start_s)
            .sum::<f64>()
            + self.channel_busy_s();
        serial / self.makespan_s.max(f64::MIN_POSITIVE)
    }
}

/// Simulates one event through a partitioned instance.
///
/// # Panics
///
/// Panics if the partition size differs from the instance's cell count.
pub fn simulate_event(instance: &XProInstance, partition: &Partition) -> SimTrace {
    // With a single event the period never matters.
    simulate_stream(instance, partition, 1, 1.0).remove(0)
}

/// Simulates a stream of `events` arriving every `period_s` seconds and
/// returns the per-event traces. The shared channel, the aggregator CPU
/// and every in-sensor cell stay busy across events, so queueing appears
/// when any of them saturates.
///
/// # Panics
///
/// Panics if `period_s` is not positive, `events == 0`, or the partition
/// size differs from the instance's cell count.
pub fn simulate_stream(
    instance: &XProInstance,
    partition: &Partition,
    events: usize,
    period_s: f64,
) -> Vec<SimTrace> {
    assert!(period_s > 0.0, "period must be positive");
    assert!(events > 0, "need at least one event");
    let profile = segment_profile(instance, partition);
    let graph = &instance.built().graph;
    let n = instance.num_cells();
    let end_of = |cell: usize| -> End {
        if partition.in_sensor[cell] {
            End::Sensor
        } else {
            End::Aggregator
        }
    };
    let other = |end: End| -> End {
        match end {
            End::Sensor => End::Aggregator,
            End::Aggregator => End::Sensor,
        }
    };
    // When each serial unit next falls idle: the private unit of every
    // in-sensor cell (indices `0..n`), the aggregator CPU (index `n`) and
    // the half-duplex channel.
    let mut unit_free = vec![0.0f64; n + 1];
    let mut channel_free = 0.0f64;

    let mut traces = Vec::with_capacity(events);
    for event in 0..events {
        let arrival_s = event as f64 * period_s;
        // Data availability per (producer, port, end).
        let mut available: BTreeMap<(Option<usize>, usize, End), f64> = BTreeMap::new();
        available.insert((None, 0, End::Sensor), arrival_s);
        let mut runs: Vec<CellRun> = Vec::with_capacity(n);
        let mut frames: Vec<FrameTransfer> = Vec::new();

        // Ships a port's data to `to` once the channel is free, at the
        // airtime the shared cost walk priced it at; returns its arrival.
        let mut ship = |port: PortRef, to: End, ready_s: f64| -> f64 {
            let priced = profile
                .frames
                .iter()
                .find(|f| f.port == port)
                .expect("the profile prices every cross-end port");
            let start = ready_s.max(channel_free);
            channel_free = start + priced.airtime_s;
            frames.push(FrameTransfer {
                producer: port.producer,
                from: other(to),
                bits: Frame::for_samples(priced.samples, BITS_PER_SAMPLE).total_bits(),
                start_s: start,
                finish_s: channel_free,
            });
            channel_free
        };

        // Cells are stored in topological order; process them in order,
        // which is a valid event order because inputs always come from
        // earlier cells.
        for (cid, cell) in graph.cells().iter().enumerate() {
            let end = end_of(cid);
            // Gather input availability, shipping cross-end data on demand.
            let mut ready = arrival_s;
            for input in &cell.inputs {
                let key = (input.producer, input.port, end);
                let t = match available.get(&key) {
                    Some(&t) => t,
                    None => {
                        // Data exists on the other end; ship it once.
                        let t_other = *available
                            .get(&(input.producer, input.port, other(end)))
                            .expect("producer ran before consumer");
                        let t = ship(*input, end, t_other);
                        available.insert(key, t);
                        t
                    }
                };
                ready = ready.max(t);
            }
            let (unit, busy_s) = match end {
                End::Sensor => (cid, instance.sensor_time_s(cid)),
                End::Aggregator => (n, instance.aggregator_time_s(cid)),
            };
            let start = ready.max(unit_free[unit]);
            unit_free[unit] = start + busy_s;
            runs.push(CellRun {
                cell: cid,
                end,
                start_s: start,
                finish_s: unit_free[unit],
            });
            for port in 0..cell.output_samples.len() {
                available.insert((Some(cid), port, end), unit_free[unit]);
            }
        }

        // Deliver the result to the aggregator.
        let result = graph.result_cell();
        let mut makespan = runs[result].finish_s;
        if end_of(result) == End::Sensor {
            makespan = ship(PortRef::cell(result), End::Aggregator, makespan);
        }
        traces.push(SimTrace {
            runs,
            frames,
            makespan_s: makespan - arrival_s,
            sensor_energy_pj: profile.sensor_compute_pj + profile.sensor_wireless_pj(),
        });
    }
    traces
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used)] // tests fail loudly by design

    use super::*;
    use crate::testutil::tiny_instance;
    use xpro_core::generator::{Engine, XProGenerator};
    use xpro_core::partition::evaluate;

    #[test]
    fn simulated_energy_matches_analytic_evaluator() {
        for seed in 0..6 {
            let inst = tiny_instance(seed);
            let generator = XProGenerator::new(&inst);
            for engine in Engine::ALL {
                let p = generator.partition_for(engine).unwrap();
                let analytic = evaluate(&inst, &p).sensor.total_pj();
                let sim = simulate_event(&inst, &p).sensor_energy_pj;
                assert_eq!(
                    analytic.to_bits(),
                    sim.to_bits(),
                    "seed {seed}/{engine}: analytic {analytic} vs sim {sim}"
                );
            }
        }
    }

    #[test]
    fn simulated_makespan_never_exceeds_serialized_delay() {
        for seed in 0..6 {
            let inst = tiny_instance(seed);
            let generator = XProGenerator::new(&inst);
            for engine in Engine::ALL {
                let p = generator.partition_for(engine).unwrap();
                let serialized = evaluate(&inst, &p).delay.total_s();
                let sim = simulate_event(&inst, &p).makespan_s;
                assert!(
                    sim <= serialized * (1.0 + 1e-9),
                    "seed {seed}/{engine}: sim {sim} > serialized {serialized}"
                );
            }
        }
    }

    #[test]
    fn in_sensor_features_overlap() {
        // All feature cells read the raw segment, so on the sensor they run
        // concurrently: makespan < serialized sum.
        let inst = tiny_instance(1);
        let p = Partition::all_sensor(inst.num_cells());
        let trace = simulate_event(&inst, &p);
        assert!(
            trace.overlap_factor() > 1.2,
            "overlap {}",
            trace.overlap_factor()
        );
    }

    #[test]
    fn aggregator_cpu_serializes() {
        // On the aggregator, cells share one CPU: runs must not overlap.
        let inst = tiny_instance(2);
        let p = Partition::all_aggregator(inst.num_cells());
        let trace = simulate_event(&inst, &p);
        let mut agg_runs: Vec<_> = trace
            .runs
            .iter()
            .filter(|r| r.end == End::Aggregator)
            .collect();
        agg_runs.sort_by(|a, b| a.start_s.partial_cmp(&b.start_s).unwrap());
        for pair in agg_runs.windows(2) {
            assert!(
                pair[1].start_s >= pair[0].finish_s - 1e-12,
                "CPU overlap: {pair:?}"
            );
        }
    }

    #[test]
    fn stream_queues_on_the_shared_channel() {
        let inst = tiny_instance(3);
        let p = Partition::all_aggregator(inst.num_cells());
        // Period shorter than the raw-upload airtime forces queueing.
        let raw_airtime = simulate_event(&inst, &p).channel_busy_s();
        let traces = simulate_stream(&inst, &p, 5, raw_airtime * 0.5);
        let first = traces.first().unwrap().makespan_s;
        let last = traces.last().unwrap().makespan_s;
        assert!(
            last > first * 1.5,
            "no queueing visible: first {first}, last {last}"
        );
    }

    #[test]
    fn relaxed_stream_reaches_steady_state() {
        let inst = tiny_instance(4);
        let p = Partition::all_sensor(inst.num_cells());
        let traces = simulate_stream(&inst, &p, 4, 1.0);
        let m0 = traces[0].makespan_s;
        for t in &traces {
            assert!((t.makespan_s - m0).abs() < 1e-9, "unstable makespan");
        }
    }

    #[test]
    fn no_cell_or_cpu_runs_two_events_at_once() {
        // Events 1 µs apart arrive long before the previous one drains.
        for seed in 0..6 {
            let inst = tiny_instance(seed);
            let generator = XProGenerator::new(&inst);
            for engine in Engine::ALL {
                let p = generator.partition_for(engine).unwrap();
                let traces = simulate_stream(&inst, &p, 4, 1e-6);
                // A sensor cell is its own unit; every aggregator cell
                // shares the one CPU (`None`).
                let mut busy: Vec<(Option<usize>, f64, f64)> = traces
                    .iter()
                    .flat_map(|t| &t.runs)
                    .map(|r| {
                        (
                            (r.end == End::Sensor).then_some(r.cell),
                            r.start_s,
                            r.finish_s,
                        )
                    })
                    .collect();
                busy.sort_by(|a, b| (a.0, a.1).partial_cmp(&(b.0, b.1)).unwrap());
                for pair in busy.windows(2) {
                    if pair[0].0 == pair[1].0 {
                        assert!(
                            pair[1].1 >= pair[0].2,
                            "seed {seed}/{engine}: overlap {pair:?}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn frames_never_overlap_on_the_channel() {
        let inst = tiny_instance(5);
        let generator = XProGenerator::new(&inst);
        let p = generator.partition_for(Engine::CrossEnd).unwrap();
        let trace = simulate_event(&inst, &p);
        let mut frames = trace.frames.clone();
        frames.sort_by(|a, b| a.start_s.partial_cmp(&b.start_s).unwrap());
        for pair in frames.windows(2) {
            assert!(pair[1].start_s >= pair[0].finish_s - 1e-12);
        }
    }
}
