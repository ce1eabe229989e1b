//! The s-t graph of the Automatic XPro Generator (paper §3.2.2, Fig. 7).
//!
//! Nodes: the front-end sensor `F` (source), the back-end aggregator `B`
//! (sink) and one node per functional cell. A cut separating `F` from `B`
//! prices exactly the sensor-node energy of the induced partition:
//!
//! * each cell connects to `B` with its in-sensor compute energy — cut when
//!   the cell stays on the sensor;
//! * the raw segment is represented by the paper's dummy node `D`: `F → D`
//!   carries the raw upload energy and `D → c` carries ∞ for every cell `c`
//!   reading raw data, so "grouped" cells never split and the upload is
//!   charged once;
//! * every other producer *port* gets the same treatment, generalized to
//!   both directions: a TX gadget charges the transmit energy once when the
//!   producer stays on the sensor while some consumer moves to the
//!   aggregator, and an RX gadget charges the receive energy once for the
//!   reverse situation (paper Fig. 7 draws this as forward/backward edge
//!   pairs for single-consumer links; the gadget form handles shared
//!   outputs without double-charging);
//! * the classification result is pinned to the aggregator through a final
//!   TX gadget on the fusion cell.
//!
//! Because `λ`-scaled delay contributions can be folded into the same edge
//! weights, the identical construction serves the delay-constrained
//! generator (§3.2.3) via a Lagrangian sweep. Only the weights depend on
//! λ, so the sweep derives the topology and each edge's energy and delay
//! once (`StTemplate`), builds one network from it, and re-prices that
//! network in place at each λ.

use crate::cellgraph::CellId;
use crate::certificate::CutCertificate;
use crate::instance::XProInstance;
use crate::layout::BITS_PER_SAMPLE;
use crate::partition::Partition;
use xpro_graph::dinic::{FlowNetwork, NodeId, INF};
use xpro_wireless::Frame;

/// The s-t network of one instance, with the node bookkeeping needed to
/// map a cut back onto cells (and to certify it).
#[derive(Clone, Debug)]
pub struct StNetwork {
    /// The flow network with λ-priced edge weights.
    pub net: FlowNetwork,
    /// The source node `F` (the sensor front-end).
    pub source: NodeId,
    /// The sink node `B` (the aggregator back-end).
    pub sink: NodeId,
    /// `cell_node[c]` is the network node of functional cell `c`.
    pub cell_node: Vec<NodeId>,
}

/// One edge of an [`StTemplate`]: its endpoints and the two λ-independent
/// parts of its weight. An unbounded edge carries `energy_pj == INF`.
#[derive(Clone, Copy, Debug)]
struct TemplateEdge {
    from: NodeId,
    to: NodeId,
    energy_pj: f64,
    delay_s: f64,
}

impl TemplateEdge {
    /// The edge weight `energy + λ·delay`; unbounded edges stay exactly
    /// [`INF`] for every λ.
    fn capacity(&self, lambda_pj_per_s: f64) -> f64 {
        if self.energy_pj.is_infinite() {
            INF
        } else {
            self.energy_pj + lambda_pj_per_s * self.delay_s
        }
    }
}

/// The λ-independent part of an instance's s-t network: node ids and
/// edges in construction order, each edge with its energy and delay
/// contribution kept apart. A Lagrangian sweep derives it once, builds one
/// network ([`StTemplate::network`]) and re-prices it per λ
/// ([`StTemplate::min_cut_in`]); the certificate checker compares a
/// witness against the same prices ([`StTemplate::listed_capacities`]).
#[derive(Clone, Debug)]
pub(crate) struct StTemplate {
    /// Number of network nodes.
    pub(crate) nodes: usize,
    /// The source node `F`.
    pub(crate) source: NodeId,
    /// The sink node `B`.
    pub(crate) sink: NodeId,
    /// `cell_node[c]` is the network node of functional cell `c`.
    pub(crate) cell_node: Vec<NodeId>,
    /// Edges in insertion order, which fixes the solver's arc order.
    edges: Vec<TemplateEdge>,
    /// Edge indices in the order [`FlowNetwork::edges`] and the max-flow
    /// witness list them: grouped by tail node, insertion order within.
    listing: Vec<usize>,
}

impl StTemplate {
    /// Derives the §3.2.2 network topology (with Fig. 7's dummy node and
    /// TX/RX gadgets) and the energy and delay part of every edge weight.
    ///
    /// The construction is deterministic: nodes and edges are emitted in
    /// graph order, so two templates of the same instance are identical.
    pub(crate) fn new(instance: &XProInstance) -> Self {
        let graph = &instance.built().graph;
        let radio = &instance.config().radio;
        let n = instance.num_cells();
        let (source, sink) = (0, 1);
        let cell = |c: CellId| 2 + c;
        let mut template = StTemplate {
            nodes: 2 + n,
            source,
            sink,
            cell_node: (0..n).map(cell).collect(),
            edges: Vec::new(),
            listing: Vec::new(),
        };

        let frame = |samples: u64, tx: bool| -> (f64, f64) {
            let frame = Frame::for_samples(samples, BITS_PER_SAMPLE);
            let energy = if tx {
                radio.tx_frame_pj(frame)
            } else {
                radio.rx_frame_pj(frame)
            };
            (energy, radio.frame_airtime_s(frame))
        };
        let unbounded = (INF, 0.0);

        // Compute edges: cell → B.
        for c in 0..n {
            let weight = (instance.sensor_cost(c).energy_pj, instance.sensor_time_s(c));
            template.edge(cell(c), sink, weight);
        }

        // Port gadgets.
        for (port, consumers) in graph.port_table() {
            match port.producer {
                None => {
                    // The paper's dummy node D for the raw segment.
                    let d = template.node();
                    template.edge(source, d, frame(instance.segment_len() as u64, true));
                    for &c in consumers {
                        template.edge(d, cell(c), unbounded);
                    }
                }
                Some(u) => {
                    let samples = graph.port_samples(*port);
                    // TX gadget: u → t (tx energy), t → consumers (∞).
                    let t = template.node();
                    template.edge(cell(u), t, frame(samples, true));
                    for &c in consumers {
                        template.edge(t, cell(c), unbounded);
                    }
                    // RX gadget: consumers → r (∞), r → u (rx energy).
                    let r = template.node();
                    for &c in consumers {
                        template.edge(cell(c), r, unbounded);
                    }
                    template.edge(r, cell(u), frame(samples, false));
                }
            }
        }

        // Result delivery: fusion → t_res (tx of one value), t_res → B (∞).
        let t_res = template.node();
        template.edge(cell(graph.result_cell()), t_res, frame(1, true));
        template.edge(t_res, sink, unbounded);

        let mut listing: Vec<usize> = (0..template.edges.len()).collect();
        listing.sort_by_key(|&i| template.edges[i].from);
        template.listing = listing;
        template
    }

    fn node(&mut self) -> NodeId {
        self.nodes += 1;
        self.nodes - 1
    }

    fn edge(&mut self, from: NodeId, to: NodeId, (energy_pj, delay_s): (f64, f64)) {
        self.edges.push(TemplateEdge {
            from,
            to,
            energy_pj,
            delay_s,
        });
    }

    /// The network priced under the Lagrangian delay price λ.
    ///
    /// # Panics
    ///
    /// Panics if `lambda_pj_per_s` is negative.
    pub(crate) fn network(&self, lambda_pj_per_s: f64) -> StNetwork {
        assert!(lambda_pj_per_s >= 0.0, "lambda must be non-negative");
        let mut net = FlowNetwork::new();
        net.add_nodes(self.nodes);
        for e in &self.edges {
            net.add_edge(e.from, e.to, e.capacity(lambda_pj_per_s));
        }
        StNetwork {
            net,
            source: self.source,
            sink: self.sink,
            cell_node: self.cell_node.clone(),
        }
    }

    /// `(from, to, capacity)` of every edge under λ, in the order
    /// [`FlowNetwork::edges`] lists the priced network's edges.
    pub(crate) fn listed_capacities(
        &self,
        lambda_pj_per_s: f64,
    ) -> impl Iterator<Item = (NodeId, NodeId, f64)> + '_ {
        self.listing.iter().map(move |&i| {
            let e = &self.edges[i];
            (e.from, e.to, e.capacity(lambda_pj_per_s))
        })
    }

    /// Solves the min cut under λ on a fresh network and returns the
    /// induced partition with its [`CutCertificate`].
    ///
    /// # Panics
    ///
    /// Panics if `lambda_pj_per_s` is negative.
    pub(crate) fn min_cut(&self, lambda_pj_per_s: f64) -> (Partition, CutCertificate) {
        self.min_cut_in(&mut self.network(lambda_pj_per_s), lambda_pj_per_s)
    }

    /// [`StTemplate::min_cut`] on `st`, a network of this template,
    /// re-priced in place under λ. The solve starts from zero flow, so it
    /// does the same arithmetic as on a fresh network.
    ///
    /// # Panics
    ///
    /// Panics if `lambda_pj_per_s` is negative.
    pub(crate) fn min_cut_in(
        &self,
        st: &mut StNetwork,
        lambda_pj_per_s: f64,
    ) -> (Partition, CutCertificate) {
        assert!(lambda_pj_per_s >= 0.0, "lambda must be non-negative");
        st.net
            .reprice(self.edges.iter().map(|e| e.capacity(lambda_pj_per_s)));
        let witness = st.net.cut_witness(st.source, st.sink);
        let partition = Partition {
            in_sensor: st
                .cell_node
                .iter()
                .map(|&nid| witness.source_side[nid])
                .collect(),
        };
        let certificate = CutCertificate {
            witness,
            source: st.source,
            sink: st.sink,
            cell_node: st.cell_node.clone(),
            lambda_pj_per_s,
        };
        (partition, certificate)
    }
}

/// Builds the s-t network for an instance and extracts the min-cut
/// partition together with the [`CutCertificate`] carrying the max-flow
/// witness, so the caller can have the cut independently re-verified by
/// [`check_cut_certificate`](crate::certificate::check_cut_certificate).
///
/// `lambda_pj_per_s` is the Lagrangian delay price: every edge weight
/// becomes `energy + λ·delay-contribution`, where the delay contribution of
/// a compute edge is the cell's sensor latency and that of a transfer edge
/// is the frame air time. `λ = 0` yields the pure §3.2.2 energy min-cut.
///
/// # Panics
///
/// Panics if `lambda_pj_per_s` is negative.
pub fn certified_min_cut_partition(
    instance: &XProInstance,
    lambda_pj_per_s: f64,
) -> (Partition, CutCertificate) {
    StTemplate::new(instance).min_cut(lambda_pj_per_s)
}

/// Constructs the §3.2.2 s-t network (with Fig. 7's dummy node and
/// TX/RX gadgets) under the Lagrangian delay price `lambda_pj_per_s`.
///
/// The construction is deterministic: nodes and edges are emitted in graph
/// order, so two builds over the same instance and λ are identical —
/// which is what lets the certificate checker re-derive the capacities
/// independently and compare them edge by edge.
///
/// # Panics
///
/// Panics if `lambda_pj_per_s` is negative.
pub fn build_network(instance: &XProInstance, lambda_pj_per_s: f64) -> StNetwork {
    StTemplate::new(instance).network(lambda_pj_per_s)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::partition::evaluate;
    use crate::testutil::tiny_instance;

    #[test]
    fn min_cut_beats_both_single_end_designs() {
        let instance = tiny_instance(1);
        let n = instance.num_cells();
        let cut = certified_min_cut_partition(&instance, 0.0).0;
        let e_cut = evaluate(&instance, &cut).sensor.total_pj();
        let e_sensor = evaluate(&instance, &Partition::all_sensor(n))
            .sensor
            .total_pj();
        let e_agg = evaluate(&instance, &Partition::all_aggregator(n))
            .sensor
            .total_pj();
        assert!(e_cut <= e_sensor + 1e-6, "{e_cut} > in-sensor {e_sensor}");
        assert!(e_cut <= e_agg + 1e-6, "{e_cut} > in-aggregator {e_agg}");
    }

    #[test]
    fn cut_capacity_matches_evaluator_energy() {
        // The invariant of §3.2.2: cut capacity == sensor energy of the
        // induced partition. Validates the gadget construction against the
        // independent evaluator.
        for seed in [1, 2, 3] {
            let instance = tiny_instance(seed);
            let cut = certified_min_cut_partition(&instance, 0.0).0;
            let eval = evaluate(&instance, &cut);
            // Re-derive the exhaustive optimum over all partitions for small
            // graphs and check the min-cut is no worse.
            let n = instance.num_cells();
            if n <= 14 {
                let mut best = f64::INFINITY;
                for mask in 0..(1u32 << n) {
                    let p = Partition {
                        in_sensor: (0..n).map(|i| mask & (1 << i) != 0).collect(),
                    };
                    best = best.min(evaluate(&instance, &p).sensor.total_pj());
                }
                assert!(
                    eval.sensor.total_pj() <= best + 1e-6,
                    "min-cut {} vs exhaustive {}",
                    eval.sensor.total_pj(),
                    best
                );
            }
        }
    }

    #[test]
    fn grouped_raw_consumers_stay_together() {
        let instance = tiny_instance(4);
        let cut = certified_min_cut_partition(&instance, 0.0).0;
        let graph = &instance.built().graph;
        let raw_sides: Vec<bool> = graph
            .raw_consumers()
            .iter()
            .map(|&c| cut.in_sensor[c])
            .collect();
        // If any raw consumer moved to the aggregator, the raw segment is
        // transmitted anyway, so an optimal cut moves them all.
        if raw_sides.iter().any(|&s| !s) {
            assert!(
                raw_sides.iter().all(|&s| !s),
                "raw consumers split: {raw_sides:?}"
            );
        }
    }

    #[test]
    fn huge_lambda_pushes_to_the_faster_single_end() {
        // With delay priced astronomically, the generator collapses to
        // whichever design minimizes (λ-dominated) total delay proxy.
        let instance = tiny_instance(5);
        let cut = certified_min_cut_partition(&instance, 1e18).0;
        let n = instance.num_cells();
        let e_cut = evaluate(&instance, &cut).delay.total_s();
        let e_sensor = evaluate(&instance, &Partition::all_sensor(n))
            .delay
            .total_s();
        let e_agg = evaluate(&instance, &Partition::all_aggregator(n))
            .delay
            .total_s();
        assert!(e_cut <= e_sensor.min(e_agg) + 1e-6);
    }
}
