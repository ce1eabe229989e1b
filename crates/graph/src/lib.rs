//! Graph algorithms backing the Automatic XPro Generator.
//!
//! The paper's key algorithmic move (§3.2) is formulating functional-cell
//! partitioning as a standard graph problem: an s-t graph whose min-cut
//! capacity equals the sensor-node energy of the induced partition. This
//! crate provides the machinery: [`dinic`], Dinic's max-flow / min-cut on
//! real-valued capacities with infinite-capacity ("grouped cells") edges.
//! The end-to-end delay of a partition is not a graph computation: it is
//! the sum of three serialized phases, `xpro_core::SegmentProfile::delay_s`.
//!
//! # Arc layout and re-pricing
//!
//! A [`FlowNetwork`] keeps its edges in insertion order and, at its first
//! solve, lays the residual arcs out in one flat array grouped by tail
//! node: each edge puts its forward arc at its tail and its reverse arc
//! at its head, in insertion order within each node. The solver's BFS
//! levels, DFS arc cursors and queue are reused across solves.
//! [`FlowNetwork::reprice`] writes new capacities into the forward arcs
//! in place (one per edge, in insertion order) and zeroes the reverse
//! arcs, so the generator's Lagrangian sweep builds one network and
//! solves it at every λ; [`FlowNetwork::cut_witness`] solves without
//! consuming the network. Each solve starts from zero flow and visits
//! arcs in the same order, so a re-priced solve returns bit for bit the
//! witness a freshly built network would.
//!
//! # Examples
//!
//! The worked example of the paper's Fig. 6/7 — three features and one
//! classifier — is reproduced as an integration test in
//! `tests/paper_example.rs`; the basic cut machinery looks like this:
//!
//! ```
//! use xpro_graph::dinic::{FlowNetwork, INF};
//!
//! let mut net = FlowNetwork::new();
//! let f = net.add_node(); // sensor (source)
//! let d = net.add_node(); // dummy raw-data node
//! let c = net.add_node(); // a functional cell
//! let b = net.add_node(); // aggregator (sink)
//! net.add_edge(f, d, 1.2);   // energy of transmitting the raw segment
//! net.add_edge(d, c, INF);   // "grouped" cells stay together
//! net.add_edge(c, b, 0.2);   // in-sensor compute energy of the cell
//! let cut = net.min_cut(f, b);
//! assert_eq!(cut.capacity, 0.2); // cheaper to compute in-sensor
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod dinic;

pub use dinic::{FlowNetwork, MinCut, NodeId, INF};
