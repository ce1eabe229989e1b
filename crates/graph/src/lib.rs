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
