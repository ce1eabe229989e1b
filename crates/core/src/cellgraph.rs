//! The functional-cell dataflow graph of an XPro instance (paper Fig. 2).
//!
//! Cells are the fine-grained computing primitives the cross-end
//! architecture distributes between the sensor and the aggregator. The graph
//! records, for every cell, what it computes ([`xpro_hw::ModuleKind`]) and
//! which upstream data it consumes; producers expose *ports* so that one
//! output shared by several consumers is transmitted at most once across the
//! wireless link (the generalization of the paper's "grouped cells" dummy
//! node, see `DESIGN.md` §7).

use crate::layout::Domain;
use xpro_hw::ModuleKind;

/// Index of a cell within a [`CellGraph`].
pub type CellId = usize;

/// One output port of a producer (a cell or the raw data source).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct PortRef {
    /// Producing cell, or `None` for the raw sensed segment.
    pub producer: Option<CellId>,
    /// Port index on the producer (cells may expose several, e.g. a DWT
    /// level outputs approximation and detail separately).
    pub port: usize,
}

impl PortRef {
    /// The raw sensed segment (the paper's "D" source data).
    pub const RAW: PortRef = PortRef {
        producer: None,
        port: 0,
    };

    /// Port 0 of a cell.
    pub fn cell(id: CellId) -> PortRef {
        PortRef {
            producer: Some(id),
            port: 0,
        }
    }
}

/// A functional cell.
#[derive(Clone, Debug, PartialEq)]
pub struct Cell {
    /// What the cell computes.
    pub module: ModuleKind,
    /// The domain the cell belongs to (for features/DWT; fusion and SVMs
    /// span domains and use [`Domain::Time`] as a placeholder).
    pub domain: Domain,
    /// Output ports: samples produced per event on each port.
    pub output_samples: Vec<u64>,
    /// Inputs consumed, as (port, samples-consumed) pairs.
    pub inputs: Vec<PortRef>,
    /// Human-readable label, e.g. `"Kurt@d2"`.
    pub label: String,
}

/// The dataflow graph: raw source → DWT chain → feature cells → SVM bases →
/// score fusion.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct CellGraph {
    cells: Vec<Cell>,
    /// Samples in the raw segment (port [`PortRef::RAW`]).
    raw_samples: u64,
    /// Every consumed port with its consumers, kept up to date by
    /// [`CellGraph::add_cell`]; see [`CellGraph::port_table`].
    ports: Vec<(PortRef, Vec<CellId>)>,
}

impl CellGraph {
    /// Creates an empty graph over a raw segment of the given length.
    pub fn new(raw_samples: u64) -> Self {
        CellGraph {
            cells: Vec::new(),
            raw_samples,
            ports: Vec::new(),
        }
    }

    /// Adds a cell, returning its id.
    ///
    /// # Panics
    ///
    /// Panics if an input references a not-yet-added cell or an out-of-range
    /// port (the graph must be built in topological order).
    pub fn add_cell(&mut self, cell: Cell) -> CellId {
        for input in &cell.inputs {
            if let Some(p) = input.producer {
                assert!(p < self.cells.len(), "input references unknown cell {p}");
                assert!(
                    input.port < self.cells[p].output_samples.len(),
                    "input references port {} of cell {p} which has {} ports",
                    input.port,
                    self.cells[p].output_samples.len()
                );
            }
        }
        let id = self.cells.len();
        for &input in &cell.inputs {
            match self.ports.iter_mut().find(|(port, _)| *port == input) {
                // Ids grow with insertion, so consumers stay ascending; a
                // cell listing the same port twice is recorded once.
                Some((_, consumers)) => {
                    if consumers.last() != Some(&id) {
                        consumers.push(id);
                    }
                }
                None => self.ports.push((input, vec![id])),
            }
        }
        self.cells.push(cell);
        id
    }

    /// The cells in insertion (topological) order.
    pub fn cells(&self) -> &[Cell] {
        &self.cells
    }

    /// Number of cells.
    pub fn len(&self) -> usize {
        self.cells.len()
    }

    /// Whether the graph has no cells.
    pub fn is_empty(&self) -> bool {
        self.cells.is_empty()
    }

    /// Samples in the raw segment.
    pub fn raw_samples(&self) -> u64 {
        self.raw_samples
    }

    /// Samples produced on a port.
    ///
    /// # Panics
    ///
    /// Panics if the port does not exist.
    pub fn port_samples(&self, port: PortRef) -> u64 {
        match port.producer {
            None => self.raw_samples,
            Some(c) => self.cells[c].output_samples[port.port],
        }
    }

    /// Ids of cells that read the raw segment directly — the paper's
    /// "grouped" cells.
    pub fn raw_consumers(&self) -> &[CellId] {
        self.consumers_of(PortRef::RAW)
    }

    /// Ids of cells consuming a given port, ascending.
    pub fn consumers_of(&self, port: PortRef) -> &[CellId] {
        self.ports
            .iter()
            .find(|(p, _)| *p == port)
            .map_or(&[][..], |(_, consumers)| consumers.as_slice())
    }

    /// Every distinct producer port that has at least one consumer
    /// (including [`PortRef::RAW`]), in first-use order — the order cells
    /// list their inputs in insertion order — each with its consumers in
    /// ascending id order.
    ///
    /// The table is maintained incrementally by [`CellGraph::add_cell`],
    /// so the s-t network builder and the per-segment profile walk read it
    /// without rescanning the cells.
    pub fn port_table(&self) -> &[(PortRef, Vec<CellId>)] {
        &self.ports
    }

    /// Id of the final cell (by convention the score-fusion cell, added
    /// last), whose output is the classification result.
    ///
    /// # Panics
    ///
    /// Panics if the graph is empty.
    pub fn result_cell(&self) -> CellId {
        assert!(!self.cells.is_empty(), "empty cell graph");
        self.cells.len() - 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xpro_signal::stats::FeatureKind;

    fn feature_cell(kind: FeatureKind, inputs: Vec<PortRef>) -> Cell {
        Cell {
            module: ModuleKind::Feature {
                kind,
                input_len: 128,
                reuses_var: false,
            },
            domain: Domain::Time,
            output_samples: vec![1],
            inputs,
            label: format!("{kind}@time"),
        }
    }

    #[test]
    fn build_small_graph() {
        let mut g = CellGraph::new(128);
        let max = g.add_cell(feature_cell(FeatureKind::Max, vec![PortRef::RAW]));
        let min = g.add_cell(feature_cell(FeatureKind::Min, vec![PortRef::RAW]));
        let svm = g.add_cell(Cell {
            module: ModuleKind::Svm {
                support_vectors: 5,
                dims: 2,
                rbf: true,
            },
            domain: Domain::Time,
            output_samples: vec![1],
            inputs: vec![PortRef::cell(max), PortRef::cell(min)],
            label: "svm0".into(),
        });
        assert_eq!(g.len(), 3);
        assert_eq!(g.raw_consumers(), vec![max, min]);
        assert_eq!(g.consumers_of(PortRef::cell(max)), vec![svm]);
        assert_eq!(g.result_cell(), svm);
        assert_eq!(g.port_samples(PortRef::RAW), 128);
        assert_eq!(g.port_samples(PortRef::cell(svm)), 1);
    }

    #[test]
    fn port_table_deduplicates() {
        let mut g = CellGraph::new(64);
        g.add_cell(feature_cell(FeatureKind::Max, vec![PortRef::RAW]));
        g.add_cell(feature_cell(
            FeatureKind::Min,
            vec![PortRef::RAW, PortRef::RAW],
        ));
        assert_eq!(g.port_table(), [(PortRef::RAW, vec![0, 1])]);
        assert!(g.consumers_of(PortRef::cell(0)).is_empty());
    }

    #[test]
    #[should_panic(expected = "unknown cell")]
    fn forward_reference_rejected() {
        let mut g = CellGraph::new(64);
        g.add_cell(feature_cell(FeatureKind::Max, vec![PortRef::cell(3)]));
    }

    #[test]
    #[should_panic(expected = "empty")]
    fn result_of_empty_graph_panics() {
        CellGraph::new(64).result_cell();
    }
}
