//! Hand-built small instances for tests (hidden from the documented API;
//! the workspace's integration tests share them).

use crate::builder::BuiltGraph;
use crate::cellgraph::{Cell, CellGraph, PortRef};
use crate::config::SystemConfig;
use crate::instance::XProInstance;
use crate::layout::Domain;
use std::collections::BTreeMap;
use xpro_hw::ModuleKind;
use xpro_signal::stats::FeatureKind;

/// Builds a small (≤ 10-cell) instance: a handful of time-domain features,
/// one DWT level with one sub-band feature, two SVM bases and fusion. The
/// seed perturbs SVM sizes so different seeds produce different optimal
/// cuts.
pub fn tiny_instance(seed: u64) -> XProInstance {
    let mut graph = CellGraph::new(128);
    let feature = |kind: FeatureKind, domain: Domain, inputs: Vec<PortRef>| Cell {
        module: ModuleKind::Feature {
            kind,
            input_len: domain.window_len(),
            reuses_var: false,
        },
        domain,
        output_samples: vec![1],
        inputs,
        label: format!("{kind}@{domain}"),
    };

    let max_t = graph.add_cell(feature(FeatureKind::Max, Domain::Time, vec![PortRef::RAW]));
    let var_t = graph.add_cell(feature(FeatureKind::Var, Domain::Time, vec![PortRef::RAW]));
    let skew_t = graph.add_cell(feature(FeatureKind::Skew, Domain::Time, vec![PortRef::RAW]));
    let dwt1 = graph.add_cell(Cell {
        module: ModuleKind::DwtLevel {
            input_len: 128,
            taps: 2,
        },
        domain: Domain::Detail(1),
        output_samples: vec![64, 64],
        inputs: vec![PortRef::RAW],
        label: "DWT-L1".into(),
    });
    let kurt_d1 = graph.add_cell(feature(
        FeatureKind::Kurt,
        Domain::Detail(1),
        vec![PortRef {
            producer: Some(dwt1),
            port: 1,
        }],
    ));

    let sv_a = 5 + (seed % 30) as usize;
    let sv_b = 10 + (seed % 17) as usize;
    let svm_a = graph.add_cell(Cell {
        module: ModuleKind::Svm {
            support_vectors: sv_a,
            dims: 2,
            rbf: true,
        },
        domain: Domain::Time,
        output_samples: vec![1],
        inputs: vec![PortRef::cell(max_t), PortRef::cell(var_t)],
        label: "SVM-0".into(),
    });
    let svm_b = graph.add_cell(Cell {
        module: ModuleKind::Svm {
            support_vectors: sv_b,
            dims: 2,
            rbf: true,
        },
        domain: Domain::Time,
        output_samples: vec![1],
        inputs: vec![PortRef::cell(skew_t), PortRef::cell(kurt_d1)],
        label: "SVM-1".into(),
    });
    let fusion = graph.add_cell(Cell {
        module: ModuleKind::ScoreFusion { bases: 2 },
        domain: Domain::Time,
        output_samples: vec![1],
        inputs: vec![PortRef::cell(svm_a), PortRef::cell(svm_b)],
        label: "Fusion".into(),
    });

    let mut feature_cells = BTreeMap::new();
    feature_cells.insert(0usize, max_t);
    feature_cells.insert(3usize, var_t);
    feature_cells.insert(6usize, skew_t);
    feature_cells.insert(15usize, kurt_d1);

    let built = BuiltGraph {
        graph,
        feature_cells,
        svm_cells: vec![svm_a, svm_b],
        fusion_cell: fusion,
    };
    let segment_len = 82 + (seed % 3) as usize * 25;
    XProInstance::try_new(built, SystemConfig::default(), segment_len).expect("valid test instance")
}
