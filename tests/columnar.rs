//! Columnar export round-trip against a checked-in golden file, and the
//! `.xpc` reader under hostile input.
//!
//! The `.xpc` format is a contract: CI diffs exports across shard counts
//! with `cmp`, and downstream tooling slices single columns out of files
//! written by older builds. A golden byte image of one seeded run pins
//! both — any format or determinism regression shows up as a byte diff
//! here, not in a consumer. A file read from disk is untrusted: every
//! truncation, bit flip or oversized length field of the golden image
//! must come back as a typed error, never as a panic.
//!
//! Regenerate the golden (after a *deliberate* format change) with:
//! `XPRO_BLESS_GOLDEN=1 cargo test --test columnar`

#![allow(clippy::unwrap_used)] // tests fail loudly by design

use std::collections::BTreeMap;
use std::path::PathBuf;

use proptest::prelude::*;
use xpro::core::builder::BuiltGraph;
use xpro::core::cellgraph::{Cell, CellGraph, PortRef};
use xpro::core::config::SystemConfig;
use xpro::core::generator::{Engine, XProGenerator};
use xpro::core::instance::XProInstance;
use xpro::core::layout::Domain;
use xpro::core::partition::Partition;
use xpro::core::XProError;
use xpro::hw::ModuleKind;
use xpro::runtime::{
    summarize_timesteps, ColumnBatch, ColumnIndex, ExecutorBuilder, FleetSpec, RunHandle,
    RuntimeConfig,
};
use xpro::signal::stats::FeatureKind;

/// The same small fixture the runtime's determinism suite uses
/// (integration tests cannot see the crate's internal one).
fn tiny_instance() -> XProInstance {
    let mut graph = CellGraph::new(128);
    let mut feature_cells = BTreeMap::new();
    let kinds = [
        FeatureKind::Max,
        FeatureKind::Var,
        FeatureKind::Skew,
        FeatureKind::Kurt,
    ];
    for (i, &kind) in kinds.iter().enumerate() {
        let id = graph.add_cell(Cell {
            module: ModuleKind::Feature {
                kind,
                input_len: 128,
                reuses_var: false,
            },
            domain: Domain::Time,
            output_samples: vec![1],
            inputs: vec![PortRef::RAW],
            label: format!("f{i}"),
        });
        feature_cells.insert(i, id);
    }
    let svm = graph.add_cell(Cell {
        module: ModuleKind::Svm {
            support_vectors: 24,
            dims: 4,
            rbf: true,
        },
        domain: Domain::Time,
        output_samples: vec![1],
        inputs: (0..4).map(|i| PortRef::cell(feature_cells[&i])).collect(),
        label: "svm".into(),
    });
    let fusion = graph.add_cell(Cell {
        module: ModuleKind::ScoreFusion { bases: 1 },
        domain: Domain::Time,
        output_samples: vec![1],
        inputs: vec![PortRef::cell(svm)],
        label: "fusion".into(),
    });
    let built = BuiltGraph {
        graph,
        feature_cells,
        svm_cells: vec![svm],
        fusion_cell: fusion,
    };
    XProInstance::try_new(built, SystemConfig::default(), 100).expect("valid test instance")
}

/// The seeded run whose timestep export the golden file pins. Faults are
/// on so the loss columns carry non-zero data.
fn golden_run() -> RunHandle {
    let inst = tiny_instance();
    let partition = XProGenerator::new(&inst)
        .partition_for(Engine::CrossEnd)
        .unwrap();
    let cfg = RuntimeConfig::builder()
        .nodes(3)
        .duration_s(2.0)
        .drop_rate(0.2)
        .mtbf_s(0.7)
        .mttr_s(0.2)
        .reboot_warmup_s(0.05)
        .max_retries(4)
        .seed(90)
        .build()
        .unwrap();
    run_with(&inst, &partition, &cfg)
}

fn run_with(inst: &XProInstance, partition: &Partition, cfg: &RuntimeConfig) -> RunHandle {
    ExecutorBuilder::new(FleetSpec::new(inst, partition, cfg.clone()).unwrap())
        .record_timesteps(true)
        .build()
        .unwrap()
        .run()
}

fn golden_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests")
        .join("data")
        .join("timesteps_golden.xpc")
}

#[test]
fn export_bytes_match_the_checked_in_golden_file() {
    let handle = golden_run();
    let batch = handle.timesteps.as_ref().expect("recording was enabled");
    assert!(batch.rows() > 1, "golden run must span several rounds");
    let bytes = batch.to_bytes();
    let path = golden_path();
    if std::env::var_os("XPRO_BLESS_GOLDEN").is_some() {
        std::fs::write(&path, &bytes).unwrap();
        return;
    }
    let golden = std::fs::read(&path)
        .expect("golden file missing — run with XPRO_BLESS_GOLDEN=1 to create it");
    assert_eq!(
        bytes, golden,
        "timestep export diverged from the golden byte image"
    );
}

#[test]
fn golden_file_round_trips_byte_exactly() {
    let golden = std::fs::read(golden_path()).unwrap();
    let batch = ColumnBatch::from_bytes(&golden).unwrap();
    assert_eq!(batch.to_bytes(), golden, "parse→serialize is not identity");
    // The aggregation layer folds the golden columns without error and
    // sees actual traffic.
    let summary = summarize_timesteps(&batch).unwrap();
    assert_eq!(summary.rows, batch.rows() as u64);
    assert!(summary.offered > 0 && summary.completed > 0);
    assert!(summary.offered >= summary.completed);
}

#[test]
fn golden_file_footer_index_skips_to_a_single_column() {
    let golden = std::fs::read(golden_path()).unwrap();
    let index = ColumnIndex::parse(&golden).unwrap();
    let full = ColumnBatch::from_bytes(&golden).unwrap();
    // Every column is reachable through the index alone, and a reader
    // that slices one column must tolerate garbage everywhere else in
    // the payload region — proof it never touches the other columns.
    let names: Vec<String> = full.names().map(str::to_string).collect();
    assert!(names.iter().any(|n| n == "completed"));
    for name in &names {
        let via_index = index.read_column(&golden, name).unwrap().unwrap();
        assert_eq!(&via_index, full.column(name).unwrap(), "column {name}");
    }
    let target = index
        .entries
        .iter()
        .find(|e| e.name == "completed")
        .unwrap();
    let keep = target.offset as usize..(target.offset + target.byte_len) as usize;
    let payload_end = index
        .entries
        .iter()
        .map(|e| (e.offset + e.byte_len) as usize)
        .max()
        .unwrap();
    let mut mangled = golden.clone();
    for (i, b) in mangled.iter_mut().enumerate().take(payload_end).skip(8) {
        if !keep.contains(&i) {
            *b ^= 0xFF;
        }
    }
    let col = ColumnIndex::parse(&mangled)
        .unwrap()
        .read_column(&mangled, "completed")
        .unwrap()
        .unwrap();
    assert_eq!(&col, full.column("completed").unwrap());
}

#[test]
fn export_agrees_with_the_report_totals() {
    let handle = golden_run();
    let batch = handle.timesteps.as_ref().unwrap();
    let summary = summarize_timesteps(batch).unwrap();
    let report = &handle.report;
    let offered: u64 = report.nodes.iter().map(|n| n.segments_offered).sum();
    assert_eq!(summary.offered, offered);
    assert_eq!(summary.completed, report.total_completed());
    assert_eq!(summary.lost, report.total_lost());
    let energy: f64 = report
        .nodes
        .iter()
        .map(xpro::runtime::NodeReport::total_pj)
        .sum();
    assert!(
        (summary.energy_pj - energy).abs() <= 1e-6 * energy.abs().max(1.0),
        "exported energy {} vs report {}",
        summary.energy_pj,
        energy
    );
}

/// Whether parsing `bytes` returned a typed configuration error.
fn is_config_error(bytes: &[u8]) -> bool {
    matches!(ColumnBatch::from_bytes(bytes), Err(XProError::Config(_)))
}

/// Byte offset of the footer's first field (`ncols`) in `bytes`.
fn footer_start(bytes: &[u8]) -> usize {
    let len_at = bytes.len() - 16;
    let footer_len = u64::from_le_bytes(bytes[len_at..len_at + 8].try_into().unwrap());
    len_at - footer_len as usize
}

/// Byte offsets of every length field of the golden image: `ncols`,
/// each entry's `name_len`, `offset`, `byte_len` and `rows`, and
/// `footer_len`.
fn length_fields(golden: &[u8]) -> Vec<usize> {
    let index = ColumnIndex::parse(golden).unwrap();
    let mut at = footer_start(golden);
    let mut fields = vec![at];
    at += 8;
    for entry in &index.entries {
        let offset_at = at + 8 + entry.name.len() + 1;
        fields.extend([at, offset_at, offset_at + 8, offset_at + 16]);
        at = offset_at + 24;
    }
    fields.push(at);
    assert_eq!(at, golden.len() - 16, "field walk ends at footer_len");
    fields
}

#[test]
fn every_truncation_is_a_config_error() {
    let golden = std::fs::read(golden_path()).unwrap();
    for len in 0..golden.len() {
        assert!(is_config_error(&golden[..len]), "truncated to {len} bytes");
    }
}

#[test]
fn u64_max_in_every_length_field_is_a_config_error() {
    let golden = std::fs::read(golden_path()).unwrap();
    let fields = length_fields(&golden);
    assert_eq!(
        fields.len(),
        2 + 4 * ColumnIndex::parse(&golden).unwrap().entries.len()
    );
    for at in fields {
        for value in [u64::MAX, u64::MAX / 2, 1 << 40] {
            let mut bytes = golden.clone();
            bytes[at..at + 8].copy_from_slice(&value.to_le_bytes());
            assert!(is_config_error(&bytes), "field at {at} set to {value:#x}");
        }
    }
}

#[test]
fn a_column_count_past_the_footer_is_refused_before_allocating() {
    let golden = std::fs::read(golden_path()).unwrap();
    let at = footer_start(&golden);
    let entries = ColumnIndex::parse(&golden).unwrap().entries.len() as u64;
    for ncols in [entries + 1, 1 << 32, u64::MAX] {
        let mut bytes = golden.clone();
        bytes[at..at + 8].copy_from_slice(&ncols.to_le_bytes());
        assert!(is_config_error(&bytes), "ncols {ncols}");
    }
}

#[test]
fn every_footer_bit_flip_parses_or_is_a_config_error() {
    let golden = std::fs::read(golden_path()).unwrap();
    for byte in footer_start(&golden)..golden.len() {
        for bit in 0..8 {
            let mut bytes = golden.clone();
            bytes[byte] ^= 1 << bit;
            let parsed = ColumnBatch::from_bytes(&bytes);
            assert!(
                parsed.is_ok() || matches!(parsed, Err(XProError::Config(_))),
                "byte {byte} bit {bit}: {parsed:?}"
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// A flip anywhere in the file either still parses (a payload value,
    /// a name byte or a type tag changed) or is a typed error.
    #[test]
    fn any_single_bit_flip_parses_or_is_a_config_error(pos in 0usize..1 << 20, bit in 0u32..8) {
        let golden = std::fs::read(golden_path()).unwrap();
        let mut bytes = golden.clone();
        let byte = pos % bytes.len();
        bytes[byte] ^= 1 << bit;
        let parsed = ColumnBatch::from_bytes(&bytes);
        prop_assert!(
            parsed.is_ok() || matches!(parsed, Err(XProError::Config(_))),
            "byte {} bit {}: {:?}", byte, bit, parsed
        );
    }
}
