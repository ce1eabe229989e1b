//! Independent certification of generated cuts and epoch plans.
//!
//! The Automatic XPro Generator reduces partitioning to an s-t min-cut and
//! trusts the Dinic solver's answer. This module removes that trust: every
//! cut can carry a [`CutCertificate`] — the max-flow witness extracted from
//! the solver — and [`check_cut_certificate`] re-verifies it from first
//! principles against an *independently re-derived* network (the
//! instance's [`crate::stgraph`] template, priced at the certificate's λ):
//!
//! 1. the witness's edge list matches the re-derived network topology and
//!    capacities edge by edge;
//! 2. the flow is feasible: `0 ≤ flow ≤ capacity` on every edge;
//! 3. flow is conserved at every node except the source and sink;
//! 4. the claimed partition is exactly the node sides of the witness;
//! 5. no infinite edge crosses the cut, every crossing edge is saturated,
//!    and the flow value equals the cut weight.
//!
//! The last check is the punchline: by LP weak duality any feasible flow
//! value lower-bounds any s-t cut weight, so *equality* proves both optimal
//! simultaneously — a mutated cut either violates an invariant outright or
//! is no longer minimum and fails the equality.
//!
//! [`verify_plan`] layers the deployment-level checks on top: the
//! statically derived end-to-end delay ([`derive_delay_s`], backed by the
//! shared [`crate::profile::segment_profile`] walk) against the promised
//! limit, and the numeric validation that no overflow-prone cell sits on
//! the fixed-point sensor. The runtime's adaptive controller runs this on
//! every epoch plan before committing it.

use crate::instance::XProInstance;
use crate::partition::Partition;
use crate::profile::segment_profile;
use crate::stgraph::StTemplate;
use xpro_graph::dinic::{CutWitness, NodeId};

/// Relative tolerance for capacity, conservation, and weight comparisons.
const TOL_REL: f64 = 1e-6;

/// A max-flow/min-cut witness for one generated partition, with the
/// bookkeeping needed to re-derive the network it certifies.
#[derive(Clone, Debug)]
pub struct CutCertificate {
    /// The solver's flow witness over the λ-priced s-t network.
    pub witness: CutWitness,
    /// Node id of the source `F`.
    pub source: NodeId,
    /// Node id of the sink `B`.
    pub sink: NodeId,
    /// `cell_node[c]` is the network node of functional cell `c`.
    pub cell_node: Vec<NodeId>,
    /// The Lagrangian delay price the network was built under.
    pub lambda_pj_per_s: f64,
}

/// The invariant a certificate (or plan) check found violated.
#[derive(Clone, Debug, PartialEq)]
#[non_exhaustive]
pub enum CertificateViolation {
    /// The certificate's shape disagrees with the instance (cell count,
    /// node count, source/sink ids, or edge count).
    StructureMismatch {
        /// What disagreed.
        detail: String,
    },
    /// A witness edge's endpoints or capacity disagree with the
    /// independently rebuilt network.
    EdgeMismatch {
        /// Index of the offending edge in insertion order.
        index: usize,
    },
    /// An edge carries negative (or non-finite) flow.
    NegativeFlow {
        /// Tail node.
        from: NodeId,
        /// Head node.
        to: NodeId,
        /// The offending flow value.
        flow: f64,
    },
    /// An edge's flow exceeds its capacity.
    CapacityExceeded {
        /// Tail node.
        from: NodeId,
        /// Head node.
        to: NodeId,
        /// The offending flow value.
        flow: f64,
        /// The edge's capacity.
        capacity: f64,
    },
    /// Flow is not conserved at an interior node.
    Unconserved {
        /// The unbalanced node.
        node: NodeId,
        /// Inflow minus outflow.
        imbalance: f64,
    },
    /// The source is not on the source side, or the sink is.
    SideMismatch,
    /// An infinite-capacity edge crosses the claimed cut — the cut weight
    /// would be unbounded, so it cannot be minimum.
    InfiniteCutEdge {
        /// Tail node.
        from: NodeId,
        /// Head node.
        to: NodeId,
    },
    /// A cut edge is not saturated by the flow.
    UnsaturatedCutEdge {
        /// Tail node.
        from: NodeId,
        /// Head node.
        to: NodeId,
        /// Flow on the edge.
        flow: f64,
        /// Capacity of the edge.
        capacity: f64,
    },
    /// The flow value does not equal the cut weight, so weak duality does
    /// not close and optimality is unproven.
    FlowCutMismatch {
        /// The witness's flow value.
        flow: f64,
        /// The claimed cut's weight.
        cut: f64,
    },
    /// The claimed partition disagrees with the witness's node sides.
    PartitionMismatch {
        /// The first disagreeing cell.
        cell: usize,
    },
    /// The statically re-derived delay exceeds the promised limit.
    DelayExceeded {
        /// Re-derived end-to-end delay in seconds.
        total_s: f64,
        /// The promised limit in seconds.
        limit_s: f64,
    },
    /// A cell the range analysis flagged as overflow-prone is mapped to
    /// the fixed-point sensor end.
    NumericallyUnsafe {
        /// The offending cell.
        cell: usize,
    },
}

impl std::fmt::Display for CertificateViolation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        use CertificateViolation as V;
        match self {
            V::StructureMismatch { detail } => write!(f, "structure mismatch: {detail}"),
            V::EdgeMismatch { index } => {
                write!(f, "edge {index} disagrees with the rebuilt network")
            }
            V::NegativeFlow { from, to, flow } => {
                write!(f, "negative flow {flow} on edge {from}->{to}")
            }
            V::CapacityExceeded {
                from,
                to,
                flow,
                capacity,
            } => write!(
                f,
                "flow {flow} exceeds capacity {capacity} on edge {from}->{to}"
            ),
            V::Unconserved { node, imbalance } => {
                write!(f, "flow unconserved at node {node} (imbalance {imbalance})")
            }
            V::SideMismatch => write!(f, "source/sink on the wrong side of the cut"),
            V::InfiniteCutEdge { from, to } => {
                write!(f, "infinite-capacity edge {from}->{to} crosses the cut")
            }
            V::UnsaturatedCutEdge {
                from,
                to,
                flow,
                capacity,
            } => write!(
                f,
                "cut edge {from}->{to} unsaturated (flow {flow} < capacity {capacity})"
            ),
            V::FlowCutMismatch { flow, cut } => {
                write!(f, "flow value {flow} != cut weight {cut}")
            }
            V::PartitionMismatch { cell } => {
                write!(f, "partition disagrees with the witness at cell {cell}")
            }
            V::DelayExceeded { total_s, limit_s } => {
                write!(f, "re-derived delay {total_s} s exceeds limit {limit_s} s")
            }
            V::NumericallyUnsafe { cell } => {
                write!(f, "overflow-prone cell {cell} mapped to the sensor end")
            }
        }
    }
}

impl std::error::Error for CertificateViolation {}

/// Re-verifies a cut certificate against an independently rebuilt network.
///
/// # Errors
///
/// The first violated invariant, as a [`CertificateViolation`].
pub fn check_cut_certificate(
    instance: &XProInstance,
    partition: &Partition,
    cert: &CutCertificate,
) -> Result<(), CertificateViolation> {
    check_against(&StTemplate::new(instance), partition, cert)
}

/// [`check_cut_certificate`] against an already derived network template
/// of the instance, so a λ sweep derives it once for all of its cuts.
pub(crate) fn check_against(
    template: &StTemplate,
    partition: &Partition,
    cert: &CutCertificate,
) -> Result<(), CertificateViolation> {
    let n = template.cell_node.len();
    if partition.in_sensor.len() != n || cert.cell_node.len() != n {
        return Err(CertificateViolation::StructureMismatch {
            detail: format!(
                "instance has {n} cells, partition {} and certificate {}",
                partition.in_sensor.len(),
                cert.cell_node.len()
            ),
        });
    }

    // Re-price the network from the instance's template and λ; the
    // witness must describe exactly this network.
    let reference: Vec<_> = template.listed_capacities(cert.lambda_pj_per_s).collect();
    let witness = &cert.witness;
    if cert.source != template.source
        || cert.sink != template.sink
        || cert.cell_node != template.cell_node
        || witness.source_side.len() != template.nodes
    {
        return Err(CertificateViolation::StructureMismatch {
            detail: "node bookkeeping disagrees with the rebuilt network".into(),
        });
    }
    if witness.edges.len() != reference.len() {
        return Err(CertificateViolation::StructureMismatch {
            detail: format!(
                "witness has {} edges, rebuilt network {}",
                witness.edges.len(),
                reference.len()
            ),
        });
    }

    // Tolerances scale with the largest finite capacity (λ-priced weights
    // can be many orders of magnitude above the raw energies).
    let scale = reference
        .iter()
        .map(|&(_, _, c)| c)
        .filter(|c| c.is_finite())
        .fold(1.0f64, f64::max);
    let tol = scale * TOL_REL;

    for (i, (e, &(rf, rt, rc))) in witness.edges.iter().zip(&reference).enumerate() {
        if e.from != rf || e.to != rt {
            return Err(CertificateViolation::EdgeMismatch { index: i });
        }
        let caps_agree = if rc.is_infinite() {
            e.capacity.is_infinite()
        } else {
            e.capacity.is_finite() && (e.capacity - rc).abs() <= tol
        };
        if !caps_agree {
            return Err(CertificateViolation::EdgeMismatch { index: i });
        }
        if !e.flow.is_finite() || e.flow < -tol {
            return Err(CertificateViolation::NegativeFlow {
                from: e.from,
                to: e.to,
                flow: e.flow,
            });
        }
        if e.flow > e.capacity + tol {
            return Err(CertificateViolation::CapacityExceeded {
                from: e.from,
                to: e.to,
                flow: e.flow,
                capacity: e.capacity,
            });
        }
    }

    // Conservation at every interior node.
    let mut balance = vec![0.0f64; template.nodes];
    for e in &witness.edges {
        balance[e.from] -= e.flow;
        balance[e.to] += e.flow;
    }
    for (node, &imbalance) in balance.iter().enumerate() {
        if node != cert.source && node != cert.sink && imbalance.abs() > tol {
            return Err(CertificateViolation::Unconserved { node, imbalance });
        }
    }

    // Side sanity, then weak duality: flow value == cut weight.
    if !witness.source_side[cert.source] || witness.source_side[cert.sink] {
        return Err(CertificateViolation::SideMismatch);
    }
    let mut cut_weight = 0.0f64;
    for e in &witness.edges {
        if witness.source_side[e.from] && !witness.source_side[e.to] {
            if e.capacity.is_infinite() {
                return Err(CertificateViolation::InfiniteCutEdge {
                    from: e.from,
                    to: e.to,
                });
            }
            if (e.flow - e.capacity).abs() > tol {
                return Err(CertificateViolation::UnsaturatedCutEdge {
                    from: e.from,
                    to: e.to,
                    flow: e.flow,
                    capacity: e.capacity,
                });
            }
            cut_weight += e.capacity;
        }
    }
    // The flow value must match both the witness's claim and the net
    // source outflow (which conservation ties to the sink inflow).
    let source_out = -balance[cert.source];
    if (witness.value - cut_weight).abs() > tol || (source_out - cut_weight).abs() > tol {
        return Err(CertificateViolation::FlowCutMismatch {
            flow: witness.value,
            cut: cut_weight,
        });
    }

    // The claimed partition must be the witness's node sides.
    for (cell, (&on_sensor, &node)) in partition.in_sensor.iter().zip(&cert.cell_node).enumerate() {
        if on_sensor != witness.source_side[node] {
            return Err(CertificateViolation::PartitionMismatch { cell });
        }
    }
    Ok(())
}

/// Statically derives a partition's end-to-end event delay from cell
/// timings and frame air times, via the shared
/// [`crate::profile::segment_profile`] walk.
///
/// This used to be a hand-maintained second copy of the evaluator's
/// delay loop; the copies are now deduplicated into one documented
/// function that `partition::evaluate`, this checker, and the WCRT
/// analyzer's best-case sanity check all call. Independence from the
/// *pricing* code is preserved where it matters — the certificate checks
/// (flow feasibility, weak duality) never consult the evaluator — while
/// the delay number itself is defined in exactly one place.
///
/// # Panics
///
/// Panics if the partition size differs from the instance's cell count.
pub fn derive_delay_s(instance: &XProInstance, partition: &Partition) -> f64 {
    segment_profile(instance, partition).delay_s()
}

/// Full plan verification: the cut certificate (when the plan came from
/// the min-cut solver), numeric validity of every sensor-side cell, and
/// the statically re-derived delay against the promised limit.
///
/// Single-end and trivial-cut plans carry no witness (`cert == None`);
/// they still get the numeric and delay checks.
///
/// # Errors
///
/// The first violated invariant, as a [`CertificateViolation`].
pub fn verify_plan(
    instance: &XProInstance,
    partition: &Partition,
    cert: Option<&CutCertificate>,
    t_limit_s: f64,
) -> Result<(), CertificateViolation> {
    if partition.in_sensor.len() != instance.num_cells() {
        return Err(CertificateViolation::StructureMismatch {
            detail: format!(
                "instance has {} cells, partition {}",
                instance.num_cells(),
                partition.in_sensor.len()
            ),
        });
    }
    if let Some(cert) = cert {
        check_cut_certificate(instance, partition, cert)?;
    }
    for (cell, &on_sensor) in partition.in_sensor.iter().enumerate() {
        if on_sensor && !instance.cell_numerically_safe(cell) {
            return Err(CertificateViolation::NumericallyUnsafe { cell });
        }
    }
    let total_s = derive_delay_s(instance, partition);
    let tol = t_limit_s * 1e-9;
    if total_s > t_limit_s + tol {
        return Err(CertificateViolation::DelayExceeded {
            total_s,
            limit_s: t_limit_s,
        });
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used)] // tests fail loudly by design

    use super::*;
    use crate::partition::evaluate;
    use crate::stgraph::certified_min_cut_partition;
    use crate::testutil::tiny_instance;

    #[test]
    fn generated_cuts_certify_across_lambdas() {
        for seed in 0..4 {
            let inst = tiny_instance(seed);
            for lambda in [0.0, 1.0e6, 1.0e9, 1.0e12] {
                let (p, cert) = certified_min_cut_partition(&inst, lambda);
                check_cut_certificate(&inst, &p, &cert)
                    .unwrap_or_else(|v| panic!("seed {seed} λ {lambda}: {v}"));
            }
        }
    }

    #[test]
    fn derived_delay_matches_the_evaluator() {
        // Both callers share one profile walk now, but this pins the
        // contract that repackaging (breakdowns vs a scalar) never skews
        // the total.
        let inst = tiny_instance(1);
        let n = inst.num_cells();
        let (cut, _) = certified_min_cut_partition(&inst, 1.0e9);
        for p in [Partition::all_sensor(n), Partition::all_aggregator(n), cut] {
            let evaluated = evaluate(&inst, &p).delay.total_s();
            let derived = derive_delay_s(&inst, &p);
            assert!(
                (evaluated - derived).abs() <= evaluated * 1e-9,
                "evaluate {evaluated} vs derive {derived}"
            );
        }
    }

    #[test]
    fn moved_cell_is_rejected_as_partition_mismatch() {
        let inst = tiny_instance(2);
        let (mut p, cert) = certified_min_cut_partition(&inst, 0.0);
        // Flip one cell to the other end: the witness no longer matches.
        let victim = 0;
        p.in_sensor[victim] = !p.in_sensor[victim];
        let err = check_cut_certificate(&inst, &p, &cert).unwrap_err();
        assert_eq!(
            err,
            CertificateViolation::PartitionMismatch { cell: victim }
        );
    }

    #[test]
    fn inflated_flow_is_rejected() {
        let inst = tiny_instance(3);
        let (p, mut cert) = certified_min_cut_partition(&inst, 0.0);
        // Inflate one finite edge's flow past its capacity.
        let idx = cert
            .witness
            .edges
            .iter()
            .position(|e| e.capacity.is_finite() && e.capacity > 0.0)
            .unwrap();
        cert.witness.edges[idx].flow = cert.witness.edges[idx].capacity * 2.0 + 1.0;
        let err = check_cut_certificate(&inst, &p, &cert).unwrap_err();
        assert!(
            matches!(
                err,
                CertificateViolation::CapacityExceeded { .. }
                    | CertificateViolation::Unconserved { .. }
            ),
            "got {err}"
        );
    }

    #[test]
    fn negative_flow_is_rejected() {
        let inst = tiny_instance(3);
        let (p, mut cert) = certified_min_cut_partition(&inst, 0.0);
        // Negate the largest flow: unambiguously beyond the scale-relative
        // tolerance.
        let idx = (0..cert.witness.edges.len())
            .max_by(|&a, &b| {
                cert.witness.edges[a]
                    .flow
                    .total_cmp(&cert.witness.edges[b].flow)
            })
            .unwrap();
        assert!(cert.witness.edges[idx].flow > 0.0);
        cert.witness.edges[idx].flow = -cert.witness.edges[idx].flow;
        let err = check_cut_certificate(&inst, &p, &cert).unwrap_err();
        assert!(
            matches!(err, CertificateViolation::NegativeFlow { .. }),
            "got {err}"
        );
    }

    #[test]
    fn tampered_capacity_is_rejected_as_edge_mismatch() {
        let inst = tiny_instance(4);
        let (p, mut cert) = certified_min_cut_partition(&inst, 0.0);
        let idx = cert
            .witness
            .edges
            .iter()
            .position(|e| e.capacity.is_finite() && e.capacity > 0.0)
            .unwrap();
        cert.witness.edges[idx].capacity *= 0.5;
        cert.witness.edges[idx].flow = 0.0;
        let err = check_cut_certificate(&inst, &p, &cert).unwrap_err();
        assert!(
            matches!(err, CertificateViolation::EdgeMismatch { .. }),
            "got {err}"
        );
    }

    #[test]
    fn forged_flow_value_fails_weak_duality() {
        let inst = tiny_instance(5);
        let (p, mut cert) = certified_min_cut_partition(&inst, 0.0);
        cert.witness.value *= 0.5;
        let err = check_cut_certificate(&inst, &p, &cert).unwrap_err();
        assert!(
            matches!(err, CertificateViolation::FlowCutMismatch { .. }),
            "got {err}"
        );
    }

    #[test]
    fn wrong_lambda_is_rejected() {
        // A witness priced under one λ cannot certify a network rebuilt
        // under another: the capacities disagree.
        let inst = tiny_instance(6);
        let (p, mut cert) = certified_min_cut_partition(&inst, 0.0);
        cert.lambda_pj_per_s = 1.0e12;
        let err = check_cut_certificate(&inst, &p, &cert).unwrap_err();
        assert!(
            matches!(err, CertificateViolation::EdgeMismatch { .. }),
            "got {err}"
        );
    }

    #[test]
    fn violated_deadline_is_rejected_by_verify_plan() {
        let inst = tiny_instance(7);
        let (p, cert) = certified_min_cut_partition(&inst, 0.0);
        check_cut_certificate(&inst, &p, &cert).unwrap();
        let honest = derive_delay_s(&inst, &p);
        // A limit below the true delay must be caught.
        let err = verify_plan(&inst, &p, Some(&cert), honest * 0.5).unwrap_err();
        assert!(
            matches!(err, CertificateViolation::DelayExceeded { .. }),
            "got {err}"
        );
        // And the honest delay passes.
        verify_plan(&inst, &p, Some(&cert), honest * 1.01).unwrap();
    }

    #[test]
    fn violations_render_their_invariant() {
        let v = CertificateViolation::FlowCutMismatch {
            flow: 1.0,
            cut: 2.0,
        };
        assert!(v.to_string().contains("flow value"));
        let v = CertificateViolation::DelayExceeded {
            total_s: 2.0,
            limit_s: 1.0,
        };
        assert!(v.to_string().contains("exceeds limit"));
    }
}
