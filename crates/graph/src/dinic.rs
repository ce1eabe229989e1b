//! Dinic's max-flow / min-cut algorithm on real-valued capacities.
//!
//! The Automatic XPro Generator reduces functional-cell partitioning to a
//! standard s-t min-cut (paper §3.2.2); this is the solver behind it. Dinic
//! runs in `O(V²E)` — comfortably polynomial, which is the paper's
//! complexity claim for the generator.

/// Identifier of a node in a [`FlowNetwork`].
pub type NodeId = usize;

/// Capacity value treated as unbounded.
pub const INF: f64 = f64::INFINITY;

#[derive(Clone, Debug)]
struct Edge {
    to: NodeId,
    cap: f64,
    /// Index of the reverse edge in `adj[to]`.
    rev: usize,
    /// Whether this is an original (forward) edge rather than a residual.
    forward: bool,
}

/// A directed flow network with real-valued capacities.
///
/// # Examples
///
/// ```
/// use xpro_graph::dinic::FlowNetwork;
///
/// let mut net = FlowNetwork::new();
/// let s = net.add_node();
/// let a = net.add_node();
/// let t = net.add_node();
/// net.add_edge(s, a, 3.0);
/// net.add_edge(a, t, 2.0);
/// let cut = net.min_cut(s, t);
/// assert_eq!(cut.capacity, 2.0);
/// assert!(cut.source_side[a]);
/// ```
#[derive(Clone, Debug, Default)]
pub struct FlowNetwork {
    adj: Vec<Vec<Edge>>,
}

/// Result of a min-cut computation.
#[derive(Clone, Debug, PartialEq)]
pub struct MinCut {
    /// Total capacity of the cut (equals the max flow).
    pub capacity: f64,
    /// `source_side[v]` is `true` when `v` is reachable from the source in
    /// the residual graph (i.e., on the source side of the cut).
    pub source_side: Vec<bool>,
}

/// Flow assignment on one original (forward) edge of the network.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct EdgeFlow {
    /// Tail node.
    pub from: NodeId,
    /// Head node.
    pub to: NodeId,
    /// Original capacity of the edge ([`INF`] for unbounded edges).
    pub capacity: f64,
    /// Flow routed through the edge by the max-flow computation.
    pub flow: f64,
}

/// A max-flow/min-cut pair that certifies its own optimality.
///
/// By LP weak duality, *any* feasible s→t flow value is a lower bound on
/// *any* s-t cut capacity — so exhibiting a feasible flow whose value
/// equals a cut's weight proves simultaneously that the flow is maximum
/// and the cut minimum. The witness carries the full per-edge flow
/// assignment so an independent checker can re-verify feasibility
/// (capacity limits, conservation) and the equality without trusting the
/// solver.
#[derive(Clone, Debug, PartialEq)]
pub struct CutWitness {
    /// Value of the flow == weight of the cut.
    pub value: f64,
    /// `source_side[v]` is `true` when `v` is on the source side.
    pub source_side: Vec<bool>,
    /// Flow assignment on every original edge, in insertion order.
    pub edges: Vec<EdgeFlow>,
}

impl FlowNetwork {
    /// Creates an empty network.
    pub fn new() -> Self {
        FlowNetwork::default()
    }

    /// Adds a node and returns its id.
    pub fn add_node(&mut self) -> NodeId {
        self.adj.push(Vec::new());
        self.adj.len() - 1
    }

    /// Adds `n` nodes, returning the id of the first.
    pub fn add_nodes(&mut self, n: usize) -> NodeId {
        let first = self.adj.len();
        for _ in 0..n {
            self.adj.push(Vec::new());
        }
        first
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.adj.len()
    }

    /// Whether the network has no nodes.
    pub fn is_empty(&self) -> bool {
        self.adj.is_empty()
    }

    /// Adds a directed edge with the given capacity.
    ///
    /// # Panics
    ///
    /// Panics if either endpoint is out of range, the endpoints coincide,
    /// or the capacity is negative or NaN.
    pub fn add_edge(&mut self, from: NodeId, to: NodeId, cap: f64) {
        assert!(from < self.adj.len(), "`from` out of range");
        assert!(to < self.adj.len(), "`to` out of range");
        assert_ne!(from, to, "self-loops are not allowed");
        assert!(cap >= 0.0, "capacity must be non-negative and not NaN");
        let rev_from = self.adj[to].len();
        let rev_to = self.adj[from].len();
        self.adj[from].push(Edge {
            to,
            cap,
            rev: rev_from,
            forward: true,
        });
        self.adj[to].push(Edge {
            to: from,
            cap: 0.0,
            rev: rev_to,
            forward: false,
        });
    }

    /// Computes the maximum s→t flow (mutating residual capacities) and
    /// returns its value.
    ///
    /// # Panics
    ///
    /// Panics if `s == t` or either is out of range.
    pub fn max_flow(&mut self, s: NodeId, t: NodeId) -> f64 {
        assert!(
            s < self.adj.len() && t < self.adj.len(),
            "node out of range"
        );
        assert_ne!(s, t, "source equals sink");
        let n = self.adj.len();
        let mut flow = 0.0f64;
        // Numerical floor: capacities below this are considered exhausted.
        const EPS: f64 = 1e-9;
        // Per-phase scratch, allocated once and reset at each phase.
        let mut level = vec![usize::MAX; n];
        let mut it = vec![0usize; n];
        let mut queue = std::collections::VecDeque::with_capacity(n);
        loop {
            // BFS level graph.
            level.fill(usize::MAX);
            level[s] = 0;
            queue.push_back(s);
            while let Some(u) = queue.pop_front() {
                for e in &self.adj[u] {
                    if e.cap > EPS && level[e.to] == usize::MAX {
                        level[e.to] = level[u] + 1;
                        queue.push_back(e.to);
                    }
                }
            }
            if level[t] == usize::MAX {
                break;
            }
            // DFS blocking flow.
            it.fill(0);
            loop {
                let pushed = self.dfs(s, t, INF, &level, &mut it);
                if pushed <= EPS {
                    break;
                }
                if pushed.is_infinite() {
                    // An all-infinite augmenting path: the max flow (and the
                    // min cut) is unbounded. Residuals are no longer
                    // meaningful, so report immediately.
                    return INF;
                }
                flow += pushed;
            }
        }
        flow
    }

    fn dfs(&mut self, u: NodeId, t: NodeId, limit: f64, level: &[usize], it: &mut [usize]) -> f64 {
        const EPS: f64 = 1e-9;
        if u == t {
            return limit;
        }
        while it[u] < self.adj[u].len() {
            let (to, cap, rev) = {
                let e = &self.adj[u][it[u]];
                (e.to, e.cap, e.rev)
            };
            if cap > EPS && level[to] == level[u] + 1 {
                let pushed = self.dfs(to, t, limit.min(cap), level, it);
                if pushed > EPS {
                    let idx = it[u];
                    if self.adj[u][idx].cap.is_finite() {
                        self.adj[u][idx].cap -= pushed;
                    }
                    if self.adj[to][rev].cap.is_finite() {
                        self.adj[to][rev].cap += pushed;
                    }
                    return pushed;
                }
            }
            it[u] += 1;
        }
        0.0
    }

    /// Computes the minimum s-t cut. Consumes the residual state, so call on
    /// a fresh or cloned network.
    ///
    /// # Panics
    ///
    /// Panics if `s == t`, either is out of range, or the min cut is
    /// unbounded (every s→t cut crosses an [`INF`] edge).
    pub fn min_cut(self, s: NodeId, t: NodeId) -> MinCut {
        let witness = self.min_cut_with_witness(s, t);
        MinCut {
            capacity: witness.value,
            source_side: witness.source_side,
        }
    }

    /// Computes the minimum s-t cut together with the max-flow witness
    /// that certifies it (see [`CutWitness`]). Consumes the residual
    /// state, so call on a fresh or cloned network.
    ///
    /// The flow on each original edge is recovered from its reverse edge's
    /// residual capacity: reverse residuals start at zero, grow by every
    /// unit pushed forward, and shrink by every unit cancelled — and they
    /// stay finite even on [`INF`] edges.
    ///
    /// # Panics
    ///
    /// Panics if `s == t`, either is out of range, or the min cut is
    /// unbounded (every s→t cut crosses an [`INF`] edge).
    pub fn min_cut_with_witness(mut self, s: NodeId, t: NodeId) -> CutWitness {
        let value = self.max_flow(s, t);
        assert!(
            value.is_finite(),
            "min cut is unbounded (infinite-capacity path from source to sink)"
        );
        const EPS: f64 = 1e-9;
        let n = self.adj.len();
        let mut source_side = vec![false; n];
        source_side[s] = true;
        let mut queue = std::collections::VecDeque::from([s]);
        while let Some(u) = queue.pop_front() {
            for e in &self.adj[u] {
                if e.cap > EPS && !source_side[e.to] {
                    source_side[e.to] = true;
                    queue.push_back(e.to);
                }
            }
        }
        debug_assert!(!source_side[t], "sink reachable after max flow");
        let mut edges = Vec::new();
        for (u, adj) in self.adj.iter().enumerate() {
            for e in adj.iter().filter(|e| e.forward) {
                let flow = self.adj[e.to][e.rev].cap;
                let capacity = if e.cap.is_infinite() {
                    INF
                } else {
                    e.cap + flow
                };
                edges.push(EdgeFlow {
                    from: u,
                    to: e.to,
                    capacity,
                    flow,
                });
            }
        }
        CutWitness {
            value,
            source_side,
            edges,
        }
    }

    /// Original forward edges as `(from, to, capacity)` triples, in
    /// insertion order. Only meaningful on a network whose residual state
    /// has not been consumed by [`FlowNetwork::max_flow`].
    pub fn edges(&self) -> Vec<(NodeId, NodeId, f64)> {
        let mut out = Vec::new();
        for (u, adj) in self.adj.iter().enumerate() {
            for e in adj.iter().filter(|e| e.forward) {
                out.push((u, e.to, e.cap));
            }
        }
        out
    }

    /// Sum of original forward-edge capacities crossing a given partition
    /// (`side[u] && !side[v]`). Used by tests to validate cut capacities.
    pub fn cut_value(&self, side: &[bool]) -> f64 {
        let mut total = 0.0;
        for (u, edges) in self.adj.iter().enumerate() {
            for e in edges {
                if e.forward && side[u] && !side[e.to] {
                    total += e.cap;
                }
            }
        }
        total
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_edge_flow() {
        let mut net = FlowNetwork::new();
        let s = net.add_node();
        let t = net.add_node();
        net.add_edge(s, t, 5.0);
        assert_eq!(net.max_flow(s, t), 5.0);
    }

    #[test]
    fn classic_diamond() {
        // s → a (3), s → b (2), a → t (2), b → t (3), a → b (1).
        let mut net = FlowNetwork::new();
        let s = net.add_node();
        let a = net.add_node();
        let b = net.add_node();
        let t = net.add_node();
        net.add_edge(s, a, 3.0);
        net.add_edge(s, b, 2.0);
        net.add_edge(a, t, 2.0);
        net.add_edge(b, t, 3.0);
        net.add_edge(a, b, 1.0);
        assert_eq!(net.max_flow(s, t), 5.0);
    }

    #[test]
    fn min_cut_separates_source_and_sink() {
        let mut net = FlowNetwork::new();
        let s = net.add_node();
        let a = net.add_node();
        let t = net.add_node();
        net.add_edge(s, a, 10.0);
        net.add_edge(a, t, 1.0);
        let reference = net.clone();
        let cut = net.min_cut(s, t);
        assert_eq!(cut.capacity, 1.0);
        assert!(cut.source_side[s]);
        assert!(cut.source_side[a]);
        assert!(!cut.source_side[t]);
        assert_eq!(reference.cut_value(&cut.source_side), 1.0);
    }

    #[test]
    fn infinite_edges_are_never_cut() {
        let mut net = FlowNetwork::new();
        let s = net.add_node();
        let d = net.add_node();
        let c = net.add_node();
        let t = net.add_node();
        net.add_edge(s, d, 4.0);
        net.add_edge(d, c, INF);
        net.add_edge(c, t, 10.0);
        let cut = net.min_cut(s, t);
        assert_eq!(cut.capacity, 4.0);
        // d and c fall on the sink side together (the ∞ edge binds them).
        assert!(!cut.source_side[d]);
        assert!(!cut.source_side[c]);
    }

    #[test]
    fn fractional_capacities() {
        let mut net = FlowNetwork::new();
        let s = net.add_node();
        let a = net.add_node();
        let t = net.add_node();
        net.add_edge(s, a, 0.25);
        net.add_edge(a, t, 0.75);
        assert!((net.max_flow(s, t) - 0.25).abs() < 1e-9);
    }

    #[test]
    fn disconnected_sink_has_zero_flow() {
        let mut net = FlowNetwork::new();
        let s = net.add_node();
        let t = net.add_node();
        let _ = net.add_node();
        assert_eq!(net.max_flow(s, t), 0.0);
        let cut = net.clone().min_cut(s, t);
        assert_eq!(cut.capacity, 0.0);
    }

    #[test]
    fn add_nodes_returns_first_id() {
        let mut net = FlowNetwork::new();
        let first = net.add_nodes(3);
        assert_eq!(first, 0);
        assert_eq!(net.len(), 3);
        assert!(!net.is_empty());
    }

    #[test]
    fn witness_flow_is_feasible_conserved_and_tight() {
        // Diamond with an ∞ edge in the middle: the witness must expose
        // finite flow on the infinite edge and balance at inner nodes.
        let mut net = FlowNetwork::new();
        let s = net.add_node();
        let a = net.add_node();
        let b = net.add_node();
        let t = net.add_node();
        net.add_edge(s, a, 3.0);
        net.add_edge(s, b, 2.0);
        net.add_edge(a, b, INF);
        net.add_edge(a, t, 2.0);
        net.add_edge(b, t, 3.0);
        let w = net.min_cut_with_witness(s, t);
        assert_eq!(w.value, 5.0);
        assert_eq!(w.edges.len(), 5);
        for e in &w.edges {
            assert!(e.flow >= 0.0 && e.flow <= e.capacity + 1e-9, "{e:?}");
        }
        // Conservation at a and b: inflow == outflow.
        for node in [a, b] {
            let inflow: f64 = w
                .edges
                .iter()
                .filter(|e| e.to == node)
                .map(|e| e.flow)
                .sum();
            let outflow: f64 = w
                .edges
                .iter()
                .filter(|e| e.from == node)
                .map(|e| e.flow)
                .sum();
            assert!((inflow - outflow).abs() < 1e-9);
        }
        // Net source outflow equals the flow value.
        let out: f64 = w.edges.iter().filter(|e| e.from == s).map(|e| e.flow).sum();
        assert!((out - w.value).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "unbounded")]
    fn unbounded_cut_panics() {
        let mut net = FlowNetwork::new();
        let s = net.add_node();
        let t = net.add_node();
        net.add_edge(s, t, INF);
        let _ = net.min_cut(s, t);
    }

    #[test]
    #[should_panic(expected = "self-loops")]
    fn self_loop_rejected() {
        let mut net = FlowNetwork::new();
        let s = net.add_node();
        net.add_edge(s, s, 1.0);
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn negative_capacity_rejected() {
        let mut net = FlowNetwork::new();
        let s = net.add_node();
        let t = net.add_node();
        net.add_edge(s, t, -1.0);
    }
}
