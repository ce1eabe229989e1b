//! Dinic's max-flow / min-cut algorithm on real-valued capacities.
//!
//! The Automatic XPro Generator reduces functional-cell partitioning to a
//! standard s-t min-cut (paper §3.2.2); this is the solver behind it. Dinic
//! runs in `O(V²E)` — comfortably polynomial, which is the paper's
//! complexity claim for the generator.
//!
//! A [`FlowNetwork`] records its edges in insertion order and, before its
//! first solve, lays their arcs out flat: one array grouped by tail node,
//! where each edge puts its forward arc at its tail and its reverse
//! (residual) arc at its head, in insertion order within each node. The
//! level, arc-cursor and queue scratch of the BFS and DFS phases lives in
//! the network and is reused by every solve. [`FlowNetwork::reprice`]
//! rewrites the forward arcs' capacities in place and zeroes the reverse
//! arcs, so a Lagrangian sweep builds one network and solves it at every
//! λ without allocating a network again.

/// Identifier of a node in a [`FlowNetwork`].
pub type NodeId = usize;

/// Capacity value treated as unbounded.
pub const INF: f64 = f64::INFINITY;

/// Numerical floor: residual capacities at or below it count as exhausted.
const EPS: f64 = 1e-9;

/// One arc of the flat residual network.
#[derive(Clone, Copy, Debug)]
struct FlowArc {
    to: NodeId,
    /// Residual capacity.
    cap: f64,
    /// Index of the paired arc in the arc array.
    rev: usize,
    /// Whether this is an original (forward) arc rather than a residual.
    forward: bool,
}

/// A directed flow network with real-valued capacities.
///
/// Adding a node or an edge after a solve makes the next solve lay the
/// arcs out again, from zero flow.
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
    nodes: usize,
    /// `(from, to, capacity)` of every edge, in insertion order.
    edges: Vec<(NodeId, NodeId, f64)>,
    /// `arcs[first[v]..first[v + 1]]` are the arcs leaving node `v`.
    first: Vec<usize>,
    arcs: Vec<FlowArc>,
    /// The forward arc of every edge, in insertion order.
    forward_arc: Vec<usize>,
    /// BFS level of every node (`usize::MAX` when unreached).
    level: Vec<usize>,
    /// The DFS's next arc to try at every node.
    cursor: Vec<usize>,
    /// BFS queue.
    queue: Vec<NodeId>,
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
    /// Flow assignment on every original edge, grouped by tail node and
    /// in insertion order within a node (the order of
    /// [`FlowNetwork::edges`]).
    pub edges: Vec<EdgeFlow>,
}

impl FlowNetwork {
    /// Creates an empty network.
    pub fn new() -> Self {
        FlowNetwork::default()
    }

    /// Adds a node and returns its id.
    pub fn add_node(&mut self) -> NodeId {
        self.add_nodes(1)
    }

    /// Adds `n` nodes, returning the id of the first.
    pub fn add_nodes(&mut self, n: usize) -> NodeId {
        self.nodes += n;
        self.nodes - n
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.nodes
    }

    /// Whether the network has no nodes.
    pub fn is_empty(&self) -> bool {
        self.nodes == 0
    }

    /// Adds a directed edge with the given capacity.
    ///
    /// # Panics
    ///
    /// Panics if either endpoint is out of range, the endpoints coincide,
    /// or the capacity is negative or NaN.
    pub fn add_edge(&mut self, from: NodeId, to: NodeId, cap: f64) {
        assert!(from < self.nodes, "`from` out of range");
        assert!(to < self.nodes, "`to` out of range");
        assert_ne!(from, to, "self-loops are not allowed");
        assert!(cap >= 0.0, "capacity must be non-negative and not NaN");
        self.edges.push((from, to, cap));
    }

    /// Lays the arcs out flat unless the layout already covers every node
    /// and edge. A new layout starts from zero flow.
    fn lay_out(&mut self) {
        let n = self.nodes;
        if self.first.len() == n + 1 && self.arcs.len() == 2 * self.edges.len() {
            return;
        }
        self.first.clear();
        self.first.resize(n + 1, 0);
        for &(from, to, _) in &self.edges {
            self.first[from + 1] += 1;
            self.first[to + 1] += 1;
        }
        for v in 0..n {
            self.first[v + 1] += self.first[v];
        }
        self.cursor.clear();
        self.cursor.extend_from_slice(&self.first[..n]);
        let unset = FlowArc {
            to: 0,
            cap: 0.0,
            rev: 0,
            forward: false,
        };
        self.arcs.clear();
        self.arcs.resize(2 * self.edges.len(), unset);
        self.forward_arc.clear();
        for &(from, to, cap) in &self.edges {
            let (a, b) = (self.cursor[from], self.cursor[to]);
            self.cursor[from] += 1;
            self.cursor[to] += 1;
            self.arcs[a] = FlowArc {
                to,
                cap,
                rev: b,
                forward: true,
            };
            self.arcs[b] = FlowArc {
                to: from,
                cap: 0.0,
                rev: a,
                forward: false,
            };
            self.forward_arc.push(a);
        }
        self.level.resize(n, usize::MAX);
        self.queue.reserve(n);
    }

    /// Re-prices the network in place: edge `i` (in insertion order) gets
    /// the `i`-th capacity, and every reverse arc is zeroed, so the next
    /// solve starts from zero flow exactly as on a freshly built network
    /// with these capacities.
    ///
    /// # Panics
    ///
    /// Panics if the number of capacities differs from the number of
    /// edges, or a capacity is negative or NaN.
    pub fn reprice(&mut self, capacities: impl IntoIterator<Item = f64>) {
        self.lay_out();
        let mut count = 0;
        for (i, cap) in capacities.into_iter().enumerate() {
            assert!(i < self.edges.len(), "more capacities than edges");
            assert!(cap >= 0.0, "capacity must be non-negative and not NaN");
            self.edges[i].2 = cap;
            let a = self.forward_arc[i];
            self.arcs[a].cap = cap;
            let rev = self.arcs[a].rev;
            self.arcs[rev].cap = 0.0;
            count += 1;
        }
        assert_eq!(count, self.edges.len(), "fewer capacities than edges");
    }

    /// Computes the maximum s→t flow (mutating residual capacities) and
    /// returns its value.
    ///
    /// # Panics
    ///
    /// Panics if `s == t` or either is out of range.
    pub fn max_flow(&mut self, s: NodeId, t: NodeId) -> f64 {
        assert!(s < self.nodes && t < self.nodes, "node out of range");
        assert_ne!(s, t, "source equals sink");
        self.lay_out();
        let mut flow = 0.0f64;
        while self.level_graph(s, t) {
            // DFS blocking flow.
            self.cursor.copy_from_slice(&self.first[..self.nodes]);
            loop {
                let pushed = self.dfs(s, t, INF);
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

    /// BFS over residual arcs from `s`, leaving every node's level in
    /// `self.level`; returns whether `t` was reached.
    fn level_graph(&mut self, s: NodeId, t: NodeId) -> bool {
        self.level.fill(usize::MAX);
        self.level[s] = 0;
        self.queue.clear();
        self.queue.push(s);
        let mut head = 0;
        while let Some(&u) = self.queue.get(head) {
            head += 1;
            for a in self.first[u]..self.first[u + 1] {
                let FlowArc { to, cap, .. } = self.arcs[a];
                if cap > EPS && self.level[to] == usize::MAX {
                    self.level[to] = self.level[u] + 1;
                    self.queue.push(to);
                }
            }
        }
        self.level[t] != usize::MAX
    }

    fn dfs(&mut self, u: NodeId, t: NodeId, limit: f64) -> f64 {
        if u == t {
            return limit;
        }
        while self.cursor[u] < self.first[u + 1] {
            let a = self.cursor[u];
            let FlowArc { to, cap, rev, .. } = self.arcs[a];
            if cap > EPS && self.level[to] == self.level[u] + 1 {
                let pushed = self.dfs(to, t, limit.min(cap));
                if pushed > EPS {
                    if self.arcs[a].cap.is_finite() {
                        self.arcs[a].cap -= pushed;
                    }
                    if self.arcs[rev].cap.is_finite() {
                        self.arcs[rev].cap += pushed;
                    }
                    return pushed;
                }
            }
            self.cursor[u] += 1;
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
    /// # Panics
    ///
    /// Panics if `s == t`, either is out of range, or the min cut is
    /// unbounded (every s→t cut crosses an [`INF`] edge).
    pub fn min_cut_with_witness(mut self, s: NodeId, t: NodeId) -> CutWitness {
        self.cut_witness(s, t)
    }

    /// [`FlowNetwork::min_cut_with_witness`] without consuming the
    /// network: solves from the current residual state, which must be
    /// fresh or just [re-priced](FlowNetwork::reprice).
    ///
    /// The flow on each original edge is recovered from its reverse arc's
    /// residual capacity: reverse residuals start at zero, grow by every
    /// unit pushed forward, and shrink by every unit cancelled — and they
    /// stay finite even on [`INF`] edges.
    ///
    /// # Panics
    ///
    /// Panics if `s == t`, either is out of range, or the min cut is
    /// unbounded (every s→t cut crosses an [`INF`] edge).
    pub fn cut_witness(&mut self, s: NodeId, t: NodeId) -> CutWitness {
        let value = self.max_flow(s, t);
        assert!(
            value.is_finite(),
            "min cut is unbounded (infinite-capacity path from source to sink)"
        );
        // The last BFS of a finite max flow ran on the final residual
        // network: the nodes it levelled are the source side.
        let source_side: Vec<bool> = self.level.iter().map(|&l| l != usize::MAX).collect();
        debug_assert!(!source_side[t], "sink reachable after max flow");
        let mut edges = Vec::with_capacity(self.edges.len());
        for u in 0..self.nodes {
            for arc in &self.arcs[self.first[u]..self.first[u + 1]] {
                if !arc.forward {
                    continue;
                }
                let flow = self.arcs[arc.rev].cap;
                let capacity = if arc.cap.is_infinite() {
                    INF
                } else {
                    arc.cap + flow
                };
                edges.push(EdgeFlow {
                    from: u,
                    to: arc.to,
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

    /// Original forward edges as `(from, to, capacity)` triples, grouped
    /// by tail node and in insertion order within a node (the order of a
    /// [`CutWitness`]). The capacities are the priced ones, whatever flow
    /// a solve has routed since.
    pub fn edges(&self) -> Vec<(NodeId, NodeId, f64)> {
        let mut out = self.edges.clone();
        out.sort_by_key(|&(from, _, _)| from);
        out
    }

    /// Sum of original forward-edge capacities crossing a given partition
    /// (`side[u] && !side[v]`). Used by tests to validate cut capacities.
    pub fn cut_value(&self, side: &[bool]) -> f64 {
        self.edges()
            .into_iter()
            .filter(|&(u, v, _)| side[u] && !side[v])
            .fold(0.0, |total, (_, _, cap)| total + cap)
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
    fn reprice_restarts_from_zero_flow_under_new_capacities() {
        let mut net = FlowNetwork::new();
        let s = net.add_node();
        let a = net.add_node();
        let t = net.add_node();
        net.add_edge(s, a, 3.0);
        net.add_edge(a, t, 2.0);
        assert_eq!(net.cut_witness(s, t).value, 2.0);
        net.reprice([1.0, 5.0]);
        assert_eq!(net.edges(), vec![(s, a, 1.0), (a, t, 5.0)]);
        let w = net.cut_witness(s, t);
        assert_eq!(w.value, 1.0);
        assert!(!w.source_side[a]);
    }

    #[test]
    fn adding_an_edge_after_a_solve_restarts_from_zero_flow() {
        let mut net = FlowNetwork::new();
        let s = net.add_node();
        let t = net.add_node();
        net.add_edge(s, t, 2.0);
        assert_eq!(net.max_flow(s, t), 2.0);
        net.add_edge(s, t, 1.0);
        assert_eq!(net.max_flow(s, t), 3.0);
    }

    #[test]
    #[should_panic(expected = "fewer capacities")]
    fn reprice_rejects_a_short_capacity_list() {
        let mut net = FlowNetwork::new();
        let s = net.add_node();
        let t = net.add_node();
        net.add_edge(s, t, 2.0);
        net.add_edge(s, t, 1.0);
        net.reprice([1.0]);
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn reprice_rejects_a_negative_capacity() {
        let mut net = FlowNetwork::new();
        let s = net.add_node();
        let t = net.add_node();
        net.add_edge(s, t, 2.0);
        net.reprice([-1.0]);
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
