//! Property tests: Dinic's min-cut equals the brute-force optimum on small
//! random networks, and flow conservation holds.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use xpro_graph::dinic::{CutWitness, FlowNetwork};

/// Brute-force minimum cut by enumerating all 2^(n-2) partitions.
fn brute_force_min_cut(net: &FlowNetwork, s: usize, t: usize) -> f64 {
    let n = net.len();
    let free: Vec<usize> = (0..n).filter(|&v| v != s && v != t).collect();
    let mut best = f64::INFINITY;
    for mask in 0..(1u32 << free.len()) {
        let mut side = vec![false; n];
        side[s] = true;
        for (bit, &v) in free.iter().enumerate() {
            side[v] = mask & (1 << bit) != 0;
        }
        best = best.min(net.cut_value(&side));
    }
    best
}

/// Builds a random network with `n` nodes and about `m` edges.
fn random_network(n: usize, m: usize, seed: u64) -> FlowNetwork {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut net = FlowNetwork::new();
    net.add_nodes(n);
    for _ in 0..m {
        let u = rng.gen_range(0..n);
        let v = rng.gen_range(0..n);
        if u != v {
            net.add_edge(u, v, rng.gen_range(0.0..10.0));
        }
    }
    net
}

/// The edges of a random network priced like the generator's s-t
/// networks, in insertion order: each edge weighs `energy + λ·delay`, and
/// every fifth edge between inner nodes is unbounded. Source edges and
/// sink edges stay finite, so every min cut is bounded.
fn priced_edges(n: usize, m: usize, seed: u64, lambda: f64) -> Vec<(usize, usize, f64)> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut edges = Vec::new();
    for k in 0..m {
        let u = rng.gen_range(0..n);
        let v = rng.gen_range(0..n);
        let energy: f64 = rng.gen_range(0.0..10.0);
        let delay: f64 = rng.gen_range(0.0..1e-3);
        if u == v {
            continue;
        }
        let inner = u > 1 && v > 1;
        let cap = if inner && k % 5 == 0 {
            f64::INFINITY
        } else {
            energy + lambda * delay
        };
        edges.push((u, v, cap));
    }
    edges
}

fn priced_network(n: usize, edges: &[(usize, usize, f64)]) -> FlowNetwork {
    let mut net = FlowNetwork::new();
    net.add_nodes(n);
    for &(u, v, cap) in edges {
        net.add_edge(u, v, cap);
    }
    net
}

/// Node and edge counts of the pinned network of `seed`.
fn pin_shape(seed: u64) -> (usize, usize) {
    (4 + (seed % 9) as usize, 4 + (seed % 27) as usize)
}

/// Every bit of a witness: value, source side, and each edge's endpoints,
/// capacity and flow.
fn witness_words(w: &CutWitness) -> Vec<u64> {
    let mut words = vec![w.value.to_bits()];
    words.extend(w.source_side.iter().map(|&side| u64::from(side)));
    for e in &w.edges {
        words.extend([
            e.from as u64,
            e.to as u64,
            e.capacity.to_bits(),
            e.flow.to_bits(),
        ]);
    }
    words
}

/// The λ-like capacity scales the witness pin prices its networks at.
const PIN_LAMBDAS: [f64; 4] = [0.0, 2.7e6, 8.1e9, 1.0e14];

/// FNV-1a digest of [`witness_words`] over 300 seeded random networks at
/// each of [`PIN_LAMBDAS`], recorded from the adjacency-list solver that
/// the flat arc array replaced.
const PINNED_WITNESSES: u64 = 0x3b54_a090_290c_eacc;

#[test]
fn witness_bits_match_the_pinned_digest() {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    let (mut positive, mut unbounded_used) = (0, 0);
    for seed in 0..300u64 {
        let (n, m) = pin_shape(seed);
        for lambda in PIN_LAMBDAS {
            let edges = priced_edges(n, m, seed, lambda);
            let w = priced_network(n, &edges).min_cut_with_witness(0, 1);
            positive += usize::from(w.value > 0.0);
            unbounded_used += usize::from(
                w.edges
                    .iter()
                    .any(|e| e.capacity.is_infinite() && e.flow > 0.0),
            );
            for word in witness_words(&w) {
                for b in word.to_le_bytes() {
                    hash ^= u64::from(b);
                    hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
                }
            }
        }
    }
    // Not vacuous: about half the cuts carry flow, and unbounded edges
    // route some of it.
    assert!(
        positive > 500 && unbounded_used > 100,
        "{positive} {unbounded_used}"
    );
    assert_eq!(hash, PINNED_WITNESSES, "witness digest {hash:#018x}");
}

#[test]
fn repriced_networks_solve_like_fresh_ones() {
    for seed in 0..300u64 {
        let (n, m) = pin_shape(seed);
        let mut net = priced_network(n, &priced_edges(n, m, seed, PIN_LAMBDAS[0]));
        // Descending λ, so every re-priced solve follows a solve that
        // routed more flow than it will.
        for lambda in PIN_LAMBDAS.into_iter().rev() {
            let edges = priced_edges(n, m, seed, lambda);
            net.reprice(edges.iter().map(|&(_, _, cap)| cap));
            let repriced = net.cut_witness(0, 1);
            let fresh = priced_network(n, &edges).min_cut_with_witness(0, 1);
            assert_eq!(
                witness_words(&repriced),
                witness_words(&fresh),
                "seed {seed} lambda {lambda}"
            );
            assert_eq!(net.edges(), priced_network(n, &edges).edges());
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn dinic_matches_brute_force(seed in 0u64..500, n in 4usize..9, m in 4usize..20) {
        let net = random_network(n, m, seed);
        let brute = brute_force_min_cut(&net, 0, 1);
        let cut = net.clone().min_cut(0, 1);
        prop_assert!((cut.capacity - brute).abs() < 1e-6,
            "dinic {} vs brute {}", cut.capacity, brute);
        // The extracted partition prices exactly at the max-flow value.
        prop_assert!((net.cut_value(&cut.source_side) - cut.capacity).abs() < 1e-6);
    }

    #[test]
    fn max_flow_is_monotone_in_capacity(seed in 0u64..200) {
        let mut rng = StdRng::seed_from_u64(seed);
        let n = 6;
        let mut lo = FlowNetwork::new();
        let mut hi = FlowNetwork::new();
        lo.add_nodes(n);
        hi.add_nodes(n);
        for _ in 0..12 {
            let u = rng.gen_range(0..n);
            let v = rng.gen_range(0..n);
            if u == v { continue; }
            let cap: f64 = rng.gen_range(0.0..5.0);
            lo.add_edge(u, v, cap);
            hi.add_edge(u, v, cap * 2.0);
        }
        let f_lo = lo.max_flow(0, 1);
        let f_hi = hi.max_flow(0, 1);
        prop_assert!(f_hi >= f_lo - 1e-9);
    }

    #[test]
    fn cut_separates_terminals(seed in 0u64..200) {
        let net = random_network(7, 15, seed);
        let cut = net.min_cut(0, 1);
        prop_assert!(cut.source_side[0]);
        prop_assert!(!cut.source_side[1]);
    }
}
