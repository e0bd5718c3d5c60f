//! Exact allreduce rate upper bounds for arbitrary substrates.
//!
//! *On the Computation Rate of All-Reduce* (PAPERS.md) studies how fast an
//! allreduce can possibly run on a given capacitated network, independent
//! of any particular schedule. Specialized to this repo's model — unit
//! full-duplex links, one spanning-tree set per plan, Algorithm 1
//! water-filling — two information-style cut arguments cap the aggregate
//! rate `Σ B_i` of *any* tree set:
//!
//! * **edge budget** (tree-packing / Nash–Williams shape): every spanning
//!   tree uses at least `n − 1` of the `|E|` unit links and no link can
//!   carry more than unit load in total, so `Σ B_i ≤ |E| / (n − 1)`;
//! * **global min cut** (cut-set shape): every spanning tree crosses every
//!   vertex cut `(S, V∖S)` at least once, and the cut's `|∂S|` links carry
//!   at most `|∂S|` total load, so `Σ B_i ≤ |∂S|` for every cut — i.e.
//!   `Σ B_i ≤ λ(G)`, the edge connectivity. Minimizing over singleton cuts
//!   gives the familiar `δ_min`; the full min cut is never weaker and is
//!   strictly stronger on graphs with a sparse bottleneck that no single
//!   vertex sees (see `lopsided_barbell_cut_beats_the_degree_bound`).
//!
//! [`allreduce_rate_bound`] computes `min` of the two in exact rationals
//! ([`Rational`]) via a deterministic sparse min cut ([`global_min_cut`],
//! Nagamochi–Ono–Ibaraki contraction on adjacency lists). It is the
//! repository's one aggregate ceiling: since `λ(G) ≤ δ_min`, it is never
//! looser than the degree-only bound `min(|E|/(n−1), δ_min)`. The bound
//! carries its witness — the side `S` of a minimum cut — and [`cut_weight`]
//! recounts `|∂S|` from the edge list, so callers can check `λ(G)` without
//! trusting the min-cut routine.
//!
//! Known substrate families have closed forms (the Corollary 7.1 optimum
//! [`crate::perf::optimal_bandwidth`] on PolarFly, [`torus_bound`],
//! [`hypercube_bound`], [`complete_bound`]); the property
//! harness asserts the generic computation reproduces each of them, and
//! `tests/paper_claims.rs` holds `achieved ≤ bound` as a standing
//! invariant for every construction backend × catalog substrate. On
//! PolarFly the generic bound lands *exactly* on the Corollary 7.1 optimum
//! `(q + 1)/2` — so the paper's edge-disjoint Hamiltonian plans are
//! certified rate-optimal ([`RateBound::gap`] = 1), and the audit prices
//! how close every other construction comes. Degenerate substrates are
//! typed [`RateError`]s, never a bogus bound.

use crate::rational::Rational;
use pf_graph::dsu::Dsu;
use pf_graph::{bfs, Graph, VertexId};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Why a rate bound could not be computed. Mirrors the degenerate cases of
/// [`crate::construction::ConstructError`]: where no plan can exist, no
/// finite positive bound exists either.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RateError {
    /// The graph has no vertices.
    EmptyGraph,
    /// A single vertex: the collective is a no-op — there is no link whose
    /// rate the bound could cap, and reporting `0` (or `∞`) would poison
    /// `achieved ≤ bound` comparisons.
    SingleVertex,
    /// No spanning tree exists, so no allreduce plan and no meaningful
    /// rate: the min cut is 0 and the bound would be vacuous.
    Disconnected {
        /// Number of connected components.
        components: u32,
    },
}

impl std::fmt::Display for RateError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RateError::EmptyGraph => write!(f, "rate bound undefined: graph has no vertices"),
            RateError::SingleVertex => {
                write!(f, "rate bound undefined: single vertex, no links to bound")
            }
            RateError::Disconnected { components } => {
                write!(f, "rate bound undefined: graph is disconnected ({components} components)")
            }
        }
    }
}

impl std::error::Error for RateError {}

/// Which of the two arguments binds the final bound.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RateLimiter {
    /// `|E| / (n − 1)` — the network runs out of total link budget before
    /// any single cut saturates.
    EdgeBudget,
    /// `λ(G)` — a sparsest cut saturates first.
    MinCut,
}

/// The exact allreduce rate upper bound for one substrate, with both
/// constituent terms kept for reporting (the `topo-compare` table and
/// `docs/RATES.md` print them side by side) and the min cut's witness.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RateBound {
    /// The edge-budget term `|E| / (n − 1)`.
    pub edge_budget: Rational,
    /// The global min cut `λ(G)` (unit capacities).
    pub min_cut: u64,
    /// Witness for `min_cut`: the side `S` of a minimum cut ([`MinCut::side`]),
    /// with `cut_weight(g, &cut) == min_cut`.
    pub cut: Vec<VertexId>,
    /// Minimum degree `δ_min` — the singleton-cut relaxation, kept so
    /// reports can show when the true min cut tightens it.
    pub min_degree: u32,
    /// `min(edge_budget, min_cut)` — the bound every plan must respect.
    pub bound: Rational,
}

impl RateBound {
    /// Which term binds ([`RateLimiter::EdgeBudget`] on ties — the edge
    /// budget is the generic Nash–Williams-shape argument, so ties report
    /// the structure-blind reason).
    #[must_use]
    pub fn limiter(&self) -> RateLimiter {
        if self.edge_budget <= Rational::from_int(self.min_cut as i64) {
            RateLimiter::EdgeBudget
        } else {
            RateLimiter::MinCut
        }
    }

    /// `true` iff `achieved` respects this bound — the standing invariant,
    /// in exact rationals.
    #[must_use]
    pub fn certifies(&self, achieved: Rational) -> bool {
        achieved <= self.bound
    }

    /// The optimality gap `achieved / bound ∈ [0, 1]` as an exact
    /// rational (1 means the plan is certified rate-optimal). Callers
    /// wanting a float rendering use [`Rational::to_f64`] on the result.
    #[must_use]
    pub fn gap(&self, achieved: Rational) -> Rational {
        assert!(self.bound.is_positive(), "a connected substrate has a positive bound");
        achieved / self.bound
    }
}

/// The exact rate upper bound `min(|E|/(n−1), λ(G))` for `g`, or a typed
/// [`RateError`] on degenerate substrates (empty, single-vertex,
/// disconnected).
pub fn allreduce_rate_bound(g: &Graph) -> Result<RateBound, RateError> {
    match g.num_vertices() {
        0 => return Err(RateError::EmptyGraph),
        1 => return Err(RateError::SingleVertex),
        _ => {}
    }
    let (_, components) = bfs::connected_components(g);
    if components != 1 {
        return Err(RateError::Disconnected { components });
    }
    let n = g.num_vertices() as i64;
    let edge_budget = Rational::new(g.num_edges() as i64, n - 1);
    let MinCut { weight: min_cut, side: cut } = global_min_cut(g);
    let bound = edge_budget.min(Rational::from_int(min_cut as i64));
    Ok(RateBound { edge_budget, min_cut, cut, min_degree: g.min_degree(), bound })
}

/// A global minimum edge cut together with its witness.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MinCut {
    /// The cut weight `|∂S|` (unit capacities).
    pub weight: u64,
    /// The side `S` of the cut: a non-empty proper subset of the
    /// vertices, in increasing order. [`cut_weight`] recounts `|∂S|` from
    /// the edge list, so the weight can be checked without trusting the
    /// contraction.
    pub side: Vec<VertexId>,
}

/// Global minimum edge cut `λ(G)` of a graph with unit capacities, with
/// the side of one minimum cut as its witness.
///
/// Nagamochi–Ono–Ibaraki contraction on adjacency lists with integer
/// multi-edge weights. Each round
///
/// 1. records every singleton cut (the weighted degree of a super-vertex)
///    as a candidate `λ̂`, keeping its member set;
/// 2. computes a maximum-adjacency order — repeatedly scan the unscanned
///    vertex `u` with the largest weight `r(u)` to the scanned ones —
///    from a bucket queue whose keys are capped at `λ̂` (lowest index
///    wins ties, so orders are deterministic);
/// 3. unions `v` and `u` whenever scanning edge `(v, u)` leaves
///    `r(u) ≥ λ̂`: the two are then at least `λ̂`-connected, so no cut
///    lighter than the recorded one separates them;
/// 4. rebuilds the contracted adjacency, merging parallel edges and
///    dropping self-loops.
///
/// The last vertex of an order has `r` equal to its full weighted degree,
/// which is `≥ λ̂`, so every round contracts at least one edge. A round
/// costs O(m + n) plus the queue's heap operations; the total is
/// O(rounds · (m + n) · log n) with rounds ≤ n − 1 — about a hundred
/// rounds on the 993-router PolarFly at q = 31. No n × n matrix is ever
/// built.
///
/// On a disconnected graph the weight is 0 and the side is a union of
/// components ([`allreduce_rate_bound`] reports that case as a
/// [`RateError`] first). Panics on fewer than two vertices.
#[must_use]
pub fn global_min_cut(g: &Graph) -> MinCut {
    let n = g.num_vertices();
    assert!(n >= 2, "min cut needs at least two vertices");
    // Contracted multigraph: (super-vertex, weight) lists, no self-loops.
    let mut adj: Vec<Vec<(u32, u64)>> =
        g.vertices().map(|u| g.neighbors(u).map(|v| (v, 1)).collect()).collect();
    // The super-vertex that holds each original vertex.
    let mut label: Vec<u32> = g.vertices().collect();
    let mut best = MinCut { weight: u64::MAX, side: Vec::new() };
    while adj.len() > 1 {
        for (s, list) in adj.iter().enumerate() {
            let degree: u64 = list.iter().map(|&(_, w)| w).sum();
            if degree < best.weight {
                best.weight = degree;
                best.side = (0..n).filter(|&v| label[v as usize] == s as u32).collect();
            }
        }
        if best.weight == 0 {
            break; // disconnected: nothing beats an empty cut
        }
        let mut dsu = ma_order_contractions(&adj, best.weight);
        adj = contract(&adj, &mut dsu, &mut label);
    }
    best
}

/// One capped maximum-adjacency order over `adj`, returning the unions of
/// every scanned edge `(v, u)` that left `r(u) ≥ cap`.
fn ma_order_contractions(adj: &[Vec<(u32, u64)>], cap: u64) -> Dsu {
    let n = adj.len();
    let key = |r: u64| r.min(cap) as usize;
    let mut dsu = Dsu::new(n as u32);
    let mut r = vec![0u64; n];
    let mut scanned = vec![false; n];
    // Bucket k holds the vertices whose capped key is k; min-heaps give the
    // lowest index first. Keys only grow, so an entry is stale once its
    // vertex is scanned or has moved up.
    let mut buckets: Vec<BinaryHeap<Reverse<u32>>> = vec![BinaryHeap::new(); key(cap) + 1];
    buckets[0] = (0..n as u32).map(Reverse).collect();
    let mut top = 0;
    for _ in 0..n {
        let u = loop {
            match buckets[top].pop() {
                Some(Reverse(u)) if !scanned[u as usize] && key(r[u as usize]) == top => break u,
                Some(_) => {}
                None => top -= 1,
            }
        };
        scanned[u as usize] = true;
        for &(v, w) in &adj[u as usize] {
            let vi = v as usize;
            if scanned[vi] {
                continue;
            }
            let before = key(r[vi]);
            r[vi] += w;
            if r[vi] >= cap {
                dsu.union(u, v);
            }
            let k = key(r[vi]);
            if k != before {
                buckets[k].push(Reverse(v));
                top = top.max(k);
            }
        }
    }
    dsu
}

/// The multigraph `adj` with every DSU class merged into one super-vertex,
/// numbered by lowest member; relabels `label` to match.
fn contract(adj: &[Vec<(u32, u64)>], dsu: &mut Dsu, label: &mut [u32]) -> Vec<Vec<(u32, u64)>> {
    let n = adj.len();
    let mut id = vec![u32::MAX; n];
    let mut map = vec![0u32; n];
    let mut k = 0u32;
    for v in 0..n as u32 {
        let root = dsu.find(v) as usize;
        if id[root] == u32::MAX {
            id[root] = k;
            k += 1;
        }
        map[v as usize] = id[root];
    }
    let mut members = vec![Vec::new(); k as usize];
    for (v, &x) in map.iter().enumerate() {
        members[x as usize].push(v);
    }
    // `slot[y]` is y's position in the list being built, valid while
    // `owner[y]` names that list.
    let mut merged: Vec<Vec<(u32, u64)>> = vec![Vec::new(); k as usize];
    let mut owner = vec![u32::MAX; k as usize];
    let mut slot = vec![0usize; k as usize];
    for x in 0..k {
        let list = &mut merged[x as usize];
        for &u in &members[x as usize] {
            for &(v, w) in &adj[u] {
                let y = map[v as usize];
                if y == x {
                    continue;
                }
                if owner[y as usize] == x {
                    list[slot[y as usize]].1 += w;
                } else {
                    owner[y as usize] = x;
                    slot[y as usize] = list.len();
                    list.push((y, w));
                }
            }
        }
    }
    for l in label.iter_mut() {
        *l = map[*l as usize];
    }
    merged
}

/// Number of edges of `g` with exactly one endpoint in `side` — the cut
/// weight `|∂S|`, counted straight from the edge list. It shares no code
/// with [`global_min_cut`], so it checks that routine's witness
/// independently.
#[must_use]
pub fn cut_weight(g: &Graph, side: &[VertexId]) -> u64 {
    let mut inside = vec![false; g.num_vertices() as usize];
    for &v in side {
        inside[v as usize] = true;
    }
    g.edges().filter(|&(_, u, v)| inside[u as usize] != inside[v as usize]).count() as u64
}

/// Closed form for the `d`-cube (`d ≥ 1`): `d·2^(d−1) / (2^d − 1)` — the
/// edge budget, which sits strictly below the min cut `λ = d`.
#[must_use]
pub fn hypercube_bound(d: u32) -> Rational {
    assert!((1..63).contains(&d), "hypercube dimension out of range");
    Rational::new_i128((d as i128) << (d - 1), (1i128 << d) - 1)
}

/// Closed form for the complete graph `K_n` (`n ≥ 2`): `n/2` — the edge
/// budget `n(n−1)/2 / (n−1)`; the min cut `λ = n − 1` only binds at
/// `n = 2`, where both terms equal 1 (= 2/2, so one formula covers all n).
#[must_use]
pub fn complete_bound(n: u32) -> Rational {
    assert!(n >= 2, "K_n needs n >= 2");
    Rational::new(n as i64, 2)
}

/// Closed form for the torus with the given extents (each `≥ 3`, matching
/// [`pf_topo::torus::Torus`]): `k·n / (n − 1)` for `k` dimensions and
/// `n = ∏ extents` vertices — the edge budget (`|E| = k·n`), strictly
/// below the min cut `λ = 2k` whenever `n > 2`.
#[must_use]
pub fn torus_bound(dims: &[u32]) -> Rational {
    assert!(!dims.is_empty() && dims.iter().all(|&k| k >= 3), "extents must be >= 3");
    let n: i64 = dims.iter().map(|&k| k as i64).product();
    Rational::new(dims.len() as i64 * n, n - 1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use pf_graph::{builders, edge_deleted};
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// The dense Stoer–Wagner min cut (O(n³) time, O(n²) memory) that
    /// `global_min_cut` replaced, kept as the reference it is checked
    /// against. Deterministic: lowest index wins among equally tight
    /// vertices.
    fn stoer_wagner(g: &Graph) -> u64 {
        let n = g.num_vertices() as usize;
        assert!(n >= 2, "min cut needs at least two vertices");
        // Dense weight matrix of merged super-vertices; unit capacity per edge.
        let mut w = vec![vec![0u64; n]; n];
        for (_, u, v) in g.edges() {
            w[u as usize][v as usize] += 1;
            w[v as usize][u as usize] += 1;
        }
        let mut vertices: Vec<usize> = (0..n).collect();
        let mut best = u64::MAX;
        while vertices.len() > 1 {
            let m = vertices.len();
            // One minimum-cut phase: grow A from the first active vertex,
            // always adding the most tightly connected remaining vertex.
            let mut added = vec![false; m];
            let mut tightness = vec![0u64; m];
            let mut order = Vec::with_capacity(m);
            for _ in 0..m {
                let mut sel = usize::MAX;
                for i in 0..m {
                    if !added[i] && (sel == usize::MAX || tightness[i] > tightness[sel]) {
                        sel = i;
                    }
                }
                added[sel] = true;
                order.push(sel);
                for i in 0..m {
                    if !added[i] {
                        tightness[i] += w[vertices[sel]][vertices[i]];
                    }
                }
            }
            // The cut of the phase separates the last-added vertex `t` from
            // the rest; its tightness froze at selection time, so it equals
            // the full cut weight. Then merge `t` into the second-to-last `s`.
            let (s_i, t_i) = (order[m - 2], order[m - 1]);
            best = best.min(tightness[t_i]);
            let (s, t) = (vertices[s_i], vertices[t_i]);
            for &v in &vertices {
                if v != s && v != t {
                    w[s][v] += w[t][v];
                    w[v][s] = w[s][v];
                }
            }
            vertices.remove(t_i);
        }
        best
    }

    /// `mc` is a checked witness: a sorted, non-empty proper vertex subset
    /// whose independently counted cut weight is `mc.weight`.
    fn assert_witness(g: &Graph, mc: &MinCut, ctx: &str) {
        assert!(!mc.side.is_empty(), "{ctx}: empty side");
        assert!(mc.side.len() < g.num_vertices() as usize, "{ctx}: side is every vertex");
        assert!(mc.side.windows(2).all(|w| w[0] < w[1]), "{ctx}: side not strictly increasing");
        assert_eq!(cut_weight(g, &mc.side), mc.weight, "{ctx}: witness weight");
    }

    /// Checks `global_min_cut` against the reference on `g`.
    fn assert_matches_reference(g: &Graph, ctx: &str) {
        let mc = global_min_cut(g);
        assert_eq!(mc.weight, stoer_wagner(g), "{ctx}: min cut differs from Stoer–Wagner");
        assert_witness(g, &mc, ctx);
    }

    /// Two K5s joined by two bridges: δ_min = 4 but λ = 2.
    fn lopsided_barbell() -> Graph {
        let mut g = Graph::new(10);
        for side in [0u32, 5] {
            for u in side..side + 5 {
                for v in u + 1..side + 5 {
                    g.add_edge(u, v);
                }
            }
        }
        g.add_edge(0, 5);
        g.add_edge(1, 6);
        g
    }

    #[test]
    fn degenerate_graphs_are_typed_errors() {
        assert_eq!(allreduce_rate_bound(&Graph::new(0)).unwrap_err(), RateError::EmptyGraph);
        assert_eq!(allreduce_rate_bound(&Graph::new(1)).unwrap_err(), RateError::SingleVertex);
        let mut split = Graph::new(4);
        split.add_edge(0, 1);
        split.add_edge(2, 3);
        assert_eq!(
            allreduce_rate_bound(&split).unwrap_err(),
            RateError::Disconnected { components: 2 }
        );
        // Display text is stable (the harness matches on it in failure
        // messages).
        assert!(RateError::SingleVertex.to_string().contains("single vertex"));
    }

    #[test]
    fn min_cut_on_known_graphs() {
        for (g, lambda) in [
            (builders::path(5), 1),
            (builders::cycle(6), 2),
            (builders::complete(6), 5),
            (builders::hypercube(4), 4),
            (builders::star(7), 1),
        ] {
            let mc = global_min_cut(&g);
            assert_eq!(mc.weight, lambda);
            assert_witness(&g, &mc, "known graph");
        }
        // Two K4s joined by one bridge: the bridge is the min cut, and the
        // witness is one of the cliques.
        let g = crate::substrates::bridged_cliques(4);
        let mc = global_min_cut(&g);
        assert_eq!(mc.weight, 1);
        assert_eq!(mc.side.len(), 4);
        assert_witness(&g, &mc, "bridged K4s");
    }

    #[test]
    fn disconnected_graphs_have_a_zero_cut_witness() {
        let mut g = Graph::new(5);
        g.add_edge(0, 1);
        g.add_edge(1, 2);
        g.add_edge(3, 4);
        let mc = global_min_cut(&g);
        assert_eq!(mc.weight, 0);
        assert_witness(&g, &mc, "two components");
    }

    #[test]
    fn min_cut_two_vertices() {
        let mut g = Graph::new(2);
        g.add_edge(0, 1);
        assert_eq!(global_min_cut(&g), MinCut { weight: 1, side: vec![0] });
        let b = allreduce_rate_bound(&g).unwrap();
        assert_eq!(b.bound, Rational::ONE);
        assert_eq!(b.limiter(), RateLimiter::EdgeBudget); // tie reports the edge budget
    }

    #[test]
    fn lopsided_barbell_cut_beats_the_degree_bound() {
        // Two K5s joined by TWO bridges: δ_min = 4 (every vertex sits in a
        // K5; the bridge endpoints have degree 5), |E|/(n−1) = 22/9 > 2,
        // but the min cut is the 2-edge waist. The degree-only bound
        // min(22/9, 4) = 22/9 misses it; the rate bound finds 2, and its
        // witness is one of the two K5s.
        let g = lopsided_barbell();
        let b = allreduce_rate_bound(&g).unwrap();
        assert_eq!(b.min_cut, 2);
        assert_eq!(b.cut.len(), 5);
        assert_eq!(cut_weight(&g, &b.cut), 2);
        assert_eq!(b.min_degree, 4);
        assert_eq!(b.edge_budget, Rational::new(22, 9));
        assert_eq!(b.bound, Rational::from_int(2));
        assert_eq!(b.limiter(), RateLimiter::MinCut);
        assert!(b.bound < b.edge_budget.min(Rational::from_int(b.min_degree as i64)));
    }

    #[test]
    fn min_cut_never_exceeds_the_min_degree() {
        // Every singleton cut is a cut, so λ ≤ δ_min on any graph — an
        // independent sanity check on the contraction.
        for g in [
            builders::cycle(7),
            builders::complete(9),
            builders::hypercube(3),
            builders::petersen(),
            builders::star(6),
            crate::substrates::erdos_renyi_connected(18, 25, 3),
            crate::substrates::bridged_cliques(5),
        ] {
            let b = allreduce_rate_bound(&g).unwrap();
            assert!(b.min_cut <= b.min_degree as u64);
            assert!(b.bound.is_positive());
        }
    }

    #[test]
    fn closed_forms_match_the_generic_computation() {
        // Every paper radix, including the large ones the dense O(n³)
        // min cut made too slow to test. ER_q has diameter 2, so
        // λ = δ_min = q also follows from Plesník's theorem (diameter ≤ 2
        // implies λ = δ_min) — a reason for the asserted value that is
        // independent of the min-cut routine.
        for q in [3u64, 5, 7, 9, 11, 13, 17, 19, 23, 31] {
            let optimum = crate::perf::optimal_bandwidth(q, Rational::ONE);
            assert_eq!(optimum, Rational::new(q as i64 + 1, 2), "q={q}");
            let pf = pf_topo::PolarFly::new(q);
            let s = pf_topo::Singer::new(q);
            for (name, g) in [("polarfly", pf.graph()), ("singer", s.graph())] {
                let b = allreduce_rate_bound(g).unwrap();
                assert_eq!(b.bound, optimum, "{name} q={q}");
                assert_eq!((b.min_cut, b.min_degree as u64), (q, q), "{name} q={q}");
                assert_eq!(cut_weight(g, &b.cut), q, "{name} q={q}: witness");
            }
        }
        for d in [1u32, 2, 3, 4, 5] {
            assert_eq!(
                allreduce_rate_bound(&builders::hypercube(d)).unwrap().bound,
                hypercube_bound(d),
                "d={d}"
            );
        }
        for n in [2u32, 3, 5, 8, 12] {
            assert_eq!(
                allreduce_rate_bound(&builders::complete(n)).unwrap().bound,
                complete_bound(n),
                "n={n}"
            );
        }
        for dims in [vec![3u32, 3], vec![4, 4], vec![3, 4], vec![3, 3, 3]] {
            let t = pf_topo::torus::Torus::new(&dims);
            assert_eq!(
                allreduce_rate_bound(t.graph()).unwrap().bound,
                torus_bound(&dims),
                "{dims:?}"
            );
        }
    }

    #[test]
    fn gap_and_certification() {
        let g = builders::complete(8);
        let b = allreduce_rate_bound(&g).unwrap();
        assert_eq!(b.bound, Rational::from_int(4));
        assert!(b.certifies(Rational::from_int(4)));
        assert!(b.certifies(Rational::new(7, 2)));
        assert!(!b.certifies(Rational::new(9, 2)));
        assert_eq!(b.gap(Rational::from_int(3)), Rational::new(3, 4));
        assert_eq!(b.gap(b.bound), Rational::ONE);
        assert_eq!(b.gap(Rational::new(3, 4)).to_f64(), 0.1875);
    }

    #[test]
    fn min_cut_is_deterministic() {
        let g = crate::substrates::erdos_renyi_connected(30, 50, 9);
        let a = allreduce_rate_bound(&g).unwrap();
        let b = allreduce_rate_bound(&g).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn matches_the_dense_reference_on_the_catalog_and_fixtures() {
        for sub in crate::substrates::full_catalog() {
            assert_matches_reference(&sub.graph, &sub.name);
        }
        for half in [2u32, 3, 5, 8] {
            assert_matches_reference(&crate::substrates::bridged_cliques(half), "bridged cliques");
        }
        assert_matches_reference(&lopsided_barbell(), "lopsided barbell");
    }

    #[test]
    fn matches_the_dense_reference_on_seeded_random_graphs() {
        // (n, extra edges): trees, sparse, medium and near-complete shapes.
        for (n, extra) in [(12u32, 0u32), (20, 10), (30, 45), (24, 150), (40, 300)] {
            for seed in 0..40u64 {
                let g = crate::substrates::erdos_renyi_connected(n, extra, seed);
                assert_matches_reference(&g, &format!("er n={n} extra={extra} seed={seed}"));
            }
        }
    }

    #[test]
    fn matches_the_dense_reference_on_polarfly_with_links_deleted() {
        for q in [3u64, 5, 7, 9, 11] {
            let pf = pf_topo::PolarFly::new(q);
            let s = pf_topo::Singer::new(q);
            for (name, g) in [("polarfly", pf.graph()), ("singer", s.graph())] {
                assert_matches_reference(g, &format!("{name} q={q}"));
                let mut rng = StdRng::seed_from_u64(q);
                for _ in 0..4 {
                    let links = [0, 1].map(|_| rng.random_range(0..g.num_edges()));
                    let d = edge_deleted(g, &links);
                    assert_matches_reference(&d.graph, &format!("{name} q={q} minus {links:?}"));
                }
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn random_connected_graphs_match_the_reference(
            n in 2u32..32,
            extra in 0u32..120,
            seed in any::<u64>(),
        ) {
            let g = crate::substrates::erdos_renyi_connected(n, extra, seed);
            let mc = global_min_cut(&g);
            prop_assert_eq!(mc.weight, stoer_wagner(&g));
            prop_assert!(!mc.side.is_empty() && mc.side.len() < n as usize);
            prop_assert_eq!(cut_weight(&g, &mc.side), mc.weight);
        }
    }
}
