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
//! ([`Rational`]) via a deterministic Stoer–Wagner min-cut ([`global_min_cut`]).
//! It is the repository's one aggregate ceiling: since `λ(G) ≤ δ_min`, it
//! is never looser than the degree-only bound `min(|E|/(n−1), δ_min)`.
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
use pf_graph::{bfs, Graph};

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
/// `docs/RATES.md` print them side by side).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RateBound {
    /// The edge-budget term `|E| / (n − 1)`.
    pub edge_budget: Rational,
    /// The global min cut `λ(G)` (unit capacities).
    pub min_cut: u64,
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
    let min_cut = global_min_cut(g);
    let bound = edge_budget.min(Rational::from_int(min_cut as i64));
    Ok(RateBound { edge_budget, min_cut, min_degree: g.min_degree(), bound })
}

/// Global minimum edge cut `λ(G)` of a connected graph with unit
/// capacities, by the Stoer–Wagner algorithm (O(n³), exact integer
/// arithmetic, deterministic tie-breaking — lowest index wins among
/// equally tight vertices, so repeated runs return identical phase
/// orders).
///
/// Callers must hand in a connected graph with at least two vertices
/// (checked by [`allreduce_rate_bound`]); on a disconnected graph the
/// result would be 0, which this module treats as an error upstream.
#[must_use]
pub fn global_min_cut(g: &Graph) -> u64 {
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
    use pf_graph::builders;

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
        assert_eq!(global_min_cut(&builders::path(5)), 1);
        assert_eq!(global_min_cut(&builders::cycle(6)), 2);
        assert_eq!(global_min_cut(&builders::complete(6)), 5);
        assert_eq!(global_min_cut(&builders::hypercube(4)), 4);
        assert_eq!(global_min_cut(&builders::star(7)), 1);
        // Two K4s joined by one bridge: the bridge is the min cut.
        let g = crate::substrates::bridged_cliques(4);
        assert_eq!(global_min_cut(&g), 1);
    }

    #[test]
    fn min_cut_two_vertices() {
        let mut g = Graph::new(2);
        g.add_edge(0, 1);
        assert_eq!(global_min_cut(&g), 1);
        let b = allreduce_rate_bound(&g).unwrap();
        assert_eq!(b.bound, Rational::ONE);
        assert_eq!(b.limiter(), RateLimiter::EdgeBudget); // tie reports the edge budget
    }

    #[test]
    fn lopsided_barbell_cut_beats_the_degree_bound() {
        // Two K5s joined by TWO bridges: δ_min = 4 (every vertex sits in a
        // K5; the bridge endpoints have degree 5), |E|/(n−1) = 22/9 > 2,
        // but the min cut is the 2-edge waist. The degree-only bound
        // min(22/9, 4) = 22/9 misses it; the rate bound finds 2.
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
        let b = allreduce_rate_bound(&g).unwrap();
        assert_eq!(b.min_cut, 2);
        assert_eq!(b.min_degree, 4);
        assert_eq!(b.edge_budget, Rational::new(22, 9));
        assert_eq!(b.bound, Rational::from_int(2));
        assert_eq!(b.limiter(), RateLimiter::MinCut);
        assert!(b.bound < b.edge_budget.min(Rational::from_int(b.min_degree as i64)));
    }

    #[test]
    fn min_cut_never_exceeds_the_min_degree() {
        // Every singleton cut is a cut, so λ ≤ δ_min on any graph — an
        // independent sanity check on Stoer–Wagner.
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
        for q in [3u64, 5, 7, 9] {
            let optimum = crate::perf::optimal_bandwidth(q, Rational::ONE);
            let pf = pf_topo::PolarFly::new(q);
            assert_eq!(allreduce_rate_bound(pf.graph()).unwrap().bound, optimum, "q={q}");
            let s = pf_topo::Singer::new(q);
            assert_eq!(allreduce_rate_bound(s.graph()).unwrap().bound, optimum, "singer q={q}");
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
}
