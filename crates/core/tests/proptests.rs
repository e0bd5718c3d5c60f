//! Property-based tests for the tree constructions and the bandwidth
//! model.

use pf_allreduce::congestion::assign_unit_bandwidth;
use pf_allreduce::disjoint::{conflict_graph, find_edge_disjoint};
use pf_allreduce::hamiltonian::{alternating_path, hamiltonian_pairs_unordered};
use pf_allreduce::lowdepth::low_depth_trees;
use pf_allreduce::rate::allreduce_rate_bound;
use pf_allreduce::recovery::{extend_degraded, rebuild_degraded, FaultSet};
use pf_allreduce::{perf, verify, AllreducePlan, Rational};
use pf_graph::tree::pairwise_edge_disjoint;
use pf_topo::{PolarFly, Singer};
use proptest::prelude::*;

fn odd_q() -> impl Strategy<Value = u64> {
    prop::sample::select(vec![3u64, 5, 7, 9, 11])
}

fn any_q() -> impl Strategy<Value = u64> {
    prop::sample::select(vec![3u64, 4, 5, 7, 8, 9, 11])
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(20))]

    #[test]
    fn low_depth_theorems_for_any_starter(q in odd_q(), pick in 0usize..16) {
        let pf = PolarFly::new(q);
        let quads = pf.quadrics();
        let starter = quads[pick % quads.len()];
        let out = low_depth_trees(&pf, Some(starter)).unwrap();
        prop_assert_eq!(out.trees.len() as u64, q);
        prop_assert!(verify::verify_spanning_set(pf.graph(), &out.trees).is_ok());
        prop_assert!(verify::verify_max_depth(&out.trees, 3).is_ok());
        prop_assert!(verify::verify_max_congestion(pf.graph(), &out.trees, 2).is_ok());
        prop_assert!(verify::verify_lemma_7_8(pf.graph(), &out.trees).is_ok());
        prop_assert!(verify::verify_low_depth_bandwidth(pf.graph(), &out.trees, q).is_ok());
    }

    #[test]
    fn disjoint_search_always_valid(q in any_q(), seed in 0u64..10_000, attempts in 1usize..40) {
        let s = Singer::new(q);
        let sol = find_edge_disjoint(&s, attempts, seed);
        prop_assert!(!sol.pairs.is_empty());
        prop_assert!(sol.pairs.len() as u64 <= q.div_ceil(2));
        prop_assert!(pairwise_edge_disjoint(&sol.trees, s.graph()));
        for t in &sol.trees {
            prop_assert!(t.validate_spanning(s.graph()).is_ok());
        }
        // Any found set gets full bandwidth per tree.
        prop_assert!(verify::verify_full_bandwidth_per_tree(s.graph(), &sol.trees).is_ok());
    }

    #[test]
    fn every_hamiltonian_pair_gives_a_spanning_tree(q in any_q(), pick in 0usize..64) {
        let s = Singer::new(q);
        let pairs = hamiltonian_pairs_unordered(&s);
        let (d0, d1) = pairs[pick % pairs.len()];
        let p = alternating_path(&s, d0, d1);
        prop_assert!(p.is_hamiltonian(s.n()));
        let t = p.midpoint_tree();
        prop_assert!(t.validate_spanning(s.graph()).is_ok());
        prop_assert_eq!(t.depth() as u64, (s.n() - 1) / 2);
    }

    #[test]
    fn conflict_graph_independent_sets_are_disjoint_paths(q in any_q(), seed in 0u64..1000) {
        use rand::SeedableRng;
        let s = Singer::new(q);
        let pairs = hamiltonian_pairs_unordered(&s);
        let g = conflict_graph(&pairs);
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let set = pf_graph::indset::random_maximal(&g, &mut rng);
        // Any independent set in G_S must give edge-disjoint trees.
        let trees: Vec<_> = set
            .iter()
            .map(|&i| alternating_path(&s, pairs[i as usize].0, pairs[i as usize].1).midpoint_tree())
            .collect();
        prop_assert!(pairwise_edge_disjoint(&trees, s.graph()));
    }

    #[test]
    fn aggregate_bandwidth_never_exceeds_optimum(q in odd_q(), k in 1usize..6, seed in 0u64..500) {
        // Any tree set whatsoever obeys Corollary 7.1's ceiling.
        let pf = PolarFly::new(q);
        let trees = pf_allreduce::baselines::k_bfs_trees(pf.graph(), k, seed);
        let a = assign_unit_bandwidth(pf.graph(), &trees);
        prop_assert!(a.aggregate() <= perf::optimal_bandwidth(q, Rational::ONE));
    }

    #[test]
    fn predicted_time_monotone_in_m(q in odd_q(), m1 in 1u64..100_000, m2 in 1u64..100_000) {
        let plan = pf_allreduce::AllreducePlan::low_depth(q).unwrap();
        let hop = Rational::from_int(4);
        let (lo, hi) = (m1.min(m2), m1.max(m2));
        prop_assert!(plan.predicted_time(lo, hop) <= plan.predicted_time(hi, hop));
    }

    #[test]
    fn tree_subsets_never_exceed_the_full_plan_rate_bound(q in odd_q(), mask in 1u64..2048) {
        // A tenant's subset plan prices fewer trees on the same substrate,
        // so the full plan's exact rate bound must still dominate it —
        // and the subset's own bound is the same (same graph).
        let plan = AllreducePlan::low_depth(q).unwrap();
        let bound = plan.rate_bound();
        let idx: Vec<usize> =
            (0..plan.trees.len()).filter(|i| mask >> i & 1 == 1).collect();
        prop_assume!(!idx.is_empty());
        let sub = plan.tree_subset(&idx);
        prop_assert!(sub.aggregate <= bound);
        prop_assert_eq!(sub.rate_bound(), bound);
        prop_assert!(sub.optimality_gap() <= Rational::ONE);
    }

    #[test]
    fn degraded_plans_respect_the_surviving_rate_bound(
        q in odd_q(),
        nf in 1usize..4,
        seed in 0u64..200,
    ) {
        // Fault random links, rebuild, and recompute the rate bound on
        // the surviving subgraph: the degraded plan must respect it. Then
        // extend with one more fault and check again on the incremental
        // path.
        use rand::{Rng, SeedableRng};
        let plan = AllreducePlan::low_depth(q).unwrap();
        let ne = plan.graph.num_edges();
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let mut edges: Vec<u32> = (0..nf).map(|_| rng.random_range(0..ne)).collect();
        edges.sort_unstable();
        edges.dedup();
        let faults = FaultSet::links(edges.clone());
        // PolarFly at these radices survives ≤ 3 link faults.
        let d = rebuild_degraded(&plan, &faults).unwrap();
        let rate = allreduce_rate_bound(&d.graph).unwrap();
        prop_assert!(rate.certifies(d.aggregate));
        prop_assert!(rate.bound <= plan.rate_bound());
        let extra = (0..ne).find(|x| !edges.contains(x)).unwrap();
        let delta = FaultSet::links(vec![extra]);
        if let Some(d2) = extend_degraded(&plan, &faults, &d, &delta) {
            let rate2 = allreduce_rate_bound(&d2.graph).unwrap();
            prop_assert!(rate2.certifies(d2.aggregate));
            prop_assert!(rate2.bound <= rate.bound);
        }
    }

    #[test]
    fn split_respects_zero_bandwidth_never_happens(q in odd_q(), m in 0u64..1_000_000) {
        let plan = pf_allreduce::AllreducePlan::low_depth(q).unwrap();
        let sizes = plan.split(m);
        prop_assert_eq!(sizes.iter().sum::<u64>(), m);
        prop_assert_eq!(sizes.len(), plan.trees.len());
        for b in &plan.bandwidths {
            prop_assert!(b.is_positive());
        }
    }
}

/// The exact sum of positive fractions `n/d` over a common denominator,
/// reduced: `None` when a part leaves `u128`.
fn u128_sum(terms: &[(u64, u64)]) -> Option<(u128, u128)> {
    fn gcd(mut a: u128, mut b: u128) -> u128 {
        while b != 0 {
            (a, b) = (b, a % b);
        }
        a
    }
    let mut den = 1u128;
    for &(_, d) in terms {
        den = den.checked_mul(u128::from(d) / gcd(den, u128::from(d)))?;
    }
    let mut num = 0u128;
    for &(n, d) in terms {
        num = num.checked_add(u128::from(n).checked_mul(den / u128::from(d))?)?;
    }
    let g = gcd(num, den);
    Some((num / g, den / g))
}

/// `Σ n/d` in `Rational`, left to right, or the panic message.
fn rational_sum(terms: &[(u64, u64)]) -> Result<Rational, String> {
    std::panic::catch_unwind(|| {
        terms.iter().fold(Rational::ZERO, |acc, &(n, d)| acc + Rational::new(n as i64, d as i64))
    })
    .map_err(|e| {
        e.downcast_ref::<&str>()
            .map(|s| (*s).to_string())
            .or_else(|| e.downcast_ref::<String>().cloned())
            .unwrap_or_default()
    })
}

fn is_prime(p: u64) -> bool {
    p >= 2 && (2..).take_while(|k| k * k <= p).all(|k| !p.is_multiple_of(k))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    /// Tree-bandwidth shares of a PolarFly plan (up to `q + 1` trees, each
    /// share `n/d` with `d` up to twice the tree count) sum exactly: the
    /// partial sums' denominators pass `i64` (the checked wide path), and
    /// the result is the `u128` reference, in either summation order.
    #[test]
    fn rational_share_sums_match_the_u128_reference(q in 3u64..32, seed in any::<u64>()) {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let terms: Vec<(u64, u64)> = (0..=q)
            .map(|_| {
                let d = rng.random_range(1..2 * (q + 1) + 1);
                (rng.random_range(1..d + 1), d)
            })
            .collect();
        let (num, den) = u128_sum(&terms).expect("shares at q ≤ 31 fit u128");
        let want = Rational::new_i128(num as i128, den as i128);
        prop_assert_eq!(rational_sum(&terms), Ok(want));
        let reversed: Vec<(u64, u64)> = terms.iter().rev().copied().collect();
        prop_assert_eq!(rational_sum(&reversed), Ok(want));
    }

    /// Sums over distinct large prime denominators have the product of the
    /// primes as their exact denominator. Wherever that value fits `i128`
    /// the sum is exact; past it the sum panics with `rational::OVERFLOW`.
    /// It never returns a wrapped value.
    #[test]
    fn rational_sums_past_i128_panic_with_overflow(k in 2usize..8, seed in any::<u64>()) {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let mut primes: Vec<u64> = Vec::new();
        while primes.len() < k {
            let p = rng.random_range((1u64 << 24)..(1u64 << 31)) | 1;
            if is_prime(p) && !primes.contains(&p) {
                primes.push(p);
            }
        }
        let terms: Vec<(u64, u64)> =
            primes.iter().map(|&p| (rng.random_range(1..p), p)).collect();
        let fits = u128_sum(&terms)
            .filter(|&(n, d)| n <= i128::MAX as u128 && d <= i128::MAX as u128);
        match fits {
            Some((n, d)) => {
                let got = rational_sum(&terms);
                prop_assert_eq!(got, Ok(Rational::new_i128(n as i128, d as i128)));
            }
            None => {
                prop_assert_eq!(
                    rational_sum(&terms),
                    Err(pf_allreduce::rational::OVERFLOW.to_string())
                );
            }
        }
    }
}
