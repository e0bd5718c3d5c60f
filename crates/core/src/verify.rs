//! Executable statements of the paper's theorems.
//!
//! Each checker returns `Ok(())` or a message naming the first violation.
//! They are used by unit/integration tests, by the experiment harness
//! (which re-verifies every claim it prints), and by the simulator's
//! embedding validation.

use crate::congestion::assign_unit_bandwidth;
use crate::rational::Rational;
use pf_graph::tree::edge_congestion;
use pf_graph::{Graph, RootedTree};

/// Every tree is a spanning tree of `g`.
pub fn verify_spanning_set(g: &Graph, trees: &[RootedTree]) -> Result<(), String> {
    for (i, t) in trees.iter().enumerate() {
        t.validate_spanning(g).map_err(|e| format!("tree {i}: {e}"))?;
    }
    Ok(())
}

/// Theorem 7.5-style depth bound: every tree has depth ≤ `limit`.
pub fn verify_max_depth(trees: &[RootedTree], limit: u32) -> Result<(), String> {
    for (i, t) in trees.iter().enumerate() {
        if t.depth() > limit {
            return Err(format!("tree {i} has depth {} > {limit}", t.depth()));
        }
    }
    Ok(())
}

/// Theorem 7.6-style congestion bound: every physical link appears in at
/// most `limit` trees.
pub fn verify_max_congestion(g: &Graph, trees: &[RootedTree], limit: u32) -> Result<(), String> {
    let c = edge_congestion(trees, g);
    for (e, &x) in c.iter().enumerate() {
        if x > limit {
            let (u, v) = g.endpoints(e as u32);
            return Err(format!("edge ({u},{v}) lies in {x} trees > {limit}"));
        }
    }
    Ok(())
}

/// Edge-disjointness (congestion ≤ 1).
pub fn verify_edge_disjoint(g: &Graph, trees: &[RootedTree]) -> Result<(), String> {
    verify_max_congestion(g, trees, 1)
}

/// Lemma 7.8: on every link shared by two trees, the reduction traffic of
/// the two trees flows in *opposite* directions (so each router input port
/// feeds at most one reduction). Reduction flows child → parent, i.e. from
/// the deeper endpoint to the shallower one.
pub fn verify_lemma_7_8(g: &Graph, trees: &[RootedTree]) -> Result<(), String> {
    verify_spanning_set(g, trees)?;
    // For each physical edge, record (tree, child-endpoint) uses.
    let mut uses: Vec<Vec<(usize, u32)>> = vec![Vec::new(); g.num_edges() as usize];
    for (ti, t) in trees.iter().enumerate() {
        for (child, parent) in t.edges() {
            let e = g.edge_id(child, parent).expect("validated above");
            uses[e as usize].push((ti, child));
        }
    }
    for (e, us) in uses.iter().enumerate() {
        if us.len() < 2 {
            continue;
        }
        if us.len() > 2 {
            let (u, v) = g.endpoints(e as u32);
            return Err(format!("edge ({u},{v}) used by {} trees", us.len()));
        }
        let ((ta, ca), (tb, cb)) = (us[0], us[1]);
        if ca == cb {
            let (u, v) = g.endpoints(e as u32);
            return Err(format!(
                "edge ({u},{v}): trees {ta} and {tb} both send reduction traffic from {ca}"
            ));
        }
    }
    Ok(())
}

/// Corollary 7.7: the aggregate bandwidth computed by Algorithm 1 on the
/// low-depth trees is at least `q·B/2` (unit `B`).
pub fn verify_low_depth_bandwidth(g: &Graph, trees: &[RootedTree], q: u64) -> Result<(), String> {
    let a = assign_unit_bandwidth(g, trees);
    let bound = crate::perf::low_depth_bound(q, Rational::ONE);
    if a.aggregate() < bound {
        return Err(format!("aggregate bandwidth {} below q/2 = {bound}", a.aggregate()));
    }
    Ok(())
}

/// Theorem 7.19: edge-disjoint trees each get the full link bandwidth.
pub fn verify_full_bandwidth_per_tree(g: &Graph, trees: &[RootedTree]) -> Result<(), String> {
    let a = assign_unit_bandwidth(g, trees);
    for (i, b) in a.per_tree.iter().enumerate() {
        if *b != Rational::ONE {
            return Err(format!("tree {i} gets bandwidth {b}, expected 1"));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::disjoint::find_edge_disjoint;
    use crate::lowdepth::low_depth_trees;
    use pf_topo::{PolarFly, Singer};

    #[test]
    fn low_depth_passes_all_checks() {
        for q in [3u64, 5, 7, 9, 11] {
            let pf = PolarFly::new(q);
            let out = low_depth_trees(&pf, None).unwrap();
            let g = pf.graph();
            verify_spanning_set(g, &out.trees).unwrap();
            verify_max_depth(&out.trees, 3).unwrap();
            verify_max_congestion(g, &out.trees, 2).unwrap();
            verify_lemma_7_8(g, &out.trees).unwrap_or_else(|e| panic!("q={q}: {e}"));
            verify_low_depth_bandwidth(g, &out.trees, q).unwrap();
        }
    }

    #[test]
    fn hamiltonian_passes_all_checks() {
        for q in [3u64, 4, 5, 7, 9] {
            let s = Singer::new(q);
            let sol = find_edge_disjoint(&s, 30, 11);
            let g = s.graph();
            verify_spanning_set(g, &sol.trees).unwrap();
            verify_edge_disjoint(g, &sol.trees).unwrap();
            verify_full_bandwidth_per_tree(g, &sol.trees).unwrap();
            verify_max_depth(&sol.trees, ((s.n() - 1) / 2) as u32).unwrap();
        }
    }

    #[test]
    fn checkers_reject_violations() {
        // Two identical path trees on C4: congestion 2, same reduction
        // direction on every shared edge -> Lemma 7.8 violated.
        let mut g = Graph::new(4);
        for i in 0..4 {
            g.add_edge(i, (i + 1) % 4);
        }
        let t = RootedTree::from_path(&[0, 1, 2, 3], 0).unwrap();
        let trees = vec![t.clone(), t];
        assert!(verify_edge_disjoint(&g, &trees).is_err());
        assert!(verify_max_congestion(&g, &trees, 2).is_ok());
        assert!(verify_max_congestion(&g, &trees, 1).is_err());
        assert!(verify_lemma_7_8(&g, &trees).is_err());
        assert!(verify_max_depth(&trees, 2).is_err());
        assert!(verify_max_depth(&trees, 3).is_ok());
    }

    #[test]
    fn opposite_direction_overlap_passes_lemma_7_8() {
        // Same path, opposite roots: shared edges carry opposite flows.
        let mut g = Graph::new(4);
        for i in 0..3 {
            g.add_edge(i, i + 1);
        }
        let t1 = RootedTree::from_path(&[0, 1, 2, 3], 0).unwrap();
        let t2 = RootedTree::from_path(&[0, 1, 2, 3], 3).unwrap();
        verify_lemma_7_8(&g, &[t1, t2]).unwrap();
    }

    #[test]
    fn spanning_check_catches_foreign_edges() {
        let mut g = Graph::new(3);
        g.add_edge(0, 1);
        g.add_edge(1, 2);
        let bad = RootedTree::from_parents(0, vec![None, Some(0), Some(0)]).unwrap();
        assert!(verify_spanning_set(&g, &[bad]).is_err());
    }
}
