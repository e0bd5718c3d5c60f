//! Algorithm 3 — low-latency spanning trees in PolarFly (§7.1).
//!
//! For each of the `q` non-quadric clusters of the layout, build a tree
//! rooted at the cluster center `v_i`:
//!
//! * level 1: all neighbors of `v_i` — the rest of `C_i`, the starter
//!   quadric `w`, and the non-starter quadric `w_i` (Corollary 7.3);
//! * level 2: neighbors of every level-1 vertex except `w` — this reaches
//!   every remaining vertex except the other cluster centers (the proof of
//!   Theorem 7.4);
//! * level 3: each other center `v_j` attached through one edge popped from
//!   the shared available-edge pool `E_a`, which caps congestion at 2
//!   (Theorem 7.6).
//!
//! The trees have depth ≤ 3 (Theorem 7.5), worst-case congestion 2
//! (Theorem 7.6), and aggregate bandwidth ≥ `q·B/2` (Corollary 7.7).

use crate::construction::ConstructError;
use pf_graph::{RootedTree, VertexId};
use pf_topo::{Layout, PolarFly};

/// Output of Algorithm 3: the trees plus the layout they were built from.
#[derive(Debug, Clone)]
pub struct LowDepthTrees {
    /// One tree per non-quadric cluster, rooted at its center.
    pub trees: Vec<RootedTree>,
    /// The layout used (starter quadric, clusters).
    pub layout: Layout,
}

/// Runs Algorithm 3 on `pf` (odd prime-power `q` only — the layout
/// requirement; other radices are [`ConstructError::NoTrees`]). The
/// `starter` quadric is optional; trees are deterministic given the
/// starter.
///
/// ```
/// use pf_allreduce::lowdepth::low_depth_trees;
/// use pf_topo::PolarFly;
/// let pf = PolarFly::new(5);
/// let out = low_depth_trees(&pf, None).unwrap();
/// assert_eq!(out.trees.len(), 5);                       // q trees
/// assert!(out.trees.iter().all(|t| t.depth() <= 3));    // Theorem 7.5
/// ```
pub fn low_depth_trees(
    pf: &PolarFly,
    starter: Option<VertexId>,
) -> Result<LowDepthTrees, ConstructError> {
    let layout = Layout::new(pf, starter).map_err(ConstructError::NoTrees)?;
    let g = pf.graph();
    let n = g.num_vertices() as usize;
    let centers: Vec<VertexId> = layout.clusters().iter().map(|c| c.center).collect();
    let is_center: Vec<bool> = {
        let mut v = vec![false; n];
        for &c in &centers {
            v[c as usize] = true;
        }
        v
    };

    // E_a restricted to center-incident edges: the only edges Algorithm 3
    // ever pops. avail[j] holds the still-available neighbors of center j.
    let mut avail: Vec<Vec<VertexId>> =
        centers.iter().map(|&c| g.neighbors(c).collect()).collect();

    let mut trees = Vec::with_capacity(centers.len());
    for (i, &root) in centers.iter().enumerate() {
        let mut parent: Vec<Option<VertexId>> = vec![None; n];
        let mut in_tree = vec![false; n];
        in_tree[root as usize] = true;

        // Level 1: all neighbors of the root.
        let level1: Vec<VertexId> = g.neighbors(root).collect();
        for &u in &level1 {
            parent[u as usize] = Some(root);
            in_tree[u as usize] = true;
        }

        // Level 2: expand every level-1 vertex except the starter quadric
        // (whose neighbors are exactly the other centers).
        for &u in &level1 {
            if u == layout.starter() {
                continue;
            }
            for z in g.neighbors(u) {
                if !in_tree[z as usize] {
                    debug_assert!(
                        !is_center[z as usize],
                        "Algorithm 3 invariant: centers are never reached at level 2"
                    );
                    parent[z as usize] = Some(u);
                    in_tree[z as usize] = true;
                }
            }
        }

        // Level 3: attach each other center via an available edge.
        for (j, &vj) in centers.iter().enumerate() {
            if j == i {
                continue;
            }
            debug_assert!(!in_tree[vj as usize]);
            let pos = avail[j]
                .iter()
                .position(|&u| in_tree[u as usize])
                .ok_or_else(|| {
                    ConstructError::NoTrees(format!(
                        "E_a exhausted for center {vj} while building T_{i}"
                    ))
                })?;
            let u = avail[j].remove(pos);
            parent[vj as usize] = Some(u);
            in_tree[vj as usize] = true;
        }

        let tree = RootedTree::from_parents(root, parent)
            .map_err(|e| ConstructError::NoTrees(format!("T_{i} is not a tree: {e}")))?;
        trees.push(tree);
    }
    Ok(LowDepthTrees { trees, layout })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::congestion::assign_unit_bandwidth;
    use crate::rational::Rational;
    use pf_graph::tree::edge_congestion;

    fn build(q: u64) -> (PolarFly, LowDepthTrees) {
        let pf = PolarFly::new(q);
        let out = low_depth_trees(&pf, None).unwrap();
        (pf, out)
    }

    #[test]
    fn produces_q_spanning_trees() {
        for q in [3u64, 5, 7, 9, 11, 13] {
            let (pf, out) = build(q);
            assert_eq!(out.trees.len() as u64, q, "q={q}");
            for (i, t) in out.trees.iter().enumerate() {
                t.validate_spanning(pf.graph())
                    .unwrap_or_else(|e| panic!("q={q} T_{i}: {e}"));
            }
        }
    }

    #[test]
    fn depth_at_most_three() {
        // Theorem 7.5.
        for q in [3u64, 5, 7, 9, 11, 13, 17, 19] {
            let (_, out) = build(q);
            for (i, t) in out.trees.iter().enumerate() {
                assert!(t.depth() <= 3, "q={q} T_{i} depth {}", t.depth());
            }
        }
    }

    #[test]
    fn congestion_at_most_two() {
        // Theorem 7.6.
        for q in [3u64, 5, 7, 9, 11, 13, 17, 19] {
            let (pf, out) = build(q);
            let c = edge_congestion(&out.trees, pf.graph());
            assert!(
                c.iter().all(|&x| x <= 2),
                "q={q}: max congestion {}",
                c.iter().max().unwrap()
            );
        }
    }

    #[test]
    fn roots_are_cluster_centers() {
        let (_, out) = build(7);
        for (t, c) in out.trees.iter().zip(out.layout.clusters()) {
            assert_eq!(t.root(), c.center);
        }
    }

    #[test]
    fn aggregate_bandwidth_at_least_half_q() {
        // Corollary 7.7: aggregate >= q·B/2 with B = 1.
        for q in [3u64, 5, 7, 9, 11, 13] {
            let (pf, out) = build(q);
            let a = assign_unit_bandwidth(pf.graph(), &out.trees);
            let bound = Rational::new(q as i64, 2);
            assert!(
                a.aggregate() >= bound,
                "q={q}: aggregate {} < q/2",
                a.aggregate()
            );
            assert!(a.max_congestion <= 2, "q={q}");
        }
    }

    #[test]
    fn every_tree_has_exactly_n_minus_1_edges() {
        let (pf, out) = build(5);
        let n = pf.graph().num_vertices() as usize;
        for t in &out.trees {
            assert_eq!(t.edges().count(), n - 1);
        }
    }

    #[test]
    fn works_for_all_starters() {
        let pf = PolarFly::new(5);
        for s in pf.quadrics() {
            let out = low_depth_trees(&pf, Some(s)).unwrap();
            for t in &out.trees {
                t.validate_spanning(pf.graph()).unwrap();
                assert!(t.depth() <= 3);
            }
            let c = edge_congestion(&out.trees, pf.graph());
            assert!(c.iter().all(|&x| x <= 2));
        }
    }

    #[test]
    fn rejects_even_q() {
        let pf = PolarFly::new(4);
        assert!(matches!(low_depth_trees(&pf, None), Err(ConstructError::NoTrees(_))));
    }

    #[test]
    fn deterministic() {
        let pf = PolarFly::new(7);
        let a = low_depth_trees(&pf, None).unwrap();
        let b = low_depth_trees(&pf, None).unwrap();
        for (x, y) in a.trees.iter().zip(&b.trees) {
            assert_eq!(x, y);
        }
    }
}
