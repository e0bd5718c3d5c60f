//! Plan construction and the rate audit, as the public facade runs them
//! and decomposed into their layer calls for the traced run.

use crate::spans::Recorder;
use pf_allreduce::disjoint::find_edge_disjoint;
use pf_allreduce::lowdepth::low_depth_trees;
use pf_allreduce::recovery::DegradedPlan;
use pf_allreduce::{allreduce_rate_bound, AllreducePlan, Rational, Solution};
use pf_fabric::{FabricConfig, FabricManager};
use pf_topo::{PolarFly, Singer};
use std::hint::black_box;
use std::time::Instant;

/// Attempts of the edge-disjoint independent-set protocol, as every
/// experiment in the repository uses.
const ATTEMPTS: usize = 30;

/// Which of the paper's two constructions a plan uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Construction {
    /// §7.1 low-depth trees on `ER_q`.
    LowDepth,
    /// §7.2 edge-disjoint Hamiltonian trees on the Singer graph, with the
    /// protocol's seed.
    EdgeDisjoint(u64),
}

impl Construction {
    /// Short label for output.
    pub fn label(self) -> &'static str {
        match self {
            Construction::LowDepth => "low-depth",
            Construction::EdgeDisjoint(_) => "edge-disjoint",
        }
    }
}

/// Builds the plan through the public facade.
pub fn build(q: u64, c: Construction) -> AllreducePlan {
    match c {
        Construction::LowDepth => AllreducePlan::low_depth(q),
        Construction::EdgeDisjoint(seed) => AllreducePlan::edge_disjoint(q, ATTEMPTS, seed),
    }
    .expect("workloads use odd prime powers")
}

/// Times one set-up, [`build`] plus `FabricManager::new`, in seconds, and
/// returns the plan (cloned outside the timed region).
pub fn timed_setup(q: u64, c: Construction, cfg: &FabricConfig) -> (AllreducePlan, f64) {
    let t = Instant::now();
    let plan = build(q, c);
    let built = t.elapsed();
    let keep = plan.clone();
    let t = Instant::now();
    let m = black_box(FabricManager::new(plan, cfg.clone()));
    let secs = (built + t.elapsed()).as_secs_f64();
    drop(m);
    (keep, secs)
}

/// [`build`] decomposed into substrate, trees and pricing, one span each.
pub fn build_traced(q: u64, c: Construction, rec: &mut Recorder, group: u64) -> AllreducePlan {
    let (graph, trees, solution) = match c {
        Construction::LowDepth => {
            let (pf, _) = rec.time("topo.substrate", group, || PolarFly::new(q));
            let (out, _) = rec.time("core.trees", group, || low_depth_trees(&pf, None));
            let trees = out.expect("workloads use odd prime powers").trees;
            (pf.graph().clone(), trees, Solution::LowDepth)
        }
        Construction::EdgeDisjoint(seed) => {
            let (s, _) = rec.time("topo.substrate", group, || Singer::new(q));
            let (sol, _) = rec.time("core.trees", group, || {
                find_edge_disjoint(&s, ATTEMPTS, seed)
            });
            (s.graph().clone(), sol.trees, Solution::EdgeDisjoint)
        }
    };
    rec.time("core.pricing", group, || {
        AllreducePlan::from_tree_set(q, solution, graph, trees)
    })
    .0
}

/// The outcome of one rate audit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Audit {
    /// The exact rate upper bound `min(|E|/(n−1), λ(G))`.
    pub bound: Rational,
    /// `aggregate / bound`.
    pub gap: Rational,
    /// The Algorithm 1 aggregate the bound must cap.
    pub aggregate: Rational,
}

impl Audit {
    /// `achieved ≤ bound`, the standing invariant.
    pub fn holds(&self) -> bool {
        self.aggregate <= self.bound
    }

    /// `bound gap` as exact rationals, for the deterministic record.
    pub fn record(&self) -> String {
        format!("{}:{}", self.bound, self.gap)
    }
}

/// Audits a healthy plan with `rate_bound` and `optimality_gap` (each
/// recomputes the min cut, as a capacity planner calling both does).
pub fn audit(plan: &AllreducePlan) -> Audit {
    Audit {
        bound: plan.rate_bound(),
        gap: plan.optimality_gap(),
        aggregate: plan.aggregate,
    }
}

/// Times one [`audit`], in seconds.
pub fn timed_audit(plan: &AllreducePlan) -> (Audit, f64) {
    let t = Instant::now();
    let a = black_box(audit(plan));
    (a, t.elapsed().as_secs_f64())
}

/// [`audit`] with one span per call.
pub fn audit_traced(plan: &AllreducePlan, rec: &mut Recorder, group: u64) -> Audit {
    let (bound, _) = rec.time("core.rate.audit", group, || plan.rate_bound());
    let (gap, _) = rec.time("core.rate.audit", group, || plan.optimality_gap());
    Audit {
        bound,
        gap,
        aggregate: plan.aggregate,
    }
}

/// Audits the graph surviving a degradation: one bound computation.
pub fn audit_degraded(d: &DegradedPlan) -> Audit {
    let rb = allreduce_rate_bound(&d.graph)
        .expect("link faults in the workloads keep the fabric connected");
    Audit {
        bound: rb.bound,
        gap: rb.gap(d.aggregate),
        aggregate: d.aggregate,
    }
}
