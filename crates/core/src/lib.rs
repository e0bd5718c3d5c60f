//! Multi-spanning-tree in-network allreduce on PolarFly.
//!
//! This crate implements the primary contribution of *"In-network Allreduce
//! with Multiple Spanning Trees on PolarFly"* (SPAA '23):
//!
//! * [`lowdepth`] — Algorithm 3: `q` spanning trees of depth ≤ 3 with
//!   worst-case link congestion 2 (Theorems 7.4–7.6), built on the PolarFly
//!   layout;
//! * [`hamiltonian`] — alternating-sum paths in the Singer graph
//!   (Theorem 7.13, Corollaries 7.15/7.16) and their midpoint-rooted
//!   spanning trees (Lemma 7.17);
//! * [`disjoint`] — maximal sets of edge-disjoint Hamiltonian paths via
//!   independent sets in the color-pair conflict graph (§7.3);
//! * [`congestion`] — Algorithm 1: the water-filling bandwidth model for a
//!   set of embedded trees, in exact rational arithmetic;
//! * [`perf`] — the Theorem 5.1 performance model: optimal sub-vector
//!   split, aggregate bandwidth, optimal bounds (Corollary 7.1);
//! * [`verify`] — executable statements of the paper's theorems, used by
//!   tests, benches and the simulator;
//! * [`fingerprint`] — deterministic FNV-1a structural fingerprints for
//!   graphs, plans and fault sets (the fabric manager's cache keys);
//! * [`recovery`] — degraded-plan rebuild after link/router faults:
//!   surviving trees are kept, broken trees repaired or dropped under the
//!   healthy congestion bound, and the bandwidth loss quantified;
//! * [`construction`] — the pluggable [`construction::TreeConstruction`]
//!   trait: the paper's builders as PolarFly specializations next to
//!   generic backends (kary multitrees, greedy peeling, BFS) over any
//!   `pf_graph::Graph` substrate;
//! * [`starprod`] — edge-disjoint spanning trees on star products lifted
//!   from factor-tree sets (PolarStar/Slim Fly-class substrates);
//! * [`substrates`] — the named substrate catalog the construction
//!   harness, paper-claims invariants and `experiments topo-compare`
//!   share;
//! * [`rate`] — exact-rational allreduce rate upper bounds
//!   (edge budget ∧ global min cut) for any substrate, with closed forms
//!   for the known families; every plan's `aggregate ≤ rate_bound()` is a
//!   standing paper-claims invariant (see `docs/RATES.md`);
//! * [`plan`] — the high-level [`plan::AllreducePlan`] facade tying it all
//!   together (see [`plan::AllreducePlan::construct`] for the
//!   backend-driven path).
//!
//! # Quick example
//!
//! ```
//! use pf_allreduce::plan::AllreducePlan;
//!
//! // q = 7: PolarFly with 57 routers of radix 8.
//! let low = AllreducePlan::low_depth(7).unwrap();
//! assert_eq!(low.trees.len(), 7);
//! assert_eq!(low.depth, 3);
//! assert_eq!(low.max_congestion, 2);
//!
//! let ham = AllreducePlan::edge_disjoint(7, 30, 0xC0FFEE).unwrap();
//! assert_eq!(ham.trees.len(), 4); // floor((q+1)/2) — the optimum
//! assert_eq!(ham.max_congestion, 1);
//! ```

pub mod baselines;
pub mod congestion;
pub mod construction;
pub mod disjoint;
pub mod evenq;
pub mod fingerprint;
pub mod hamiltonian;
pub mod logical;
pub mod lowdepth;
pub mod perf;
pub mod plan;
pub mod rate;
pub mod rational;
pub mod recovery;
pub mod starprod;
pub mod substrates;
pub mod verify;

pub use construction::{
    Budget, BfsSingle, ConstructError, GreedyPeel, KaryMultitree, PolarFlyHamiltonian,
    PolarFlyLowDepth, TreeConstruction,
};
pub use plan::{AllreducePlan, Solution};
pub use rate::{
    allreduce_rate_bound, cut_weight, global_min_cut, MinCut, RateBound, RateError, RateLimiter,
};
pub use rational::Rational;
pub use fingerprint::{graph_fingerprint, plan_fingerprint};
pub use recovery::{extend_degraded, rebuild_degraded, DegradedPlan, FaultSet, RebuildError};
pub use starprod::StarProductDisjoint;
