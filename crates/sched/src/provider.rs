//! Pluggable subset-plan construction: how a wave gets its per-job plans.
//!
//! Every wave re-prices each admitted job's tree subset with Algorithm 1
//! (`AllreducePlan::tree_subset`). For a one-shot batch that cost is
//! negligible; for a fabric streaming millions of jobs the same handful
//! of subsets is re-priced over and over. [`PlanProvider`] is the seam:
//! the scheduler asks the provider for a subset plan, the default
//! [`DirectPlans`] constructs it cold, and `pf-fabric` substitutes an LRU
//! cache keyed by *(topology fingerprint, fault-set fingerprint, subset)*.
//!
//! The contract is strict: a provider must return a plan **byte-identical**
//! to `plan.tree_subset(indices)` — caching is an optimization, never a
//! semantic fork. The cache-correctness proptests in `pf-fabric` hold the
//! cached path to that standard field by field.
//!
//! The same seam hands out the compiled engine a wave runs: a
//! [`WaveProgram`] for the wave's tree list and an [`EngineArena`] to run
//! it in. [`DirectPlans`] keeps none, so every wave compiles cold; a
//! provider that keeps the last wave's program may hand it out again for
//! the same tree list, and the engine guarantees the run is byte-identical
//! either way.

use pf_allreduce::AllreducePlan;
use pf_simnet::{EngineArena, WaveProgram};
use std::sync::Arc;

/// Source of subset plans for wave execution (see module docs).
pub trait PlanProvider {
    /// Returns a plan equivalent to `plan.tree_subset(indices)`.
    ///
    /// `indices` are full-plan tree indices, sorted ascending (the
    /// allocator hands them out that way). Implementations may cache, but
    /// the returned plan must be byte-identical to cold construction.
    fn subset(&mut self, plan: &AllreducePlan, indices: &[usize]) -> Arc<AllreducePlan>;

    /// The compiled engine for a wave over `trees`: full-plan tree
    /// indices, flattened over the wave's jobs in binding order. A
    /// provider that keeps compiled waves returns the program for `trees`
    /// — calling `compile` when it holds none for that list — and the
    /// arena to run it in. `None` (the default) makes the scheduler
    /// compile the wave itself and run it in a fresh arena.
    fn compiled_wave(
        &mut self,
        _trees: &[usize],
        _compile: &mut dyn FnMut() -> WaveProgram,
    ) -> Option<(&WaveProgram, &mut EngineArena)> {
        None
    }
}

/// The default provider: construct every subset and compile every wave
/// cold, no caching. This is the exact code path the scheduler ran before
/// the provider seam existed.
#[derive(Debug, Clone, Copy, Default)]
pub struct DirectPlans;

impl PlanProvider for DirectPlans {
    fn subset(&mut self, plan: &AllreducePlan, indices: &[usize]) -> Arc<AllreducePlan> {
        Arc::new(plan.tree_subset(indices))
    }
}
