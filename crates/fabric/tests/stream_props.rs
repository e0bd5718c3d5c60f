//! Streaming-vs-batch equivalence and admission-control invariants.
//!
//! The fabric manager is a *delivery mechanism* over the wave scheduler,
//! not a different scheduler: a stream that is fully ingested before the
//! first wave runs must produce exactly the digest the batch
//! [`Scheduler::run`] produces for the same specs. And the front door's
//! accounting must balance — after a drain every submission is exactly
//! one of completed / rejected / invalid.

use pf_allreduce::AllreducePlan;
use pf_fabric::{Admission, FabricConfig, FabricEvent, FabricManager, PoissonJobs};
use pf_sched::{JobSpec, SchedConfig, Scheduler};
use pf_simnet::ReduceKind;
use proptest::prelude::*;

fn fabric_cfg(sched: SchedConfig) -> FabricConfig {
    FabricConfig { sched, epoch_max_jobs: 1024, queue_capacity: 4096, ..FabricConfig::default() }
}

/// Random specs, ids 0..n, all arriving at cycle 0.
fn spec_strategy(n: usize) -> impl Strategy<Value = Vec<JobSpec>> {
    prop::collection::vec((1u64..200, any::<bool>(), 0u32..4), 1..n + 1).prop_map(|rows| {
        rows.into_iter()
            .enumerate()
            .map(|(i, (elems, float, priority))| JobSpec {
                kind: if float { ReduceKind::FloatF64 } else { ReduceKind::WrappingU64 },
                priority,
                ..JobSpec::new(i as u32, 0, elems)
            })
            .collect()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Stream fully ingested before the first wave ⇒ digest identical to
    /// the batch scheduler's, across fabric sizes, job mixes and
    /// concurrency settings.
    #[test]
    fn streamed_ingestion_matches_batch_run(
        q in prop::sample::select(vec![3u64, 7]),
        specs in spec_strategy(12),
        max_concurrent in 1usize..4,
    ) {
        let plan = AllreducePlan::low_depth(q).expect("odd prime power");
        let sched = SchedConfig { max_concurrent, ..SchedConfig::default() };
        let batch = Scheduler::new(&plan, sched).run(&specs).expect("valid stream");

        let mut m = FabricManager::new(plan, fabric_cfg(sched));
        for s in &specs {
            prop_assert_eq!(m.submit(s.clone()), Admission::Accepted);
        }
        let rep = m.drain();
        prop_assert_eq!(rep.digest, batch.digest());
        prop_assert_eq!(rep.makespan, batch.makespan);
        prop_assert_eq!(rep.completed, batch.jobs.len() as u64);
        prop_assert_eq!(rep.waves, batch.waves.len() as u64);
        prop_assert_eq!(rep.mismatches, 0);
        prop_assert_eq!(rep.max_combined_congestion, batch.max_combined_congestion);
    }

    /// The admission ledger balances: after a drain, every submission is
    /// exactly one of completed / rejected / invalid, the deferred queue
    /// is empty, and every accepted job completed.
    #[test]
    fn admission_accounting_balances(
        seed in 0u64..1000,
        queue_capacity in 1usize..6,
        max_outstanding in 64u64..512,
    ) {
        let plan = AllreducePlan::low_depth(3).expect("q=3");
        let cfg = FabricConfig {
            queue_capacity,
            max_outstanding_elems: max_outstanding,
            epoch_max_jobs: 4,
            ..FabricConfig::default()
        };
        let mut m = FabricManager::new(plan, cfg);
        for spec in PoissonJobs::new(seed, 40, 16, 128).take(60) {
            m.submit(spec);
        }
        let rep = m.drain();
        prop_assert_eq!(rep.submitted, 60);
        prop_assert_eq!(rep.completed + rep.rejected + rep.invalid, rep.submitted);
        prop_assert_eq!(rep.completed, rep.accepted, "everything accepted ran");
        prop_assert_eq!(m.queued(), 0);
        prop_assert_eq!(rep.mismatches, 0);
        prop_assert!(rep.max_combined_congestion <= rep.congestion_bound);
    }
}

/// Same seed + same trace ⇒ byte-identical reports, with faults and
/// heals mid-stream — the determinism guarantee the benchmark's
/// double-run `cmp` rests on.
#[test]
fn same_seed_same_trace_is_byte_identical() {
    let run = || {
        let plan = AllreducePlan::low_depth(7).expect("q=7");
        let mut m = FabricManager::new(plan, FabricConfig::default());
        let mut events: Vec<FabricEvent> =
            PoissonJobs::new(42, 300, 32, 256).take(120).map(FabricEvent::Submit).collect();
        // Interleave a fault burst and a heal at fixed virtual times
        // inside the stream's span.
        let mid = events[60].at();
        let late = events[100].at();
        events.insert(61, FabricEvent::LinkFaults { at: mid, edges: vec![2, 5] });
        events.insert(102, FabricEvent::Heal { at: late });
        m.play(events)
    };
    let (a, b) = (run(), run());
    assert_eq!(a, b, "reports must agree byte for byte");
    assert_eq!(a.completed, 120);
    assert_eq!(a.mismatches, 0);
    assert_eq!(a.fault_events, 1);
    assert_eq!(a.heals, 1);
}

/// Epoch quiesce semantics: an event timestamped mid-epoch is ingested
/// after the epoch completes, and dispatch is lazy — queued work only
/// runs when the clock must pass it.
#[test]
fn events_quiesce_at_epoch_boundaries() {
    let plan = AllreducePlan::low_depth(3).expect("q=3");
    let mut m = FabricManager::new(plan, FabricConfig::default());
    m.submit(JobSpec::new(0, 10, 500));
    assert_eq!(m.report().epochs, 0, "nothing forced the clock yet");
    // This arrival lands inside job 0's execution window; the epoch runs
    // to completion first and the clock lands on its makespan.
    m.submit(JobSpec::new(1, 12, 8));
    let after_first = m.now();
    assert!(after_first > 12, "epoch ran to completion, past the arrival");
    let rep = m.drain();
    assert_eq!(rep.epochs, 2);
    assert_eq!(rep.completed, 2);
    // Job 1's start cannot precede the epoch boundary it waited for.
    assert!(rep.makespan > after_first);
}

/// A stream of small jobs on a q=7 low-depth fabric, with a link fault a
/// third of the way in and a heal at two thirds. Nearly every wave runs
/// one job on the whole tree set, so the manager's kept engine program
/// serves nearly every wave; each plan change drops it, so the first wave
/// after one compiles. A manager restored from a checkpoint mid-stream
/// (it starts with no kept program) ends with the same digest.
#[test]
fn stream_reuses_the_compiled_wave_between_plan_changes() {
    let plan = AllreducePlan::low_depth(7).expect("q=7");
    let cfg = FabricConfig::default();
    let jobs: Vec<JobSpec> = PoissonJobs::new(0x5EED, 200, 16, 64).take(300).collect();
    let (fault_at, heal_at) = (jobs[100].arrival, jobs[200].arrival);
    let edge = plan.trees[0].edge_ids(&plan.graph)[0];

    let mut a = FabricManager::new(plan.clone(), cfg.clone());
    let mut restored: Option<FabricManager> = None;
    // Engine counts at the last plan change, until a wave has run since.
    let mut changed_at: Option<(u64, u64)> = None;
    for (i, spec) in jobs.iter().enumerate() {
        if i == 100 {
            a.inject_link_faults(fault_at, &[edge]).expect("one fault keeps q=7 connected");
            changed_at = Some(a.engine_reuse());
        }
        if i == 150 {
            let text = a.checkpoint();
            restored = Some(FabricManager::restore(plan.clone(), cfg.clone(), &text).unwrap());
        }
        if i == 200 {
            a.heal(heal_at);
            changed_at = Some(a.engine_reuse());
        }
        a.submit(spec.clone());
        if let Some(b) = restored.as_mut().filter(|_| i >= 150) {
            if i == 200 {
                b.heal(heal_at);
            }
            b.submit(spec.clone());
        }
        if let Some((c0, r0)) = changed_at {
            let (c, r) = a.engine_reuse();
            if c + r > c0 + r0 {
                assert!(c > c0, "the first wave after a plan change must compile (job {i})");
                changed_at = None;
            }
        }
    }
    let ra = a.drain();
    let (compiled, reused) = a.engine_reuse();
    assert_eq!(ra.completed, 300);
    assert_eq!(ra.mismatches, 0);
    assert_eq!(compiled + reused, ra.waves, "every wave compiles or reuses");
    assert!(compiled >= 3, "the initial plan, the fault and the heal each compile");
    assert!(
        reused * 10 >= ra.waves * 9,
        "only {reused} of {} waves reused the kept program",
        ra.waves
    );

    let mut b = restored.expect("checkpointed mid-stream");
    let mut rb = b.drain();
    assert!(b.engine_reuse().0 >= 2, "the restored manager compiles its own waves");
    rb.cache = ra.cache;
    assert_eq!(rb, ra, "the restored manager must reach the same report");
}
