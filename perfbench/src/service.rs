//! Serving a job stream through the public `FabricManager` API, untraced
//! (the end-to-end measurement) and with a span around every call (the
//! manager layer of the traced run).

use crate::spans::Recorder;
use pf_fabric::{Admission, FabricConfig, FabricManager, FabricReport};
use pf_sched::{JobSpec, Policy, SchedConfig};

/// The manager limits of the fabric sweep's `bench_config`, restated here
/// so that an edit there cannot change this benchmark.
pub fn fabric_config(policy: Policy) -> FabricConfig {
    FabricConfig {
        sched: SchedConfig {
            policy,
            ..SchedConfig::default()
        },
        queue_capacity: 512,
        max_outstanding_elems: 32 * 1024,
        epoch_max_jobs: 32,
        cache_capacity: 64,
    }
}

/// One call into the fabric manager.
#[derive(Debug)]
pub enum Step {
    /// `submit` at the job's arrival.
    Submit(JobSpec),
    /// `inject_link_faults` at `at`, or at the manager's current cycle.
    Faults {
        /// Virtual cycle of the outage (`None` = `now()`).
        at: Option<u64>,
        /// Failed links, healthy edge ids.
        edges: Vec<u32>,
    },
    /// `heal` at `at`.
    Heal {
        /// Virtual cycle of the repair.
        at: u64,
    },
    /// `drain`: run everything queued.
    Drain,
}

/// Feeds `steps` to `m`, then drains. Returns the report and the number
/// of fault events the manager refused (0 on every workload here).
pub fn serve(m: &mut FabricManager, steps: &[Step]) -> (FabricReport, u64) {
    let mut refused = 0;
    for step in steps {
        match step {
            Step::Submit(spec) => {
                m.submit(spec.clone());
            }
            Step::Faults { at, edges } => {
                let at = at.unwrap_or_else(|| m.now());
                refused += u64::from(m.inject_link_faults(at, edges).is_err());
            }
            Step::Heal { at } => m.heal(*at),
            Step::Drain => {
                m.drain();
            }
        }
    }
    (m.drain(), refused)
}

/// Jobs that failed: rejected, invalid, or (at most one per mismatched
/// element) delivering a wrong value.
pub fn failed_jobs(r: &FabricReport) -> u64 {
    r.rejected + r.invalid + r.mismatches.min(r.completed)
}

/// What the manager-layer spans measured over one pass.
#[derive(Debug, Default)]
pub struct ManagerTrace {
    /// Wall ns of each `submit` that dispatched nothing (admission only).
    pub submit_ns: Vec<u64>,
    /// Wall ns summed over calls that dispatched at least one epoch.
    pub dispatch_ns: u64,
    /// Wall ns summed over `inject_link_faults` calls.
    pub fault_ns: u64,
    /// Most jobs queued (ready + deferred) after any call.
    pub queue_depth_max: usize,
}

/// [`serve`] with a span around every call. A call *dispatched* when the
/// queue shrank by more than the call itself could add, i.e. an epoch ran
/// inside it and advanced the manager's clock past queued work.
pub fn serve_traced(
    m: &mut FabricManager,
    steps: &[Step],
    rec: &mut Recorder,
    group: u64,
    out: &mut ManagerTrace,
) -> (FabricReport, u64) {
    let mut refused = 0;
    let final_drain = [Step::Drain];
    for step in steps.iter().chain(&final_drain) {
        let before = m.queued();
        let (added, dur) = match step {
            Step::Submit(spec) => {
                let (adm, dur) = rec.time("fabric.submit", u64::from(spec.id), || {
                    m.submit(spec.clone())
                });
                (
                    usize::from(matches!(adm, Admission::Accepted | Admission::Deferred)),
                    dur,
                )
            }
            Step::Faults { at, edges } => {
                let at = at.unwrap_or_else(|| m.now());
                let (res, dur) =
                    rec.time("fabric.fault", group, || m.inject_link_faults(at, edges));
                refused += u64::from(res.is_err());
                out.fault_ns += dur;
                (0, dur)
            }
            Step::Heal { at } => (0, rec.time("fabric.heal", group, || m.heal(*at)).1),
            Step::Drain => (0, rec.time("fabric.drain", group, || m.drain()).1),
        };
        let after = m.queued();
        if after < before + added {
            out.dispatch_ns += dur;
        } else if let Step::Submit(_) = step {
            out.submit_ns.push(dur);
        }
        out.queue_depth_max = out.queue_depth_max.max(after);
    }
    (m.report(), refused)
}
