//! Per-layer metrics of the traced run, and the check that the one-level-
//! down replay made the same decisions as the manager.

use crate::metrics::{percentile, Outcome, PER_LAYER};
use crate::replay::ReplayCounts;
use crate::service::ManagerTrace;
use crate::spans::Recorder;
use pf_fabric::FabricReport;

/// The differences between the manager's report and the replay of the
/// same steps; empty when they agree on every decision.
pub fn replay_differences(r: &FabricReport, c: &ReplayCounts) -> Vec<String> {
    let mean = if c.completed == 0 {
        0.0
    } else {
        c.latency_sum as f64 / c.completed as f64
    };
    let pairs: [(&str, u64, u64); 17] = [
        ("submitted", r.submitted, c.submitted),
        ("accepted", r.accepted, c.accepted),
        ("deferred", r.deferred, c.deferred),
        ("rejected", r.rejected, c.rejected),
        ("invalid", r.invalid, c.invalid),
        ("completed", r.completed, c.completed),
        ("elems", r.total_elems, c.total_elems),
        ("epochs", r.epochs, c.epochs),
        ("waves", r.waves, c.waves),
        ("makespan", r.makespan, c.makespan),
        ("mismatches", r.mismatches, c.mismatches),
        ("digest", r.digest, c.digest),
        ("cache_hits", r.cache.hits, c.cache_hits),
        ("cache_misses", r.cache.misses, c.cache_misses),
        (
            "incremental_repairs",
            r.incremental_repairs,
            c.incremental_repairs,
        ),
        ("full_rebuilds", r.full_rebuilds, c.full_rebuilds),
        (
            "mean_latency_bits",
            r.mean_latency.to_bits(),
            mean.to_bits(),
        ),
    ];
    pairs
        .iter()
        .filter(|(_, a, b)| a != b)
        .map(|(k, a, b)| format!("replay disagrees with the manager on {k}: {a} vs {b}"))
        .collect()
}

/// Sums of the manager reports of one traced pass.
#[derive(Debug, Default)]
pub struct Served {
    accepted: u64,
    deferred: u64,
    rejected: u64,
    incremental_repairs: u64,
    full_rebuilds: u64,
    hits: u64,
    misses: u64,
}

impl Served {
    /// Adds one manager report.
    pub fn add(&mut self, r: &FabricReport) {
        self.accepted += r.accepted;
        self.deferred += r.deferred;
        self.rejected += r.rejected;
        self.incremental_repairs += r.incremental_repairs;
        self.full_rebuilds += r.full_rebuilds;
        self.hits += r.cache.hits;
        self.misses += r.cache.misses;
    }
}

/// Fills every [`PER_LAYER`] metric of `out` from one traced pass: the
/// spans in `rec`, the manager-layer measurements `mt`, the summed manager
/// reports `served`, the replays, and the traced/untraced wall ratio.
pub fn layer_values(
    out: &mut Outcome,
    rec: &Recorder,
    mt: &ManagerTrace,
    served: &Served,
    replays: &[ReplayCounts],
    overhead: f64,
) {
    let totals = rec.totals();
    let total = |name: &str| totals.get(name).map_or(0, |t| t.total_ns) as f64;
    let count = |name: &str| totals.get(name).map_or(0, |t| t.count) as f64;
    let per = |name: &str, scale: f64| total(name) / scale / count(name).max(1.0);
    let sum = |f: fn(&ReplayCounts) -> u64| replays.iter().map(f).sum::<u64>() as f64;
    let (waves, engine_ns) = (count("simnet.engine"), total("simnet.engine"));
    let engine_runs = rec.durations("simnet.engine");
    let v = &mut out.values;

    v.set("topo.substrate_ms", total("topo.substrate") / 1e6);
    v.set("core.trees_ms", total("core.trees") / 1e6);
    v.set("core.pricing_ms", total("core.pricing") / 1e6);
    v.set("core.rate.audit_ms", per("core.rate.audit", 1e6));
    v.set("core.rate.calls", count("core.rate.audit"));
    v.set("core.recovery.rebuild_ms", total("core.recovery") / 1e6);
    v.set("core.plan.subset_us", per("core.plan.subset", 1e3));
    v.set("fabric.fault_ms", mt.fault_ns as f64 / 1e6);
    v.set(
        "fabric.incremental_repairs",
        served.incremental_repairs as f64,
    );
    v.set("fabric.full_rebuilds", served.full_rebuilds as f64);
    v.set(
        "fabric.submit_us_p50",
        percentile(&mt.submit_ns, 50) as f64 / 1e3,
    );
    v.set(
        "fabric.submit_us_p99",
        percentile(&mt.submit_ns, 99) as f64 / 1e3,
    );
    v.set("fabric.dispatch_ms", mt.dispatch_ns as f64 / 1e6);
    v.set("fabric.accepted", served.accepted as f64);
    v.set("fabric.deferred", served.deferred as f64);
    v.set("fabric.rejected", served.rejected as f64);
    v.set("fabric.queue_depth_max", mt.queue_depth_max as f64);
    v.set(
        "fabric.cache.hit_ratio",
        served.hits as f64 / (served.hits + served.misses).max(1) as f64,
    );
    v.set("fabric.cache.misses", served.misses as f64);
    v.set("sched.plan_wave_us", per("sched.plan_wave", 1e3));
    v.set("sched.waves", waves);
    v.set("sched.jobs_per_wave", sum(|r| r.completed) / waves.max(1.0));
    v.set("simnet.embedding.us_per_wave", per("simnet.embedding", 1e3));
    v.set(
        "simnet.engine.run_us_p50",
        percentile(&engine_runs, 50) as f64 / 1e3,
    );
    v.set(
        "simnet.engine.run_us_p99",
        percentile(&engine_runs, 99) as f64 / 1e3,
    );
    v.set(
        "simnet.engine.ns_per_flit_hop",
        engine_ns / sum(|r| r.flit_hops).max(1.0),
    );
    v.set(
        "simnet.engine.ns_per_cycle",
        engine_ns / sum(|r| r.engine_cycles).max(1.0),
    );
    v.set("simnet.engine.cycles", sum(|r| r.engine_cycles));
    v.set(
        "simnet.engine.allocs_per_run",
        sum(|r| r.engine_allocs) / waves.max(1.0),
    );
    v.set("validate.mismatches", sum(|r| r.mismatches));
    v.set("trace.overhead_ratio", overhead);
    v.set("trace.spans", rec.len() as f64);
    for &(name, _) in PER_LAYER.iter().filter(|(n, _)| n.starts_with("self_ms.")) {
        let span = &name["self_ms.".len()..];
        v.set(name, totals.get(span).map_or(0, |t| t.self_ns) as f64 / 1e6);
    }
}
