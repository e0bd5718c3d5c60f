//! `plan-scale`: the capacity-planning path at large radix.
//!
//! For q ∈ {19, 31} × {low-depth, edge-disjoint} a planner builds the
//! plan, audits it with `rate_bound` and `optimality_gap`, degrades it
//! with `rebuild_degraded` on links {2, 5} and audits the surviving graph,
//! then serves one bandwidth-bound allreduce of `M` elements on a fabric
//! manager over the plan and reports the same link faults to it. The
//! fabric never calls the rate audit and the fabric workloads audit only
//! their small q=11 plan, so this is the only workload where the audit's
//! cost shows; it is also the only one whose engine working set (993
//! routers at q=31) exceeds the host caches.
//!
//! The seed picks the edge-disjoint protocol's seed; everything else is
//! fixed. Cells are measured round-robin until the run's time is up (at
//! least one pass over all four); each per-cell time is the median of its
//! samples and a pass total is the sum over cells.

use crate::layers::{layer_values, replay_differences, Served};
use crate::metrics::{median, round_robin, Outcome};
use crate::plans::{self, Audit, Construction};
use crate::replay::Replay;
use crate::service::{fabric_config, failed_jobs, serve, serve_traced, ManagerTrace, Step};
use crate::spans::Recorder;
use crate::speed::SpeedProbe;
use pf_allreduce::{plan_fingerprint, rebuild_degraded, AllreducePlan, DegradedPlan, FaultSet};
use pf_fabric::{FabricManager, FabricReport};
use pf_sched::{JobSpec, Policy};
use std::time::Instant;

/// Elements per allreduce.
const M: u64 = 4000;
/// Links failed by the degradation step.
const FAULTS: [u32; 2] = [2, 5];
/// Set-up samples taken in each pass over a cell, so that set-up meets the
/// same host conditions as the rest of the run.
const SETUP_PER_PASS: usize = 3;
/// Serve samples taken in each pass over a cell.
const SERVE_PER_PASS: usize = 3;

/// The four (radix, construction) cells for `seed`.
fn cells(seed: u64) -> [(u64, Construction); 4] {
    let ed = Construction::EdgeDisjoint(seed);
    [
        (19, Construction::LowDepth),
        (19, ed),
        (31, Construction::LowDepth),
        (31, ed),
    ]
}

/// The serve step of one cell: one allreduce, then the link faults.
fn steps() -> Vec<Step> {
    vec![
        Step::Submit(JobSpec::new(0, 0, M)),
        Step::Drain,
        Step::Faults {
            at: None,
            edges: FAULTS.to_vec(),
        },
    ]
}

fn degrade(plan: &AllreducePlan) -> DegradedPlan {
    rebuild_degraded(plan, &FaultSet::links(FAULTS.to_vec()))
        .expect("two link faults keep a PolarFly connected")
}

/// What one pass over a cell produced (deterministic).
#[derive(Debug, Clone, PartialEq)]
struct CellResult {
    audit: Audit,
    degraded: Audit,
    degraded_trees: usize,
    served: FabricReport,
    faulted: FabricReport,
}

impl CellResult {
    fn record(&self, q: u64, c: Construction, plan: &AllreducePlan) -> String {
        let (s, f) = (&self.served, &self.faulted);
        format!(
            "q{q}-{}: plan={:016x} trees={} audit={} degraded={}:{} deg_trees={} cycles={} digest={:016x} \
             misses={} full={} incremental={}",
            c.label(),
            plan_fingerprint(plan),
            plan.trees.len(),
            self.audit.record(),
            self.degraded.record(),
            self.degraded.aggregate,
            self.degraded_trees,
            s.makespan,
            s.digest,
            f.cache.misses,
            f.full_rebuilds,
            f.incremental_repairs,
        )
    }

    fn check(&self, out: &mut Outcome, q: u64, plan: &AllreducePlan) {
        let s = &self.served;
        out.check(self.audit.holds() && self.degraded.holds(), || {
            format!(
                "q={q}: an aggregate exceeds its rate bound ({:?}, {:?})",
                self.audit, self.degraded
            )
        });
        let achieved = M as f64 / s.makespan.max(1) as f64;
        out.check(achieved <= self.audit.bound.to_f64(), || {
            format!(
                "q={q}: simulated {achieved} elements/cycle exceeds the rate bound {}",
                self.audit.bound
            )
        });
        out.check(s.completed == 1 && s.mismatches == 0, || {
            format!(
                "q={q}: {} of 1 allreduce completed, {} mismatches",
                s.completed, s.mismatches
            )
        });
        out.check(self.faulted.fault_events == 1, || {
            format!("q={q}: the link faults were refused")
        });
        out.check(s.max_combined_congestion <= plan.max_congestion, || {
            format!("q={q}: congestion above bound")
        });
    }
}

/// The untraced run: every end-to-end metric, host timings as measured;
/// `probe` takes a sample before each serve.
pub fn run(seed: u64, seconds: u64, probe: &mut SpeedProbe) -> Outcome {
    let start = Instant::now();
    let mut out = Outcome::default();
    let cfg = fabric_config(Policy::Fifo);
    let cells = cells(seed);

    let mut setup = vec![Vec::new(); cells.len()];
    let mut built = Vec::with_capacity(cells.len());
    for (i, &(q, c)) in cells.iter().enumerate() {
        let (plan, secs) = plans::timed_setup(q, c, &cfg);
        setup[i].push(secs);
        built.push(plan);
    }

    let steps = steps();
    let (mut audit_s, mut serve_s) = (vec![Vec::new(); cells.len()], vec![Vec::new(); cells.len()]);
    let mut results: Vec<Option<CellResult>> = vec![None; cells.len()];
    round_robin(cells.len(), cells.len(), start, seconds as f64, |i| {
        let ((q, c), plan) = (cells[i], &built[i]);
        for _ in 0..SETUP_PER_PASS {
            setup[i].push(plans::timed_setup(q, c, &cfg).1);
        }

        let (audit, healthy_audit) = plans::timed_audit(plan);
        let d = degrade(plan);
        let t = Instant::now();
        let degraded = plans::audit_degraded(&d);
        audit_s[i].push(healthy_audit + t.elapsed().as_secs_f64());

        probe.sample();
        // Serving is the noisiest step on a shared host, so each pass
        // serves the cell several times; the first also takes the faults.
        let mut m = FabricManager::new(plan.clone(), cfg.clone());
        let t = Instant::now();
        let (served, _) = serve(&mut m, &steps[..2]);
        serve_s[i].push(t.elapsed().as_secs_f64());
        let (faulted, _) = serve(&mut m, &steps[2..]);
        out.attempted += served.submitted;
        out.failed += failed_jobs(&served);
        let result = CellResult {
            audit,
            degraded,
            degraded_trees: d.trees.len(),
            served,
            faulted,
        };
        for _ in 1..SERVE_PER_PASS {
            probe.sample();
            let mut m = FabricManager::new(plan.clone(), cfg.clone());
            let t = Instant::now();
            let (again, _) = serve(&mut m, &steps[..2]);
            serve_s[i].push(t.elapsed().as_secs_f64());
            out.attempted += again.submitted;
            out.failed += failed_jobs(&again);
            out.check(again == result.served, || {
                format!("q={q} {}: a repeated serve differs", c.label())
            });
        }
        println!(
            "q={q} {}: audit {:.3} s, serve {:.3} s, {} cycles",
            c.label(),
            audit_s[i].last().expect("just pushed"),
            serve_s[i].last().expect("just pushed"),
            result.served.makespan
        );
        match &results[i] {
            None => {
                result.check(&mut out, q, plan);
                results[i] = Some(result);
            }
            Some(r) => out.check(*r == result, || {
                format!("q={q} {}: a repeated pass differs", c.label())
            }),
        }
    });

    let results: Vec<CellResult> = results
        .into_iter()
        .map(|r| r.expect("every cell ran"))
        .collect();
    for (i, (q, c)) in cells.iter().enumerate() {
        println!(
            "q={q} {}: median set-up {:.4} s, audit {:.4} s, serve {:.4} s over {} and {} samples",
            c.label(),
            median(&setup[i]),
            median(&audit_s[i]),
            median(&serve_s[i]),
            audit_s[i].len(),
            serve_s[i].len()
        );
    }
    let sum_median = |xs: &[Vec<f64>]| xs.iter().map(|x| median(x)).sum::<f64>();
    let serve_total = sum_median(&serve_s);
    let flit_hops: u64 = built.iter().map(|p| 2 * M * (p.num_nodes() - 1)).sum();
    let makespans: u64 = results.iter().map(|r| r.served.makespan).sum();
    let jobs = results.len() as f64;
    let v = &mut out.values;
    v.set("setup_s", sum_median(&setup));
    v.set("audit_s", sum_median(&audit_s));
    v.set("jobs_per_s", jobs / serve_total);
    v.set("ns_per_flit_hop", serve_total * 1e9 / flit_hops as f64);
    v.set("virt_jobs_per_kcycle", jobs * 1000.0 / makespans as f64);
    v.set(
        "virt_latency_p99_cycles",
        results
            .iter()
            .map(|r| r.served.p99_latency)
            .max()
            .unwrap_or(0) as f64,
    );
    v.set("virt_latency_mean_cycles", makespans as f64 / jobs);
    out.record = cells
        .iter()
        .zip(&built)
        .zip(&results)
        .map(|((&(q, c), plan), r)| r.record(q, c, plan))
        .collect::<Vec<_>>()
        .join(" ");
    out
}

/// The traced run: one pass over the cells with spans, each cell also
/// served untraced once for the overhead's base.
pub fn run_traced(seed: u64, rec: &mut Recorder) -> Outcome {
    let mut out = Outcome::default();
    let cfg = fabric_config(Policy::Fifo);
    let steps = steps();
    let (mut mt, mut served, mut replays) =
        (ManagerTrace::default(), Served::default(), Vec::new());
    let (mut untraced_s, mut replay_s) = (0.0, 0.0);
    let mut records = Vec::new();
    for (i, (q, c)) in cells(seed).into_iter().enumerate() {
        let group = i as u64;
        let plan = plans::build_traced(q, c, rec, group);
        out.check(
            plan_fingerprint(&plan) == plan_fingerprint(&plans::build(q, c)),
            || {
                format!(
                    "q={q} {}: the decomposed construction built a different plan",
                    c.label()
                )
            },
        );
        drop(rec.time("fabric.new", group, || {
            FabricManager::new(plan.clone(), cfg.clone())
        }));
        let audit = plans::audit_traced(&plan, rec, group);
        let (d, _) = rec.time("core.recovery", group, || degrade(&plan));
        let (degraded, _) = rec.time("core.rate.audit", group, || plans::audit_degraded(&d));

        let mut m = FabricManager::new(plan.clone(), cfg.clone());
        let t = Instant::now();
        let (untraced, _) = serve(&mut m, &steps);
        untraced_s += t.elapsed().as_secs_f64();

        let mut m = FabricManager::new(plan.clone(), cfg.clone());
        let (traced, _) = serve_traced(&mut m, &steps[..2], rec, group, &mut mt);
        let (faulted, _) = serve_traced(&mut m, &steps[2..], rec, group, &mut mt);
        out.check(faulted == untraced, || {
            format!("q={q}: the traced manager pass differs")
        });
        served.add(&faulted);
        out.attempted += traced.submitted;
        out.failed += failed_jobs(&traced);

        let t = Instant::now();
        let replay = Replay::new(plan.clone(), cfg.clone(), rec).play(&steps);
        replay_s += t.elapsed().as_secs_f64();
        out.errors.extend(replay_differences(&untraced, &replay));
        replays.push(replay);

        let result = CellResult {
            audit,
            degraded,
            degraded_trees: d.trees.len(),
            served: traced,
            faulted,
        };
        result.check(&mut out, q, &plan);
        records.push(result.record(q, c, &plan));
    }
    let overhead = replay_s / untraced_s;
    println!("replay: {replay_s:.3} s against {untraced_s:.3} s untraced (x{overhead:.3})");
    out.record = records.join(" ");
    layer_values(&mut out, rec, &mt, &served, &replays, overhead);
    out
}
