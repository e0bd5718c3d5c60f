//! The two fabric workloads: one always-on service, used two ways.
//!
//! * `fabric-stream`: a low-depth q=11 fabric under FIFO serving a stream
//!   of small, latency-bound jobs. Nearly every wave holds one short job
//!   and the plan cache nearly always hits, so the fixed cost per wave
//!   (embedding, engine set-up, fill and drain) dominates.
//! * `fabric-burst`: an edge-disjoint q=11 fabric under SJF overloaded
//!   with large jobs. The outstanding-work cap defers most submissions,
//!   waves carry several tenants that split the trees, subsets vary, and
//!   waves run long enough for steady-state stepping.
//!
//! Both see link 2 fail a third of the way into the stream, link 5 at the
//! half (the incremental repair path) and a heal at two thirds. In virtual
//! time the stream is open-loop: arrivals follow their schedule whatever
//! the service does. In host time it is closed-loop with one caller: the
//! next call is made when the previous one returns.

use crate::layers::{layer_values, replay_differences, Served};
use crate::metrics::{median, round_robin, Outcome};
use crate::plans::{self, Construction};
use crate::replay::Replay;
use crate::service::{fabric_config, failed_jobs, serve, serve_traced, ManagerTrace, Step};
use crate::spans::Recorder;
use crate::speed::SpeedProbe;
use crate::stream::{fingerprint, poisson_jobs, SplitMix64, StreamShape};
use pf_allreduce::{plan_fingerprint, AllreducePlan};
use pf_fabric::{FabricConfig, FabricManager, FabricReport};
use pf_sched::Policy;
use std::time::Instant;

/// Radix of both fabric workloads.
const Q: u64 = 11;
/// Set-up (plan construction + `FabricManager::new`) and audit samples
/// taken before each serving pass, so that they meet the same host
/// conditions as the passes; the reported value is their median.
const REPS_PER_PASS: usize = 5;
/// Fewest serving passes a run makes, whatever `--seconds` says.
const MIN_PASSES: usize = 3;

/// One fabric workload.
#[derive(Debug, Clone, Copy)]
pub struct FabricWorkload {
    /// Workload name on the command line.
    pub name: &'static str,
    /// Tree construction of the served plan.
    pub construction: Construction,
    /// Admission policy.
    pub policy: Policy,
    /// The shape of each job stream.
    pub shape: StreamShape,
    /// Independent streams per run. An overloaded fabric's virtual
    /// latency depends on each stream's total work, so pooling several
    /// streams keeps the figures comparable from seed to seed.
    pub streams: usize,
}

/// Small latency-bound jobs on the low-depth plan.
pub const STREAM: FabricWorkload = FabricWorkload {
    name: "fabric-stream",
    construction: Construction::LowDepth,
    policy: Policy::Fifo,
    shape: StreamShape {
        jobs: 1000,
        mean_gap: 200,
        elems_lo: 16,
        elems_hi: 64,
    },
    streams: 2,
};

/// Large jobs overloading the edge-disjoint plan.
pub const BURST: FabricWorkload = FabricWorkload {
    name: "fabric-burst",
    construction: Construction::EdgeDisjoint(0xC0FFEE),
    policy: Policy::ShortestJobFirst,
    shape: StreamShape {
        jobs: 120,
        mean_gap: 200,
        elems_lo: 256,
        elems_hi: 4096,
    },
    streams: 6,
};

/// One seeded job stream with its fault and heal events, as manager calls.
struct Stream {
    steps: Vec<Step>,
    fingerprint: u64,
}

/// The run's streams: stream `k` is seeded with the `k`-th output of
/// SplitMix64 seeded with `seed`.
fn streams(w: &FabricWorkload, seed: u64) -> Vec<Stream> {
    let mut seeds = SplitMix64::new(seed);
    (0..w.streams)
        .map(|k| {
            let jobs = poisson_jobs(seeds.next_u64(), w.shape);
            let fp = fingerprint(&jobs);
            println!("stream {k}: {} jobs, fingerprint {fp:016x}", jobs.len());
            let n = jobs.len();
            let mut steps = Vec::with_capacity(n + 3);
            for (i, job) in jobs.into_iter().enumerate() {
                let at = job.arrival;
                steps.push(Step::Submit(job));
                if i == n / 3 {
                    steps.push(Step::Faults {
                        at: Some(at),
                        edges: vec![2],
                    });
                }
                if i == n / 2 {
                    steps.push(Step::Faults {
                        at: Some(at),
                        edges: vec![5],
                    });
                }
                if i == 2 * n / 3 {
                    steps.push(Step::Heal { at });
                }
            }
            Stream {
                steps,
                fingerprint: fp,
            }
        })
        .collect()
}

/// Flit-hops of a report's completed jobs: `2·elems·(n − 1)` each.
fn flit_hops(r: &FabricReport, plan: &AllreducePlan) -> u64 {
    2 * r.total_elems * (plan.num_nodes() - 1)
}

/// The deterministic outputs of one pass over every stream.
fn record(
    w: &FabricWorkload,
    plan: &AllreducePlan,
    audit: &plans::Audit,
    streams: &[Stream],
    reports: &[FabricReport],
) -> String {
    let mut out = format!(
        "plan={:016x} policy={} audit={}",
        plan_fingerprint(plan),
        w.policy.label(),
        audit.record()
    );
    for (k, (s, r)) in streams.iter().zip(reports).enumerate() {
        out.push_str(&format!(
            " s{k}: stream={:016x} submitted={} accepted={} deferred={} rejected={} invalid={} completed={} \
             elems={} epochs={} waves={} makespan={} mismatches={} p50={} p99={} max={} mean={} \
             digest={:016x} hits={} misses={} evictions={} incremental={} full={} heals={} faults={}",
            s.fingerprint,
            r.submitted,
            r.accepted,
            r.deferred,
            r.rejected,
            r.invalid,
            r.completed,
            r.total_elems,
            r.epochs,
            r.waves,
            r.makespan,
            r.mismatches,
            r.p50_latency,
            r.p99_latency,
            r.max_latency,
            r.mean_latency,
            r.digest,
            r.cache.hits,
            r.cache.misses,
            r.cache.evictions,
            r.incremental_repairs,
            r.full_rebuilds,
            r.heals,
            r.fault_events,
        ));
    }
    out
}

/// Untraced passes over the streams, round-robin, until at least `min`
/// passes ran and `seconds` have elapsed since `start`; `before` runs
/// ahead of each pass. Returns each stream's wall times and report;
/// checks every report and that repeated passes agree.
fn serve_passes(
    out: &mut Outcome,
    plan: &AllreducePlan,
    cfg: &FabricConfig,
    streams: &[Stream],
    shape: StreamShape,
    (min, start, seconds): (usize, Instant, f64),
    mut before: impl FnMut(),
) -> (Vec<Vec<f64>>, Vec<FabricReport>) {
    let mut walls = vec![Vec::new(); streams.len()];
    let mut reports: Vec<Option<FabricReport>> = vec![None; streams.len()];
    let mut pass = 0;
    round_robin(streams.len(), min, start, seconds, |k| {
        before();
        let mut m = FabricManager::new(plan.clone(), cfg.clone());
        let t = Instant::now();
        let (report, refused) = serve(&mut m, &streams[k].steps);
        let dt = t.elapsed().as_secs_f64();
        println!(
            "pass {pass}: stream {k}, {dt:.3} s, {} jobs completed",
            report.completed
        );
        pass += 1;
        walls[k].push(dt);
        out.attempted += report.submitted;
        out.failed += failed_jobs(&report);
        match &reports[k] {
            None => {
                check_report(out, &report, refused, shape);
                reports[k] = Some(report);
            }
            Some(r) => out.check(*r == report, || {
                format!("stream {k}: a repeated pass produced a different report")
            }),
        }
    });
    (
        walls,
        reports
            .into_iter()
            .map(|r| r.expect("every stream ran"))
            .collect(),
    )
}

/// Median over every pass of `f(wall, report)`. The streams differ only
/// in their draws, so each pass samples the same per-job or per-flit-hop
/// cost, and pooling the passes gives the median the most samples.
fn per_pass_median(
    walls: &[Vec<f64>],
    reports: &[FabricReport],
    f: impl Fn(f64, &FabricReport) -> f64,
) -> f64 {
    let rates: Vec<f64> = walls
        .iter()
        .zip(reports)
        .flat_map(|(ws, r)| ws.iter().map(|&w| f(w, r)).collect::<Vec<_>>())
        .collect();
    median(&rates)
}

/// Checks that hold for every pass of every seed.
fn check_report(out: &mut Outcome, r: &FabricReport, refused: u64, shape: StreamShape) {
    out.check(r.mismatches == 0, || {
        format!("{} mismatched elements", r.mismatches)
    });
    out.check(refused == 0, || format!("{refused} fault events refused"));
    out.check(r.submitted == shape.jobs as u64, || {
        format!("{} of {} jobs submitted", r.submitted, shape.jobs)
    });
    out.check(r.completed + r.rejected + r.invalid == r.submitted, || {
        "jobs lost".to_string()
    });
    out.check(r.max_combined_congestion <= r.congestion_bound, || {
        "congestion above the plan bound".to_string()
    });
    out.check(r.fault_events == 2 && r.heals == 1, || {
        format!(
            "{} fault events and {} heals applied, expected 2 and 1",
            r.fault_events, r.heals
        )
    });
}

/// The untraced run: every end-to-end metric, host timings as measured;
/// `probe` takes two samples before each serving pass.
pub fn run(w: &FabricWorkload, seed: u64, seconds: u64, probe: &mut SpeedProbe) -> Outcome {
    let start = Instant::now();
    let mut out = Outcome::default();
    let cfg = fabric_config(w.policy);
    let (plan, first) = plans::timed_setup(Q, w.construction, &cfg);
    let mut setup = vec![first];
    let (audit, first) = plans::timed_audit(&plan);
    let mut audit_s = vec![first];
    out.check(audit.holds(), || {
        format!(
            "aggregate {} exceeds the rate bound {}",
            audit.aggregate, audit.bound
        )
    });

    let streams = streams(w, seed);
    let until = (MIN_PASSES.max(streams.len()), start, seconds as f64);
    let (walls, reports) = serve_passes(&mut out, &plan, &cfg, &streams, w.shape, until, || {
        // Two probe samples a pass: the probe's median scales every host
        // timing, so its sampling error should stay below theirs.
        probe.sample();
        for _ in 0..REPS_PER_PASS {
            setup.push(plans::timed_setup(Q, w.construction, &cfg).1);
            audit_s.push(plans::timed_audit(&plan).1);
        }
        probe.sample();
    });

    let sum = |f: fn(&FabricReport) -> u64| reports.iter().map(f).sum::<u64>() as f64;
    let completed = sum(|r| r.completed);
    let latency: f64 = reports
        .iter()
        .map(|r| r.mean_latency * r.completed as f64)
        .sum();
    let p99: Vec<f64> = reports.iter().map(|r| r.p99_latency as f64).collect();
    let v = &mut out.values;
    v.set("setup_s", median(&setup));
    v.set("audit_s", median(&audit_s));
    v.set(
        "jobs_per_s",
        per_pass_median(&walls, &reports, |w, r| r.completed as f64 / w),
    );
    v.set(
        "ns_per_flit_hop",
        per_pass_median(&walls, &reports, |w, r| {
            w * 1e9 / flit_hops(r, &plan) as f64
        }),
    );
    v.set(
        "virt_jobs_per_kcycle",
        completed * 1000.0 / sum(|r| r.makespan).max(1.0),
    );
    v.set("virt_latency_p99_cycles", median(&p99));
    v.set("virt_latency_mean_cycles", latency / completed.max(1.0));
    out.record = record(w, &plan, &audit, &streams, &reports);
    out
}

/// The traced run: set-up and audit with spans, untraced passes over the
/// streams (the overhead's base, half the run), then stream 0 served
/// through the manager with a span per call and replayed one level down.
pub fn run_traced(w: &FabricWorkload, seed: u64, seconds: u64, rec: &mut Recorder) -> Outcome {
    let start = Instant::now();
    let mut out = Outcome::default();
    let cfg = fabric_config(w.policy);
    let plan = plans::build_traced(Q, w.construction, rec, 0);
    out.check(
        plan_fingerprint(&plan) == plan_fingerprint(&plans::build(Q, w.construction)),
        || "the decomposed construction built a different plan".to_string(),
    );
    drop(rec.time("fabric.new", 0, || {
        FabricManager::new(plan.clone(), cfg.clone())
    }));
    let audit = plans::audit_traced(&plan, rec, 0);
    out.check(audit.holds(), || {
        format!(
            "aggregate {} exceeds the rate bound {}",
            audit.aggregate, audit.bound
        )
    });

    let streams = streams(w, seed);
    let until = (streams.len(), start, seconds as f64 / 2.0);
    let (walls, reports) = serve_passes(&mut out, &plan, &cfg, &streams, w.shape, until, || {});

    let mut mt = ManagerTrace::default();
    let mut m = FabricManager::new(plan.clone(), cfg.clone());
    let (traced, _) = serve_traced(&mut m, &streams[0].steps, rec, 0, &mut mt);
    out.check(traced == reports[0], || {
        "the traced manager pass differs from the untraced one".to_string()
    });

    let t = Instant::now();
    let replay = Replay::new(plan.clone(), cfg, rec).play(&streams[0].steps);
    let replay_wall = t.elapsed().as_secs_f64();
    out.errors.extend(replay_differences(&reports[0], &replay));

    let mut served = Served::default();
    served.add(&traced);
    let base = median(&walls[0]);
    let overhead = replay_wall / base;
    println!(
        "replay of stream 0: {replay_wall:.3} s against {base:.3} s untraced (x{overhead:.3})"
    );
    out.record = record(w, &plan, &audit, &streams, &reports);
    layer_values(&mut out, rec, &mt, &served, &[replay], overhead);
    out
}
