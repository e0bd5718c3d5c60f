//! Property suite for compiled-program reuse: one [`EngineArena`], reused
//! across a sequence of runs of a [`WaveProgram`], must give results
//! byte-identical to fresh one-shot runs (`Simulator::new` on an
//! embedding with the same slice layout).
//!
//! Each run of a sequence draws its own slice sizes (empty slices
//! included), offsets with gaps, job bindings and releases, collective,
//! tracing, queue sizes and latency, engine and injection caps, cycle
//! cap, and fault schedule (none,
//! quiet, or an active outage that heals or aborts the run on
//! detection). Runs that end incomplete — at the cycle cap or on a
//! detection abort — stay in the sequence, so the arena's next run starts
//! from whatever they left behind. Compared: `SimReport`, `JobOutcome`s,
//! trace JSON bytes and `FaultReport`.

use pf_allreduce::AllreducePlan;
use pf_simnet::faults::{DetectionConfig, FaultEvent, FaultKind, FaultSchedule, FaultTarget};
use pf_simnet::{
    Collective, EngineArena, FaultReport, JobBinding, JobOutcome, MultiTreeEmbedding, SimConfig,
    SimReport, Simulator, TraceConfig, WaveProgram, Workload,
};
use proptest::prelude::*;

/// The fabrics runs are drawn on: small PolarFly plans with overlapping
/// (low-depth) and edge-disjoint trees.
fn plans() -> Vec<AllreducePlan> {
    vec![
        AllreducePlan::low_depth(3).unwrap(),
        AllreducePlan::edge_disjoint(3, 40, 0xA2E4).unwrap(),
        AllreducePlan::low_depth(5).unwrap(),
    ]
}

/// SplitMix64: every parameter of a run comes from one seed.
struct Draw(u64);

impl Draw {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

/// Everything one run varies.
#[derive(Debug, Clone)]
struct RunSpec {
    sizes: Vec<u64>,
    offsets: Vec<u64>,
    bindings: Option<Vec<JobBinding>>,
    kind: Collective,
    trace: bool,
    faults: Option<FaultSchedule>,
    cfg: SimConfig,
}

impl RunSpec {
    fn draw(plan: &AllreducePlan, seed: u64) -> Self {
        let mut d = Draw(seed);
        let ntrees = plan.trees.len();
        // Mostly short slices (fill and drain only); now and then long
        // enough for the batch-span replay to arm.
        let cap = if d.below(4) == 0 { 600 } else { 48 };
        let sizes: Vec<u64> = (0..ntrees).map(|_| d.below(cap)).collect();
        let mut offsets = Vec::with_capacity(ntrees);
        let mut off = d.below(8);
        for &len in &sizes {
            offsets.push(off);
            off += len + d.below(3) * d.below(6);
        }
        let bindings = (d.below(2) == 0).then(|| {
            let mut bs = Vec::new();
            let mut start = 0;
            for t in 1..=ntrees {
                if t == ntrees || d.below(2) == 0 {
                    let release = if d.below(2) == 0 { 0 } else { d.below(40) };
                    bs.push(JobBinding { trees: start..t, release });
                    start = t;
                }
            }
            bs
        });
        let kind = Collective::ALL[d.below(5) as usize];
        let trace = d.below(3) == 0;
        let cfg = SimConfig {
            link_latency: 1 + d.below(4) as u32,
            vc_buffer: 1 + d.below(7) as usize,
            source_queue: 1 + d.below(3) as usize,
            max_cycles: if d.below(5) == 0 { 5 + d.below(60) } else { 1_000_000 },
            max_reductions_per_router: (d.below(4) == 0).then(|| 1 + d.below(3) as u32),
            max_injections_per_node: (d.below(4) == 0).then(|| 1 + d.below(3) as u32),
        };
        let faults = match d.below(4) {
            0 | 1 => None,
            2 => Some(FaultSchedule::none()),
            _ => {
                let edges = plan.trees[d.below(ntrees as u64) as usize].edge_ids(&plan.graph);
                let edge = edges[d.below(edges.len() as u64) as usize];
                let transient = d.below(2) == 0;
                Some(FaultSchedule {
                    events: vec![FaultEvent {
                        cycle: 1 + d.below(20),
                        target: FaultTarget::Link(edge),
                        kind: FaultKind::Down,
                        duration: transient.then(|| 1 + d.below(12)),
                    }],
                    detection: DetectionConfig {
                        timeout: 2 + d.below(6),
                        max_retries: 1 + d.below(2) as u32,
                        abort_on_detection: !transient,
                    },
                })
            }
        };
        RunSpec { sizes, offsets, bindings, kind, trace, faults, cfg }
    }

    fn workload(&self, plan: &AllreducePlan) -> Workload {
        let end = self.sizes.iter().zip(&self.offsets).map(|(l, o)| l + o).max().unwrap_or(0);
        Workload::new(plan.graph.num_vertices(), end.max(1))
    }
}

/// What a run produced, with the trace as its serialized bytes.
type Outcome = (SimReport, Option<String>, FaultReport, Vec<JobOutcome>);

fn execute(sim: Simulator<'_>, spec: &RunSpec, plan: &AllreducePlan) -> Outcome {
    let mut sim = sim;
    if spec.trace {
        sim = sim.with_trace(TraceConfig::with_timeline(7));
    }
    if let Some(schedule) = &spec.faults {
        sim = sim.with_faults(&plan.graph, schedule.clone());
    }
    let w = spec.workload(plan);
    match &spec.bindings {
        Some(bs) => {
            let run = sim.run_jobs_collective(&w, bs, spec.kind);
            (run.report, run.trace.map(|t| t.to_json()), run.faults, run.jobs)
        }
        None => {
            let run = sim.run_collective_faulted(&w, spec.kind);
            (run.report, run.trace.map(|t| t.to_json()), run.faults, Vec::new())
        }
    }
}

/// The one-shot path: embed with the run's layout, compile, fresh arena.
fn fresh(plan: &AllreducePlan, spec: &RunSpec) -> Outcome {
    let emb =
        MultiTreeEmbedding::with_offsets(&plan.graph, &plan.trees, &spec.sizes, &spec.offsets);
    execute(Simulator::new(&plan.graph, &emb, spec.cfg), spec, plan)
}

/// The kept path: a program compiled once, run in a caller's arena.
fn reused(
    plan: &AllreducePlan,
    prog: &WaveProgram,
    arena: &mut EngineArena,
    spec: &RunSpec,
) -> Outcome {
    let sim = Simulator::compiled(&plan.graph, prog, arena, &spec.sizes, &spec.offsets, spec.cfg);
    execute(sim, spec, plan)
}

fn compile(plan: &AllreducePlan) -> WaveProgram {
    let zeros = vec![0; plan.trees.len()];
    WaveProgram::compile(&MultiTreeEmbedding::with_offsets(
        &plan.graph,
        &plan.trees,
        &zeros,
        &zeros,
    ))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// A sequence of runs of one program through one arena matches the
    /// same runs made one-shot, run for run.
    #[test]
    fn reused_arena_matches_fresh_runs(
        which in 0usize..3,
        seeds in prop::collection::vec(any::<u64>(), 2..7),
    ) {
        let plan = &plans()[which];
        let prog = compile(plan);
        let mut arena = EngineArena::default();
        for (i, &seed) in seeds.iter().enumerate() {
            let spec = RunSpec::draw(plan, seed);
            let want = fresh(plan, &spec);
            let got = reused(plan, &prog, &mut arena, &spec);
            prop_assert_eq!(&got, &want, "run {} of the sequence diverged: {:?}", i, spec);
        }
    }

    /// One arena serves programs of different sizes in any order: it
    /// regrows and shrinks its buffers and still matches one-shot runs.
    #[test]
    fn one_arena_serves_interleaved_programs(
        picks in prop::collection::vec((0usize..3, any::<u64>()), 2..7),
    ) {
        let plans = plans();
        let progs: Vec<WaveProgram> = plans.iter().map(compile).collect();
        let mut arena = EngineArena::default();
        for &(which, seed) in &picks {
            let plan = &plans[which];
            let spec = RunSpec::draw(plan, seed);
            prop_assert_eq!(
                reused(plan, &progs[which], &mut arena, &spec),
                fresh(plan, &spec),
                "plan {} seed {:#x}", which, seed
            );
        }
    }
}

/// Runs that stop early leave rings, counters and active bits mid-flight;
/// the next run in the same arena must not see any of it.
#[test]
fn incomplete_runs_leave_nothing_behind() {
    let plan = AllreducePlan::low_depth(3).unwrap();
    let prog = compile(&plan);
    let sizes: Vec<u64> = plan.split(300);
    let mut offsets = Vec::new();
    let mut off = 0;
    for &len in &sizes {
        offsets.push(off);
        off += len;
    }
    let base = RunSpec {
        sizes,
        offsets,
        bindings: None,
        kind: Collective::Allreduce,
        trace: false,
        faults: None,
        cfg: SimConfig::default(),
    };
    let capped = RunSpec { cfg: SimConfig { max_cycles: 40, ..SimConfig::default() }, ..base.clone() };
    let edge = plan.trees[0].edge_ids(&plan.graph)[0];
    let aborted =
        RunSpec { faults: Some(FaultSchedule::permanent_links(&[edge], 10)), ..base.clone() };

    // Budgets are stamped with the cycle they were refilled at. A capped
    // run cut short at cycle 30 leaves stamps of cycle 30 behind; a run
    // whose every tree is released at cycle 30 first touches the budgets
    // then, and must find them refilled.
    let caps = SimConfig { max_reductions_per_router: Some(1), ..SimConfig::default() };
    let budget_cut = RunSpec { cfg: SimConfig { max_cycles: 30, ..caps }, ..base.clone() };
    let late = RunSpec {
        bindings: Some(vec![JobBinding { trees: 0..base.sizes.len(), release: 30 }]),
        cfg: caps,
        ..base.clone()
    };

    let mut arena = EngineArena::default();
    for spec in [&capped, &base, &aborted, &base, &capped, &capped, &base, &budget_cut, &late] {
        let got = reused(&plan, &prog, &mut arena, spec);
        assert_eq!(got, fresh(&plan, spec));
    }
    let (capped_report, ..) = fresh(&plan, &capped);
    assert!(!capped_report.completed, "the cap must cut the run short");
    let (aborted_report, _, aborted_faults, _) = fresh(&plan, &aborted);
    assert!(!aborted_report.completed && aborted_faults.aborted, "detection must abort the run");
}
