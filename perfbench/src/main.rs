//! `perfbench`: wall-clock benchmark of the plan → audit → serve path.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload fabric-stream --seed 1 --seconds 50 --trace 0
//! ```
//!
//! One process runs one workload, single-threaded, for about `--seconds`
//! seconds. With `--trace 0` it prints every end-to-end metric; with
//! `--trace 1` it records spans around each layer call and prints every
//! per-layer metric (spans go to `perfbench/out/`). Both check that the
//! outputs are correct, and both compare the run's deterministic outputs
//! with the committed record for its seed, when there is one. The last
//! line of standard output is the result as one JSON object; the exit code
//! is 1 when any check failed. See `perfbench/BENCHMARK.md`.

mod alloc;
mod fabric;
mod gate;
mod layers;
mod metrics;
mod plan_scale;
mod plans;
mod replay;
mod service;
mod spans;
mod speed;
mod stream;

use metrics::{Outcome, END_TO_END, HOST_TIMINGS, PER_LAYER};
use std::process::ExitCode;
use std::time::Instant;

#[global_allocator]
static ALLOC: alloc::Counting = alloc::Counting;

const WORKLOADS: [&str; 3] = ["fabric-stream", "fabric-burst", "plan-scale"];

const USAGE: &str = "usage: perfbench --workload <fabric-stream|fabric-burst|plan-scale> \
                     [--seed <n>] [--seconds <1..=600>] [--trace <0|1>]";

struct Args {
    workload: &'static str,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: "",
        seed: gate::DEFAULT_SEED,
        seconds: 50,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("bad {flag} {value:?}: {what}");
        match flag.as_str() {
            "--workload" => {
                args.workload = WORKLOADS
                    .iter()
                    .find(|w| **w == value)
                    .ok_or_else(|| bad("unknown workload"))?;
            }
            "--seed" => args.seed = value.parse().map_err(|_| bad("not a u64"))?,
            "--seconds" => {
                args.seconds = value
                    .parse()
                    .ok()
                    .filter(|s| (1..=600).contains(s))
                    .ok_or_else(|| bad("not in 1..=600"))?;
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("not 0 or 1")),
                };
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if args.workload.is_empty() {
        return Err("--workload is required".to_string());
    }
    Ok(args)
}

/// Host context printed beside the numbers.
fn host_line(args: &Args) -> String {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    format!(
        "{{\"workload\": \"{}\", \"seed\": {}, \"seconds\": {}, \"trace\": {}, \"nproc\": {nproc}, \
         \"rustc\": \"{}\", \"profile\": \"{}\", \"sim_threads\": 1}}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        env!("PERFBENCH_RUSTC"),
        env!("PERFBENCH_PROFILE"),
    )
}

/// Applies the exactness gate to `out`.
fn gate(args: &Args, out: &mut Outcome) {
    println!("record: {}", out.record);
    match gate::golden(args.workload, args.seed) {
        Some(want) if want == out.record => println!("gate: matches the committed record for seed {}", args.seed),
        Some(want) => out.errors.push(format!(
            "exactness gate, seed {}: {}",
            args.seed,
            gate::first_difference(want, &out.record)
        )),
        None => println!(
            "gate: no committed record for seed {} (seeds {} and {} have one); invariants and repeatability checked",
            args.seed,
            gate::DEFAULT_SEED,
            gate::HELD_OUT_SEED
        ),
    }
}

fn run(args: &Args) -> Result<Outcome, String> {
    let seconds = args.seconds;
    let fabric = [fabric::STREAM, fabric::BURST]
        .into_iter()
        .find(|w| w.name == args.workload);
    if !args.trace {
        // Allocated first and live to the end, so the peak holds it once.
        let mut probe = speed::SpeedProbe::new();
        let mut out = match &fabric {
            Some(w) => fabric::run(w, args.seed, seconds, &mut probe),
            None => plan_scale::run(args.seed, seconds, &mut probe),
        };
        let heap = alloc::peak_bytes() - probe.heap_bytes();
        out.values
            .set("peak_heap_mb", heap as f64 / (1u64 << 20) as f64);
        let slowdown = probe.slowdown();
        println!(
            "host speed: probe median {:.4} s over {} samples, {slowdown:.3} x the reference {} s",
            slowdown * speed::REFERENCE_S,
            probe.samples(),
            speed::REFERENCE_S
        );
        for (name, power) in HOST_TIMINGS {
            let raw = out.values.get(name).unwrap_or(f64::NAN);
            out.values.scale(name, slowdown.powi(-power));
            println!("  as measured: {name:<24} {raw:>16.6}");
        }
        return Ok(out);
    }
    let mut rec = spans::Recorder::new();
    let out = match &fabric {
        Some(w) => fabric::run_traced(w, args.seed, seconds, &mut rec),
        None => plan_scale::run_traced(args.seed, &mut rec),
    };
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    let path = dir.join(format!("spans-{}-seed{}.json", args.workload, args.seed));
    let overhead = out.values.get("trace.overhead_ratio").unwrap_or(f64::NAN);
    let header = format!("\"host\":{},\"overhead_ratio\":{overhead}", host_line(args));
    std::fs::create_dir_all(&dir)
        .and_then(|()| std::fs::write(&path, rec.to_json(&header)))
        .map_err(|e| format!("writing {}: {e}", path.display()))?;
    println!("spans: {} written to {}", rec.len(), path.display());
    Ok(out)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    println!("host: {}", host_line(&args));
    let start = Instant::now();
    let mut out = match run(&args) {
        Ok(out) => out,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::FAILURE;
        }
    };
    gate(&args, &mut out);
    let table: &[(&str, &str)] = if args.trace { &PER_LAYER } else { &END_TO_END };
    for &(name, unit) in table {
        println!(
            "  {name:<32} {:>16.6} {unit}",
            out.values.get(name).unwrap_or(f64::NAN)
        );
    }
    let share = out.failed as f64 / out.attempted.max(1) as f64;
    println!(
        "  {:<32} {share:>16.6} (failed / attempted = {} / {})",
        "failed_share", out.failed, out.attempted
    );
    println!("wall: {:.3} s", start.elapsed().as_secs_f64());
    for e in &out.errors {
        println!("ERROR: {e}");
    }
    let correct = out.errors.is_empty();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        out.attempted.max(1),
        out.failed,
        out.values.to_json(table)
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
