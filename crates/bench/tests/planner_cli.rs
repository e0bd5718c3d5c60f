//! The `planner` binary refuses bad flag values with exit 2 and a message
//! naming the flag, instead of panicking or silently truncating them.

use std::process::{Command, Output};

fn planner(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_planner")).args(args).output().expect("planner runs")
}

fn assert_refused(out: &Output, flag: &str) {
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "stderr: {stderr}");
    assert!(stderr.contains(flag), "stderr does not name {flag}: {stderr}");
    assert!(!stderr.contains("panicked"), "stderr: {stderr}");
}

#[test]
fn zero_hop_latency_is_refused_not_a_panic() {
    let out = planner(&["--q", "3", "--m", "100", "--hop-latency", "0", "--simulate"]);
    assert_refused(&out, "--hop-latency");
}

#[test]
fn hop_latency_beyond_u32_is_refused_not_truncated() {
    assert_refused(&planner(&["--q", "3", "--hop-latency", "99999999999"]), "--hop-latency");
}

#[test]
fn garbage_message_size_is_refused() {
    assert_refused(&planner(&["--q", "3", "--m", "4k"]), "--m");
}

#[test]
fn empty_vector_reports_a_zero_rate() {
    let out = planner(&["--q", "3", "--m", "0"]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(out.status.success(), "{stdout}");
    assert!(stdout.contains("(0.000 el/cy)") && !stdout.contains("NaN"), "{stdout}");
}

#[test]
fn low_depth_simulation_runs_clean() {
    let out = planner(&["--q", "7", "--solution", "low-depth", "--m", "2000", "--simulate"]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(out.status.success(), "{stdout}{}", String::from_utf8_lossy(&out.stderr));
    assert!(stdout.contains("wrong elements:     0"), "{stdout}");
}
