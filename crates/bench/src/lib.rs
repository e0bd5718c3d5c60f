//! Experiment harness regenerating every table and figure of the paper.
//!
//! Each experiment is a pure function returning structured rows (so the
//! integration tests can assert on them) plus a printer producing the
//! table the paper reports. The `experiments` binary dispatches on a
//! subcommand per artifact — see DESIGN.md's per-experiment index.

pub mod capacity;
pub mod collectives;
pub mod csv;
pub mod fabric_sweep;
pub mod faults;
pub mod figures;
pub mod par;
pub mod perf_snapshot;
pub mod sched_sweep;
pub mod sims;
pub mod sweeps;
pub mod tables;
pub mod topo_compare;

/// Prints a header line followed by a rule of matching width.
pub fn print_header(title: &str) {
    println!("\n== {title} ==");
}

/// Reads the unsigned integer following the flag `name` in `args`:
/// `Ok(default)` when the flag is absent, and an error naming the flag
/// when its value is missing or does not parse (so `--m 4k` is refused
/// rather than silently run at the default).
pub fn opt_u64(args: &[String], name: &str, default: u64) -> Result<u64, String> {
    let Some(i) = args.iter().position(|a| a == name) else {
        return Ok(default);
    };
    let value = args.get(i + 1).ok_or_else(|| format!("{name} needs a value"))?;
    value.parse().map_err(|_| format!("bad {name} {value:?}: not an unsigned integer"))
}

#[cfg(test)]
mod tests {
    use super::opt_u64;

    fn args(v: &[&str]) -> Vec<String> {
        v.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn opt_u64_parses_defaults_and_refuses_bad_values() {
        let a = args(&["perf-snapshot", "--m", "4000", "--scaling"]);
        assert_eq!(opt_u64(&a, "--m", 7), Ok(4000));
        assert_eq!(opt_u64(&a, "--max-q", 128), Ok(128), "absent flag keeps the default");
        let missing = opt_u64(&args(&["sim-trace", "--m"]), "--m", 7).unwrap_err();
        assert!(missing.contains("--m"), "{missing}");
        let garbage = opt_u64(&args(&["sim-trace", "--m", "4k"]), "--m", 7).unwrap_err();
        assert!(garbage.contains("--m") && garbage.contains("4k"), "{garbage}");
    }
}
