//! `octobench selfcheck`: is the yardstick steady enough to use here?
//!
//! Runs every workload as two alternating sets (A, B, A, B, ...) of this
//! same binary, ten runs a set, each run on its own seed, and judges
//! them the way the benchmark driver judges two sets: each set's spread
//! (distance between its quartiles over its median) against the bound,
//! and the two medians against each other. Same code on both sides, so
//! any difference is noise; the check fails when the medians differ by
//! more than **half** the bound. The fix for a miss is a larger count
//! for that phase in `workloads.rs`, never a wider bound.

use std::path::Path;
use std::process::Command;

use crate::contract::published;
use crate::stats;
use crate::workloads::WORKLOADS;

/// Runs per set: what the benchmark driver uses.
const RUNS_PER_SET: usize = 10;

/// One end-to-end run, invoked exactly as the benchmark driver does.
fn one_run(workload: &str, seed: u64, data_root: &Path) -> Result<serde_json::Value, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let out = Command::new(exe)
        .args(["--workload", workload, "--seed", &seed.to_string()])
        .args(["--trace", "0", "--data-root"])
        .arg(data_root)
        .output()
        .map_err(|e| format!("spawn: {e}"))?;
    if !out.status.success() {
        return Err(format!(
            "{workload} seed {seed}: {} {}",
            out.status,
            String::from_utf8_lossy(&out.stderr)
        ));
    }
    let stdout = String::from_utf8_lossy(&out.stdout);
    let last = stdout.lines().last().ok_or("no output")?;
    serde_json::from_str(last).map_err(|e| format!("{workload} seed {seed}: bad result line: {e}"))
}

/// Returns whether every pair of set medians stayed within half its bound.
pub fn selfcheck(only: Option<&str>, seed: u64, data_root: &Path) -> Result<bool, String> {
    let mut steady = true;
    println!("workload metric A_median A_spread B_median B_spread |A-B|/A bound verdict");
    for w in WORKLOADS
        .iter()
        .filter(|w| only.is_none_or(|o| o == w.name))
    {
        let mut sets: [Vec<serde_json::Value>; 2] = [Vec::new(), Vec::new()];
        for i in 0..2 * RUNS_PER_SET {
            sets[i % 2].push(one_run(w.name, seed + i as u64, data_root)?);
        }
        for m in &published().end_to_end {
            let side = |runs: &[serde_json::Value]| -> Result<(f64, f64), String> {
                let values: Vec<f64> = runs
                    .iter()
                    .map(|r| r["metrics"][m.name.as_str()]["value"].as_f64())
                    .collect::<Option<_>>()
                    .ok_or_else(|| format!("{}: a run lacks {}", w.name, m.name))?;
                let median = stats::median(&values);
                let (q1, q3) = stats::quartiles(&values);
                Ok((median, (q3 - q1) / median))
            };
            let ((a, a_spread), (b, b_spread)) = (side(&sets[0])?, side(&sets[1])?);
            let gap = (a - b).abs() / a;
            let ok = gap <= m.bound / 2.0;
            steady &= ok;
            println!(
                "{} {} {a} {a_spread:.4} {b} {b_spread:.4} {gap:.4} {} {}",
                w.name,
                m.name,
                m.bound,
                if ok { "ok" } else { "UNSTEADY" }
            );
        }
    }
    Ok(steady)
}
