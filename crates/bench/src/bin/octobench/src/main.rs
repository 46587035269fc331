//! `octobench`: the repeatable end-to-end + per-layer benchmark of the
//! live SDK -> wire -> broker -> store -> trigger path. See README.md.
//!
//! ```text
//! octobench --workload W [--seed N] [--seconds S] [--trace 0|1] [--json] [--data-root DIR]
//! octobench selfcheck [--workload W] [--data-root DIR]
//! ```
//!
//! The first form is what `BENCHMARK.json`'s command runs: `--trace 0`
//! (the default) is the end-to-end run, `--trace 1` the traced run. Both
//! end their standard output with one JSON line
//! `{"correct":..,"attempted":..,"failed":..,"metrics":{..}}` and exit
//! non-zero when an operation failed or an output was wrong.

mod contract;
mod gen;
mod procfs;
mod run;
mod selfcheck;
mod server;
mod stats;
mod trace;
mod workloads;

use std::path::PathBuf;

/// Seed used when `--seed` is not given.
pub const DEFAULT_SEED: u64 = 1;

/// Parsed command line. Unknown flags are errors, so a typo cannot
/// silently run the default.
struct Args {
    selfcheck: bool,
    workload: Option<String>,
    seed: u64,
    trace: bool,
    json: bool,
    data_root: Option<PathBuf>,
    corrupt_oracle: bool,
}

fn parse(argv: &[String]) -> Result<Args, String> {
    let mut a = Args {
        selfcheck: false,
        workload: None,
        seed: DEFAULT_SEED,
        trace: false,
        json: false,
        data_root: None,
        corrupt_oracle: false,
    };
    let mut it = argv.iter();
    while let Some(arg) = it.next() {
        let mut value = |name: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{name} needs a value"))
        };
        let number = |name: &str, v: String| {
            v.parse::<u64>()
                .map_err(|_| format!("{name}: `{v}` is not a number"))
        };
        match arg.as_str() {
            "selfcheck" => a.selfcheck = true,
            "--workload" => a.workload = Some(value("--workload")?),
            "--seed" => a.seed = number("--seed", value("--seed")?)?,
            // Every phase has a fixed count (workloads.rs) sized to take
            // `run_seconds` on the seed commit, so a run measures the
            // same work on every commit; the driver's value is checked
            // to be a number and otherwise unused.
            "--seconds" => {
                number("--seconds", value("--seconds")?)?;
            }
            "--trace" => a.trace = number("--trace", value("--trace")?)? != 0,
            "--data-root" => a.data_root = Some(value("--data-root")?.into()),
            "--json" => a.json = true,
            "--corrupt-oracle" => a.corrupt_oracle = true,
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(a)
}

/// Where run directories, and the Chrome traces, go: inside the build
/// directory, which `.gitignore` already covers.
fn default_data_root() -> PathBuf {
    let target = std::env::var_os("CARGO_TARGET_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|| "target".into());
    target.join("octobench")
}

/// Machine fingerprint printed with every result: numbers from another
/// machine, or a loaded one, are not comparable.
fn fingerprint(data_root: &std::path::Path) -> serde_json::Value {
    serde_json::json!({
        "nproc": std::thread::available_parallelism().map(|n| n.get()).unwrap_or(0),
        "loadavg_1m_at_start": procfs::loadavg_1m(),
        "data_root": data_root.display().to_string(),
        "data_root_fs": procfs::fs_type(data_root),
    })
}

/// One reported number.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
    /// Samples behind a median or percentile.
    pub samples: usize,
}

/// A directory of this process inside the data root, removed on every
/// exit path, panics included.
pub struct ScratchDir(PathBuf);

impl ScratchDir {
    /// Create `<root>/<prefix>-<pid>`.
    pub fn create(root: &std::path::Path, prefix: &str) -> Result<Self, String> {
        let dir = root.join(format!("{prefix}-{}", std::process::id()));
        std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        Ok(ScratchDir(dir))
    }

    pub fn path(&self) -> &std::path::Path {
        &self.0
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// The result of one `run` or `trace`, ready to print.
pub struct Outcome {
    pub workload: &'static str,
    pub metrics: Vec<Metric>,
    pub diagnostics: Vec<Metric>,
    pub attempted: u64,
    pub failed: u64,
    pub failures: Vec<String>,
    pub notes: Vec<String>,
}

impl Outcome {
    pub fn new(workload: &'static str) -> Self {
        Outcome {
            workload,
            metrics: Vec::new(),
            diagnostics: Vec::new(),
            attempted: 0,
            failed: 0,
            failures: Vec::new(),
            notes: Vec::new(),
        }
    }

    /// Count `n` failed operations of one kind.
    pub fn fail(&mut self, n: u64, what: impl Into<String>) {
        if n > 0 {
            self.failed += n;
            if self.failures.len() < 20 {
                self.failures.push(format!("{n} x {}", what.into()));
            }
        }
    }

    pub fn correct(&self) -> bool {
        self.failed == 0
    }

    /// The line the benchmark driver reads.
    fn contract_json(&self) -> String {
        let metrics: serde_json::Map<String, serde_json::Value> = self
            .metrics
            .iter()
            .map(|m| {
                (
                    m.name.to_string(),
                    serde_json::json!({"value": m.value, "unit": m.unit}),
                )
            })
            .collect();
        serde_json::json!({
            "correct": self.correct(),
            "attempted": self.attempted.max(1),
            "failed": self.failed,
            "metrics": metrics,
        })
        .to_string()
    }

    fn print(&self, json: bool, fingerprint: &serde_json::Value) {
        if json {
            let rows = |ms: &[Metric]| -> Vec<serde_json::Value> {
                ms.iter()
                    .map(|m| serde_json::json!({"name": m.name, "value": m.value, "unit": m.unit, "samples": m.samples}))
                    .collect()
            };
            println!(
                "{}",
                serde_json::json!({
                    "workload": self.workload,
                    "machine": fingerprint,
                    "metrics": rows(&self.metrics),
                    "diagnostics": rows(&self.diagnostics),
                    "ops_attempted": self.attempted,
                    "ops_failed": self.failed,
                    "failures": self.failures,
                    "notes": self.notes,
                })
            );
        } else {
            println!("# machine {fingerprint}");
            for m in self.metrics.iter().chain(&self.diagnostics) {
                println!(
                    "{} {} {} {} n={}",
                    self.workload, m.name, m.value, m.unit, m.samples
                );
            }
            println!("{} ops_attempted {} count", self.workload, self.attempted);
            println!("{} ops_failed {} count", self.workload, self.failed);
            for f in &self.failures {
                println!("# FAILED {f}");
            }
            for n in &self.notes {
                println!("# {n}");
            }
        }
        println!("{}", self.contract_json());
    }
}

fn real_main() -> Result<bool, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some("serve") {
        // internal: octobench serve <workload> <seed> <data-dir> <addr-file>
        let [_, name, seed, dir, addr] = argv.as_slice() else {
            return Err("serve <workload> <seed> <data-dir> <addr-file>".into());
        };
        let w = workloads::by_name(name).ok_or_else(|| format!("unknown workload `{name}`"))?;
        let seed = seed.parse().map_err(|_| "bad seed".to_string())?;
        server::serve(w, seed, dir.as_ref(), addr.as_ref())?;
        return Ok(true);
    }
    let a = parse(&argv)?;
    let data_root = a.data_root.clone().unwrap_or_else(default_data_root);
    if a.selfcheck {
        return selfcheck::selfcheck(a.workload.as_deref(), a.seed, &data_root);
    }
    let name = a.workload.as_deref().ok_or("--workload is required")?;
    let w = workloads::by_name(name).ok_or_else(|| {
        let known = contract::published().workloads.join(", ");
        format!("unknown workload `{name}` (one of {known})")
    })?;
    std::fs::create_dir_all(&data_root).map_err(|e| format!("{}: {e}", data_root.display()))?;
    let machine = fingerprint(&data_root);
    let outcome = if a.trace {
        trace::trace(w, a.seed, &data_root)?
    } else {
        run::run(w, a.seed, &data_root, a.corrupt_oracle)?
    };
    // a result must carry exactly the metrics BENCHMARK.json names
    let mut emitted: Vec<(&str, &str)> = outcome.metrics.iter().map(|m| (m.name, m.unit)).collect();
    let mut expected = contract::expected(a.trace);
    emitted.sort_unstable();
    expected.sort_unstable();
    if emitted != expected {
        return Err(format!(
            "metrics emitted differ from BENCHMARK.json: {emitted:?}"
        ));
    }
    outcome.print(a.json, &machine);
    Ok(outcome.correct())
}

fn main() {
    match real_main() {
        Ok(true) => {}
        Ok(false) => std::process::exit(1),
        Err(e) => {
            eprintln!("octobench: {e}");
            std::process::exit(2);
        }
    }
}
