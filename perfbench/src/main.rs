//! `perfbench` — one measured training pass of one workload, run in a
//! fresh process so the process-global buffer pool and graph cache start
//! cold.
//!
//! ```text
//! perfbench --workload train-small-w16 --seed 1 --seconds 10 --workdir DIR [--traced] [--steps N]
//! ```
//!
//! A pass prints one JSON object on its last stdout line: operation
//! counts, correctness violations, and the metrics it measured.
//! `run.py` builds the binary, runs the passes a workload needs and
//! merges them into the benchmark's result line.

mod train;

use std::collections::BTreeMap;
use std::path::PathBuf;

use serde::Serialize;

/// Parsed pass arguments.
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub workdir: PathBuf,
    pub traced: bool,
    /// Training steps to run; without it the pass calibrates a step
    /// count that fills `seconds`.
    pub steps: Option<u64>,
}

impl Args {
    fn parse(raw: &[String]) -> Result<Args, String> {
        let mut a = Args {
            workload: String::new(),
            seed: 0,
            seconds: 10.0,
            workdir: PathBuf::from(".bench_run"),
            traced: false,
            steps: None,
        };
        let mut it = raw.iter();
        while let Some(flag) = it.next() {
            let mut value = || {
                it.next()
                    .cloned()
                    .ok_or_else(|| format!("{flag} needs a value"))
            };
            match flag.as_str() {
                "--workload" => a.workload = value()?,
                "--seed" => a.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
                "--seconds" => {
                    a.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?
                }
                "--workdir" => a.workdir = PathBuf::from(value()?),
                "--steps" => a.steps = Some(value()?.parse().map_err(|e| format!("--steps: {e}"))?),
                "--traced" => a.traced = true,
                other => return Err(format!("unknown flag {other}")),
            }
        }
        if a.seconds <= 0.0 {
            return Err("--seconds must be positive".into());
        }
        Ok(a)
    }
}

/// What one pass reports.
#[derive(Serialize, Default)]
pub struct PassResult {
    /// Operations attempted: training steps.
    pub attempted: u64,
    /// Operations that failed a check.
    pub failed: u64,
    /// The first few violations, for the log.
    pub errors: Vec<String>,
    /// Per-step loss digest (training), hex.
    pub digest: String,
    /// Training steps run.
    pub steps: u64,
    /// Metrics by name, in the units `run.py` documents.
    pub metrics: BTreeMap<String, f64>,
    /// Sample counts behind the timings.
    pub counts: BTreeMap<String, f64>,
    /// Widest SIMD tier of this CPU.
    pub isa: String,
    /// Threads in the toolkit's parallel pool.
    pub rayon_threads: usize,
}

impl PassResult {
    /// Record a failed operation, keeping its message if few are kept.
    pub fn fail(&mut self, msg: String) {
        self.failed += 1;
        if self.errors.len() < 8 {
            self.errors.push(msg);
        }
    }

    pub fn set(&mut self, name: &str, value: f64) {
        self.metrics.insert(name.to_string(), value);
    }
}

fn main() {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let result = Args::parse(&raw).and_then(|args| {
        std::fs::create_dir_all(&args.workdir).map_err(|e| format!("workdir: {e}"))?;
        train::run(&args)
    });
    match result {
        Ok(mut r) => {
            r.isa = perfbench::isa_tier().to_string();
            r.rayon_threads = rayon::current_num_threads();
            println!(
                "{}",
                serde_json::to_string(&r).expect("pass result serializes")
            );
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    }
}
