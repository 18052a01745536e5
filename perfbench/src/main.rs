//! The hoplite benchmark: one workload per invocation.
//!
//! ```text
//! perfbench --workload <local|wire-frozen|wire-dynamic> --seed <n>
//!           --seconds <s> --trace <0|1> --tmp <dir> [--spans <file>]
//! ```
//!
//! Inputs come from `--seed` only. Progress and a full metric table go
//! to stderr; stdout carries one JSON object with `correct`,
//! `attempted`, `failed` and every metric the run measured (`run.py`
//! selects the set `BENCHMARK.json` names). A wrong answer prints
//! `"correct": false` and exits 1. See README.md for the workloads and
//! metric definitions.

mod common;
mod layers;
mod local;
mod stats;
mod trace;
mod wire;

use std::path::PathBuf;
use std::process::ExitCode;

/// One invocation's settings.
pub struct Cfg {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Scratch directory for arenas and WAL dirs (removed at exit).
    pub tmp: PathBuf,
    /// Client threads / batch fan-out: the host's core count.
    pub threads: usize,
}

/// What one workload measured and checked. A traced run (`--trace 1`)
/// must measure every per-layer metric of `BENCHMARK.json`, an
/// untraced one every end-to-end metric, on every workload.
#[derive(Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// Correctness violations (the first few are kept verbatim).
    pub wrong: Vec<String>,
    pub wrong_count: u64,
    /// Every metric measured: `(name, unit, value)`.
    pub metrics: Vec<(String, String, f64)>,
}

impl Outcome {
    pub fn put(&mut self, name: &str, unit: &str, value: f64) {
        self.metrics.retain(|(n, _, _)| n != name);
        self.metrics.push((name.to_owned(), unit.to_owned(), value));
    }

    /// Records a correctness violation unless `ok`.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.wrong_count += 1;
            if self.wrong.len() < 8 {
                self.wrong.push(what());
            }
        }
    }

    /// Counts `attempted` operations of which `failed` failed.
    pub fn ops(&mut self, attempted: u64, failed: u64) {
        self.attempted += attempted;
        self.failed += failed;
    }
}

fn usage() -> String {
    "usage: perfbench --workload <local|wire-frozen|wire-dynamic> --seed <n> \
     --seconds <s> --trace <0|1> --tmp <dir> [--spans <file>]"
        .to_owned()
}

fn parse_args() -> Result<(String, Cfg, Option<PathBuf>), String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace, mut tmp, mut spans) =
        (None, None, None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args
            .next()
            .ok_or_else(|| format!("{flag} needs a value\n{}", usage()))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value:?}: {e}");
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| bad(&e))?),
            "--seconds" => seconds = Some(value.parse::<f64>().map_err(|e| bad(&e))?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"expected 0 or 1")),
                })
            }
            "--tmp" => tmp = Some(PathBuf::from(value)),
            "--spans" => spans = Some(PathBuf::from(value)),
            _ => return Err(format!("unknown flag {flag}\n{}", usage())),
        }
    }
    let missing = |what: &str| format!("missing {what}\n{}", usage());
    let seconds = seconds.ok_or_else(|| missing("--seconds"))?;
    if !(seconds.is_finite() && seconds > 0.0 && seconds <= 600.0) {
        return Err(format!("--seconds {seconds} out of range (0, 600]"));
    }
    let cfg = Cfg {
        seed: seed.ok_or_else(|| missing("--seed"))?,
        seconds,
        trace: trace.ok_or_else(|| missing("--trace"))?,
        tmp: tmp.ok_or_else(|| missing("--tmp"))?,
        threads: std::thread::available_parallelism().map_or(1, |n| n.get()),
    };
    Ok((workload.ok_or_else(|| missing("--workload"))?, cfg, spans))
}

fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_owned()
    }
}

fn metrics_json(items: &[(String, String, f64)]) -> String {
    let body: Vec<String> = items
        .iter()
        .map(|(n, u, v)| {
            format!(
                "\"{n}\": {{\"value\": {}, \"unit\": \"{u}\"}}",
                json_num(*v)
            )
        })
        .collect();
    format!("{{{}}}", body.join(", "))
}

fn main() -> ExitCode {
    let (workload, cfg, spans_path) = match parse_args() {
        Ok(parsed) => parsed,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    if let Err(e) = std::fs::create_dir_all(&cfg.tmp) {
        eprintln!("perfbench: cannot create {}: {e}", cfg.tmp.display());
        return ExitCode::from(2);
    }
    let tracer = trace::Tracer::new(cfg.trace);
    eprintln!(
        "# perfbench: workload {workload}, seed {}, {} s, trace {}, {} thread(s)",
        cfg.seed, cfg.seconds, cfg.trace as u8, cfg.threads
    );
    let mut out = match workload.as_str() {
        "local" => local::run(&cfg, &tracer),
        "wire-frozen" => wire::run_frozen(&cfg, &tracer),
        "wire-dynamic" => wire::run_dynamic(&cfg, &tracer),
        other => {
            eprintln!("perfbench: unknown workload {other:?}\n{}", usage());
            return ExitCode::from(2);
        }
    };
    let _ = std::fs::remove_dir_all(&cfg.tmp);
    if cfg.trace {
        out.put("trace.spans_kept", "count", tracer.spans().len() as f64);
        out.put("trace.spans_dropped", "count", tracer.dropped() as f64);
        if let Some(path) = &spans_path {
            if let Err(e) = tracer.write_jsonl(path) {
                eprintln!("perfbench: writing spans to {}: {e}", path.display());
            }
        }
    }
    if out.attempted > 0 {
        let ratio = out.failed as f64 / out.attempted as f64;
        out.put("fail_ratio", "ratio", ratio);
    }

    eprintln!("# {:<38} {:>16}  unit", "metric", "value");
    for (name, unit, value) in &out.metrics {
        eprintln!("  {name:<38} {value:>16.4}  {unit}");
    }
    eprintln!(
        "# attempted {}, failed {}, wrong answers {}",
        out.attempted, out.failed, out.wrong_count
    );
    for w in &out.wrong {
        eprintln!("# WRONG: {w}");
    }

    let correct = out.wrong_count == 0 && out.attempted > 0;
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        out.attempted,
        out.failed,
        metrics_json(&out.metrics)
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
