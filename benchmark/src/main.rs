//! The repo benchmark: host cost and paper fidelity of the iSwitch
//! simulator, end to end on five workloads and layer by layer.
//!
//! ```text
//! benchmark run [--workload NAME] [--seed N] [--seconds S] [--trace 0|1]
//!               [--smoke] [--out FILE]
//! benchmark compare A.json B.json
//! ```
//!
//! `run --workload NAME --trace T` is the driver contract of
//! `BENCHMARK.json`: one workload, end-to-end metrics (`--trace 0`) or the
//! traced per-layer pass (`--trace 1`), one JSON object on the last line of
//! standard output. `run` without `--workload` measures every workload both
//! ways, sampling them round-robin, prints the tables and writes the result
//! document `compare` reads. See `README.md` beside this package.

mod e2e;
mod layers;
mod measure;
mod report;
mod workloads;

use std::path::Path;
use std::process::ExitCode;

use e2e::{Budget, EndToEnd};
use layers::Layers;
use report::{contract_line, RunResult, WorkloadResult};
use workloads::{Size, Workload, WORKLOADS};

#[global_allocator]
static ALLOC: measure::CountingAlloc = measure::CountingAlloc;

/// The repo-wide experiment seed (`TimingConfig::main_cluster`'s default).
const DEFAULT_SEED: u64 = 0x5117c4;
const DEFAULT_SECONDS: f64 = 12.0;
/// Where the traced run leaves one Chrome trace per workload, relative to
/// the directory the benchmark is run from (the repo root).
const TRACE_DIR: &str = "benchmark/out";

struct RunArgs {
    workload: Option<Workload>,
    seed: u64,
    seconds: f64,
    trace: Option<bool>,
    smoke: bool,
    out: Option<String>,
}

fn parse_seed(s: &str) -> Option<u64> {
    match s.strip_prefix("0x") {
        Some(hex) => u64::from_str_radix(hex, 16).ok(),
        None => s.parse().ok(),
    }
}

fn parse_run(args: &[String]) -> Result<RunArgs, String> {
    let mut parsed = RunArgs {
        workload: None,
        seed: DEFAULT_SEED,
        seconds: DEFAULT_SECONDS,
        trace: None,
        smoke: false,
        out: None,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        if flag == "--smoke" {
            parsed.smoke = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value `{value}` for {flag}");
        match flag.as_str() {
            "--workload" => {
                let names: Vec<_> = WORKLOADS.iter().map(|w| w.name).collect();
                parsed.workload = Some(
                    Workload::by_name(value)
                        .ok_or_else(|| format!("unknown workload `{value}` (one of {names:?})"))?,
                );
            }
            "--seed" => parsed.seed = parse_seed(value).ok_or_else(bad)?,
            "--seconds" => {
                parsed.seconds = value.parse().ok().filter(|s| *s > 0.0).ok_or_else(bad)?
            }
            "--trace" => {
                parsed.trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                })
            }
            "--out" => parsed.out = Some(value.clone()),
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    Ok(parsed)
}

fn print_end_to_end(e: &EndToEnd) {
    println!(
        "{}: {} events/sample, {} samples, cpu s/sample min {:.4} q1 {:.4} median {:.4} q3 {:.4}, \
         wall_s_per_sim_s {:.3} (unbounded), ops_attempted {} ops_failed {}",
        e.workload.name,
        e.events,
        e.cpu.n,
        e.cpu.min,
        e.cpu.q1,
        e.cpu.median,
        e.cpu.q3,
        e.wall_s_per_sim_s,
        e.attempted,
        e.faults.len()
    );
    for m in &e.metrics {
        println!(
            "  {:<26} {:>16.6} {:<9} spread {:.3} n {}",
            m.name, m.value, m.unit, m.spread, m.n
        );
    }
    for fault in &e.faults {
        println!("  FAILED: {fault}");
    }
}

/// Prints the per-layer table and the span tree, and writes the Chrome
/// trace of the run.
fn print_layers(workload: &Workload, l: &Layers) -> std::io::Result<()> {
    println!(
        "{} (traced): ops_attempted {} ops_failed {}",
        workload.name,
        l.attempted,
        l.faults.len()
    );
    for m in &l.metrics {
        println!("  {:<56} {:>18.4} {}", m.name, m.value, m.unit);
    }
    println!("  spans (ms total / self):");
    for (id, s) in l.tracer.spans.iter().enumerate() {
        let indent = if s.parent.is_some() { "    " } else { "  " };
        println!(
            "  {indent}{:<40} {:>10.1} {:>10.1}",
            s.name,
            (s.end_us - s.start_us) / 1e3,
            l.tracer.self_us(id) / 1e3
        );
    }
    for fault in &l.faults {
        println!("  FAILED: {fault}");
    }
    std::fs::create_dir_all(TRACE_DIR)?;
    let path = Path::new(TRACE_DIR).join(format!("{}.trace.json", workload.name));
    std::fs::write(&path, l.tracer.chrome_trace(workload.name))?;
    println!("  trace: {}", path.display());
    Ok(())
}

fn run(args: RunArgs) -> Result<ExitCode, String> {
    let io = |e: std::io::Error| e.to_string();
    if let Some(workload) = args.workload {
        // Driver contract: one workload, one mode, result on the last line.
        let line = if args.trace == Some(true) {
            let l = layers::trace(workload, args.seed, args.seconds);
            print_layers(&workload, &l).map_err(io)?;
            contract_line(l.attempted, l.faults.len() as u64, &l.metrics)
        } else {
            let budget = Budget::Seconds(args.seconds);
            let e = e2e::measure(&[workload], args.seed, budget, Size::Full).remove(0);
            print_end_to_end(&e);
            contract_line(e.attempted, e.faults.len() as u64, &e.metrics)
        };
        println!("{line}");
        return Ok(ExitCode::SUCCESS);
    }

    // Every workload, both ways. `--smoke` is a quick local check that all
    // of it still runs and passes its checks: short runs, three samples, no
    // traced pass; its numbers do not compare with a full run's.
    let (budget, size) = if args.smoke {
        (Budget::Samples(3), Size::Short)
    } else {
        (Budget::Seconds(args.seconds), Size::Full)
    };
    let mut result = RunResult {
        seed: args.seed,
        seconds: args.seconds,
        workloads: Vec::new(),
    };
    let mut failed = 0;
    for e in e2e::measure(&WORKLOADS, args.seed, budget, size) {
        print_end_to_end(&e);
        failed += e.faults.len();
        result.workloads.push(WorkloadResult {
            name: e.workload.name.to_owned(),
            ops_attempted: e.attempted,
            ops_failed: e.faults.len() as u64,
            end_to_end: e.metrics,
            per_layer: Vec::new(),
        });
    }
    if !args.smoke && args.trace != Some(false) {
        for (workload, entry) in WORKLOADS.iter().zip(&mut result.workloads) {
            let l = layers::trace(*workload, args.seed, args.seconds);
            print_layers(workload, &l).map_err(io)?;
            failed += l.faults.len();
            entry.ops_attempted += l.attempted;
            entry.ops_failed += l.faults.len() as u64;
            entry.per_layer = l.metrics;
        }
    }
    if let Some(out) = &args.out {
        std::fs::write(out, result.to_json()).map_err(io)?;
        println!("result: {out}");
    }
    Ok(if failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn compare(paths: &[String]) -> Result<ExitCode, String> {
    let [a, b] = paths else {
        return Err("compare takes two result files".into());
    };
    let load = |path: &String| {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
        RunResult::from_json(&text).map_err(|e| format!("{path}: {e}"))
    };
    let regressed = report::compare(&load(a)?, &load(b)?);
    println!("{regressed} regressed");
    Ok(if regressed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match args.split_first() {
        Some((cmd, rest)) if cmd == "run" => parse_run(rest).and_then(run),
        Some((cmd, rest)) if cmd == "compare" => compare(rest),
        _ => Err(
            "usage: benchmark run [--workload NAME] [--seed N] [--seconds S] \
                  [--trace 0|1] [--smoke] [--out FILE] | benchmark compare A.json B.json"
                .into(),
        ),
    };
    outcome.unwrap_or_else(|msg| {
        eprintln!("benchmark: {msg}");
        ExitCode::from(2)
    })
}
