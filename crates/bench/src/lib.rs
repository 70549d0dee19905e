//! # iswitch-bench
//!
//! The evaluation harness: binaries regenerating every table and figure of
//! the iSwitch paper (run with `cargo run -p iswitch-bench --bin <name>`),
//! the paper's reported numbers for side-by-side comparison, and `perfgate`,
//! the 64-cell behaviour gate (BENCHMARKS.md). How fast the simulator runs
//! on a host is measured by the standalone `benchmark/` package, whose
//! recorded baseline is in `benchmark/README.md`.
//!
//! | Binary | Paper artifact |
//! |---|---|
//! | `table1` | Table 1 — RL algorithm study |
//! | `fig4` | Fig. 4 — PS/AR per-iteration breakdown |
//! | `fig8` | Fig. 8 — conventional vs on-the-fly aggregation |
//! | `table3` | Table 3 — headline speedups |
//! | `table4` | Table 4 — synchronous comparison |
//! | `table5` | Table 5 — asynchronous comparison |
//! | `fig12` | Fig. 12 — sync breakdown incl. iSW |
//! | `fig13` | Fig. 13 — DQN sync training curves |
//! | `fig14` | Fig. 14 — DQN async training curves |
//! | `fig15` | Fig. 15 — PPO/DDPG scalability |
//! | `resources` | §3.5 — accelerator resource accounting |
//! | `ablations` | design-choice ablations (on-the-fly, SetH, hierarchy) |
//! | `quantization` | wire cost per aggregation codec (`--codec`) |
//! | `loss_recovery` | failure injection: Help/FBcast under random loss |
//! | `bandwidth_sweep` | iSwitch advantage vs edge-link speed |
//! | `all` | everything above, in order |

#![warn(missing_docs)]

use std::path::{Path, PathBuf};

use iswitch_cluster::experiments::Scale;
use iswitch_obs::JsonValue;

/// Numbers the paper reports, for printing next to measured values.
pub mod paper {
    /// Table 3: sync AR speedup over PS (DQN, A2C, PPO, DDPG).
    pub const SYNC_AR_SPEEDUP: [f64; 4] = [1.97, 1.62, 0.91, 0.90];
    /// Table 3: sync iSW speedup over PS.
    pub const SYNC_ISW_SPEEDUP: [f64; 4] = [3.66, 2.55, 1.72, 1.83];
    /// Table 3: async iSW speedup over async PS.
    // 3.14 here is the paper's reported A2C speedup, not an approximate π.
    #[allow(clippy::approx_constant)]
    pub const ASYNC_ISW_SPEEDUP: [f64; 4] = [3.71, 3.14, 1.92, 1.56];

    /// Table 4: iterations (same across sync strategies).
    pub const SYNC_ITERATIONS: [f64; 4] = [1.40e6, 2.00e5, 8.00e4, 7.50e5];
    /// Table 4: end-to-end hours for PS.
    pub const SYNC_PS_HOURS: [f64; 4] = [31.72, 2.87, 0.39, 8.07];
    /// Table 4: end-to-end hours for AR.
    pub const SYNC_AR_HOURS: [f64; 4] = [16.08, 1.78, 0.42, 9.01];
    /// Table 4: end-to-end hours for iSW.
    pub const SYNC_ISW_HOURS: [f64; 4] = [8.66, 1.12, 0.22, 4.40];
    /// Table 4: per-iteration milliseconds for PS (hours / iterations).
    pub fn sync_ps_per_iter_ms() -> [f64; 4] {
        let mut out = [0.0; 4];
        for i in 0..4 {
            out[i] = SYNC_PS_HOURS[i] * 3.6e6 / SYNC_ITERATIONS[i];
        }
        out
    }

    /// Table 5: async PS iterations.
    pub const ASYNC_PS_ITERATIONS: [f64; 4] = [6.30e6, 1.20e6, 5.40e5, 3.00e6];
    /// Table 5: async iSW iterations.
    pub const ASYNC_ISW_ITERATIONS: [f64; 4] = [3.50e6, 4.00e5, 1.20e5, 1.50e6];
    /// Table 5: async PS per-iteration milliseconds.
    pub const ASYNC_PS_PER_ITER_MS: [f64; 4] = [24.88, 13.13, 3.40, 11.58];
    /// Table 5: async iSW per-iteration milliseconds.
    pub const ASYNC_ISW_PER_ITER_MS: [f64; 4] = [12.07, 12.53, 7.99, 14.89];
    /// Table 5: async PS end-to-end hours.
    pub const ASYNC_PS_HOURS: [f64; 4] = [43.54, 4.38, 0.51, 9.65];
    /// Table 5: async iSW end-to-end hours.
    pub const ASYNC_ISW_HOURS: [f64; 4] = [11.74, 1.39, 0.27, 6.20];

    /// Fig. 4 claim: gradient aggregation occupies this share range.
    pub const AGG_SHARE_RANGE: (f64, f64) = (0.499, 0.832);

    /// §3.5: FPGA resource overheads of the accelerator vs the reference
    /// switch (LUT fraction).
    pub const FPGA_LUT: f64 = 0.186;
    /// Flip-flop overhead fraction.
    pub const FPGA_FF: f64 = 0.173;
    /// Block-RAM overhead fraction.
    pub const FPGA_BRAM: f64 = 0.445;
    /// DSP slices used.
    pub const FPGA_DSP: u32 = 17;
}

/// One flag a binary accepts: its name, and whether a value follows it.
pub type Flag = (&'static str, bool);

/// `--quick`: the CI-sized configuration ([`scale_from_args`]). `all`
/// forwards it to every artifact binary, so each of them declares it.
pub const QUICK: Flag = ("--quick", false);

/// `--metrics-out <path>` ([`metrics_out_from_args`]).
pub const METRICS_OUT: Flag = ("--metrics-out", true);

/// Checks the process arguments against the flags the calling binary
/// declares, before anything runs, so nothing is silently ignored: an
/// argument it does not declare, or a value-taking flag with nothing after
/// it, exits 2 naming it. Returns the arguments.
pub fn check_args(flags: &[Flag]) -> Vec<String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if let Err(refusal) = refused_arg(&args, flags) {
        eprintln!("{refusal}");
        std::process::exit(2);
    }
    args
}

fn refused_arg(args: &[String], flags: &[Flag]) -> Result<(), String> {
    let mut rest = args.iter();
    while let Some(arg) = rest.next() {
        match flags.iter().find(|(name, _)| name == arg) {
            Some((_, false)) => {}
            Some((_, true)) if rest.next().is_some() => {}
            Some(_) => return Err(format!("{arg} expects a value")),
            None => {
                let names: Vec<&str> = flags.iter().map(|(name, _)| *name).collect();
                let takes = match names.as_slice() {
                    [] => "no arguments".to_owned(),
                    names => names.join(", "),
                };
                return Err(format!(
                    "unknown argument `{arg}` (this binary takes: {takes})"
                ));
            }
        }
    }
    Ok(())
}

/// The value following flag `name`, if the flag is present.
pub fn flag_value<'a>(args: &'a [String], name: &str) -> Option<&'a str> {
    let at = args.iter().position(|a| a == name)?;
    args.get(at + 1).map(String::as_str)
}

/// Parses the scale argument shared by all binaries: `--quick` selects the
/// CI-sized configuration, the default runs full scale.
pub fn scale_from_args() -> Scale {
    if std::env::args().any(|a| a == "--quick") {
        Scale::quick()
    } else {
        Scale::full()
    }
}

/// Parses the `--metrics-out <path>` flag shared by the artifact binaries:
/// when present, the binary writes its results as a machine-readable JSON
/// document to the given path alongside the printed table.
pub fn metrics_out_from_args() -> Option<PathBuf> {
    let args: Vec<String> = std::env::args().collect();
    flag_value(&args, METRICS_OUT.0).map(PathBuf::from)
}

/// Wraps artifact rows in the standard report envelope:
/// `{"artifact": ..., "rows": [...]}`.
pub fn rows_artifact(artifact: &str, rows: Vec<JsonValue>) -> JsonValue {
    let mut doc = JsonValue::empty_object();
    doc.insert("artifact", JsonValue::Str(artifact.to_owned()));
    doc.insert("rows", JsonValue::Array(rows));
    doc
}

/// Writes a deterministic JSON artifact (one trailing newline), creating
/// parent directories as needed.
pub fn write_metrics(path: &Path, doc: &JsonValue) -> std::io::Result<()> {
    if let Some(parent) = path.parent() {
        if !parent.as_os_str().is_empty() {
            std::fs::create_dir_all(parent)?;
        }
    }
    std::fs::write(path, format!("{}\n", doc.render()))
}

/// The binaries `--bin all` runs, in paper order. Each must name a sibling
/// executable of this package (`tests/smoke.rs` checks).
pub const ALL_BINS: [&str; 15] = [
    "table1",
    "fig4",
    "fig8",
    "table4",
    "table5",
    "table3",
    "fig12",
    "fig13",
    "fig14",
    "fig15",
    "resources",
    "ablations",
    "quantization",
    "loss_recovery",
    "bandwidth_sweep",
];

/// Prints the standard header for a regenerated artifact.
pub fn banner(artifact: &str, description: &str) {
    println!("================================================================");
    println!("{artifact} — {description}");
    println!("(reproduction of Li et al., ISCA 2019; shapes, not absolute");
    println!(" numbers, are the comparison target — see EXPERIMENTS.md)");
    println!("================================================================");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_per_iteration_derivation() {
        let ms = paper::sync_ps_per_iter_ms();
        // 31.72 h / 1.4 M iterations = 81.56 ms.
        assert!((ms[0] - 81.56).abs() < 0.1, "{}", ms[0]);
        assert!((ms[2] - 17.55).abs() < 0.1, "{}", ms[2]);
    }

    #[test]
    fn speedup_tables_are_consistent_with_hours() {
        // The paper rounds hours to two decimals, so derived speedups can
        // drift a few percent from the reported ones.
        for i in 0..4 {
            let ar = paper::SYNC_PS_HOURS[i] / paper::SYNC_AR_HOURS[i];
            assert!((ar - paper::SYNC_AR_SPEEDUP[i]).abs() < 0.08, "AR {i}");
            let isw = paper::SYNC_PS_HOURS[i] / paper::SYNC_ISW_HOURS[i];
            assert!((isw - paper::SYNC_ISW_SPEEDUP[i]).abs() < 0.08, "iSW {i}");
        }
    }

    #[test]
    fn undeclared_arguments_and_missing_values_are_refused() {
        let args = |list: &[&str]| list.iter().map(|a| (*a).to_owned()).collect::<Vec<_>>();
        let flags = [QUICK, METRICS_OUT];
        assert_eq!(refused_arg(&args(&[]), &flags), Ok(()));
        let ok = args(&["--metrics-out", "m.json", "--quick"]);
        assert_eq!(refused_arg(&ok, &flags), Ok(()));
        assert_eq!(flag_value(&ok, "--metrics-out"), Some("m.json"));
        assert_eq!(flag_value(&ok, "--out"), None);
        let typo = refused_arg(&args(&["--quik"]), &flags).unwrap_err();
        assert!(
            typo.contains("`--quik`") && typo.contains("--quick"),
            "{typo}"
        );
        let bare = refused_arg(&args(&["--quick", "--metrics-out"]), &flags).unwrap_err();
        assert_eq!(bare, "--metrics-out expects a value");
        // A flag's value is not itself checked against the flag list.
        assert_eq!(
            refused_arg(&args(&["--metrics-out", "--quick"]), &flags),
            Ok(())
        );
        let none = refused_arg(&args(&["x"]), &[]).unwrap_err();
        assert!(
            none.contains("`x`") && none.contains("no arguments"),
            "{none}"
        );
    }

    #[test]
    fn default_scale_is_full() {
        // No --quick in the test harness args: full scale.
        let s = scale_from_args();
        assert_eq!(s.scalability_workers, Scale::full().scalability_workers);
    }
}
