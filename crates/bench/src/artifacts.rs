//! The paper artifacts: [`ARTIFACTS`] is `paper`'s command table, one row
//! and one function per regenerated table, figure or study.

use std::process::exit;

use iswitch_cluster::cli::{write_artifact, Args, Command, Flag};
use iswitch_cluster::experiments::{
    fig12, fig15, fig4, fig8, table1, table3, table4, table5, training_curves, RunStore, Scale,
};
use iswitch_cluster::report::{fmt_bytes, fmt_secs, fmt_speedup, render_ascii_chart, render_table};
use iswitch_cluster::{
    mean_gradient_step, run_chaos, run_cosim, AggregationMode, Fidelity, Strategy, TimingConfig,
    TimingResult,
};
use iswitch_core::{
    decode_data_meta, Accelerator, AcceleratorConfig, CodecKind, DataSegment, EncodedGradient,
};
use iswitch_netsim::{IpAddr, LinkSpec, SimDuration};
use iswitch_obs::JsonValue;
use iswitch_rl::{paper_model, Algorithm};

use crate::paper;

const QUICK: Flag = Flag::new(
    "--quick",
    "the CI-sized configuration (`all` forwards it to every artifact)",
);
const METRICS_OUT: Flag = Flag::new(
    "--metrics-out <PATH>",
    "also write the rows as a JSON document to PATH",
);

/// One paper artifact: a row of `paper`'s command table.
#[derive(Debug)]
pub struct Artifact {
    /// What the user types: `paper <name>`.
    pub name: &'static str,
    /// Banner title, e.g. `Table 3`.
    pub title: &'static str,
    /// Banner subtitle and help summary.
    pub description: &'static str,
    /// Every flag it takes.
    pub flags: &'static [Flag],
    /// Regenerates it on stdout, taking every simulator run from the store.
    pub run: fn(&Args, &RunStore),
}

impl Artifact {
    /// The row as the command-line checker reads it.
    pub fn command(&self) -> Command {
        Command {
            name: self.name,
            summary: self.description,
            flags: self.flags,
        }
    }

    /// Whether `paper all` runs it: `all` hands every row its own
    /// arguments, so it runs the rows that take them.
    pub fn in_all(&self) -> bool {
        let takes = |flag: &Flag| self.flags.iter().any(|f| f.name() == flag.name());
        ALL.flags.iter().all(takes)
    }

    /// Prints the banner, then regenerates the artifact from `runs`.
    pub fn regenerate(&self, args: &Args, runs: &RunStore) {
        crate::banner(self.title, self.description);
        (self.run)(args, runs);
    }
}

/// `paper all`: every [`ARTIFACTS`] row that takes what `all` forwards
/// (`--quick`, i.e. all but `fidelity` and `chaos`), in table order.
pub const ALL: Command = Command {
    name: "all",
    summary: "every artifact from table1 to bandwidth_sweep, in that order",
    flags: &[QUICK],
};

/// Every artifact `paper` regenerates, in paper order.
pub const ARTIFACTS: [Artifact; 17] = [
    Artifact {
        name: "table1",
        title: "Table 1",
        description: "A study of popular RL algorithms",
        flags: &[QUICK, METRICS_OUT],
        run: run_table1,
    },
    Artifact {
        name: "fig4",
        title: "Figure 4",
        description: "Per-iteration breakdown, PS and AllReduce",
        flags: &[QUICK],
        run: run_fig4,
    },
    Artifact {
        name: "fig8",
        title: "Figure 8",
        description: "Conventional vs on-the-fly aggregation latency",
        flags: &[QUICK, METRICS_OUT],
        run: run_fig8,
    },
    Artifact {
        name: "table4",
        title: "Table 4",
        description: "Synchronous distributed training comparison",
        flags: &[QUICK],
        run: run_table4,
    },
    Artifact {
        name: "table5",
        title: "Table 5",
        description: "Asynchronous distributed training comparison (S = 3)",
        flags: &[QUICK],
        run: run_table5,
    },
    Artifact {
        name: "table3",
        title: "Table 3",
        description: "Summary of end-to-end training-time speedups",
        flags: &[QUICK],
        run: run_table3,
    },
    Artifact {
        name: "fig12",
        title: "Figure 12",
        description: "Sync per-iteration breakdown (normalized vs PS)",
        flags: &[QUICK],
        run: run_fig12,
    },
    Artifact {
        name: "fig13",
        title: "Figure 13",
        description: "DQN sync training curves: reward vs wall-clock",
        flags: &[QUICK],
        run: run_fig13,
    },
    Artifact {
        name: "fig14",
        title: "Figure 14",
        description: "DQN async training curves: reward vs wall-clock",
        flags: &[QUICK],
        run: run_fig14,
    },
    Artifact {
        name: "fig15",
        title: "Figure 15",
        description: "Scalability: end-to-end speedup vs worker count",
        flags: &[QUICK],
        run: run_fig15,
    },
    Artifact {
        name: "resources",
        title: "§3.5 resources",
        description: "Accelerator resource accounting (FPGA analog)",
        flags: &[QUICK],
        run: run_resources,
    },
    Artifact {
        name: "ablations",
        title: "Ablations",
        description: "On-the-fly, SetH partial aggregation, hierarchy",
        flags: &[QUICK],
        run: run_ablations,
    },
    Artifact {
        name: "quantization",
        title: "Quantization",
        description: "Wire cost per aggregation codec",
        flags: &[QUICK],
        run: run_quantization,
    },
    Artifact {
        name: "loss_recovery",
        title: "Loss recovery",
        description: "Sync iSwitch under random packet loss",
        flags: &[QUICK],
        run: run_loss_recovery,
    },
    Artifact {
        name: "bandwidth_sweep",
        title: "Bandwidth sweep",
        description: "Sync DQN per-iteration vs edge-link speed",
        flags: &[QUICK],
        run: run_bandwidth_sweep,
    },
    Artifact {
        name: "fidelity",
        title: "Fidelity",
        description: "Co-simulated in-switch aggregation vs single-process mean gradient",
        flags: &[METRICS_OUT],
        run: run_fidelity,
    },
    Artifact {
        name: "chaos",
        title: "Chaos smoke",
        description: "Seeded fault injection with protocol invariants on",
        flags: &[],
        run: run_chaos_smoke,
    },
];

/// `--quick` selects the CI-sized configuration, the default is full scale.
fn scale(args: &Args) -> Scale {
    if args.has(QUICK) {
        Scale::quick()
    } else {
        Scale::full()
    }
}

fn print_table(headers: &[&str], rows: &[Vec<String>]) {
    println!("{}", render_table(headers, rows));
}

/// With `--metrics-out`, writes `rows` in the standard report envelope
/// `{"artifact": ..., "rows": [...]}` beside the printed table.
fn write_rows(args: &Args, artifact: &str, rows: impl FnOnce() -> Vec<JsonValue>) {
    if let Some(path) = args.value(METRICS_OUT) {
        let mut doc = JsonValue::empty_object();
        doc.insert("artifact", JsonValue::Str(artifact.to_owned()));
        doc.insert("rows", JsonValue::Array(rows()));
        write_artifact(path, &format!("{}\n", doc.render()));
        println!("metrics written to {path}");
    }
}

fn run_table1(args: &Args, _: &RunStore) {
    let results = table1();
    let rows: Vec<Vec<String>> = results
        .iter()
        .map(|r| {
            vec![
                r.algorithm.clone(),
                r.environment.clone(),
                fmt_bytes(r.model_bytes as f64),
                fmt_bytes(r.paper_bytes as f64),
                format!("{:.2}M", r.paper_iterations as f64 / 1e6),
            ]
        })
        .collect();
    print_table(
        &[
            "Algorithm",
            "Environment",
            "Model Size (ours)",
            "Model Size (paper)",
            "Iterations (paper)",
        ],
        &rows,
    );
    write_rows(args, "table1", || {
        results
            .iter()
            .map(|r| {
                let mut row = JsonValue::empty_object();
                row.insert("algorithm", JsonValue::Str(r.algorithm.clone()));
                row.insert("environment", JsonValue::Str(r.environment.clone()));
                row.insert("model_bytes", JsonValue::UInt(r.model_bytes as u64));
                row.insert("paper_bytes", JsonValue::UInt(r.paper_bytes));
                row.insert("paper_iterations", JsonValue::UInt(r.paper_iterations));
                row
            })
            .collect()
    });
}

/// Fig. 4: per-iteration breakdown of distributed RL training with the PS
/// and AllReduce approaches — gradient aggregation dominates.
fn run_fig4(args: &Args, runs: &RunStore) {
    let rows = fig4(&scale(args), runs);
    let mut table = Vec::new();
    for r in &rows {
        let mut cells = vec![format!("{} ({})", r.algorithm, r.strategy)];
        for (_, secs) in &r.components {
            cells.push(format!("{:.1}%", 100.0 * secs / r.total));
        }
        cells.push(format!("{:.2} ms", r.total * 1e3));
        table.push(cells);
    }
    let mut headers: Vec<&str> = vec!["Benchmark"];
    let labels: Vec<String> = rows[0].components.iter().map(|(l, _)| l.clone()).collect();
    headers.extend(labels.iter().map(|s| s.as_str()));
    headers.push("Total");
    print_table(&headers, &table);

    let (lo, hi) = (
        rows.iter()
            .map(|r| r.aggregation_share)
            .fold(f64::MAX, f64::min),
        rows.iter()
            .map(|r| r.aggregation_share)
            .fold(f64::MIN, f64::max),
    );
    println!(
        "Gradient-aggregation share: measured {:.1}%–{:.1}% (paper: {:.1}%–{:.1}%)",
        lo * 100.0,
        hi * 100.0,
        paper::AGG_SHARE_RANGE.0 * 100.0,
        paper::AGG_SHARE_RANGE.1 * 100.0
    );
}

/// Fig. 8: conventional whole-vector aggregation vs iSwitch's on-the-fly
/// per-packet aggregation.
fn run_fig8(args: &Args, _: &RunStore) {
    let results = fig8(4);
    let rows: Vec<Vec<String>> = results
        .iter()
        .map(|r| {
            vec![
                r.algorithm.clone(),
                format!("{:.2} KB", r.model_bytes as f64 / 1024.0),
                format!("{:.3} ms", r.conventional_ms),
                format!("{:.3} ms", r.on_the_fly_ms),
                format!(
                    "{:.1}%",
                    100.0 * (1.0 - r.on_the_fly_ms / r.conventional_ms)
                ),
            ]
        })
        .collect();
    print_table(
        &[
            "Algorithm",
            "Vector size",
            "Conventional (Fig. 8a)",
            "On-the-fly (Fig. 8b)",
            "Reduction",
        ],
        &rows,
    );
    println!("On-the-fly aggregation hides the summation behind packet arrival,");
    println!("so completion trails the last packet by one datapath latency only.");
    write_rows(args, "fig8", || {
        results
            .iter()
            .map(|r| {
                let mut row = JsonValue::empty_object();
                row.insert("algorithm", JsonValue::Str(r.algorithm.clone()));
                row.insert("model_bytes", JsonValue::UInt(r.model_bytes as u64));
                row.insert("conventional_ms", JsonValue::Float(r.conventional_ms));
                row.insert("on_the_fly_ms", JsonValue::Float(r.on_the_fly_ms));
                row
            })
            .collect()
    });
}

/// Table 4: synchronous distributed training comparison (PS vs AR vs iSW —
/// iterations, end-to-end time, final reward).
fn run_table4(args: &Args, runs: &RunStore) {
    let rows = table4(&scale(args), runs);
    let mut table = Vec::new();
    for (i, r) in rows.iter().enumerate() {
        table.push(vec![
            r.algorithm.clone(),
            format!("{}", r.iterations),
            format!("{:.1}", r.final_reward),
            fmt_secs(r.end_to_end_s[0]),
            fmt_secs(r.end_to_end_s[1]),
            fmt_secs(r.end_to_end_s[2]),
            fmt_speedup(r.speedup[1]),
            fmt_speedup(r.speedup[2]),
            fmt_speedup(paper::SYNC_AR_SPEEDUP[i]),
            fmt_speedup(paper::SYNC_ISW_SPEEDUP[i]),
        ]);
    }
    print_table(
        &[
            "Algorithm",
            "Iterations",
            "Final Reward",
            "E2E PS",
            "E2E AR",
            "E2E iSW",
            "AR speedup",
            "iSW speedup",
            "AR (paper)",
            "iSW (paper)",
        ],
        &table,
    );
    println!("Iterations/rewards are measured on the scaled-down lite workloads;");
    println!("per-iteration times come from the paper-sized packet simulation.");
    println!("Paper iterations: DQN 1.4M, A2C 0.2M, PPO 0.08M, DDPG 0.75M.");
}

/// Table 5: asynchronous distributed training comparison (Async PS vs Async
/// iSW — iterations, per-iteration time, end-to-end time, final reward),
/// staleness bound S = 3 for both.
fn run_table5(args: &Args, runs: &RunStore) {
    let rows = table5(&scale(args), runs);
    let mut table = Vec::new();
    for (i, r) in rows.iter().enumerate() {
        table.push(vec![
            r.algorithm.clone(),
            format!("{}{}", r.iterations[0], if r.reached[0] { "" } else { "*" }),
            format!("{}{}", r.iterations[1], if r.reached[1] { "" } else { "*" }),
            format!("{:.2} ms", r.per_iteration_s[0] * 1e3),
            format!("{:.2} ms", r.per_iteration_s[1] * 1e3),
            fmt_secs(r.end_to_end_s[0]),
            fmt_secs(r.end_to_end_s[1]),
            speedup_cell(r.isw_speedup, r.reached != [true; 2]),
            fmt_speedup(paper::ASYNC_ISW_SPEEDUP[i]),
            format!("{:.2}/{:.2}", r.mean_staleness[0], r.mean_staleness[1]),
        ]);
    }
    print_table(
        &[
            "Algorithm",
            "Iters PS",
            "Iters iSW",
            "Per-iter PS",
            "Per-iter iSW",
            "E2E PS",
            "E2E iSW",
            "iSW speedup",
            "paper",
            "staleness PS/iSW",
        ],
        &table,
    );
    println!("* = iteration cap reached before the target reward.");
    println!(
        "Paper per-iteration ms — PS: {:?}, iSW: {:?}.",
        paper::ASYNC_PS_PER_ITER_MS,
        paper::ASYNC_ISW_PER_ITER_MS
    );
}

/// A speedup between two runs to the target reward. A run the iteration
/// cap stopped (`capped`) has no end-to-end time to compare, so the cell
/// prints the cap marker instead of a ratio.
fn speedup_cell(speedup: f64, capped: bool) -> String {
    if capped {
        "*".to_owned()
    } else {
        fmt_speedup(speedup)
    }
}

fn run_table3(args: &Args, runs: &RunStore) {
    let t = table3(&scale(args), runs);
    let row = |label: &str, ours: &[f64; 4], capped: [bool; 4], theirs: &[f64; 4]| {
        vec![
            label.to_string(),
            speedup_cell(ours[0], capped[0]),
            speedup_cell(ours[1], capped[1]),
            speedup_cell(ours[2], capped[2]),
            speedup_cell(ours[3], capped[3]),
            format!(
                "{} / {} / {} / {}",
                fmt_speedup(theirs[0]),
                fmt_speedup(theirs[1]),
                fmt_speedup(theirs[2]),
                fmt_speedup(theirs[3])
            ),
        ]
    };
    let table = vec![
        row("Sync AR", &t.sync_ar, [false; 4], &paper::SYNC_AR_SPEEDUP),
        row(
            "Sync iSW",
            &t.sync_isw,
            [false; 4],
            &paper::SYNC_ISW_SPEEDUP,
        ),
        row(
            "Async iSW",
            &t.async_isw,
            t.async_reached.map(|reached| reached != [true; 2]),
            &paper::ASYNC_ISW_SPEEDUP,
        ),
    ];
    print_table(
        &[
            "Approach",
            "DQN",
            "A2C",
            "PPO",
            "DDPG",
            "paper (DQN/A2C/PPO/DDPG)",
        ],
        &table,
    );
    println!("Baselines: sync rows vs Sync PS; async row vs Async PS.");
}

/// Fig. 12: per-iteration time of the synchronous strategies, normalized
/// against PS, with component breakdown.
fn run_fig12(args: &Args, runs: &RunStore) {
    let rows = fig12(&scale(args), runs);
    // Normalize each algorithm's strategies against its PS total.
    let mut table = Vec::new();
    for alg_rows in rows.chunks(3) {
        let ps_total = alg_rows[0].total;
        for r in alg_rows {
            let agg = r
                .components
                .iter()
                .find(|(l, _)| l == "Grad Aggregation")
                .map(|(_, s)| *s)
                .unwrap_or(0.0);
            let compute: f64 = r.total - agg;
            table.push(vec![
                format!("{} ({})", r.algorithm, r.strategy),
                format!("{:.2} ms", r.total * 1e3),
                format!("{:.2}", r.total / ps_total),
                format!("{:.1}%", 100.0 * agg / r.total),
                format!("{:.2} ms", compute * 1e3),
                format!("{:.2} ms", agg * 1e3),
            ]);
        }
    }
    print_table(
        &[
            "Benchmark",
            "Per-iter",
            "Norm. vs PS",
            "Agg share",
            "Compute+update",
            "Aggregation",
        ],
        &table,
    );
    println!("Paper: iSW is 41.9%–72.7% shorter than PS (81.6%–85.8% less");
    println!("aggregation time) and 36.7%–48.9% shorter than AR.");
}

/// DQN training curves (reward vs wall-clock) of `strategies`, whose
/// labels are printed `width` wide.
fn dqn_training_curves(args: &Args, runs: &RunStore, strategies: &[Strategy], width: usize) {
    let curves = training_curves(Algorithm::Dqn, strategies, &scale(args), runs);
    let series: Vec<(String, Vec<(f64, f64)>)> = curves
        .iter()
        .map(|c| {
            (
                c.strategy.clone(),
                c.points.iter().map(|&(m, r)| (m, r as f64)).collect(),
            )
        })
        .collect();
    println!(
        "{}",
        render_ascii_chart(
            "DQN (CartPole stand-in): avg episode reward vs minutes",
            &series,
            72,
            20
        )
    );
    for c in &curves {
        let last = c.points.last();
        println!(
            "  {:width$}: {} points, final {:?}",
            c.strategy,
            c.points.len(),
            last.map(|&(m, r)| format!("{r:.1} @ {m:.2} min"))
        );
    }
}

fn run_fig13(args: &Args, runs: &RunStore) {
    let sync = [Strategy::SyncPs, Strategy::SyncAr, Strategy::SyncIsw];
    dqn_training_curves(args, runs, &sync, 8);
    println!("Paper: iSW reaches the same reward level in much less wall-clock time.");
}

fn run_fig14(args: &Args, runs: &RunStore) {
    dqn_training_curves(args, runs, &[Strategy::AsyncPs, Strategy::AsyncIsw], 10);
    println!("Paper: Async iSW reaches the same reward level in much less time.");
}

/// Fig. 15: rack-scale scalability of PPO and DDPG, sync and async, over
/// the two-layer ToR/Core topology (3 workers per rack).
fn run_fig15(args: &Args, runs: &RunStore) {
    let scale = scale(args);
    for alg in [Algorithm::Ppo, Algorithm::Ddpg] {
        for (mode, strategies) in [
            (
                "Sync",
                vec![Strategy::SyncPs, Strategy::SyncAr, Strategy::SyncIsw],
            ),
            ("Async", vec![Strategy::AsyncPs, Strategy::AsyncIsw]),
        ] {
            let series = fig15(alg, &strategies, &scale, runs);
            let mut headers = vec!["Strategy".to_string()];
            headers.extend(scale.scalability_workers.iter().map(|n| format!("N={n}")));
            let header_refs: Vec<&str> = headers.iter().map(|s| s.as_str()).collect();
            let mut rows = Vec::new();
            for s in &series {
                let mut row = vec![s.strategy.clone()];
                row.extend(s.speedup.iter().map(|x| format!("{x:.2}x")));
                rows.push(row);
            }
            // The ideal (linear) line.
            let n0 = scale.scalability_workers[0] as f64;
            let mut ideal = vec!["Ideal".to_string()];
            ideal.extend(
                scale
                    .scalability_workers
                    .iter()
                    .map(|&n| format!("{:.2}x", n as f64 / n0)),
            );
            rows.push(ideal);
            println!("--- {} ({mode}) ---", alg.name());
            print_table(&header_refs, &rows);
        }
    }
    println!("Paper: AR scales worst (hops linear in N); PS hits the central");
    println!("bottleneck; iSW stays near the ideal line, sync and async.");
}

/// The §3.5 resource-accounting analog: the paper reports FPGA utilization
/// (LUT/FF/BRAM/DSP); this reproduction has no synthesis target, so it
/// reports the accelerator model's architectural resources per benchmark
/// next to the paper's figures.
fn run_resources(_: &Args, _: &RunStore) {
    let mut rows = Vec::new();
    for alg in Algorithm::ALL {
        let spec = paper_model(alg);
        let len = spec.param_count();
        let segs = iswitch_core::num_segments(len);
        let mut accel = Accelerator::new(AcceleratorConfig::default(), segs, 4);
        // Drive one 4-worker aggregation round. Workers stream in parallel,
        // so their packets interleave per segment — the on-the-fly window
        // stays small. (Strictly sequential full-vector pushes would need
        // the whole model resident and genuinely exceed the BRAM budget.)
        let ones = vec![1.0f32; len];
        let enc = EncodedGradient::with_codec(IpAddr::UNSPECIFIED, &ones, CodecKind::F32, 0);
        for pkt in &enc.packets_round(0) {
            let meta = decode_data_meta(pkt).expect("well-formed contribution");
            for _ in 0..4 {
                let _ = accel.ingest_wire(meta, &pkt.payload);
            }
        }
        let r = accel.resources();
        rows.push(vec![
            alg.name().to_string(),
            format!("{}", segs),
            format!("{}", r.adders),
            format!("{:.1} KB", r.buffer_bytes_used as f64 / 1024.0),
            format!("{:.1} KB", r.buffer_bytes_budget as f64 / 1024.0),
            format!("{}", r.counter_bits / 16),
        ]);
    }
    print_table(
        &[
            "Algorithm",
            "Segments",
            "f32 adders",
            "Peak buffer",
            "BRAM budget",
            "Counters",
        ],
        &rows,
    );
    println!(
        "Paper (NetFPGA-SUME synthesis overhead vs reference switch): \
         LUT +{:.1}%, FF +{:.1}%, BRAM +{:.1}%, {} DSP slices.",
        paper::FPGA_LUT * 100.0,
        paper::FPGA_FF * 100.0,
        paper::FPGA_BRAM * 100.0,
        paper::FPGA_DSP
    );
    println!("On-the-fly aggregation keeps the peak buffer to the in-flight");
    println!("window, which is how a 6.41 MB model fits a ~3 MB BRAM budget.");
}

/// A two-row table of per-iteration and aggregation time, one row per
/// topology variant.
fn print_topology_pair(column: &str, variants: [(&str, &TimingResult); 2]) {
    let rows = variants.map(|(label, r)| {
        vec![
            label.to_string(),
            format!("{:.3} ms", r.per_iteration.as_millis_f64()),
            format!("{:.3} ms", r.breakdown.aggregation.as_millis_f64()),
        ]
    });
    print_table(&[column, "Per-iteration", "Aggregation"], &rows);
}

/// Ablation studies on the design choices DESIGN.md calls out:
///
/// 1. **On-the-fly vs store-and-forward** in-switch aggregation (Fig. 8's
///    two schemes, measured in-system rather than analytically).
/// 2. **Aggregation threshold `H`** (`SetH`): partial aggregation in
///    asynchronous training — update interval vs staleness trade-off.
/// 3. **Hierarchical vs flat** aggregation at 12 workers: what the
///    two-layer tree costs/buys against one big star.
/// 4. **Hierarchy depth** at 24 workers: two levels vs three.
fn run_ablations(_: &Args, runs: &RunStore) {
    println!("1) Output schedule of the in-switch accelerator (sync, 4 workers)\n");
    let mut rows = Vec::new();
    for alg in Algorithm::ALL {
        let mut cfg = TimingConfig::main_cluster(alg, Strategy::SyncIsw);
        cfg.iterations = 12;
        let otf = runs.timing(&cfg);
        cfg.aggregation_mode = AggregationMode::StoreAndForward;
        let saf = runs.timing(&cfg);
        rows.push(vec![
            alg.name().to_string(),
            format!("{:.3} ms", otf.breakdown.aggregation.as_millis_f64()),
            format!("{:.3} ms", saf.breakdown.aggregation.as_millis_f64()),
            format!(
                "{:.1}%",
                100.0
                    * (1.0
                        - otf.breakdown.aggregation.as_secs_f64()
                            / saf.breakdown.aggregation.as_secs_f64())
            ),
        ]);
    }
    print_table(
        &[
            "Algorithm",
            "On-the-fly agg",
            "Store-and-forward agg",
            "Reduction",
        ],
        &rows,
    );

    // Run on PPO: with H < workers and a multi-MB model, a whole gradient
    // vector can sit resident awaiting its round — the accelerator's BRAM
    // window model rejects that, which is itself an ablation finding: DQN
    // at H=2 would exceed the switch's 3 MB of BRAM.
    println!("2) Aggregation threshold H (async iSwitch, 4 workers, PPO)\n");
    let mut rows = Vec::new();
    for h in [2u16, 3, 4] {
        let mut cfg = TimingConfig::main_cluster(Algorithm::Ppo, Strategy::AsyncIsw);
        cfg.iterations = 20;
        cfg.threshold_override = Some(h);
        let r = runs.timing(&cfg);
        rows.push(vec![
            format!("H = {h}"),
            format!("{:.2} ms", r.per_iteration.as_millis_f64()),
            format!("{:.2}", r.mean_staleness().unwrap_or(0.0)),
        ]);
    }
    print_table(&["Threshold", "Update interval", "Mean staleness"], &rows);
    println!("Lower H broadcasts sooner (faster updates) but each update");
    println!("averages fewer gradients — the paper keeps H = workers. For");
    println!("MB-scale models, H < workers also blows the BRAM window: a");
    println!("full vector would sit resident awaiting its round.\n");

    println!("3) Hierarchical (4 racks x 3) vs flat star at 12 workers (PPO sync)\n");
    let mut flat = TimingConfig::main_cluster(Algorithm::Ppo, Strategy::SyncIsw);
    flat.workers = 12;
    flat.iterations = 12;
    let mut tree = flat.clone();
    tree.workers_per_rack = Some(3);
    print_topology_pair(
        "Topology",
        [
            ("flat star (12 ports)", &runs.timing(&flat)),
            ("ToR/Core tree (3/rack)", &runs.timing(&tree)),
        ],
    );
    println!("The tree adds two switch levels of latency but matches real");
    println!("rack-scale port budgets — the paper's §3.4 deployment argument.\n");

    println!("4) Hierarchy depth at 24 workers (PPO sync, 3 workers/rack)\n");
    let mut two = TimingConfig::main_cluster(Algorithm::Ppo, Strategy::SyncIsw);
    two.workers = 24;
    two.workers_per_rack = Some(3);
    two.iterations = 12;
    let mut three = two.clone();
    three.racks_per_agg = Some(2);
    print_topology_pair(
        "Hierarchy",
        [
            ("ToR -> Core (8-port core)", &runs.timing(&two)),
            ("ToR -> AGG -> Core (Fig. 10)", &runs.timing(&three)),
        ],
    );
    println!("Each extra level adds two hops and one partial-aggregation stage");
    println!("per direction — microseconds against a multi-ms iteration, which");
    println!("is why hierarchical aggregation scales to data-center fabrics.");
}

/// Contribution and wide-result payload bytes of one `len`-element round.
fn round_bytes(kind: CodecKind, len: usize) -> (usize, usize) {
    let codec = kind.codec();
    let per = kind.elems_per_segment();
    let (full, tail) = (len / per, len % per);
    let over_segments =
        |bytes: &dyn Fn(usize) -> usize| full * bytes(per) + if tail > 0 { bytes(tail) } else { 0 };
    let result_bytes = |n: usize| {
        let aggregate = DataSegment {
            seg: 0,
            count: 1,
            values: vec![0.0; n],
        };
        codec.encode_result(&aggregate).len()
    };
    (
        over_segments(&|n| codec.contribution_bytes(n)),
        over_segments(&result_bytes),
    )
}

/// Wire cost of each aggregation codec (`--codec`) on the paper's four
/// models: segments (one packet per worker per round each), the
/// contribution bytes a worker sends per round, and the wide result bytes
/// the switch broadcasts back.
///
/// Precision and convergence under each codec are measured end to end by
/// `iswitch-sim timing --fidelity cosim --codec <kind>` (EXPERIMENTS.md).
fn run_quantization(_: &Args, _: &RunStore) {
    let mut rows = Vec::new();
    for alg in Algorithm::ALL {
        let len = paper_model(alg).param_count();
        let (f32_up, f32_down) = round_bytes(CodecKind::F32, len);
        for kind in CodecKind::ALL {
            let (up, down) = round_bytes(kind, len);
            rows.push(vec![
                alg.name().to_string(),
                kind.label().to_string(),
                format!("{}", kind.num_segments(len)),
                format!("{up}"),
                format!("{:.1}%", 100.0 * up as f64 / f32_up as f64),
                format!("{down}"),
                format!("{:.1}%", 100.0 * down as f64 / f32_down as f64),
            ]);
        }
    }
    print_table(
        &[
            "Algorithm",
            "Codec",
            "Packets/round",
            "Contribution B",
            "vs f32",
            "Result B",
            "vs f32",
        ],
        &rows,
    );
    println!("Fixed-point halves contribution bytes but not packets: its i32 wide");
    println!("result caps a segment at 365 elements (f32: 366). Top-k lists its");
    println!("worst case (every kept element sent as a 6-byte sparse entry).");
}

/// Failure injection: synchronous iSwitch under random packet loss, with
/// the control plane's `Help`/`FBcast` recovery paths active (paper §3.3:
/// "the control plane also helps handling packet lost … with minimal
/// overhead").
fn run_loss_recovery(_: &Args, runs: &RunStore) {
    let mut rows = Vec::new();
    let mut baseline_ms = 0.0;
    // 1e-3 on a 3.3 MB model is already ~40 lost packets per iteration —
    // far beyond datacenter loss rates. Past ~2e-3 recovery traffic and
    // worker desynchronization compound (the BRAM window fills and drops
    // contributions faster than partial flushes drain them), which is a
    // regime boundary of the protocol, not a useful operating point. A
    // (round, segment) whose every contribution is lost never opens at the
    // switch; it answers the workers' `Help` by asking for their
    // contributions back (DESIGN.md §11), so even 0.2 loss finishes.
    for loss in [0.0f64, 1e-5, 1e-4, 1e-3] {
        let mut cfg = TimingConfig::main_cluster(Algorithm::A2c, Strategy::SyncIsw);
        cfg.iterations = 15;
        cfg.edge_loss = loss;
        let r = runs.timing(&cfg);
        let ms = r.per_iteration.as_millis_f64();
        if loss == 0.0 {
            baseline_ms = ms;
        }
        rows.push(vec![
            if loss == 0.0 {
                "lossless".to_string()
            } else {
                format!("{loss:.0e}")
            },
            format!("{ms:.3} ms"),
            format!("{:+.1}%", 100.0 * (ms / baseline_ms - 1.0)),
        ]);
    }
    print_table(
        &["Loss rate", "Per-iteration", "Overhead vs lossless"],
        &rows,
    );
    println!("Lost result packets are re-served from the last two results the");
    println!("switch keeps per segment (Help); rounds stuck on a lost contribution");
    println!("are flushed with a partial aggregate (stale sweep, FBcast) whose");
    println!("count lets workers average correctly. An iteration that loses any");
    println!("packet waits out one recovery timer of a few ms: nearly free at 1e-5,");
    println!("where few iterations lose one, +24-31% from 1e-4 up, where most do.");
}

/// Sensitivity study: how much of iSwitch's advantage survives on faster
/// links? The paper deliberately evaluates at 10 GbE ("considering the
/// small size of transferred gradients of RL models … we do not consider
/// supporting larger network connections", §5.3); this sweep quantifies
/// that choice by rerunning the sync comparison at 10/25/40/100 GbE.
fn run_bandwidth_sweep(_: &Args, runs: &RunStore) {
    let rates: [(u64, &str); 4] = [
        (10_000_000_000, "10 GbE"),
        (25_000_000_000, "25 GbE"),
        (40_000_000_000, "40 GbE"),
        (100_000_000_000, "100 GbE"),
    ];
    let mut rows = Vec::new();
    for (bps, label) in rates {
        let mut times = Vec::new();
        for strategy in [Strategy::SyncPs, Strategy::SyncAr, Strategy::SyncIsw] {
            let mut cfg = TimingConfig::main_cluster(Algorithm::Dqn, strategy);
            cfg.iterations = 12;
            cfg.topo.edge = LinkSpec::new(bps, SimDuration::from_micros(1));
            let r = runs.timing(&cfg);
            times.push(r.per_iteration.as_millis_f64());
        }
        rows.push(vec![
            label.to_string(),
            format!("{:.2} ms", times[0]),
            format!("{:.2} ms", times[1]),
            format!("{:.2} ms", times[2]),
            format!("{:.2}x", times[0] / times[2]),
        ]);
    }
    print_table(&["Edge links", "PS", "AR", "iSW", "iSW vs PS"], &rows);
    println!("Faster links shrink serialization but not the software phase");
    println!("costs or the PS server's per-worker processing, so in-switch");
    println!("aggregation keeps a sizeable advantage even at 100 GbE — the");
    println!("latency-criticality argument of the paper's introduction.");
}

struct FidelityCheck {
    algorithm: Algorithm,
    params: usize,
    max_abs_diff: f32,
    per_iteration_ms: f64,
}

/// One co-sim step vs the single-process mean-gradient reference.
fn fidelity_check(algorithm: Algorithm) -> FidelityCheck {
    let mut cfg = TimingConfig::cosim_lite(algorithm, Strategy::SyncIsw);
    cfg.iterations = 1;
    cfg.fidelity = Fidelity::Cosim {
        target_reward: None,
    };
    let cosim = run_cosim(&cfg);
    let (_, params) = mean_gradient_step(&cfg);
    assert_eq!(cosim.params.len(), params.len());
    let max_abs_diff = cosim
        .params
        .iter()
        .zip(&params)
        .map(|(a, b)| (a - b).abs())
        .fold(0.0f32, f32::max);
    FidelityCheck {
        algorithm,
        params: params.len(),
        max_abs_diff,
        per_iteration_ms: cosim.per_iteration.as_nanos() as f64 / 1e6,
    }
}

/// Fidelity cross-check: one co-simulated aggregation step — real agent
/// gradients packetized, summed by the simulated in-switch accelerator,
/// broadcast, reassembled, applied — must land on the same weights a
/// single-process mean-gradient step produces, up to f32 summation order.
fn run_fidelity(args: &Args, _: &RunStore) {
    let checks: Vec<FidelityCheck> = [Algorithm::A2c, Algorithm::Ppo]
        .into_iter()
        .map(fidelity_check)
        .collect();
    println!(
        "{:<10} {:>8} {:>14} {:>16}",
        "Algorithm", "Params", "Max |diff|", "Per-iteration"
    );
    for c in &checks {
        println!(
            "{:<10} {:>8} {:>14.3e} {:>13.3} ms",
            c.algorithm.to_string(),
            c.params,
            c.max_abs_diff,
            c.per_iteration_ms
        );
        assert!(
            c.max_abs_diff <= 1e-4,
            "{}: co-sim diverged from the mean-gradient reference by {}",
            c.algorithm,
            c.max_abs_diff
        );
    }
    println!("Weights after one in-switch step match the host-side reference.");
    write_rows(args, "fidelity", || {
        checks
            .iter()
            .map(|c| {
                let mut row = JsonValue::empty_object();
                row.insert("algorithm", JsonValue::Str(c.algorithm.to_string()));
                row.insert("params", JsonValue::UInt(c.params as u64));
                row.insert("max_abs_diff", JsonValue::Float(f64::from(c.max_abs_diff)));
                row.insert("per_iteration_ms", JsonValue::Float(c.per_iteration_ms));
                row
            })
            .collect()
    });
}

/// Chaos smoke: seeded random fault schedules (link outages, loss windows,
/// delay spikes) against every strategy, with the protocol invariants
/// checked after the run — gradient conservation, sync barrier, staleness
/// bound, update consistency — and same-seed determinism verified by
/// replaying each run and comparing the rendered reports byte for byte.
///
/// Exits non-zero on any invariant violation or determinism break, so CI
/// can gate on it.
fn run_chaos_smoke(_: &Args, _: &RunStore) {
    let strategies = [
        Strategy::SyncPs,
        Strategy::SyncAr,
        Strategy::SyncIsw,
        Strategy::AsyncPs,
        Strategy::AsyncIsw,
    ];
    let mut rows = Vec::new();
    let mut failures = 0u32;
    for strategy in strategies {
        for seed in [1, 7, 0xC4A05] {
            let cfg = TimingConfig::chaos(Algorithm::Ppo, strategy, seed);
            let report = run_chaos(&cfg);
            let replay = run_chaos(&cfg);
            let deterministic = report.to_json().render() == replay.to_json().render();
            let ok = report.passed() && deterministic;
            failures += u32::from(!ok);
            rows.push(vec![
                strategy.label().to_string(),
                format!("{seed:#x}"),
                report.faults_applied.to_string(),
                format!("{:?}", report.completed),
                report.rounds_checked.to_string(),
                if !report.passed() {
                    "VIOLATED".to_string()
                } else if !deterministic {
                    "NON-DETERMINISTIC".to_string()
                } else {
                    "ok".to_string()
                },
            ]);
            for v in &report.violations {
                eprintln!("{} seed {seed:#x}: {v}", strategy.label());
            }
        }
    }
    print_table(
        &[
            "Strategy",
            "Seed",
            "Faults",
            "Completed",
            "Rounds checked",
            "Verdict",
        ],
        &rows,
    );
    println!("Every run replays byte-identically under its seed; sync rounds are");
    println!("value-checked for gradient conservation (no contribution lost or");
    println!("double-counted), async runs for the staleness bound.");
    if failures > 0 {
        eprintln!("{failures} chaos run(s) failed");
        exit(1);
    }
}
