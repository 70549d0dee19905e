//! Invocations `iswitch-sim` must refuse (exit code 2 with a message
//! naming the cause) instead of running something other than what was
//! asked for, or dying on an internal panic — and one it must run the
//! same way at every thread count: a cut partition paused at a check
//! point.

use std::process::Command;

use iswitch::cluster::cli;
use iswitch_bench::{perfgate, ALL, ARTIFACTS};

#[test]
fn timing_rejects_flags_the_strategy_cannot_honour() {
    let rows: [(&[&str], &str); 5] = [
        (&["--strategy", "ps", "--edge-loss", "0.01"], "--edge-loss"),
        (&["--strategy", "ar", "--edge-loss", "0.01"], "--edge-loss"),
        (
            &["--strategy", "async-ps", "--edge-loss", "0.01"],
            "--edge-loss",
        ),
        (
            &["--strategy", "async-isw", "--edge-loss", "0.01"],
            "--edge-loss",
        ),
        (&["--strategy", "ps", "--codec", "top-k"], "--codec"),
    ];
    for (args, flag) in rows {
        let out = Command::new(env!("CARGO_BIN_EXE_iswitch-sim"))
            .arg("timing")
            .args(args)
            .output()
            .expect("iswitch-sim runs");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
        assert!(stderr.contains(flag), "{args:?}: {stderr}");
    }
}

#[test]
fn timing_reports_a_stalled_host_side_run_instead_of_a_slice_panic() {
    // PS under incast tail-drops a packet nothing retransmits: the run goes
    // idle with no iteration logged.
    let out = Command::new(env!("CARGO_BIN_EXE_iswitch-sim"))
        .args(["timing", "--strategy", "ps", "--incast"])
        .args(["--transport", "nack"])
        .output()
        .expect("iswitch-sim runs");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{stderr}");
    for needle in ["PS run stalled", "worker 0 logged 0", "dropped_queue = "] {
        assert!(stderr.contains(needle), "missing `{needle}`: {stderr}");
    }
}

#[test]
fn unknown_flags_are_refused_and_help_is_help() {
    // (arguments, expected exit code, text the chosen stream must carry)
    let rows: [(&[&str], i32, &str); 26] = [
        (&["timing", "--worker", "8"], 2, "`--worker`"),
        (
            &["timing", "--iterations"],
            2,
            "--iterations expects a value",
        ),
        (&["timing", "--threads", "2"], 2, "--threads"),
        (&["scalability", "--workers", "4"], 2, "`--workers`"),
        (
            &["analyze", "--trace", "t.jsonl", "--fattree", "2"],
            2,
            "`--fattree`",
        ),
        (&["chaos", "--out-dir", "x"], 2, "`--out-dir`"),
        // A flag given twice is refused, not resolved to one of the two.
        (
            &["timing", "--workers", "2", "--workers", "8"],
            2,
            "`--workers` given twice",
        ),
        (&["chaos", "--isolation", "--isolation"], 2, "given twice"),
        // A value the simulator cannot run with is refused, not rewritten.
        (&["timing", "--fattree", "0"], 2, "--fattree expects"),
        (&["timing", "--per-rack", "0"], 2, "--per-rack expects"),
        (
            &["timing", "--per-rack", "3", "--per-agg", "0"],
            2,
            "--per-agg expects",
        ),
        (
            &["timing", "--fattree", "2", "--threads", "0"],
            2,
            "--threads expects",
        ),
        (&["multi", "--threads", "0"], 2, "--threads expects"),
        (&["multi", "--epoch-ms", "0"], 2, "--epoch-ms expects"),
        (
            &["timing", "--timeseries-interval", "0"],
            2,
            "--timeseries-interval expects",
        ),
        (&["timing", "--seed", "0x"], 2, "--seed expects"),
        // `--fidelity cosim` reads eight of the timing row's flags and
        // refuses the rest, wherever the mode flag stands.
        (
            &["timing", "--fidelity", "cosim", "--incast"],
            2,
            "does not read `--incast`",
        ),
        (
            &["timing", "--fattree", "2", "--fidelity", "cosim"],
            2,
            "does not read `--fattree`",
        ),
        (
            &["timing", "--fidelity", "cosim", "--trace-out", "t.jsonl"],
            2,
            "does not read `--trace-out`",
        ),
        (
            &["timing", "--fidelity", "cosim", "--threads", "2"],
            2,
            "does not read `--threads`",
        ),
        // Help is the command's own row: its flags, its defaults.
        (&["timing", "--help"], 0, "(default: 0x5117c4)"),
        (&["multi", "--help"], 0, "(default: 42)"),
        (&["convergence", "--help"], 0, "(default: 42)"),
        (&["chaos", "--help"], 0, "(default: 0xC4A05)"),
        (&["multi", "--tenants", "a=ppo", "-h"], 0, "USAGE"),
        (&["--help"], 0, "COMMANDS"),
    ];
    for (args, code, needle) in rows {
        let out = Command::new(env!("CARGO_BIN_EXE_iswitch-sim"))
            .args(args)
            .output()
            .expect("iswitch-sim runs");
        let text = if code == 0 { &out.stdout } else { &out.stderr };
        let text = String::from_utf8_lossy(text);
        assert_eq!(out.status.code(), Some(code), "{args:?}: {text}");
        assert!(text.contains(needle), "{args:?}: {text}");
        // Refused or helped, never run.
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert!(!stdout.contains("simulating"), "{args:?} ran: {stdout}");
    }
}

/// Every `iswitch-sim`, `paper` or `perfgate` invocation inside a fenced
/// code block of `text`, as `(program, arguments)`: a bare or
/// `target/release/` program name, `cargo run … --bin <program> [-- …]`, or
/// the `iswitch-sim` arguments a `ci/` replay script is given after `--`.
/// Shell plumbing after the command (`;`, `&&`, `|`, `>`) and `#` comments are
/// cut off; a trailing backslash continues the line.
fn documented_invocations(text: &str) -> Vec<(String, Vec<String>)> {
    let mut found = Vec::new();
    let (mut fenced, mut pending) = (false, String::new());
    for line in text.lines() {
        if line.trim_start().starts_with("```") {
            fenced = !fenced;
            continue;
        }
        if !fenced {
            continue;
        }
        pending.push_str(line.trim_end().trim_end_matches('\\'));
        pending.push(' ');
        if line.trim_end().ends_with('\\') {
            continue;
        }
        let command = std::mem::take(&mut pending);
        let words: Vec<&str> = command
            .split(';')
            .next()
            .expect("split yields one item")
            .split_whitespace()
            .take_while(|w| !w.starts_with('#') && !["&&", "|", ">", "||"].contains(w))
            .map(|w| w.trim_matches(|c| c == '"' || c == '\''))
            .collect();
        let args = |from: usize| words[from..].iter().map(|w| (*w).to_owned()).collect();
        let after_dashes = || words.iter().position(|w| *w == "--").map(|at| args(at + 1));
        if let Some(at) = words.iter().position(|w| *w == "--bin") {
            let name = words.get(at + 1).expect("`--bin` names a binary");
            found.push(((*name).to_owned(), after_dashes().unwrap_or_default()));
        } else if matches!(
            words.first(),
            Some(&("ci/identity.sh" | "ci/replay.sh" | "ci/against.sh"))
        ) {
            found.push((
                "iswitch-sim".to_owned(),
                after_dashes().expect("`--` first"),
            ));
        } else if let Some(at) = words
            .iter()
            .position(|w| *w == "iswitch-sim" || w.starts_with("target/release/"))
        {
            let name = words[at].trim_start_matches("target/release/");
            found.push((name.to_owned(), args(at + 1)));
        }
    }
    found
}

/// `iswitch-sim`'s command table as `--help` prints it (the binary's own
/// unit test holds help to the table): one row per listed command, one flag
/// per option line.
fn sim_commands() -> Vec<cli::Command> {
    let help = |args: &[&str]| {
        let out = Command::new(env!("CARGO_BIN_EXE_iswitch-sim"))
            .args(args)
            .output()
            .expect("iswitch-sim runs");
        assert_eq!(out.status.code(), Some(0), "{args:?}");
        &*String::from_utf8(out.stdout).expect("utf-8 help").leak()
    };
    let list = help(&["--help"]);
    let (_, commands) = list.split_once("COMMANDS:\n").expect("a command list");
    let names = commands
        .lines()
        .filter(|l| l.starts_with("    ") && !l.starts_with("     "));
    names
        .map(|line| {
            let name = line.split_whitespace().next().expect("a name");
            let flags = help(&[name, "--help"])
                .lines()
                .filter(|l| l.starts_with("    --"))
                .map(|l| cli::Flag::new(l.trim(), ""));
            cli::Command {
                name,
                summary: "",
                flags: flags.collect::<Vec<_>>().leak(),
            }
        })
        .collect()
}

#[test]
fn documented_commands_parse() {
    let sim = sim_commands();
    assert!(sim.iter().any(|c| c.name == "timing" && c.flags.len() > 20));
    let mut paper: Vec<cli::Command> = ARTIFACTS.iter().map(|a| a.command()).collect();
    paper.push(ALL);
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut checked = 0;
    let mut failures = Vec::new();
    for doc in [
        "README.md",
        "EXPERIMENTS.md",
        "OPERATIONS.md",
        "BENCHMARKS.md",
        "DESIGN.md",
        ".claude/skills/verify/SKILL.md",
    ] {
        let text = std::fs::read_to_string(root.join(doc)).expect("doc exists");
        for (program, args) in documented_invocations(&text) {
            let parsed = match program.as_str() {
                "iswitch-sim" => cli::select(&program, "", &sim, &args).map(|_| ()),
                "paper" => cli::select(&program, "", &paper, &args).map(|_| ()),
                "perfgate" => perfgate::COMMAND.parse(&program, &args).map(|_| ()),
                _ => Err(cli::Stop::Refused("no such binary".to_owned())),
            };
            checked += 1;
            if let Err(cli::Stop::Refused(reason)) = parsed {
                let reason = reason.lines().next().unwrap_or_default().to_owned();
                failures.push(format!("{doc}: `{program} {}`: {reason}", args.join(" ")));
            }
        }
    }
    assert!(failures.is_empty(), "{}", failures.join("\n"));
    assert!(checked >= 50, "only {checked} documented invocations found");
}

#[test]
fn design_inventory_names_real_modules() {
    // Every `` `name` — `` bullet under a `### iswitch-<crate>` heading of
    // DESIGN.md is a module of that crate: `<name>.rs` or a directory
    // (`a::b` is a path, `a::{b, c}` several).
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR"));
    let text = std::fs::read_to_string(root.join("DESIGN.md")).expect("doc exists");
    let mut src = None;
    let mut checked = 0;
    let mut missing = Vec::new();
    for line in text.lines() {
        if line.starts_with('#') {
            let name = line.strip_prefix("### iswitch-");
            let name = name.map(|rest| rest.split(' ').next().expect("split yields one item"));
            src = name.map(|name| root.join("crates").join(name).join("src"));
        }
        let (Some(src), Some(bullet)) = (&src, line.strip_prefix("- `")) else {
            continue;
        };
        let Some((names, _)) = bullet.split_once("` — ") else {
            missing.push(format!("not a `name` — bullet: {line}"));
            continue;
        };
        let (stem, leaves) = match names.split_once("::{") {
            Some((stem, leaves)) => (stem, leaves.trim_end_matches('}')),
            None => ("", names),
        };
        for leaf in leaves.split(", ") {
            let module = src.join(stem).join(leaf.replace("::", "/"));
            if !module.with_extension("rs").is_file() && !module.is_dir() {
                missing.push(format!("{line}: no {}[.rs]", module.display()));
            }
            checked += 1;
        }
    }
    assert!(missing.is_empty(), "{}", missing.join("\n"));
    assert!(checked >= 45, "only {checked} inventory bullets found");
}

#[test]
fn multi_recovers_a_mid_run_reset_and_refuses_what_it_cannot_run() {
    // (arguments, expected exit code, text the chosen stream must carry)
    let rows: [(&[&str], i32, &str); 3] = [
        // A switch restart mid-run is recovered, not reported as a stall.
        (
            &["--tenants", "a=ppo/isw,b=a2c/isw", "--reset", "a=40"],
            0,
            "finished",
        ),
        // On a 4-slot fabric the same restart catches two completed
        // host-path rounds inside their emission delay: their results are
        // gone and recovery retries for ever. Refused, not run to OOM.
        (
            &["--fabric-slots", "4", "--join", "b=50", "--reset", "a=40"],
            2,
            "tenant `a` stalled",
        ),
        // A configuration the library rejects is a refusal, not a crash.
        (
            &["--tenants", "a=ppo/ps", "--reset", "a=40"],
            2,
            "reset churn targets iSwitch switches; tenant a has none",
        ),
    ];
    for (args, code, needle) in rows {
        let out = Command::new(env!("CARGO_BIN_EXE_iswitch-sim"))
            .arg("multi")
            .args(args)
            .args(["--iterations", "6"])
            .output()
            .expect("iswitch-sim runs");
        let text = if code == 0 { &out.stdout } else { &out.stderr };
        let text = String::from_utf8_lossy(text);
        assert_eq!(out.status.code(), Some(code), "{args:?}: {text}");
        assert!(text.contains(needle), "{args:?}: {text}");
    }
}

#[test]
fn a_livelocked_run_is_refused_by_name_and_a_long_healthy_one_is_not() {
    // (arguments, expected exit code, texts the chosen stream must carry)
    let rows: [(&str, i32, &[&str]); 2] = [
        // All four contributions of one segment of round 11 are lost: the
        // switch never opens the round, every `Help` for it misses and
        // go-back never resends a contribution. Refused 5 s of simulated
        // time past the last finished round (once: after 20,000 s, as
        // "100000 completion checks"), naming who is stuck where.
        (
            "timing --strategy isw --edge-loss 0.05 --seed 2 --iterations 30",
            2,
            &[
                "iSW job stalled: worker 0 is furthest behind with 11 round(s) finished",
                "since the check at 200.000ms",
            ],
        ),
        // 8.6 s of async-PS updates, whose workers keep no update log: the
        // stall rule reads the server's clock (once: "tenant `a` stalled").
        (
            "multi --tenants a=ppo/async-ps --iterations 2500",
            0,
            &["a          Async PS", "8600.000ms"],
        ),
    ];
    for (args, code, needles) in rows {
        let out = Command::new(env!("CARGO_BIN_EXE_iswitch-sim"))
            .args(args.split(' '))
            .output()
            .expect("iswitch-sim runs");
        let text = if code == 0 { &out.stdout } else { &out.stderr };
        let text = String::from_utf8_lossy(text);
        assert_eq!(out.status.code(), Some(code), "{args:?}: {text}");
        for needle in needles {
            assert!(
                text.contains(needle),
                "{args:?}: missing `{needle}`: {text}"
            );
        }
    }
}

#[test]
fn a_paused_fattree_run_writes_the_same_files_at_every_thread_count() {
    // 70 async-PS updates take ≈ 270 ms: the run crosses the 200 ms check
    // point, so the fat-tree's cut partition is paused mid-run. The trace
    // is streamed with no in-memory window, so every event counts as
    // dropped from it.
    let dir = std::env::temp_dir().join(format!("iswitch-cli-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let run = |threads: &str| {
        let (trace, metrics) = (
            dir.join(format!("t{threads}.jsonl")),
            dir.join(format!("m{threads}.json")),
        );
        let out = Command::new(env!("CARGO_BIN_EXE_iswitch-sim"))
            .args(["timing", "--fattree", "2"])
            .args(["--per-agg", "2", "--per-rack", "2"])
            .args(["--strategy", "async-ps", "--iterations", "70"])
            .args(["--trace-buffer", "0", "--threads", threads])
            .arg("--trace-out")
            .arg(&trace)
            .arg("--metrics-out")
            .arg(&metrics)
            .output()
            .expect("iswitch-sim runs");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(0), "--threads {threads}: {stderr}");
        let read = |path| std::fs::read_to_string(path).expect("artifact written");
        (read(trace), read(metrics))
    };
    let (trace, metrics) = run("1");
    let events = trace.lines().count();
    let (_, after) = metrics
        .split_once("\"sim_time_ns\":")
        .expect("engine summary");
    let sim_ns = after.split(',').next().expect("a value").parse::<u64>();
    assert!(
        sim_ns.is_ok_and(|ns| ns > 200_000_000) && metrics.contains("\"domains\":3"),
        "the run must cross the 200 ms check point on a cut partition"
    );
    let counts = format!("\"trace\":{{\"recorded\":{events},\"dropped\":{events},");
    assert!(metrics.contains(&counts), "no {counts} in the report");
    assert_eq!(run("2"), (trace, metrics), "--threads 2 differs");
    std::fs::remove_dir_all(&dir).expect("temp dir removed");
}
