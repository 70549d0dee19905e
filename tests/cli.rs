//! Invocations `iswitch-sim` must refuse (exit code 2 with a message
//! naming the cause) instead of running something other than what was
//! asked for, or dying on an internal panic — and one it must run the
//! same way at every thread count: a cut partition paused at a check
//! point.

use std::process::Command;

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
    let rows: [(&[&str], i32, &str); 8] = [
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
        (&["timing", "--help"], 0, "USAGE"),
        (&["multi", "--tenants", "a=ppo", "-h"], 0, "USAGE"),
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
