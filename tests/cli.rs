//! Invocations `iswitch-sim timing` must refuse (exit code 2 with a
//! message naming the cause) instead of running something other than what
//! was asked for, or dying on an internal panic.

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
