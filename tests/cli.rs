//! Flag combinations `iswitch-sim timing` must refuse (exit code 2 with a
//! message naming the flag) instead of running something other than what
//! was asked for.

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
