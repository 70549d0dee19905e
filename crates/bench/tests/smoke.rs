//! Smoke tests for the bench binaries: each must exit zero and, when
//! passed `--metrics-out`, write a machine-readable artifact that the
//! in-tree JSON parser accepts. CI runs these so a broken bin or a
//! malformed artifact fails the pipeline, not a downstream notebook.

use std::process::Command;

use iswitch_obs::JsonValue;

fn smoke(bin: &str, exe: &str, artifact: &str) {
    let out = std::env::temp_dir().join(format!("iswitch-smoke-{}-{bin}.json", std::process::id()));
    let status = Command::new(exe)
        .arg("--metrics-out")
        .arg(&out)
        .status()
        .unwrap_or_else(|e| panic!("failed to launch {bin}: {e}"));
    assert!(status.success(), "{bin} exited with {status}");

    let text = std::fs::read_to_string(&out)
        .unwrap_or_else(|e| panic!("{bin} wrote no artifact at {}: {e}", out.display()));
    let doc = JsonValue::parse(&text).unwrap_or_else(|e| panic!("{bin} artifact is not JSON: {e}"));
    assert_eq!(
        doc.get("artifact").and_then(|a| a.as_str()),
        Some(artifact),
        "{bin} artifact must name itself"
    );
    let rows = doc
        .get("rows")
        .and_then(|r| r.as_array())
        .unwrap_or_else(|| panic!("{bin} artifact lacks a rows array"));
    assert!(!rows.is_empty(), "{bin} artifact has no rows");
    for row in rows {
        assert!(
            row.get("algorithm").and_then(|a| a.as_str()).is_some(),
            "{bin} rows must carry the algorithm label"
        );
    }
    let _ = std::fs::remove_file(&out);
}

#[test]
fn fig8_writes_parseable_metrics() {
    smoke("fig8", env!("CARGO_BIN_EXE_fig8"), "fig8");
}

#[test]
fn table1_writes_parseable_metrics() {
    smoke("table1", env!("CARGO_BIN_EXE_table1"), "table1");
}

#[test]
fn fidelity_writes_parseable_metrics() {
    smoke("fidelity", env!("CARGO_BIN_EXE_fidelity"), "fidelity");
}

#[test]
fn bins_run_without_flags() {
    for (bin, exe) in [
        ("fig8", env!("CARGO_BIN_EXE_fig8")),
        ("table1", env!("CARGO_BIN_EXE_table1")),
    ] {
        let output = Command::new(exe)
            .output()
            .unwrap_or_else(|e| panic!("failed to launch {bin}: {e}"));
        assert!(
            output.status.success(),
            "{bin} exited with {}",
            output.status
        );
        assert!(!output.stdout.is_empty(), "{bin} printed nothing to stdout");
    }
}

#[test]
fn every_bin_all_launches_exists() {
    // `all` launches siblings of its own executable by name; Cargo builds
    // every bin of the package next to it before running this test.
    let all = std::path::Path::new(env!("CARGO_BIN_EXE_all"));
    for bin in iswitch_bench::ALL_BINS {
        let exe = all
            .with_file_name(bin)
            .with_extension(std::env::consts::EXE_EXTENSION);
        assert!(
            exe.is_file(),
            "`all` lists `{bin}` but {} is missing",
            exe.display()
        );
    }
}

#[test]
fn undeclared_arguments_exit_2_naming_them() {
    let perfgate = env!("CARGO_BIN_EXE_perfgate");
    // (binary, arguments, what stderr must name). The first four are the
    // flags `perfgate` lost with its measuring half: a script that still
    // passes one must fail loudly, before any cell runs.
    let rows: [(&str, &[&str], &str); 10] = [
        (perfgate, &["--stable"], "`--stable`"),
        (perfgate, &["--quick"], "`--quick`"),
        (perfgate, &["--threshold", "0.1"], "`--threshold`"),
        (perfgate, &["--no-pin"], "`--no-pin`"),
        (perfgate, &["--stabel"], "`--stabel`"),
        (perfgate, &["--explain", "--out"], "--out expects a value"),
        (env!("CARGO_BIN_EXE_table3"), &["--quik"], "`--quik`"),
        (
            env!("CARGO_BIN_EXE_table3"),
            &["--metrics-out", "m.json"],
            "`--metrics-out`",
        ),
        (
            env!("CARGO_BIN_EXE_fig8"),
            &["--quick", "--metrics-out"],
            "--metrics-out expects a value",
        ),
        (env!("CARGO_BIN_EXE_all"), &["--quik"], "`--quik`"),
    ];
    for (exe, args, named) in rows {
        let output = Command::new(exe)
            .args(args)
            .output()
            .unwrap_or_else(|e| panic!("failed to launch {exe}: {e}"));
        let stderr = String::from_utf8_lossy(&output.stderr);
        assert_eq!(output.status.code(), Some(2), "{exe} {args:?}: {stderr}");
        assert!(stderr.contains(named), "{exe} {args:?}: {stderr}");
        assert!(
            output.stdout.is_empty(),
            "{exe} {args:?} ran before refusing"
        );
    }
}
