//! Smoke tests for the `paper` binary: `paper <artifact>` must exit zero
//! and, when passed `--metrics-out`, write a machine-readable artifact
//! that the in-tree JSON parser accepts; every row's `--help` must list
//! the flags the row declares and nothing else. CI runs these so a broken
//! artifact or a malformed document fails the pipeline, not a downstream
//! notebook.

use std::process::{Command, Output};

use iswitch_bench::{ALL, ARTIFACTS};
use iswitch_obs::JsonValue;

fn paper(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_paper"))
        .args(args)
        .output()
        .unwrap_or_else(|e| panic!("failed to launch paper {args:?}: {e}"))
}

fn smoke(artifact: &str) {
    let out = std::env::temp_dir().join(format!(
        "iswitch-smoke-{}-{artifact}.json",
        std::process::id()
    ));
    let path = out.to_str().expect("utf-8 temp dir");
    let status = paper(&[artifact, "--metrics-out", path]).status;
    assert!(status.success(), "{artifact} exited with {status}");

    let text = std::fs::read_to_string(&out)
        .unwrap_or_else(|e| panic!("{artifact} wrote no artifact at {path}: {e}"));
    let doc = JsonValue::parse(&text).unwrap_or_else(|e| panic!("{artifact} is not JSON: {e}"));
    assert_eq!(
        doc.get("artifact").and_then(|a| a.as_str()),
        Some(artifact),
        "{artifact} artifact must name itself"
    );
    let rows = doc
        .get("rows")
        .and_then(|r| r.as_array())
        .unwrap_or_else(|| panic!("{artifact} artifact lacks a rows array"));
    assert!(!rows.is_empty(), "{artifact} artifact has no rows");
    for row in rows {
        assert!(
            row.get("algorithm").and_then(|a| a.as_str()).is_some(),
            "{artifact} rows must carry the algorithm label"
        );
    }
    let _ = std::fs::remove_file(&out);
}

#[test]
fn fig8_writes_parseable_metrics() {
    smoke("fig8");
}

#[test]
fn table1_writes_parseable_metrics() {
    smoke("table1");
}

#[test]
fn fidelity_writes_parseable_metrics() {
    smoke("fidelity");
}

#[test]
fn artifacts_run_without_flags() {
    for artifact in ["fig8", "table1"] {
        let output = paper(&[artifact]);
        assert!(output.status.success(), "{artifact}: {}", output.status);
        let stdout = String::from_utf8_lossy(&output.stdout);
        let row = ARTIFACTS.iter().find(|a| a.name == artifact).expect("row");
        let banner = format!("{} — {}", row.title, row.description);
        assert!(stdout.contains(&banner), "{artifact} printed no banner");
    }
}

#[test]
fn every_row_answers_help_with_its_own_flags_and_defaults() {
    // `Command::help` prints a row's flags and defaults and nothing else
    // (`crates/cluster/tests/cli.rs`); `paper` must print exactly that.
    for row in ARTIFACTS.iter().map(|a| a.command()).chain([ALL]) {
        let program = format!("paper {}", row.name);
        let output = paper(&[row.name, "--help"]);
        assert_eq!(output.status.code(), Some(0), "{program} --help");
        assert_eq!(String::from_utf8_lossy(&output.stdout), row.help(&program));
    }
    // The command list names every row, `all` included.
    let list = String::from_utf8_lossy(&paper(&["--help"]).stdout).into_owned();
    for name in ARTIFACTS.iter().map(|a| a.name).chain([ALL.name]) {
        assert!(list.contains(&format!("\n    {name} ")), "{name}:\n{list}");
    }
}

#[test]
fn undeclared_arguments_exit_2_naming_them() {
    // (arguments, what stderr must name)
    let rows: [(&[&str], &str); 7] = [
        (&["table3", "--quik"], "`--quik`"),
        (&["table3", "--metrics-out", "m.json"], "`--metrics-out`"),
        (
            &["fig8", "--quick", "--metrics-out"],
            "--metrics-out expects a value",
        ),
        (&["fig8", "--quick", "--quick"], "`--quick` given twice"),
        (&["all", "--quik"], "`--quik`"),
        (&["all", "--metrics-out", "m.json"], "`--metrics-out`"),
        (&["table33"], "unknown command `table33`"),
    ];
    for (args, named) in rows {
        let output = paper(args);
        let stderr = String::from_utf8_lossy(&output.stderr);
        assert_eq!(output.status.code(), Some(2), "paper {args:?}: {stderr}");
        assert!(stderr.contains(named), "paper {args:?}: {stderr}");
        assert!(
            output.stdout.is_empty(),
            "paper {args:?} ran before refusing"
        );
    }
}

#[test]
fn all_is_the_fifteen_paper_rows_in_table_order() {
    let run: Vec<&str> = ARTIFACTS
        .iter()
        .filter(|a| a.in_all())
        .map(|a| a.name)
        .collect();
    assert_eq!(run.len(), 15);
    assert_eq!((run[0], run[14]), ("table1", "bandwidth_sweep"));
    assert!(!run.contains(&"fidelity") && !run.contains(&"chaos"));
}
