//! `paper <artifact>|all` — regenerates the tables, figures and studies of
//! the paper's evaluation, one [`ARTIFACTS`] row each. `--quick` selects the
//! CI-sized configuration; `paper --help` lists the artifacts and
//! `paper <artifact> --help` the flags one takes.

use iswitch_bench::{Artifact, ALL, ARTIFACTS};
use iswitch_cluster::cli::{select, Command};

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut rows: Vec<Command> = ARTIFACTS.iter().map(Artifact::command).collect();
    rows.push(ALL);
    let about = "regenerates the tables and figures of the iSwitch paper's evaluation";
    let (at, args) = select("paper", about, &rows, &argv).unwrap_or_else(|stop| stop.exit());
    let Some(artifact) = ARTIFACTS.get(at) else {
        // `all`: each row it runs re-reads what `all` was given as its own.
        for artifact in ARTIFACTS.iter().filter(|a| a.in_all()) {
            let program = format!("paper {}", artifact.name);
            let args = artifact.command().parse(&program, &argv[1..]);
            artifact.regenerate(&args.unwrap_or_else(|stop| stop.exit()));
            println!();
        }
        return;
    };
    artifact.regenerate(&args);
}
