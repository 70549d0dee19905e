//! The shared command-line checker (`iswitch_cluster::cli`): what it
//! refuses, what help prints, and what the getters return.

use iswitch_cluster::cli::{select, Command, Flag, Stop};

const QUICK: Flag = Flag::new("--quick", "small");
const OUT: Flag = Flag::new("--out <PATH>", "where to write");
const SEED: Flag = Flag::new("--seed <N>", "RNG seed");

const RUN: Command = Command {
    name: "run",
    summary: "runs",
    flags: &[QUICK, OUT, SEED.or("0x2A")],
};
const BARE: Command = Command {
    name: "bare",
    summary: "takes nothing",
    flags: &[],
};

fn argv(list: &[&str]) -> Vec<String> {
    list.iter().map(|a| (*a).to_owned()).collect()
}

fn refusal(command: Command, list: &[&str]) -> String {
    match command.parse("prog run", &argv(list)) {
        Err(Stop::Refused(reason)) => reason,
        other => panic!("{list:?} was not refused: {other:?}"),
    }
}

#[test]
fn undeclared_repeated_and_valueless_arguments_are_refused_by_name() {
    assert!(RUN.parse("prog run", &[]).is_ok());
    let typo = refusal(RUN, &["--quik"]);
    assert!(
        typo.contains("`--quik`") && typo.contains("prog run --help"),
        "{typo}"
    );
    assert!(refusal(BARE, &["x"]).contains("`x`"));
    assert_eq!(refusal(RUN, &["--quick", "--out"]), "--out expects a value");
    assert_eq!(
        refusal(RUN, &["--quick", "--quick"]),
        "`--quick` given twice"
    );
    assert_eq!(
        refusal(RUN, &["--out", "a", "--seed", "1", "--out", "b"]),
        "`--out` given twice"
    );
    // A flag's value is not itself checked against the flag list.
    let args = RUN
        .parse("prog run", &argv(&["--out", "--quick"]))
        .expect("accepted");
    assert_eq!(args.value(OUT), Some("--quick"));
    assert!(!args.has(QUICK));
    // The first offence wins: an undeclared flag before `--help` is refused.
    assert!(refusal(RUN, &["--quik", "--help"]).contains("`--quik`"));
}

#[test]
fn getters_return_what_was_given_else_the_rows_default() {
    let args = RUN
        .parse("prog run", &argv(&["--quick", "--out", "m.json"]))
        .expect("accepted");
    assert!(args.has(QUICK) && args.has(OUT) && !args.has(SEED));
    assert_eq!(args.value(OUT), Some("m.json"));
    assert_eq!(args.seed(SEED), Some(42), "the row's default, in hex");
    assert_eq!(args.only_given().seed(SEED), None);
    assert_eq!(args.only_given().value(OUT), Some("m.json"));
    let args = RUN
        .parse("prog run", &argv(&["--seed", "7"]))
        .expect("accepted");
    assert_eq!((args.seed(SEED), args.get::<u8>(SEED)), (Some(7), Some(7)));
    assert_eq!(args.value(OUT), None);
}

#[test]
#[should_panic(expected = "`bare` reads --seed but does not declare it")]
fn reading_a_flag_the_row_does_not_declare_is_a_bug() {
    let args = BARE.parse("prog bare", &[]).expect("accepted");
    let _ = args.value(SEED);
}

#[test]
fn help_is_the_row_and_the_command_list_is_the_table() {
    let Err(Stop::Help(help)) = RUN.parse("prog run", &argv(&["--out", "x", "-h"])) else {
        panic!("-h did not stop with help");
    };
    // The row and nothing else: every flag once, as declared, with the
    // default the getters use.
    let expected = "prog run — runs\n\nUSAGE:\n    prog run [OPTIONS]\n\nOPTIONS:\n    \
                    --quick\n            small\n    --out <PATH>\n            where to write\n    \
                    --seed <N>\n            RNG seed (default: 0x2A)\n";
    assert_eq!(help, expected);
    assert_eq!(help, RUN.help("prog run"));
    let Err(Stop::Help(bare)) = BARE.parse("prog bare", &argv(&["--help"])) else {
        panic!("--help did not stop with help");
    };
    assert!(!bare.contains("OPTIONS"), "{bare}");

    let rows = [RUN, BARE];
    for list in [&[][..], &["--help"], &["-h"]] {
        let Err(Stop::Help(list)) = select("prog", "about", &rows, &argv(list)) else {
            panic!("no command did not stop with the list");
        };
        assert!(list.contains("    run             runs\n"), "{list}");
        assert!(
            list.contains("    bare            takes nothing\n"),
            "{list}"
        );
    }
    let Err(Stop::Refused(unknown)) = select("prog", "about", &rows, &argv(&["walk"])) else {
        panic!("an unknown command was not refused");
    };
    assert!(unknown.starts_with("unknown command `walk`"), "{unknown}");
    let (at, args) = select("prog", "about", &rows, &argv(&["run", "--quick"])).expect("run");
    assert!(at == 0 && args.has(QUICK));
}
