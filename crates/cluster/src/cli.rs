//! The command-line surface of every executable in the workspace
//! (`iswitch-sim`, `paper`): a [`Command`] is one table row, a
//! [`Flag`] is declared once in it, and that one declaration is what the
//! refusal check, the typed getters of [`Args`] and `--help` all read — so
//! none of them can disagree about which flags exist, whether they take a
//! value, or what they default to.

use std::fmt;
use std::process::exit;
use std::str::FromStr;

/// One flag, as a command's row declares it.
#[derive(Debug, Clone, Copy)]
pub struct Flag {
    /// As typed and as help shows it: `--workers <N>` takes a value,
    /// `--incast` is a switch.
    pub usage: &'static str,
    /// What `--help` says about it.
    pub help: &'static str,
    /// What the declaring command uses when the flag is not given: the
    /// getters return it, `--help` prints it.
    pub default: Option<&'static str>,
}

impl Flag {
    /// A flag with no default.
    pub const fn new(usage: &'static str, help: &'static str) -> Flag {
        Flag {
            usage,
            help,
            default: None,
        }
    }

    /// This flag with the default of the command whose row lists it.
    pub const fn or(self, default: &'static str) -> Flag {
        Flag {
            default: Some(default),
            ..self
        }
    }

    /// The literal argument (`--workers`) and, for a value flag, the
    /// placeholder after it (`<N>`).
    fn parts(&self) -> (&'static str, Option<&'static str>) {
        match self.usage.split_once(' ') {
            Some((name, placeholder)) => (name, Some(placeholder)),
            None => (self.usage, None),
        }
    }

    /// The literal argument, e.g. `--workers`.
    pub fn name(&self) -> &'static str {
        self.parts().0
    }
}

impl fmt::Display for Flag {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// One row of an executable's command table: what the user types, what
/// help says it does, and every flag it takes.
#[derive(Debug, Clone, Copy)]
pub struct Command {
    /// The word that selects it.
    pub name: &'static str,
    /// One sentence for the command list and the head of its own help.
    pub summary: &'static str,
    /// Every flag it takes; anything else is refused.
    pub flags: &'static [Flag],
}

/// Why an invocation ends before anything runs.
#[derive(Debug, PartialEq, Eq)]
pub enum Stop {
    /// `--help`: the text goes to stdout, exit code 0.
    Help(String),
    /// An argument the command cannot honour: the reason goes to stderr,
    /// exit code 2.
    Refused(String),
}

impl Stop {
    /// Prints the text and ends the process with its exit code.
    pub fn exit(self) -> ! {
        match self {
            Stop::Help(text) => {
                print!("{text}");
                exit(0)
            }
            Stop::Refused(reason) => refuse(reason),
        }
    }
}

/// Refuses the invocation: `reason` on stderr, exit code 2.
pub fn refuse(reason: impl fmt::Display) -> ! {
    eprintln!("{reason}");
    exit(2)
}

/// Ends the current line of `out` with `text`, word-wrapped at 76 columns
/// with continuation lines indented by `indent`.
fn wrap(out: &mut String, text: &str, indent: usize) {
    let mut column = out.len() - out.rfind('\n').map_or(0, |at| at + 1);
    for word in text.split_whitespace() {
        if column + word.len() >= 76 {
            out.truncate(out.trim_end().len());
            out.push('\n');
            out.push_str(&" ".repeat(indent));
            column = indent;
        }
        out.push_str(word);
        out.push(' ');
        column += word.len() + 1;
    }
    out.truncate(out.trim_end().len());
    out.push('\n');
}

fn is_help(arg: &str) -> bool {
    arg == "--help" || arg == "-h"
}

impl Command {
    /// The help of this command alone: its flags and the defaults it uses.
    /// `program` is everything the user types before the flags.
    pub fn help(&self, program: &str) -> String {
        let mut out = format!("{program} — ");
        wrap(&mut out, self.summary, 4);
        out.push_str(&format!("\nUSAGE:\n    {program}"));
        if !self.flags.is_empty() {
            out.push_str(" [OPTIONS]\n\nOPTIONS:");
        }
        out.push('\n');
        for flag in self.flags {
            out.push_str(&format!("    {}\n            ", flag.usage));
            let default = flag.default.map(|d| format!(" (default: {d})"));
            let text = format!("{}{}", flag.help, default.unwrap_or_default());
            wrap(&mut out, &text, 12);
        }
        out
    }

    /// Checks `args` against the row before anything runs, so nothing is
    /// silently ignored: `--help` stops with this command's help; an
    /// argument the row does not declare, a flag given twice, or a value
    /// flag with nothing after it is refused by name.
    pub fn parse(&self, program: &str, args: &[String]) -> Result<Args, Stop> {
        let mut given: Vec<(&'static str, String)> = Vec::new();
        let mut rest = args.iter();
        while let Some(arg) = rest.next() {
            if is_help(arg) {
                return Err(Stop::Help(self.help(program)));
            }
            let Some(flag) = self.flags.iter().find(|f| f.name() == arg) else {
                return Err(Stop::Refused(format!(
                    "`{program}` takes no `{arg}` (see `{program} --help`)"
                )));
            };
            if given.iter().any(|(name, _)| name == arg) {
                return Err(Stop::Refused(format!("`{flag}` given twice")));
            }
            let value = match flag.parts().1 {
                None => String::new(),
                Some(_) => match rest.next() {
                    Some(value) => value.clone(),
                    None => return Err(Stop::Refused(format!("{flag} expects a value"))),
                },
            };
            given.push((flag.name(), value));
        }
        Ok(Args {
            command: *self,
            given,
            defaults: true,
        })
    }
}

/// Picks the row `argv[0]` names out of `commands` and checks the rest of
/// `argv` against it. No argument, or `--help`, stops with the command list.
pub fn select(
    program: &str,
    about: &str,
    commands: &[Command],
    argv: &[String],
) -> Result<(usize, Args), Stop> {
    let list = || {
        let mut out = format!(
            "{program} — {about}\n\nUSAGE:\n    {program} <COMMAND> [OPTIONS]\n    \
             {program} <COMMAND> --help\n\nA flag the command does not take, or is given \
             twice, is an error, never ignored.\n\nCOMMANDS:\n"
        );
        for command in commands {
            out.push_str(&format!("    {:<16}", command.name));
            wrap(&mut out, command.summary, 20);
        }
        out
    };
    let Some(name) = argv.first().filter(|name| !is_help(name)) else {
        return Err(Stop::Help(list()));
    };
    let Some(at) = commands.iter().position(|c| c.name == name) else {
        let list = list();
        return Err(Stop::Refused(format!("unknown command `{name}`\n\n{list}")));
    };
    let args = commands[at].parse(&format!("{program} {name}"), &argv[1..])?;
    Ok((at, args))
}

/// The checked arguments of one invocation, read through the flags the
/// command declared.
#[derive(Debug)]
pub struct Args {
    command: Command,
    given: Vec<(&'static str, String)>,
    /// Whether a flag not given reads as its declared default.
    defaults: bool,
}

impl Args {
    /// The row's own declaration of `flag` (the one carrying its default).
    ///
    /// # Panics
    ///
    /// Panics if the command reads a flag its row does not declare — a
    /// flag no user could ever pass.
    fn declared(&self, flag: Flag) -> &'static Flag {
        let command = self.command;
        let row = command.flags.iter().find(|f| f.name() == flag.name());
        row.unwrap_or_else(|| panic!("`{}` reads {flag} but does not declare it", command.name))
    }

    /// Whether `flag` was given.
    pub fn has(&self, flag: Flag) -> bool {
        let name = self.declared(flag).name();
        self.given.iter().any(|(given, _)| *given == name)
    }

    /// The value of `flag`: as given, else the command's default.
    pub fn value(&self, flag: Flag) -> Option<&str> {
        let row = self.declared(flag);
        let given = self.given.iter().find(|(name, _)| *name == row.name());
        match given {
            Some((_, value)) => Some(value),
            None => row.default.filter(|_| self.defaults),
        }
    }

    /// [`Args::value`] through `parse`; a value `parse` does not accept is
    /// refused, naming the flag and its placeholder.
    pub fn get_with<T>(&self, flag: Flag, parse: impl Fn(&str) -> Option<T>) -> Option<T> {
        self.value(flag).map(|text| {
            parse(text).unwrap_or_else(|| {
                let expected = flag.parts().1.unwrap_or("no value");
                refuse(format!("{flag} expects {expected}, got `{text}`"))
            })
        })
    }

    /// [`Args::get_with`] `T`'s own parser.
    pub fn get<T: FromStr>(&self, flag: Flag) -> Option<T> {
        self.get_with(flag, |text| text.parse().ok())
    }

    /// [`Args::value`] as a seed: decimal, or hexadecimal after `0x`.
    pub fn seed(&self, flag: Flag) -> Option<u64> {
        self.get_with(flag, |text| match text.strip_prefix("0x") {
            Some(hex) => u64::from_str_radix(hex, 16).ok(),
            None => text.parse().ok(),
        })
    }

    /// The first flag given that is not one of `reads` — for a mode that
    /// reads only part of its command's row and must refuse the rest by
    /// name rather than ignore it.
    pub fn given_outside(&self, reads: &[Flag]) -> Option<&'static str> {
        let read = |name: &str| reads.iter().any(|flag| flag.name() == name);
        self.given
            .iter()
            .map(|(name, _)| *name)
            .find(|name| !read(name))
    }

    /// These arguments with only what the user typed: every getter returns
    /// `None` for a flag not given. For a mode whose defaults are not the
    /// command's (`timing --fidelity cosim`).
    pub fn only_given(&self) -> Args {
        Args {
            command: self.command,
            given: self.given.clone(),
            defaults: false,
        }
    }
}

/// Creates the directory `path` is in, or ends the process with exit
/// code 1.
pub fn create_parent(path: &str) {
    if let Some(parent) = std::path::Path::new(path).parent() {
        // A bare file name has the empty parent, which always exists.
        std::fs::create_dir_all(parent).unwrap_or_else(|e| {
            eprintln!("cannot create {}: {e}", parent.display());
            exit(1);
        });
    }
}

/// Writes an artifact file, creating its parent directories; a path that
/// cannot be written ends the process with exit code 1.
pub fn write_artifact(path: &str, contents: &str) {
    create_parent(path);
    std::fs::write(path, contents).unwrap_or_else(|e| {
        eprintln!("cannot write {path}: {e}");
        exit(1);
    });
}
