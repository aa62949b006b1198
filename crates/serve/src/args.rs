//! The command-line cursor every polyject binary (`polyjectc`,
//! `polyject-cache`, `polyjectd`, `polyject-router`, `table2`) parses
//! its arguments with, so a missing value, a non-integer, an unknown
//! flag, a GPU name and an endpoint list are each handled — and worded —
//! once. A binary hands [`parse`] its usage text and a loop over
//! [`Args::next_arg`] that reads each flag's value with `?`.

use crate::client::Endpoint;
use polyject_gpusim::GpuModel;

/// A cursor over a command line. [`Args::next_arg`] hands out each argument
/// in turn and remembers it, so the value readers can name the flag they
/// read for in their errors.
pub struct Args {
    rest: std::vec::IntoIter<String>,
    flag: String,
}

impl Args {
    /// A cursor over `args` (the command line without the program name).
    pub fn new(args: Vec<String>) -> Args {
        Args {
            rest: args.into_iter(),
            flag: String::new(),
        }
    }

    /// The next argument, flag or positional.
    pub fn next_arg(&mut self) -> Option<String> {
        self.flag = self.rest.next()?;
        Some(self.flag.clone())
    }

    /// The current flag's value; an error when the line ended, or
    /// another `--flag` stands where the value should.
    pub fn value(&mut self) -> Result<String, String> {
        match self.rest.next() {
            Some(v) if !v.starts_with("--") => Ok(v),
            _ => Err(format!("{} needs a value", self.flag)),
        }
    }

    /// The current flag's value as an integer.
    pub fn int<T: std::str::FromStr>(&mut self) -> Result<T, String> {
        let v = self.value()?;
        v.parse()
            .map_err(|_| format!("{} needs an integer, got {v:?}", self.flag))
    }

    /// The current flag's value as a comma-separated endpoint list (one
    /// endpoint is a list of one; none, or one [`Endpoint::parse`]
    /// rejects, is an error).
    pub fn endpoints(&mut self) -> Result<Vec<Endpoint>, String> {
        let list = self.value()?;
        let addrs = list.split(',').filter(|addr| !addr.is_empty());
        let endpoints: Vec<Endpoint> = addrs
            .map(Endpoint::parse)
            .collect::<Result<_, _>>()
            .map_err(|e| format!("bad {} endpoint: {e}", self.flag))?;
        if endpoints.is_empty() {
            return Err(format!("{} needs an endpoint", self.flag));
        }
        Ok(endpoints)
    }

    /// The current flag's value as a GPU model name.
    pub fn gpu(&mut self) -> Result<GpuModel, String> {
        match self.value()?.as_str() {
            "v100" => Ok(GpuModel::v100()),
            "a100" => Ok(GpuModel::a100()),
            "consumer" => Ok(GpuModel::consumer()),
            other => Err(format!(
                "unknown {} {other:?} (v100|a100|consumer)",
                self.flag
            )),
        }
    }

    /// The error for an argument no arm of the caller's `match` took.
    pub fn unexpected(&self) -> String {
        format!("unexpected argument {}", self.flag)
    }
}

/// Parses the process's command line with `parse`. `--help`/`-h`
/// anywhere prints `usage` and exits 0; an `Err` prints the message and
/// `usage` on stderr and exits 2 — before the caller has done any work.
pub fn parse<T>(usage: &str, parse: impl FnOnce(&mut Args) -> Result<T, String>) -> T {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.iter().any(|a| a == "--help" || a == "-h") {
        eprintln!("{usage}");
        std::process::exit(0);
    }
    parse(&mut Args::new(argv)).unwrap_or_else(|e| {
        eprintln!("{e}\n{usage}");
        std::process::exit(2)
    })
}
