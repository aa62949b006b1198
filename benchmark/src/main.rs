//! The polyject benchmark: four workloads, the end-to-end metrics a user
//! of the stack would see, and a per-layer ledger — every layer measured
//! from outside, through its public functions and public counters.
//!
//! ```text
//! polyject-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! polyject-benchmark run --all [--quick] [--seed N] [--seconds S]
//! polyject-benchmark run <workload> | trace <workload>   [--seed N] [--seconds S]
//! polyject-benchmark repeat [--seed N] [--seconds S]
//! ```
//!
//! The last line of a workload run's standard output is its result:
//! `{"correct":…,"attempted":…,"failed":…,"metrics":{…}}`; the line before
//! it carries the detail (passes, ungated medians, failures).

mod compile_cold;
mod est;
mod fleet;
mod inputs;
mod metrics;
mod probes;
mod serve_batch;
mod serve_warm;
mod suite;
mod trace;
mod tune_search;

use est::Workload;
use metrics::{Ledger, END_TO_END, PER_LAYER, WORKLOADS};
use polyject_serve::Json;
use std::cell::RefCell;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Duration;

/// Seconds one run measures for, unless told otherwise; `BENCHMARK.json`
/// says the same.
const DEFAULT_SECONDS: f64 = 15.0;
const DEFAULT_SEED: u64 = 0x5eed;

thread_local! {
    static NOTES: RefCell<Vec<(&'static str, String)>> = const { RefCell::new(Vec::new()) };
}

/// Adds a named remark to the run's detail line.
pub fn note(name: &'static str, text: String) {
    NOTES.with(|n| n.borrow_mut().push((name, text)));
}

/// Everything a workload run writes — daemon sockets, their caches, probe
/// caches — goes into a directory of its own under `out/`, which is the
/// working directory while the workload runs and is removed when `main`
/// returns or unwinds.
struct Scratch(PathBuf);

impl Scratch {
    fn enter() -> std::io::Result<Scratch> {
        let dir = std::env::current_dir()?.join(format!("out/t{}", std::process::id()));
        std::fs::create_dir_all(&dir)?;
        // Being inside it keeps every path relative and short: a Unix
        // socket path must fit `sun_path` (~108 bytes) wherever the
        // checkout lives.
        std::env::set_current_dir(&dir)?;
        std::env::set_var("TMPDIR", ".");
        Ok(Scratch(dir))
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

pub struct Args {
    pub seed: u64,
    pub seconds: f64,
}

enum Mode {
    Workload { name: String, trace: bool },
    All,
    Repeat,
}

fn parse(argv: &[String]) -> Result<(Mode, Args), String> {
    let mut args = Args {
        seed: DEFAULT_SEED,
        seconds: DEFAULT_SECONDS,
    };
    let (mut verb, mut workload, mut all, mut trace) = (None, None, false, false);
    let mut it = argv.iter();
    while let Some(arg) = it.next() {
        let mut value = |what: &str| it.next().ok_or(format!("{what} needs a value"));
        match arg.as_str() {
            "run" | "trace" | "repeat" if verb.is_none() => verb = Some(arg.as_str()),
            "--all" => all = true,
            "--quick" => args.seconds = 0.0,
            "--workload" => workload = Some(value("--workload")?.clone()),
            "--seed" => {
                args.seed = value("--seed")?
                    .parse()
                    .map_err(|_| "--seed is not a number")?
            }
            "--seconds" => {
                args.seconds = value("--seconds")?
                    .parse()
                    .ok()
                    .filter(|s: &f64| (0.0..=600.0).contains(s))
                    .ok_or("--seconds is not a number in 0..=600")?;
            }
            "--trace" => trace = value("--trace")? == "1",
            name if !name.starts_with('-') && workload.is_none() => workload = Some(name.into()),
            other => return Err(format!("unexpected argument {other:?}")),
        }
    }
    let mode = match (verb, all, workload) {
        (Some("repeat"), false, None) => Mode::Repeat,
        (Some("run"), true, None) => Mode::All,
        (verb, false, Some(name)) if WORKLOADS.contains(&name.as_str()) => Mode::Workload {
            name,
            trace: trace || verb == Some("trace"),
        },
        (_, _, Some(name)) => return Err(format!("unknown workload {name:?}")),
        _ => return Err("name a workload, `run --all` or `repeat`".into()),
    };
    Ok((mode, args))
}

/// Runs one workload in this process and prints its two lines.
fn run_workload<W: Workload>(name: &str, traced: bool, args: &Args) {
    let budget = Duration::from_secs_f64(args.seconds);
    let (mut w, mut rec, set_up_s) = est::set_up_repeated::<W>(args.seed, budget);
    let mut e2e = Ledger::new(END_TO_END);
    let mut layers = traced.then(|| Ledger::new(PER_LAYER));

    // End-to-end numbers always come from unrecorded passes; a traced run
    // alternates them with recorded ones and reports the difference as the
    // tracer's cost, both kinds starting from nothing.
    if traced {
        rec.reset_timings();
    }
    est::measure(&mut w, &mut rec, budget, traced);
    let timing = rec.timing(false);
    // Everything before the first measured pass: the set-up as timed, the
    // warm-up pass at what a pass costs undisturbed.
    e2e.set("setup_s", set_up_s + timing.sum_best_s);
    e2e.set("ops_per_s", timing.ops_per_s);
    e2e.set("op_ms_p50", timing.op_ms_p50);
    e2e.set("op_ms_p90", timing.op_ms_p90);
    if let Some(layers) = layers.as_mut() {
        // The checks and probes of `finish` record too.
        trace::record(true);
        layers.set(
            "trace.overhead_share",
            rec.timing(true).sum_best_s / timing.sum_best_s - 1.0,
        );
        let spans = trace::layers();
        layers.set(
            "trace.unattributed_share",
            spans.self_ms(rec.root()) / spans.total_ms(rec.root()),
        );
    }
    let checks = std::time::Instant::now();
    w.finish(&mut rec, &mut e2e, layers.as_mut());
    let checks_s = checks.elapsed().as_secs_f64();
    e2e.set("peak_rss_mb", est::peak_rss_mb());
    if traced {
        let path = format!("../trace_{name}.json");
        trace::write(&path, name, args.seed).unwrap_or_else(|e| panic!("{path}: {e}"));
    }

    let reported = layers.as_ref().unwrap_or(&e2e);
    let exact: Vec<String> = reported
        .iter()
        .filter(|(def, _)| def.exact)
        .map(|(def, _)| def.name.to_string())
        .collect();
    let strings = |v: &[String]| Json::Arr(v.iter().map(|s| Json::Str(s.clone())).collect());
    let mut detail = vec![
        ("workload", Json::Str(name.to_string())),
        ("seed", Json::Num(args.seed as f64)),
        ("passes", Json::Num(timing.pass_totals_s.len() as f64)),
        ("sum_best_s", Json::Num(timing.sum_best_s)),
        ("ops_per_s.median", Json::Num(timing.ops_per_s_median)),
        (
            "pass_totals_s",
            Json::Arr(timing.pass_totals_s.iter().map(|&s| Json::Num(s)).collect()),
        ),
        // What the output checks (and, traced, the probes) cost this run.
        ("checks_s", Json::Num(checks_s)),
        // The reported metrics that must repeat to the last digit.
        ("exact", strings(&exact)),
        ("failures", strings(&rec.failures)),
        ("violations", strings(&rec.violations)),
    ];
    NOTES.with(|n| {
        for (name, text) in n.borrow().iter() {
            detail.push((name, Json::Str(text.clone())));
        }
    });
    println!("{}", Json::obj(detail).render());

    let metrics = reported
        .iter()
        .map(|(def, value)| {
            let metric = Json::obj(vec![
                ("value", Json::Num(value)),
                ("unit", Json::Str(def.unit.to_string())),
            ]);
            (def.name.to_string(), metric)
        })
        .collect();
    let result = Json::obj(vec![
        (
            "correct",
            Json::Bool(rec.failed == 0 && rec.violations.is_empty()),
        ),
        ("attempted", Json::Num(rec.attempted as f64)),
        ("failed", Json::Num(rec.failed as f64)),
        ("metrics", Json::Obj(metrics)),
    ]);
    println!("{}", result.render());
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let (mode, args) = match parse(&argv) {
        Ok(parsed) => parsed,
        Err(e) => {
            eprintln!("polyject-benchmark: {e}");
            return ExitCode::from(2);
        }
    };
    // The package's own directory, wherever the command was typed.
    if let Err(e) = std::env::set_current_dir(env!("CARGO_MANIFEST_DIR")) {
        eprintln!("polyject-benchmark: {}: {e}", env!("CARGO_MANIFEST_DIR"));
        return ExitCode::FAILURE;
    }
    match mode {
        Mode::All => suite::run_all(&args),
        Mode::Repeat => suite::repeat(&args),
        Mode::Workload { name, trace } => {
            let _scratch = match Scratch::enter() {
                Ok(s) => s,
                Err(e) => {
                    eprintln!("polyject-benchmark: scratch directory: {e}");
                    return ExitCode::FAILURE;
                }
            };
            match name.as_str() {
                "compile_cold" => run_workload::<compile_cold::CompileCold>(&name, trace, &args),
                "tune_search" => run_workload::<tune_search::TuneSearch>(&name, trace, &args),
                "serve_warm" => run_workload::<serve_warm::ServeWarm>(&name, trace, &args),
                _ => run_workload::<serve_batch::ServeBatch>(&name, trace, &args),
            }
            ExitCode::SUCCESS
        }
    }
}
