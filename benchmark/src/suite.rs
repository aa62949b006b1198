//! `run --all` and `repeat`: every workload, each in a process of its own
//! (so `peak_rss_mb` is that workload's), gathered into one document.

use crate::metrics::{Def, END_TO_END, PER_LAYER, WORKLOADS};
use crate::Args;
use polyject_serve::Json;
use std::process::{Command, ExitCode, Stdio};

/// The repo's declaration of this benchmark, seen from `benchmark/`.
const DECLARATION: &str = "../BENCHMARK.json";

fn declaration() -> Result<Json, String> {
    let text = std::fs::read_to_string(DECLARATION).map_err(|e| format!("{DECLARATION}: {e}"))?;
    Json::parse(&text).map_err(|e| format!("{DECLARATION}: {e}"))
}

fn declared_names(doc: &Json, section: &str) -> Vec<String> {
    doc.get(section)
        .and_then(Json::as_arr)
        .unwrap_or(&[])
        .iter()
        .filter_map(|entry| Some(entry.get("name")?.as_str()?.to_string()))
        .collect()
}

/// Every difference between the names `BENCHMARK.json` declares and the
/// names this program prints; empty when they agree.
fn name_mismatches(doc: &Json) -> Vec<String> {
    let mut out = Vec::new();
    let mut compare = |section: &str, printed: Vec<&str>| {
        let declared = declared_names(doc, section);
        for name in &declared {
            let well_formed = !name.is_empty()
                && name
                    .chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c));
            if !well_formed {
                out.push(format!("{section}: {name:?} is not [A-Za-z0-9_.-]+"));
            }
            if !printed.contains(&name.as_str()) {
                out.push(format!("{section}: {name} is declared but never printed"));
            }
        }
        for name in printed {
            if !declared.iter().any(|d| d == name) {
                out.push(format!("{section}: {name} is printed but not declared"));
            }
        }
    };
    let names = |defs: &[Def]| defs.iter().map(|d| d.name).collect();
    compare("workloads", WORKLOADS.to_vec());
    compare("end_to_end", names(END_TO_END));
    compare("per_layer", names(PER_LAYER));
    out
}

/// Runs one workload in a child process and returns its detail and
/// result lines, parsed.
fn child(workload: &str, args: &Args) -> Result<(Json, Json), String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let out = Command::new(exe)
        .args(["--workload", workload, "--trace", "0"])
        .args(["--seed", &args.seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .stdin(Stdio::null())
        .output()
        .map_err(|e| format!("{workload}: {e}"))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    let mut lines = stdout.lines().rev();
    let parsed = (|| {
        let result = Json::parse(lines.next()?).ok()?;
        let detail = Json::parse(lines.next()?).ok()?;
        Some((detail, result))
    })();
    match parsed {
        Some(lines) if out.status.success() => Ok(lines),
        _ => Err(format!(
            "{workload}: {}\n{}",
            out.status,
            String::from_utf8_lossy(&out.stderr)
        )),
    }
}

/// One full set of runs: `workload → {correct, attempted, failed, passes,
/// metrics: {name → {value, unit, exact}}}`.
fn run_set(args: &Args) -> Result<(Json, bool), String> {
    let mut all_correct = true;
    let mut workloads = Vec::new();
    for workload in WORKLOADS {
        eprintln!("[benchmark] {workload} …");
        let (detail, result) = child(workload, args)?;
        all_correct &= result.get("correct").and_then(Json::as_bool) == Some(true);
        let metrics = END_TO_END
            .iter()
            .map(|def| {
                let value = result
                    .get("metrics")
                    .and_then(|m| m.get(def.name)?.get("value"))
                    .cloned()
                    .unwrap_or(Json::Null);
                let metric = Json::obj(vec![
                    ("value", value),
                    ("unit", Json::Str(def.unit.to_string())),
                    ("exact", Json::Bool(def.exact)),
                ]);
                (def.name.to_string(), metric)
            })
            .collect();
        let mut entry: Vec<(String, Json)> = ["correct", "attempted", "failed"]
            .iter()
            .map(|k| (k.to_string(), result.get(k).cloned().unwrap_or(Json::Null)))
            .collect();
        entry.push(("metrics".into(), Json::Obj(metrics)));
        entry.push(("detail".into(), detail));
        workloads.push((workload.to_string(), Json::Obj(entry)));
    }
    Ok((Json::Obj(workloads), all_correct))
}

fn fail(e: String) -> ExitCode {
    eprintln!("polyject-benchmark: {e}");
    ExitCode::FAILURE
}

pub fn run_all(args: &Args) -> ExitCode {
    let mismatches = match declaration() {
        Ok(doc) => name_mismatches(&doc),
        Err(e) => return fail(e),
    };
    let (workloads, all_correct) = match run_set(args) {
        Ok(set) => set,
        Err(e) => return fail(e),
    };
    let doc = Json::obj(vec![
        ("seed", Json::Num(args.seed as f64)),
        ("seconds", Json::Num(args.seconds)),
        (
            "name_mismatches",
            Json::Arr(mismatches.iter().cloned().map(Json::Str).collect()),
        ),
        ("workloads", workloads),
    ]);
    print!("{}", doc.render_pretty());
    if all_correct && mismatches.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Two full sets of runs of the same build, every end-to-end metric of
/// the second held against the first within its declared bound (exact
/// metrics: identical). Writes `out/repeat.json`.
pub fn repeat(args: &Args) -> ExitCode {
    let doc = match declaration() {
        Ok(doc) => doc,
        Err(e) => return fail(e),
    };
    let bound = |name: &str| {
        doc.get("end_to_end")
            .and_then(Json::as_arr)?
            .iter()
            .find(|m| m.get("name").and_then(Json::as_str) == Some(name))?
            .get("bound")?
            .as_f64()
    };
    let sets = match (run_set(args), run_set(args)) {
        (Ok(a), Ok(b)) => [a, b],
        (Err(e), _) | (_, Err(e)) => return fail(e),
    };
    let value = |set: &Json, workload: &str, name: &str| {
        set.get(workload)?
            .get("metrics")?
            .get(name)?
            .get("value")?
            .as_f64()
    };
    let mut rows = Vec::new();
    let mut misses = 0;
    for workload in WORKLOADS {
        for def in END_TO_END {
            let (a, b) = (
                value(&sets[0].0, workload, def.name),
                value(&sets[1].0, workload, def.name),
            );
            let allowed = bound(def.name).unwrap_or(0.0);
            let apart = match (a, b) {
                (Some(a), Some(b)) if a == b => 0.0,
                (Some(a), Some(b)) => (a - b).abs() / a.abs().min(b.abs()),
                _ => f64::INFINITY,
            };
            let within = if def.exact {
                apart == 0.0
            } else {
                apart <= allowed
            };
            misses += usize::from(!within);
            rows.push(Json::obj(vec![
                ("workload", Json::Str(workload.to_string())),
                ("metric", Json::Str(def.name.to_string())),
                ("first", a.map_or(Json::Null, Json::Num)),
                ("second", b.map_or(Json::Null, Json::Num)),
                ("apart", Json::Num(apart)),
                ("bound", Json::Num(allowed)),
                ("exact", Json::Bool(def.exact)),
                ("within", Json::Bool(within)),
            ]));
        }
    }
    let all_correct = sets[0].1 && sets[1].1;
    let report = Json::obj(vec![
        ("seed", Json::Num(args.seed as f64)),
        ("seconds", Json::Num(args.seconds)),
        ("all_correct", Json::Bool(all_correct)),
        ("misses", Json::Num(misses as f64)),
        ("rows", Json::Arr(rows)),
    ]);
    let text = report.render_pretty();
    if let Err(e) = std::fs::write("out/repeat.json", &text) {
        return fail(format!("out/repeat.json: {e}"));
    }
    print!("{text}");
    if all_correct && misses == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
