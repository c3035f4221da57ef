//! Command line of the repo benchmark.
//!
//! ```text
//! wft-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>
//!     one run; the last line of stdout is the result object
//! wft-benchmark [--seed <n>] [--seconds <s>] [--smoke] [--aa]
//!     the whole set: every workload untraced, then the traced pass
//!     (--aa: the untraced set twice, with the difference against the bounds)
//! wft-benchmark --list
//!     the metric table
//! ```

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use serde::Value;
use wft_benchmark::json;
use wft_benchmark::ops::{CLIENTS, DURABLE_CLIENTS};
use wft_benchmark::spec::{Workload, END_TO_END, PER_LAYER};
use wft_benchmark::suite::{traced_run, untraced_run, Outcome};
use wft_benchmark::workloads;

struct Args {
    workload: Option<Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
    aa: bool,
    list: bool,
    out: PathBuf,
    commit: String,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 42,
        seconds: 20.0,
        trace: false,
        smoke: false,
        aa: false,
        list: false,
        out: PathBuf::from("benchmark/out"),
        commit: "unknown".into(),
    };
    let mut argv = std::env::args().skip(1);
    while let Some(flag) = argv.next() {
        let mut value = || argv.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                args.workload =
                    Some(Workload::from_name(&name).ok_or(format!("unknown workload {name}"))?);
            }
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(args.seconds > 0.0 && args.seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--out" => args.out = PathBuf::from(value()?),
            "--commit" => args.commit = value()?,
            "--smoke" => args.smoke = true,
            "--aa" => args.aa = true,
            "--list" => args.list = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if args.smoke {
        // 1 s windows; every correctness check stays on.
        args.seconds = workloads::WINDOWS as f64;
    }
    Ok(args)
}

fn stamp(args: &Args) -> Value {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    json::map([
        ("nproc", Value::U64(nproc as u64)),
        ("client_threads", Value::U64(CLIENTS as u64)),
        ("durable_client_threads", Value::U64(DURABLE_CLIENTS as u64)),
        (
            "threads_per_core",
            Value::F64(CLIENTS as f64 / nproc.max(1) as f64),
        ),
        (
            "profile",
            Value::Str(
                if cfg!(debug_assertions) {
                    "debug"
                } else {
                    "release"
                }
                .into(),
            ),
        ),
        ("commit", Value::Str(args.commit.clone())),
        ("seed", Value::U64(args.seed)),
        ("seconds", Value::F64(args.seconds)),
    ])
}

fn write_results(path: &Path, args: &Args, outcomes: &[Outcome]) {
    let runs = outcomes
        .iter()
        .map(|o| {
            json::map([
                ("workload", Value::Str(o.workload.into())),
                ("trace", Value::Bool(o.trace)),
                ("correct", Value::Bool(o.correct())),
                ("attempted", Value::U64(o.attempted)),
                ("failed", Value::U64(o.failed)),
                ("metrics", o.metrics_value()),
            ])
        })
        .collect();
    let doc = json::map([("stamp", stamp(args)), ("runs", Value::Seq(runs))]);
    let written = std::fs::create_dir_all(path.parent().expect("results path has a directory"))
        .and_then(|()| std::fs::write(path, json::render(&doc) + "\n"));
    match written {
        Ok(()) => println!("wrote {}", path.display()),
        Err(err) => eprintln!("cannot write {}: {err}", path.display()),
    }
}

fn untraced_set(args: &Args) -> Vec<Outcome> {
    Workload::ALL
        .into_iter()
        .map(|w| {
            let outcome = untraced_run(w, args.seed, args.seconds);
            outcome.print_metrics();
            outcome
        })
        .collect()
}

/// Regression bounds of the end-to-end metrics, from `BENCHMARK.json` in
/// the working directory.
fn declared_bounds() -> Result<Vec<(String, f64)>, String> {
    let text = std::fs::read_to_string("BENCHMARK.json")
        .map_err(|e| format!("cannot read BENCHMARK.json: {e}"))?;
    let doc = json::parse(&text)?;
    json::items(doc.get("end_to_end").map_err(|e| e.to_string())?)
        .iter()
        .map(|m| {
            let name = json::text(m.get("name").map_err(|e| e.to_string())?)?;
            let bound = json::number(m.get("bound").map_err(|e| e.to_string())?)?;
            Ok((name, bound))
        })
        .collect()
}

/// The untraced set twice on the same code and seed; prints how far apart
/// the two came out, next to each metric's bound.
fn aa(args: &Args) -> bool {
    let bounds = match declared_bounds() {
        Ok(b) => b,
        Err(err) => {
            eprintln!("{err}");
            return false;
        }
    };
    let first = untraced_set(args);
    write_results(&args.out.join("aa-1.json"), args, &first);
    let second = untraced_set(args);
    write_results(&args.out.join("aa-2.json"), args, &second);
    let mut within = true;
    println!("# A/A: relative difference of the second set against the first");
    for (a, b) in first.iter().zip(&second) {
        for ((name, x), (_, y)) in a.metrics.iter().zip(&b.metrics) {
            let diff = (y - x).abs() / x.abs();
            let bound = bounds
                .iter()
                .find(|(n, _)| n == name)
                .map_or(f64::NAN, |(_, b)| *b);
            let ok = diff <= bound;
            within &= ok;
            println!(
                "{} {name} first {x} second {y} diff {:.2} % bound {:.0} % {}",
                a.workload,
                diff * 100.0,
                bound * 100.0,
                if ok { "ok" } else { "OUTSIDE" }
            );
        }
    }
    within && first.iter().chain(&second).all(Outcome::correct)
}

fn list() {
    println!("| workload | why |");
    println!("|---|---|");
    for w in Workload::ALL {
        println!("| `{}` | {} |", w.name(), w.why());
    }
    println!();
    println!("| metric | unit | better | layer | should move |");
    println!("|---|---|---|---|---|");
    for e in END_TO_END {
        println!(
            "| `{}` | {} | {} | end to end | {} |",
            e.name,
            e.unit,
            e.better.as_str(),
            e.meaning
        );
    }
    for p in PER_LAYER {
        let moves: Vec<String> = p
            .moves
            .iter()
            .map(|(metric, workload)| format!("`{metric}` on {workload}"))
            .collect();
        println!(
            "| `{}` | {} | {} | {} | {} |",
            p.name,
            p.unit,
            p.better.as_str(),
            p.layer(),
            moves.join(", ")
        );
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(err) => {
            eprintln!("{err}");
            return ExitCode::from(2);
        }
    };
    if args.list {
        list();
        return ExitCode::SUCCESS;
    }
    println!("# machine {}", json::render(&stamp(&args)));
    let ok = match (args.workload, args.aa) {
        (Some(workload), _) => {
            let outcome = if args.trace {
                traced_run(Some(workload), args.seed, args.seconds, &args.out)
            } else {
                untraced_run(workload, args.seed, args.seconds)
            };
            outcome.print_metrics();
            println!("{}", outcome.result_line());
            outcome.correct()
        }
        (None, true) => aa(&args),
        (None, false) => {
            let mut outcomes = untraced_set(&args);
            let traced = traced_run(None, args.seed, args.seconds, &args.out);
            traced.print_metrics();
            outcomes.push(traced);
            write_results(&args.out.join("results.json"), &args, &outcomes);
            outcomes.iter().all(Outcome::correct)
        }
    };
    workloads::remove_durable_image();
    if ok {
        ExitCode::SUCCESS
    } else {
        eprintln!("FAILED: an operation failed, a check did not hold, or a metric is missing");
        ExitCode::FAILURE
    }
}
