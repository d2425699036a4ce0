//! `perfbench --workload NAME --seed N --seconds S --trace 0|1`
//!
//! Runs one workload in this process and prints a human-readable report
//! followed, on the last line, by one JSON object:
//! `{"correct": …, "attempted": …, "failed": …, "metrics": {…}}`.
//! `--trace 0` reports the end-to-end metrics of an untraced run;
//! `--trace 1` runs untraced and then traced, half the seconds each,
//! writes the traced run's spans to `perfbench/out/`, and reports the
//! per-layer metrics. Exits 1 when a check fails and 2 on a usage error.

use perfbench::{
    fleet, result_line, serve, solve, trace::Tracer, Run, END_TO_END, PER_LAYER, WORKLOADS,
};
use std::path::PathBuf;
use std::process::ExitCode;

const USAGE: &str = "usage: perfbench --workload serve-mix|serve-flood|solve-a3|fleet \
                     --seed N --seconds S --trace 0|1";

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let (mut seed, mut seconds, mut trace) = (None, None, None);
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag}: not a number: {value}"))
        };
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(number()?),
            "--seconds" => seconds = Some(number()?.max(1)),
            "--trace" => trace = Some(number()? != 0),
            other => return Err(format!("unknown flag {other}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}"));
    }
    Ok(Args {
        workload,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(10),
        trace: trace.unwrap_or(false),
    })
}

fn run_workload(args: &Args, seconds: u64, tracer: &mut Tracer) -> Result<Run, String> {
    match args.workload.as_str() {
        "serve-mix" => serve::run(&serve::MIX, args.seed, seconds, tracer),
        "serve-flood" => serve::run(&serve::FLOOD, args.seed, seconds, tracer),
        "solve-a3" => solve::run(args.seed, seconds, tracer),
        "fleet" => fleet::run(args.seed, seconds, tracer),
        other => Err(format!("unknown workload {other}")),
    }
}

fn print_run(label: &str, run: &Run) {
    let e2e = run.end_to_end();
    println!(
        "[{label}] ops={} failed={} error_rate={}",
        run.attempted,
        run.failed,
        error_rate(run)
    );
    for ((name, unit), value) in END_TO_END.iter().zip(e2e) {
        println!("[{label}] {name} {value} {unit}");
    }
    println!(
        "[{label}] op samples n={} setup reps={}",
        run.op_ms.len(),
        run.setup_s.len()
    );
    for note in &run.notes {
        println!("[{label}] {note}");
    }
    for mismatch in &run.mismatches {
        println!("[{label}] MISMATCH {mismatch}");
    }
}

/// Median per-operation slowdown of the traced run, in percent, over the
/// operations both runs completed (both replay the same inputs in the
/// same order, so operation `i` is the same work in each).
fn overhead_pct(untraced: &[f64], traced: &[f64]) -> f64 {
    let ratios: Vec<f64> = untraced
        .iter()
        .zip(traced)
        .map(|(u, t)| (t / u.max(1e-12) - 1.0) * 100.0)
        .collect();
    perfbench::stats::median(&ratios).unwrap_or(0.0)
}

fn error_rate(run: &Run) -> f64 {
    run.failed as f64 / run.attempted.max(1) as f64
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(message) => {
            eprintln!("perfbench: {message}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    println!(
        "workload={} seed={} seconds={} trace={} threads_available={}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        std::thread::available_parallelism().map_or(1, |n| n.get())
    );

    let seconds = if args.trace {
        (args.seconds / 2).max(1)
    } else {
        args.seconds
    };
    let untraced = match run_workload(&args, seconds, &mut Tracer::new(false)) {
        Ok(run) => run,
        Err(message) => {
            eprintln!("perfbench: {message}");
            return ExitCode::from(1);
        }
    };
    print_run("untraced", &untraced);

    let (runs, metrics): (Vec<&Run>, Vec<(&str, f64, &str)>);
    let traced;
    if args.trace {
        let mut tracer = Tracer::new(true);
        traced = match run_workload(&args, seconds, &mut tracer) {
            Ok(run) => run,
            Err(message) => {
                eprintln!("perfbench: {message}");
                return ExitCode::from(1);
            }
        };
        print_run("traced", &traced);
        let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
            .join("out")
            .join(format!("{}-seed{}.trace.jsonl", args.workload, args.seed));
        match tracer.write_jsonl(&path) {
            Ok(()) => println!(
                "trace: {} spans -> {}",
                tracer.spans().len(),
                path.display()
            ),
            Err(e) => eprintln!("perfbench: writing {}: {e}", path.display()),
        }
        let base = untraced.end_to_end();
        let with = traced.end_to_end();
        for (((name, unit), b), w) in END_TO_END.iter().zip(base).zip(with) {
            println!("[overhead] {name} traced-untraced {} {unit}", w - b);
        }
        let overhead_pct = overhead_pct(&untraced.op_ms, &traced.op_ms);
        metrics = PER_LAYER
            .iter()
            .map(|&(name, unit)| {
                let value = match name {
                    "trace.overhead_pct" => overhead_pct,
                    "op_p95_ms" => {
                        perfbench::stats::percentile(&untraced.op_ms, 0.95).unwrap_or(0.0)
                    }
                    _ => traced.layers.get(name).copied().unwrap_or(0.0),
                };
                println!("[layer] {name} {value} {unit}");
                (name, value, unit)
            })
            .collect();
        runs = vec![&untraced, &traced];
    } else {
        metrics = END_TO_END
            .iter()
            .zip(untraced.end_to_end())
            .map(|(&(name, unit), value)| (name, value, unit))
            .collect();
        runs = vec![&untraced];
    }

    let attempted: u64 = runs.iter().map(|r| r.attempted).sum();
    let failed: u64 = runs.iter().map(|r| r.failed).sum();
    let correct = failed == 0 && runs.iter().all(|r| r.mismatches.is_empty());
    println!("{}", result_line(correct, attempted, failed, &metrics));
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
