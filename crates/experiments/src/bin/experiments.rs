//! Command-line driver regenerating every figure of the paper.
//!
//! ```text
//! experiments <exp1|exp2|exp3|scale|heur|strat|fleet|all> [flags]
//! ```
//!
//! `experiments help` lists the flags each command accepts
//! ([`replica_experiments::cli::USAGE`]); any other flag exits 2 with
//! the usage. Every run prints ASCII tables and writes the same data as CSV into the
//! output directory (default `results/`).

use replica_experiments::cli::{accepted_flags, Args, USAGE};
use replica_experiments::{
    exp1, exp2, exp3, fleet_cmd, heuristics_quality, report, scalability, strategies_study,
};
use std::path::PathBuf;
use std::process::ExitCode;

fn die(msg: &str) -> ! {
    eprintln!("error: {msg}");
    eprintln!("{USAGE}");
    std::process::exit(2)
}

fn main() -> ExitCode {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let Some(command) = raw.first().cloned() else {
        eprintln!("{USAGE}");
        return ExitCode::from(2);
    };
    // Help and unknown commands take no flags; they are answered below.
    let args = match accepted_flags(&command) {
        Some(accepted) => Args::parse(&raw[1..], &accepted).unwrap_or_else(|e| die(&e)),
        None => Args::default(),
    };
    match command.as_str() {
        "exp1" => run_exp1(&args),
        "exp2" => run_exp2(&args),
        "exp3" => run_exp3(&args),
        "scale" => run_scale(&args),
        "heur" => run_heur(&args),
        "strat" => run_strat(&args),
        "fleet" => run_fleet(&args),
        "all" => {
            run_exp1(&args);
            run_exp2(&args);
            let high = args.clone().with_flag("high", None);
            run_exp1(&high);
            run_exp2(&high);
            for variant in ["fig8", "fig9", "fig10", "fig11"] {
                run_exp3(&args.clone().with_flag("variant", Some(variant)));
            }
            run_heur(&args);
            run_strat(&args);
            run_scale(&args);
        }
        "help" | "--help" | "-h" => println!("{USAGE}"),
        other => die(&format!("unknown command {other:?}")),
    }
    ExitCode::SUCCESS
}

fn apply_quick_exp1(cfg: &mut exp1::Exp1Config, args: &Args) {
    if args.has("quick") {
        cfg.trees = 20;
    }
    if let Some(t) = args.get_usize("trees").unwrap_or_else(|e| die(&e)) {
        cfg.trees = t;
    }
    if let Some(n) = args.get_usize("nodes").unwrap_or_else(|e| die(&e)) {
        cfg.nodes = n;
        cfg.e_values = (0..=n).step_by((n / 20).max(1)).collect();
    }
    if let Some(s) = args.get_usize("seed").unwrap_or_else(|e| die(&e)) {
        cfg.seed = s as u64;
    }
}

fn run_exp1(args: &Args) {
    let (mut cfg, name) = if args.has("high") {
        (exp1::Exp1Config::figure6(), "figure6")
    } else {
        (exp1::Exp1Config::figure4(), "figure4")
    };
    apply_quick_exp1(&mut cfg, args);
    eprintln!(
        "[exp1/{name}] {} trees, {} nodes, {} E-values …",
        cfg.trees,
        cfg.nodes,
        cfg.e_values.len()
    );
    let start = std::time::Instant::now();
    let output = exp1::run(&cfg);
    let summary = exp1::summarize(&output.points);
    let table = exp1::table(&output.points, &format!("{name}: reused servers vs E"));
    println!("{}", table.to_ascii());
    println!(
        "mean DP-GR gap: {:.2} servers, max sweep gap: {:.2}, max per-tree gap: {} \
         (paper: 4.13 mean, up to 15 per tree)",
        summary.mean_gap, summary.max_gap, output.max_tree_gap
    );
    write(&table, args, &format!("{name}.csv"));
    eprintln!("[exp1/{name}] done in {:.1?}", start.elapsed());
}

fn run_exp2(args: &Args) {
    let (mut cfg, name) = if args.has("high") {
        (exp2::Exp2Config::figure7(), "figure7")
    } else {
        (exp2::Exp2Config::figure5(), "figure5")
    };
    if args.has("quick") {
        cfg.trees = 20;
    }
    if let Some(t) = args.get_usize("trees").unwrap_or_else(|e| die(&e)) {
        cfg.trees = t;
    }
    if let Some(n) = args.get_usize("nodes").unwrap_or_else(|e| die(&e)) {
        cfg.nodes = n;
    }
    if let Some(s) = args.get_usize("steps").unwrap_or_else(|e| die(&e)) {
        cfg.steps = s;
    }
    if let Some(s) = args.get_usize("seed").unwrap_or_else(|e| die(&e)) {
        cfg.seed = s as u64;
    }
    eprintln!(
        "[exp2/{name}] {} trees, {} nodes, {} steps …",
        cfg.trees, cfg.nodes, cfg.steps
    );
    let start = std::time::Instant::now();
    let output = exp2::run(&cfg);
    let left = exp2::cumulative_table(&output, &format!("{name}: cumulative reused servers"));
    let right = exp2::histogram_table(&output, &format!("{name}: reuse difference histogram"));
    println!("{}", left.to_ascii());
    println!("{}", right.to_ascii());
    println!(
        "mean per-step reuse difference (DP − GR): {:.2}",
        output.diff_histogram.mean()
    );
    write(&left, args, &format!("{name}_cumulative.csv"));
    write(&right, args, &format!("{name}_histogram.csv"));
    eprintln!("[exp2/{name}] done in {:.1?}", start.elapsed());
}

fn run_exp3(args: &Args) {
    let variant = args.get("variant").unwrap_or("fig8");
    let mut cfg = match variant {
        "fig8" => exp3::Exp3Config::figure8(),
        "fig9" => exp3::Exp3Config::figure9(),
        "fig10" => exp3::Exp3Config::figure10(),
        "fig11" => exp3::Exp3Config::figure11(),
        other => die(&format!("unknown exp3 variant {other:?}")),
    };
    if args.has("quick") {
        cfg.trees = 15;
    }
    if let Some(t) = args.get_usize("trees").unwrap_or_else(|e| die(&e)) {
        cfg.trees = t;
    }
    if let Some(n) = args.get_usize("nodes").unwrap_or_else(|e| die(&e)) {
        cfg.nodes = n;
    }
    if let Some(s) = args.get_usize("seed").unwrap_or_else(|e| die(&e)) {
        cfg.seed = s as u64;
    }
    eprintln!(
        "[exp3/{variant}] {} trees, {} nodes, E = {}, bounds {:.0}..{:.0} …",
        cfg.trees,
        cfg.nodes,
        cfg.pre_existing,
        cfg.bounds.first().copied().unwrap_or(0.0),
        cfg.bounds.last().copied().unwrap_or(0.0)
    );
    let start = std::time::Instant::now();
    let points = exp3::run(&cfg);
    let table = exp3::table(&points, &format!("{variant}: inverse power vs cost bound"));
    println!("{}", table.to_ascii());
    let (lo, hi) = mid_range(&cfg.bounds);
    println!(
        "mean GR power excess on bounds [{lo:.0}, {hi:.0}]: {:.1}%",
        exp3::mean_gr_excess(&points, lo, hi) * 100.0
    );
    write(&table, args, &format!("{variant}.csv"));
    eprintln!("[exp3/{variant}] done in {:.1?}", start.elapsed());
}

/// Middle half of the bound range — where the paper quotes its ratios.
fn mid_range(bounds: &[f64]) -> (f64, f64) {
    let lo = bounds.first().copied().unwrap_or(0.0);
    let hi = bounds.last().copied().unwrap_or(0.0);
    let quarter = (hi - lo) / 4.0;
    (lo + quarter, hi - quarter)
}

fn run_heur(args: &Args) {
    let mut cfg = heuristics_quality::HeuristicsConfig::default_study();
    if args.has("quick") {
        cfg.trees = 6;
    }
    if let Some(t) = args.get_usize("trees").unwrap_or_else(|e| die(&e)) {
        cfg.trees = t;
    }
    if let Some(n) = args.get_usize("nodes").unwrap_or_else(|e| die(&e)) {
        cfg.nodes = n;
    }
    if let Some(s) = args.get_usize("seed").unwrap_or_else(|e| die(&e)) {
        cfg.seed = s as u64;
    }
    eprintln!(
        "[heur] {} trees, {} nodes, E = {} …",
        cfg.trees, cfg.nodes, cfg.pre_existing
    );
    let start = std::time::Instant::now();
    let rows = heuristics_quality::run(&cfg);
    let table = heuristics_quality::table(&rows, "heuristics: power ratio to the exact optimum");
    println!("{}", table.to_ascii());
    write(&table, args, "heuristics.csv");
    eprintln!("[heur] done in {:.1?}", start.elapsed());
}

fn run_strat(args: &Args) {
    let mut cfg = strategies_study::StrategiesConfig::default_study();
    if args.has("quick") {
        cfg.trees = 5;
    }
    if let Some(t) = args.get_usize("trees").unwrap_or_else(|e| die(&e)) {
        cfg.trees = t;
    }
    if let Some(n) = args.get_usize("nodes").unwrap_or_else(|e| die(&e)) {
        cfg.nodes = n;
    }
    if let Some(s) = args.get_usize("steps").unwrap_or_else(|e| die(&e)) {
        cfg.steps = s;
    }
    eprintln!(
        "[strat] {} trees, {} nodes, {} steps …",
        cfg.trees, cfg.nodes, cfg.steps
    );
    let start = std::time::Instant::now();
    let cells = strategies_study::run(&cfg);
    let table = strategies_study::table(&cells, "update strategies: cost vs usage vs breakage");
    println!("{}", table.to_ascii());
    write(&table, args, "strategies.csv");
    eprintln!("[strat] done in {:.1?}", start.elapsed());
}

/// Exit for an invalid campaign description: like `fleetd`, spec errors
/// are exit code 1 with the actionable message alone (the invocation
/// itself was fine, so no usage dump) — `die`/exit 2 stays reserved for
/// CLI misuse.
fn die_spec(e: &replica_engine::SpecError) -> ! {
    eprintln!("error: {e}");
    std::process::exit(1)
}

fn run_fleet(args: &Args) {
    // --format picks the rendering: an unknown label is misuse (exit 2).
    let format = fleet_cmd::format_from_args(args).unwrap_or_else(|e| die(&e));
    let registry = replica_engine::Registry::with_all();
    // Load/build + validate: a bad spec dies here, before any job runs,
    // with the spec layer's actionable message (did-you-mean included).
    let campaign = fleet_cmd::spec_from_args(args)
        .and_then(|spec| spec.validate(&registry))
        .unwrap_or_else(|e| die_spec(&e));
    eprintln!(
        "[fleet] {} scenarios × {} instances × {} solvers = {} cells …",
        campaign.scenarios.len(),
        campaign.instances_per_scenario,
        campaign.solvers.len(),
        campaign.job_count() * campaign.solvers.len(),
    );
    let start = std::time::Instant::now();
    // --trace is a CLI-level concern, deliberately not a spec field:
    // telemetry must never alter the campaign fingerprint. --analyze
    // needs a trace to read back, so without --trace it records into a
    // temporary file it cleans up afterwards.
    let analyze = args.has("analyze");
    let trace_path = match args.get("trace") {
        Some(path) => Some(PathBuf::from(path)),
        None if analyze => Some(
            std::env::temp_dir().join(format!("fleet-analyze-{}.trace.jsonl", std::process::id())),
        ),
        None => None,
    };
    let obs = match &trace_path {
        Some(path) => replica_engine::obs::Obs::jsonl(path, replica_engine::obs::Verbosity::Solve)
            .unwrap_or_else(|e| die(&format!("cannot create trace file {}: {e}", path.display()))),
        None => replica_engine::obs::Obs::noop(),
    };
    let fleet_report = fleet_cmd::run(&campaign, &registry, &obs).unwrap_or_else(|e| die_spec(&e));
    println!(
        "{}",
        replica_engine::render(&fleet_report, format.unwrap_or(campaign.output))
    );
    let csv_path = PathBuf::from(args.get("out").unwrap_or("results")).join("fleet.csv");
    match std::fs::create_dir_all(csv_path.parent().expect("joined path has a parent"))
        .and_then(|()| std::fs::write(&csv_path, replica_engine::output::csv(&fleet_report)))
    {
        Ok(()) => eprintln!("wrote {}", csv_path.display()),
        Err(e) => eprintln!("warning: could not write {}: {e}", csv_path.display()),
    }
    if let Some(table) = fleet_cmd::budget_table(&campaign, &registry) {
        println!("{}", table.to_ascii());
        write(&table, args, "fleet_budget_sweep.csv");
    }
    if analyze {
        obs.flush();
        let path = trace_path.as_ref().expect("--analyze records a trace");
        match std::fs::read_to_string(path) {
            Ok(text) => {
                let trace = replica_engine::obs::Trace::parse(&text);
                let analysis = replica_engine::obs::Analysis::of(&trace);
                // Stderr, like every other diagnostic: stdout stays the
                // campaign report alone, pipeable in any --format.
                eprint!(
                    "{}",
                    replica_engine::output::render_analysis(
                        &analysis,
                        replica_engine::output::OutputFormat::Table
                    )
                );
            }
            Err(e) => eprintln!("warning: --analyze cannot read {}: {e}", path.display()),
        }
        if args.get("trace").is_none() {
            let _ = std::fs::remove_file(path);
        }
    }
    eprintln!("[fleet] done in {:.1?}", start.elapsed());
}

fn run_scale(args: &Args) {
    let cfg = if args.has("paper") {
        scalability::ScaleConfig::paper()
    } else {
        scalability::ScaleConfig::quick()
    };
    eprintln!(
        "[scale] timing {} configurations …",
        cfg.min_cost.len() + cfg.power_nopre.len() + cfg.power_withpre.len()
    );
    let points = scalability::run(&cfg);
    let table = scalability::table(&points, "scalability: DP wall-clock");
    println!("{}", table.to_ascii());
    write(&table, args, "scalability.csv");
}

fn write(table: &report::Table, args: &Args, file: &str) {
    let path = PathBuf::from(args.get("out").unwrap_or("results")).join(file);
    match table.write_csv(&path) {
        Ok(()) => eprintln!("wrote {}", path.display()),
        Err(e) => eprintln!("warning: could not write {}: {e}", path.display()),
    }
}
