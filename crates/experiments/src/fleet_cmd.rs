//! The `experiments fleet` command: spec-driven scenario-fleet runs.
//!
//! Experiment binaries used to re-wire scenarios, solvers and seeds by
//! hand; this module routes them through the engine's declarative
//! campaign layer instead — the same [`CampaignSpec`] the `fleetd`
//! daemon loads. A run is described either by `--spec file.json`
//! (committed examples live under `examples/campaigns/`) or by the
//! legacy flags, which build a spec internally; either way the spec is
//! validated against the registry *before any job runs*, so a typo'd
//! solver name dies with a did-you-mean suggestion instead of a panic
//! mid-fleet.
//!
//! When the spec carries a `budget_grid`, the command additionally runs
//! an amortized [`Registry::sweep`] per `(scenario, solver)` — the
//! Figures 8–11 machinery generalized to every scenario family — and
//! tabulates the frontier at each budget.

use crate::cli::Args;
use crate::report::{fmt, Table};
use replica_engine::obs::Obs;
use replica_engine::spec::CampaignSpec;
use replica_engine::{
    Campaign, Fleet, FleetReport, OutputFormat, Registry, SolveOptions, SpecError,
};

/// Builds the campaign spec an `experiments fleet` invocation
/// describes, through the engine's shared CLI grammar
/// ([`CampaignSpec::from_cli`]): `--spec FILE`, or the legacy flags
/// (`--scenarios`, `--nodes`, `--count`, `--solvers`, `--reference`,
/// `--seed`, `--batch-jobs`, `--threads`, `--cost-bound`,
/// `--budgets`). Mixing `--spec` with campaign flags is rejected, like
/// in `fleetd`. `--format` is not a campaign flag: it overrides the
/// spec's `output` preference when the report is rendered.
pub fn spec_from_args(args: &Args) -> Result<CampaignSpec, SpecError> {
    CampaignSpec::from_cli(&|name| args.get(name))
}

/// The `--format` override of the spec's `output` preference. An
/// unknown label is CLI misuse: the error is a usage message.
pub fn format_from_args(args: &Args) -> Result<Option<OutputFormat>, String> {
    args.get("format")
        .map(|name| OutputFormat::parse(name).map_err(|e| format!("--format: {e}")))
        .transpose()
}

/// Runs the validated campaign single-process through the engine.
/// Batch spans, per-batch progress and per-`(scenario, solver)` timing
/// histograms stream into `obs` (the `--trace` flag routes a JSONL
/// handle here; [`Obs::noop`] for none). Out-of-band: the returned
/// report is byte-identical to an untraced run.
pub fn run(campaign: &Campaign, registry: &Registry, obs: &Obs) -> Result<FleetReport, SpecError> {
    let fleet = Fleet::new(registry, campaign)?;
    Ok(fleet.run(&campaign.space(), obs))
}

/// The campaign's budget-grid frontier sweep, when the spec carries
/// one: instance 0 of every scenario, every solver, the amortized
/// frontier sampled at each budget. Every `(scenario, solver, budget)`
/// triple gets a row — `-` where the budget is infeasible or the
/// solver's sweep failed outright (e.g. an instance outside its
/// capabilities), so a sparse table is visibly sparse, never silently
/// truncated. `None` without a grid.
pub fn budget_table(campaign: &Campaign, registry: &Registry) -> Option<Table> {
    let grid = campaign.budget_grid.as_ref()?;
    let mut table = Table::new(
        "budget sweep: frontier power per cost budget (instance 0 per scenario)",
        &["scenario", "solver", "budget", "cost", "power"],
    );
    let options = SolveOptions {
        cost_bound: campaign.cost_bound.unwrap_or(f64::INFINITY),
        seed: campaign.seed,
    };
    for scenario in &campaign.scenarios {
        let instance = scenario.instance(campaign.seed, 0);
        for solver in &campaign.solvers {
            let sweep = registry.sweep(solver, &instance, &options, grid).ok();
            if sweep.is_none() {
                eprintln!(
                    "warning: {solver} could not sweep {} (rows dashed)",
                    scenario.name
                );
            }
            for &budget in grid {
                let point = sweep.as_ref().and_then(|s| s.frontier.best_within(budget));
                let (cost, power) = match point {
                    Some(p) => (fmt(p.cost, 3), fmt(p.power, 3)),
                    None => ("-".into(), "-".into()),
                };
                table.push_row(vec![
                    scenario.name.clone(),
                    solver.clone(),
                    fmt(budget, 1),
                    cost,
                    power,
                ]);
            }
        }
    }
    Some(table)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Args {
        let raw: Vec<String> = args.iter().map(|s| s.to_string()).collect();
        Args::parse(&raw, &crate::cli::accepted_flags("fleet").unwrap()).unwrap()
    }

    fn tiny_campaign() -> Campaign {
        let mut campaign = spec_from_args(&parse(&[
            "--scenarios",
            "standard",
            "--nodes",
            "10",
            "--count",
            "1",
            "--solvers",
            "dp_power,greedy_power",
            "--seed",
            "5",
            "--budgets",
            "2,5,50",
        ]))
        .unwrap()
        .validate(&Registry::with_all())
        .unwrap();
        campaign.scenarios.truncate(2);
        campaign
    }

    #[test]
    fn flags_build_a_validated_spec() {
        let campaign = tiny_campaign();
        assert_eq!(campaign.instances_per_scenario, 1);
        assert_eq!(campaign.solvers, vec!["dp_power", "greedy_power"]);
        assert_eq!(campaign.seed, 5);
        assert_eq!(campaign.budget_grid, Some(vec![2.0, 5.0, 50.0]));
    }

    #[test]
    fn spec_flag_rejects_campaign_flag_mixing() {
        // Like fleetd: overrides alongside --spec would be silently
        // ignored, so they are an error instead.
        let err = spec_from_args(&parse(&["--spec", "c.json", "--seed", "9"])).unwrap_err();
        assert!(matches!(err, SpecError::SpecFlagConflict { .. }), "{err}");
        // --format is a rendering override, not a campaign flag: allowed.
        let err = spec_from_args(&parse(&["--spec", "/nonexistent.json", "--format", "csv"]))
            .unwrap_err();
        assert!(matches!(err, SpecError::Io { .. }), "{err}");
    }

    #[test]
    fn bad_flags_fail_before_any_job() {
        let err = format_from_args(&parse(&["--format", "yaml"])).unwrap_err();
        assert!(err.starts_with("--format: unknown format"), "{err}");
        assert_eq!(
            format_from_args(&parse(&["--format", "csv"])),
            Ok(Some(OutputFormat::Csv))
        );
        let err = spec_from_args(&parse(&["--scenarios", "standrad"])).unwrap_err();
        assert!(err.to_string().contains("did you mean `standard`?"));
        let err = spec_from_args(&parse(&["--nodes", "many"])).unwrap_err();
        assert!(matches!(err, SpecError::Parse { .. }));
        let err = spec_from_args(&parse(&["--budgets", "5,x"])).unwrap_err();
        assert!(matches!(err, SpecError::Parse { .. }));
        let err = spec_from_args(&parse(&["--solvers", "dp_pwoer"]))
            .unwrap()
            .validate(&Registry::with_all())
            .unwrap_err();
        assert!(err.to_string().contains("did you mean `dp_power`?"));
    }

    #[test]
    fn fleet_runs_and_budget_table_covers_the_grid() {
        let registry = Registry::with_all();
        let campaign = tiny_campaign();
        let report = run(&campaign, &registry, &Obs::noop()).unwrap();
        assert_eq!(report.cell_count, campaign.job_count() * 2);

        let table = budget_table(&campaign, &registry).expect("grid present");
        // 2 scenarios × 2 solvers × 3 budgets.
        assert_eq!(table.rows.len(), 12);
        // The exact DP dominates the greedy baseline wherever both are
        // feasible — spot-check the loosest budget rows.
        for rows in table.rows.chunks(3) {
            assert_eq!(rows[0][2], "2.0", "grid order preserved");
        }

        let mut no_grid = campaign;
        no_grid.budget_grid = None;
        assert!(budget_table(&no_grid, &registry).is_none());
    }
}
