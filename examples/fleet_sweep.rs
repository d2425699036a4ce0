//! Multi-scenario, multi-solver parallel fleet sweep.
//!
//! Runs every engine scenario family (five topology shapes × seven demand
//! patterns, the three sim-backed churn families included) against four
//! solvers — the default exact power DP (`dp_power`, the pruned
//! reformulation), the paper's full-state DP (`dp_power_full`), the
//! capacity-swept `GR` baseline and the §6 constructive heuristic — in
//! parallel with streaming aggregation, and prints the aggregate table:
//! power/cost distributions (with P² percentiles), optimality gaps
//! against the exact DP, and per-solve timings.
//!
//! ```text
//! cargo run --release --example fleet_sweep
//! ```
//!
//! The run is seeded: repeating it reproduces every number except the
//! timing columns.

use power_replica::engine::prelude::*;

fn main() {
    let registry = Registry::with_all();
    // One declarative spec describes the campaign; validation resolves
    // it (and would catch a typo'd solver name with a did-you-mean
    // suggestion) before any job runs.
    let campaign = CampaignSpec::builder()
        .scenario_set(ScenarioSet::Extended, 40)
        .instances_per_scenario(5)
        .solvers([
            "dp_power",
            "dp_power_full",
            "greedy_power",
            "heur_power_greedy",
        ])
        .reference("dp_power")
        .seed(0x5EED)
        .build()
        .validate(&registry)
        .expect("the spec is valid");
    println!(
        "fleet: {} scenarios × {} instances × {} solvers = {} solves\n",
        campaign.scenarios.len(),
        campaign.instances_per_scenario,
        campaign.solvers.len(),
        campaign.job_count() * campaign.solvers.len(),
    );

    // The indexed lazy job space: instances are generated on demand, one
    // streaming batch at a time — the campaign is never materialized.
    let fleet = Fleet::new(&registry, &campaign).expect("validated campaign");
    let report = fleet.run(&campaign.space(), &Obs::noop());
    println!("{}", report.table());

    // Headline: how far from optimal are the polynomial-time solvers on
    // each demand pattern?
    for demand in [
        "uniform",
        "skewed",
        "flashcrowd",
        "drifting",
        "walkdrift",
        "quietchurn",
        "subtreemix",
    ] {
        let gaps: Vec<f64> = report
            .summaries
            .iter()
            .filter(|s| s.scenario.contains(demand) && s.solver == "greedy_power")
            .filter_map(|s| s.power_gap_vs_ref)
            .collect();
        let mean = gaps.iter().sum::<f64>() / gaps.len().max(1) as f64;
        println!(
            "GR mean power excess on {demand:>10} demand: {:+.2}%",
            (mean - 1.0) * 100.0
        );
    }
}
