//! Sharded fleet campaign, end to end: plan → work → merge → proof.
//!
//! Demonstrates the `replica-fleetd` coordinator API — splitting a
//! campaign's job space into contiguous shards, running every shard
//! through the engine (each worker generates **only its own shard's
//! jobs** from the campaign's lazy indexed job space — `O(shard)`
//! startup in time and memory), merging the shard reports in shard
//! order, and proving the merged aggregates byte-identical to a
//! single-process `Fleet::run` (digest, cell count and FNV cell
//! checksum).
//!
//! ```text
//! cargo run --release --example fleet_shards
//! ```
//!
//! Workers here run [`Workers::InProcess`] so the example is a plain
//! function call; the `fleetd` binary drives the same protocol with one
//! OS process per shard:
//!
//! ```text
//! cargo run --release --bin fleetd -- run --scenarios extended --shards 4
//! ```
//!
//! (`examples/fleet_sweep.rs` remains the single-process fleet demo.)

use power_replica::engine::{CampaignSpec, Registry, ScenarioSet};
use power_replica::fleetd::coordinator::{prove_against_single_process, run_plan, Workers};
use power_replica::fleetd::ShardPlan;

fn main() {
    let shards = 4;
    // One declarative spec describes the whole campaign; validation
    // against the registry happens here, before any job runs.
    let campaign = CampaignSpec::builder()
        .scenario_set(ScenarioSet::Extended, 24)
        .instances_per_scenario(3)
        .solvers(["dp_power", "greedy_power", "heur_power_greedy"])
        .seed(0x5EED)
        .build()
        .validate(&Registry::with_all())
        .expect("the spec is valid");

    let plan = ShardPlan::new(campaign, shards).expect("shard count is positive");
    println!(
        "campaign: {} scenarios × {} instances × {} solvers = {} cells",
        plan.campaign.scenarios.len(),
        plan.campaign.instances_per_scenario,
        plan.campaign.solvers.len(),
        plan.campaign.job_count() * plan.campaign.solvers.len(),
    );
    for manifest in &plan.shards {
        println!(
            "  shard {}: jobs {:>3}..{:<3} ({} jobs)",
            manifest.shard,
            manifest.start,
            manifest.end,
            manifest.len()
        );
    }

    // Work + merge. Every shard's report is checked against its exact
    // checksum and replayed through the engine's sequential fold, so the
    // merge is exact.
    let merged = run_plan(&plan, &Workers::InProcess).expect("campaign is valid");
    println!("\n{}", merged.table());

    // The determinism contract, demonstrated rather than assumed.
    let proof = prove_against_single_process(&plan, &merged).expect("sharding is deterministic");
    println!("{proof}");
}
