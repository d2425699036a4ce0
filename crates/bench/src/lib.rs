//! # `replica-bench` — benchmark suite fixtures
//!
//! Shared deterministic instance builders for the criterion benches under
//! `benches/` (DP ablations, heuristic head-to-heads, fleet-level sweeps,
//! lazy-vs-eager job generation in `benches/jobspace.rs`) and the
//! `timing` / `jobspace_trajectory` binaries (the latter emits the
//! committed `BENCH_jobspace.json` perf-trajectory artifact). Everything
//! is seeded so runs are comparable across machines and commits;
//! dispatch goes through the engine registry, so what is benched is
//! exactly what fleet runs execute.
//!
//! Architecture overview: `docs/ARCHITECTURE.md` at the repository root.

use rand::rngs::StdRng;
use rand::SeedableRng;
use replica_model::Instance;
use replica_tree::{generate, GeneratorConfig};

/// The fixed single-instance recipes of [`replica_engine::scenarios`],
/// re-exported for the benchmarks that import them from this crate.
pub use replica_engine::scenarios::{
    fat_linear_power_instance, fat_power_instance, paper_tree, power_instance,
};

/// Deterministic single-mode `MinCost-WithPre` instance.
pub fn min_cost_instance(seed: u64, nodes: usize, pre_count: usize) -> Instance {
    let mut rng = StdRng::seed_from_u64(seed);
    let tree = generate::random_tree(&GeneratorConfig::paper_fat(nodes), &mut rng);
    let pre = generate::random_pre_existing(&tree, pre_count, &mut rng);
    Instance::min_cost(tree, 10, pre, 0.1, 0.01).unwrap()
}

/// A small standard fleet (every engine scenario family at `nodes`
/// internal nodes, `per_scenario` instances each) for fleet-level benches
/// and smoke runs — eagerly materialized; benches exercising the lazy
/// path go through [`standard_campaign`] instead.
pub fn standard_fleet(
    seed: u64,
    nodes: usize,
    per_scenario: usize,
) -> Vec<replica_engine::FleetJob> {
    standard_campaign(seed, nodes, per_scenario, ["greedy_power"]).jobs()
}

/// The same standard fleet as a validated campaign, built through the
/// engine's declarative spec layer ([`replica_engine::CampaignSpec`]) —
/// what is benched is exactly what spec-driven fleet runs execute:
/// `campaign.space()` is the lazy job space, and
/// `Fleet::new(&registry, &campaign)` the runner.
pub fn standard_campaign<S: Into<String>>(
    seed: u64,
    nodes: usize,
    per_scenario: usize,
    solvers: impl IntoIterator<Item = S>,
) -> replica_engine::Campaign {
    replica_engine::CampaignSpec::builder()
        .scenario_set(replica_engine::ScenarioSet::Standard, nodes)
        .instances_per_scenario(per_scenario)
        .solvers(solvers)
        .seed(seed)
        .build()
        .validate(&replica_engine::Registry::with_all())
        .expect("the standard bench campaign is valid")
}
