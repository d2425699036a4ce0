//! The indexed-lazy `JobSpace` equivalence contract, property-tested:
//!
//! * for arbitrary campaigns (scenario mixes, per-scenario counts,
//!   seeds) and any index `i`, [`ScenarioSpace::job`]`(i)` is identical
//!   to the eagerly generated `jobs()[i]` — field-for-field, the full
//!   serialized instance included. The per-job solver seed derives from
//!   the global index (`seeding::mix(fleet_seed, i)`), not from the job
//!   value, so instance identity plus the split test below pins the
//!   whole cell;
//! * any contiguous split of the **lazy** path, replayed through a
//!   [`FleetFold`] in shard order, reproduces the **eager** fleet digest
//!   byte-for-byte (aggregates, cell count, FNV cell checksum);
//! * shard runs construct only their range's jobs (`O(shard)` —
//!   counter-backed via [`CountingSpace`]).

use proptest::prelude::*;
use replica_engine::obs::Obs;
use replica_engine::{
    extended_families, render, CampaignSpec, CellResult, CountingSpace, Demand, Fleet, FleetCell,
    JobSpace, OutputFormat, Registry, Scenario, ScenarioSpace, Topology,
};

/// Draws `n` scenarios (stride-sampled so topologies and demands mix)
/// from the extended families at a small node count.
fn arbitrary_scenarios(offset: usize, n: usize) -> Vec<Scenario> {
    let pool = extended_families(10);
    (0..n)
        .map(|i| pool[(offset + i * 7) % pool.len()].clone())
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// `job(i)` == `jobs()[i]`, field-for-field, for arbitrary campaigns.
    #[test]
    fn lazy_job_equals_eager_job_field_for_field(
        offset in 0usize..35,
        n_scenarios in 1usize..4,
        per_scenario in 1usize..4,
        seed in 0u64..10_000,
    ) {
        let scenarios = arbitrary_scenarios(offset, n_scenarios);
        let space = ScenarioSpace::new(&scenarios, seed, per_scenario);
        let eager = ScenarioSpace::new(&scenarios, seed, per_scenario).materialize();
        prop_assert_eq!(space.len(), eager.len());
        for (i, job) in eager.iter().enumerate() {
            let lazy = space.job(i);
            prop_assert_eq!(&lazy.scenario, &job.scenario, "job {} scenario", i);
            prop_assert_eq!(lazy.index, job.index, "job {} index", i);
            prop_assert_eq!(
                serde_json::to_string(&lazy.instance).unwrap(),
                serde_json::to_string(&job.instance).unwrap(),
                "job {}: lazy and eager instances must serialize identically",
                i
            );
        }
    }
}

/// One recorded job row: scenario, instance, per-solver cells.
type RecordedRow = (String, usize, Vec<(CellResult, f64)>);

/// Fleet over two small fixed scenarios (churn included — its instances
/// exercise the sim-backed generation path) with a randomized-free
/// solver pair, so every proptest case stays cheap.
fn split_fleet(registry: &Registry, seed: u64) -> (Vec<Scenario>, Fleet<'_>) {
    let scenarios = vec![
        Scenario::new(Topology::High, Demand::Uniform, 8),
        Scenario::new(Topology::Star, Demand::QuietChurn, 8),
    ];
    let campaign = CampaignSpec::builder()
        .scenarios(scenarios.clone())
        .instances_per_scenario(3)
        .solvers(["greedy_power", "dp_power"])
        .seed(seed)
        .batch_jobs(2)
        .validate(registry)
        .unwrap();
    (scenarios, Fleet::new(registry, &campaign).unwrap())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Any contiguous split of the lazy job space, replayed shard by
    /// shard through a `FleetFold`, merges to the byte-identical digest
    /// of an eager single run over the materialized job list.
    #[test]
    fn any_lazy_split_reproduces_the_eager_digest(
        cut_a in 0usize..7,
        cut_b in 0usize..7,
        seed in 0u64..1_000,
    ) {
        let registry = Registry::with_all();
        let (scenarios, fleet) = split_fleet(&registry, seed);
        let per_scenario = 3;
        let eager_jobs = ScenarioSpace::new(&scenarios, seed, per_scenario).materialize();
        let eager = fleet.run(&eager_jobs[..], &Obs::noop());

        let space = ScenarioSpace::new(&scenarios, seed, per_scenario);
        let n = space.len();
        prop_assert_eq!(n, eager_jobs.len());
        let mut cuts = [cut_a.min(n), cut_b.min(n)];
        cuts.sort_unstable();
        let bounds = [0, cuts[0], cuts[1], n];

        let mut fold = fleet.fold();
        for pair in bounds.windows(2) {
            // One recorded row per job of the range, replayed in order.
            let mut rows: Vec<RecordedRow> = Vec::new();
            let record = |cell: &FleetCell| {
                if rows.last().map(|(s, i, _)| (s.as_str(), *i))
                    != Some((cell.scenario, cell.instance))
                {
                    rows.push((cell.scenario.to_string(), cell.instance, Vec::new()));
                }
                rows.last_mut()
                    .expect("row pushed above")
                    .2
                    .push((cell.result.clone(), cell.wall_seconds));
            };
            fleet.run_shard(&space, pair[0]..pair[1], record, &Obs::noop(), None);
            for (scenario, instance, row) in rows {
                fold.fold_row(&scenario, instance, row);
            }
        }
        let merged = fold.finish();
        prop_assert_eq!(
            merged.digest(),
            eager.digest(),
            "lazy split at {:?} diverged from the eager run",
            bounds
        );
        prop_assert_eq!(merged.cell_count, eager.cell_count);
        prop_assert_eq!(merged.cell_checksum, eager.cell_checksum);
    }
}

#[test]
fn shard_runs_construct_only_their_range() {
    let registry = Registry::with_all();
    let (scenarios, fleet) = split_fleet(&registry, 42);
    let space = CountingSpace::new(ScenarioSpace::new(&scenarios, 42, 3));
    assert_eq!(space.len(), 6);

    let report = fleet
        .run_shard(&space, 2..5, |_| {}, &Obs::noop(), None)
        .expect("no cancel token given");
    assert_eq!(
        space.generated(),
        3,
        "a 3-job shard must construct exactly 3 jobs, not the campaign's 6"
    );
    assert_eq!(report.cell_count, 3 * 2, "3 jobs × 2 solvers");

    // The empty range constructs nothing at all.
    let before = space.generated();
    let empty = fleet
        .run_shard(&space, 5..5, |_| {}, &Obs::noop(), None)
        .expect("no cancel token given");
    assert_eq!(space.generated(), before);
    assert_eq!(empty.cell_count, 0);
}

#[test]
fn full_lazy_run_equals_full_eager_run() {
    let registry = Registry::with_all();
    let (scenarios, fleet) = split_fleet(&registry, 7);
    let space = ScenarioSpace::new(&scenarios, 7, 3);
    let lazy = fleet.run(&space, &Obs::noop());
    let eager = fleet.run(&space.materialize()[..], &Obs::noop());
    assert_eq!(lazy.digest(), eager.digest());
    assert_eq!(
        render(&lazy, OutputFormat::TableDeterministic),
        render(&eager, OutputFormat::TableDeterministic)
    );
}
