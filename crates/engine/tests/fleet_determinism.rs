//! Fleet reproducibility: a seeded sweep across the scenario families —
//! all five topology families × every demand pattern, churn included —
//! must produce a byte-identical deterministic digest across repeated
//! runs, across worker-thread counts and across streaming batch sizes,
//! including the randomized annealing solver (whose seeds the fleet
//! derives per instance).

use replica_engine::obs::Obs;
use replica_engine::{extended_families, CampaignSpec, Fleet, Registry};

fn digest(registry: &Registry, threads: Option<usize>, batch_jobs: usize, seed: u64) -> String {
    let scenarios = extended_families(16);
    assert_eq!(scenarios.len(), 35, "5 topologies × 7 demand patterns");
    let mut campaign = CampaignSpec::builder()
        .scenarios(scenarios)
        .instances_per_scenario(2)
        .solvers(["greedy", "greedy_power", "dp_power", "heur_annealing"])
        .seed(seed)
        .reference("dp_power")
        .batch_jobs(batch_jobs)
        .validate(registry)
        .unwrap();
    campaign.threads = threads;
    let jobs = campaign.jobs();
    Fleet::new(registry, &campaign)
        .unwrap()
        .run(&jobs[..], &Obs::noop())
        .digest()
}

#[test]
fn seeded_fleet_sweep_is_byte_identical_across_runs_and_thread_counts() {
    let registry = Registry::with_all();
    let base = digest(&registry, None, 64, 0xF1EE7);

    // Same seed, repeated: identical.
    assert_eq!(base, digest(&registry, None, 64, 0xF1EE7));
    // Forced serial and odd parallel widths: identical.
    assert_eq!(base, digest(&registry, Some(1), 64, 0xF1EE7));
    assert_eq!(base, digest(&registry, Some(3), 64, 0xF1EE7));
    assert_eq!(base, digest(&registry, Some(13), 64, 0xF1EE7));
    // Streaming batch size is a memory knob, not a semantic one.
    assert_eq!(base, digest(&registry, None, 1, 0xF1EE7));
    assert_eq!(base, digest(&registry, Some(5), 3, 0xF1EE7));
    // A different seed must actually change the fleet.
    assert_ne!(base, digest(&registry, None, 64, 0xBEEF));

    // The digest covers every (scenario, solver) pair.
    for topology in ["fat", "high", "binary", "caterpillar", "star"] {
        assert!(base.contains(topology), "{topology} missing from digest");
    }
    for demand in [
        "uniform",
        "skewed",
        "flashcrowd",
        "drifting",
        "walkdrift",
        "quietchurn",
        "subtreemix",
    ] {
        assert!(base.contains(demand), "{demand} missing from digest");
    }
}

#[test]
fn exact_dp_dominates_every_other_solver_across_the_sweep() {
    let registry = Registry::with_all();
    let scenarios = extended_families(16);
    let campaign = CampaignSpec::builder()
        .scenarios(scenarios.clone())
        .instances_per_scenario(2)
        .solvers(["greedy_power", "heur_power_greedy", "dp_power"])
        .seed(7)
        .reference("dp_power")
        .validate(&registry)
        .unwrap();
    let jobs = campaign.jobs();
    let report = Fleet::new(&registry, &campaign)
        .unwrap()
        .run(&jobs[..], &Obs::noop());
    assert_eq!(report.summaries.len(), scenarios.len() * 3);
    assert_eq!(report.cell_count, jobs.len() * 3);
    for summary in &report.summaries {
        assert!(
            summary.solved == 2,
            "{}/{}: every instance of the sweep is feasible (solved {})",
            summary.scenario,
            summary.solver,
            summary.solved
        );
        if let Some(gap) = summary.power_gap_vs_ref {
            assert!(
                gap >= 1.0 - 1e-9,
                "{}/{}: mean power ratio {gap} beats the exact DP",
                summary.scenario,
                summary.solver
            );
        }
    }
}
