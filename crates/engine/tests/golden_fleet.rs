//! Golden snapshots of the deterministic fleet fingerprint.
//!
//! Two small fixed campaigns — one paper-aligned, one churn-family — are
//! pinned down to the exact `cell_count`, FNV `cell_checksum` and the
//! full deterministic table rendering. Every stage of the pipeline feeds
//! these bytes: scenario/instance generation (trees, demand patterns,
//! pre-existing draws), per-job solver seeding (global job index), every
//! solver's arithmetic, and the streaming aggregation (P² sketches
//! included). A future refactor of job generation or aggregation that
//! silently shifts any of it fails here first — with the full table diff
//! in the assertion message.
//!
//! The values were produced by the lazy `JobSpace` path and
//! cross-checked against the eager path (which the equivalence suite
//! keeps equal); both paths must keep matching these bytes.

use replica_engine::obs::Obs;
use replica_engine::{
    render, CampaignSpec, Demand, Fleet, OutputFormat, Registry, Scenario, Topology,
};

/// The deterministic table with per-line trailing alignment spaces
/// stripped (the golden literals below would be unreadable — and
/// fragile under editors — with invisible trailing whitespace; the FNV
/// cell checksum already pins the exact bytes).
fn trimmed_table(report: &replica_engine::FleetReport) -> String {
    render(report, OutputFormat::TableDeterministic)
        .lines()
        .map(str::trim_end)
        .collect::<Vec<_>>()
        .join("\n")
        + "\n"
}

/// Runs `scenarios × 3` instances with `solvers` at `seed`, lazily.
fn report(scenarios: &[Scenario], solvers: &[&str], seed: u64) -> replica_engine::FleetReport {
    let registry = Registry::with_all();
    let campaign = CampaignSpec::builder()
        .scenarios(scenarios.to_vec())
        .instances_per_scenario(3)
        .solvers(solvers.iter().copied())
        .seed(seed)
        .validate(&registry)
        .unwrap();
    let fleet = Fleet::new(&registry, &campaign).unwrap();
    fleet.run(&campaign.space(), &Obs::noop())
}

#[test]
fn paper_aligned_campaign_matches_the_golden_snapshot() {
    let scenarios = vec![
        Scenario::new(Topology::Fat, Demand::Uniform, 12),
        Scenario::new(Topology::High, Demand::Drifting, 12),
    ];
    let report = report(
        &scenarios,
        &["dp_power", "greedy_power", "heur_power_greedy"],
        0xA11CE,
    );
    assert_eq!(
        report.cell_count, 18,
        "2 scenarios × 3 instances × 3 solvers"
    );
    assert_eq!(
        report.cell_checksum, 0x81a6_258d_4d15_5fd1,
        "cell checksum drifted: job generation, seeding or a solver \
         changed its deterministic output (got {:016x})",
        report.cell_checksum
    );
    let golden = "\
scenario           solver             solved  fail  power_mean  power_p90  cost_mean  servers  gap_vs_ref
-----------------------------------------------------------------------------------------------------------
fat/uniform/12n    dp_power           3       0     1375.00     1375.00    10.901     10.0     1.0000
fat/uniform/12n    greedy_power       3       0     1375.00     1375.00    10.901     10.0     1.0000
fat/uniform/12n    heur_power_greedy  3       0     1375.00     1375.00    10.901     10.0     1.0000
high/drifting/12n  dp_power           3       0     6195.83     6487.50    9.801      9.0      1.0000
high/drifting/12n  greedy_power       3       0     7762.50     8100.00    8.371      7.7      1.2533
high/drifting/12n  heur_power_greedy  3       0     6241.67     6625.00    10.204     9.3      1.0071
";
    assert_eq!(
        trimmed_table(&report),
        golden,
        "deterministic table drifted from the golden snapshot"
    );
}

#[test]
fn churn_campaign_matches_the_golden_snapshot() {
    let scenarios = vec![
        Scenario::new(Topology::Binary, Demand::QuietChurn, 12),
        Scenario::new(Topology::Caterpillar, Demand::WalkDrift, 12),
    ];
    let report = report(&scenarios, &["dp_power", "greedy_power"], 0xC0FFEE);
    assert_eq!(
        report.cell_count, 12,
        "2 scenarios × 3 instances × 2 solvers"
    );
    assert_eq!(
        report.cell_checksum, 0xb48f_dda7_25af_081c,
        "cell checksum drifted: job generation, seeding or a solver \
         changed its deterministic output (got {:016x})",
        report.cell_checksum
    );
    let golden = "\
scenario                   solver        solved  fail  power_mean  power_p90  cost_mean  servers  gap_vs_ref
--------------------------------------------------------------------------------------------------------------
binary/quietchurn/12n      dp_power      3       0     1008.33     1100.00    8.004      7.3      1.0000
binary/quietchurn/12n      greedy_power  3       0     1008.33     1100.00    8.040      7.3      1.0000
caterpillar/walkdrift/12n  dp_power      3       0     841.67      1562.50    4.337      4.0      1.0000
caterpillar/walkdrift/12n  greedy_power  3       0     1333.33     3037.50    3.640      3.3      1.3147
";
    assert_eq!(
        trimmed_table(&report),
        golden,
        "deterministic table drifted from the golden snapshot"
    );
}
