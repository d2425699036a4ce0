//! The sharding determinism contract, pinned:
//!
//! for **any** shard-count split of a fleet campaign, running the shards
//! independently (in-process or as real OS processes) and merging their
//! reports in shard order produces aggregates, a cell count and a
//! combined FNV cell checksum **byte-identical** to the unsharded
//! single-process `Fleet::run` of the same campaign — including a full
//! JSON round-trip of every shard report, i.e. the wire format itself
//! preserves the bits.

use proptest::prelude::*;
use replica_engine::obs::Obs;
use replica_engine::{Fleet, FleetReport, Registry};
use replica_fleetd::merge::{merge_reports, merge_reports_fenced};
use replica_fleetd::worker::{run_shard, run_shard_attempt};
use replica_fleetd::{Campaign, ShardPlan, ShardReport};

/// A small but non-trivial campaign: two topology families, churn
/// demand included, randomized annealing among the solvers (its
/// per-instance seeds are the most fragile thing sharding could break).
fn campaign(seed: u64) -> Campaign {
    let mut campaign = Campaign::from_set("extended", 12, 3, seed).unwrap();
    campaign.scenarios.retain(|s| {
        s.name.starts_with("high/uniform")
            || s.name.starts_with("star/skewed")
            || s.name.starts_with("binary/quietchurn")
    });
    assert_eq!(campaign.scenarios.len(), 3);
    campaign.solvers = vec![
        "greedy_power".into(),
        "dp_power".into(),
        "heur_annealing".into(),
    ];
    campaign.batch_jobs = 2;
    campaign
}

fn single_process(campaign: &Campaign) -> FleetReport {
    let registry = Registry::with_all();
    let fleet = Fleet::new(&registry, campaign).unwrap();
    fleet.run(&campaign.jobs()[..], &Obs::noop())
}

/// Runs every shard of `plan`, round-trips each report through its JSON
/// wire encoding, merges.
fn shard_and_merge(plan: &ShardPlan) -> FleetReport {
    let reports: Vec<ShardReport> = (0..plan.shards.len())
        .map(|k| {
            let report = run_shard(plan, k).unwrap();
            let json = serde_json::to_string(&report).unwrap();
            serde_json::from_str(&json).unwrap()
        })
        .collect();
    merge_reports(plan, &reports).unwrap()
}

#[test]
fn canonical_shard_counts_merge_byte_identically() {
    let campaign = campaign(0xD15C0);
    let baseline = single_process(&campaign);
    let jobs = campaign.job_count();
    assert_eq!(jobs, 9);

    for shards in [1, 2, 7, jobs + 3] {
        let plan = ShardPlan::new(campaign.clone(), shards).unwrap();
        let merged = shard_and_merge(&plan);
        assert_eq!(
            merged.digest(),
            baseline.digest(),
            "{shards}-way split must merge to the unsharded digest"
        );
        assert_eq!(merged.cell_count, baseline.cell_count);
        assert_eq!(merged.cell_checksum, baseline.cell_checksum);
        assert_eq!(merged.table_deterministic(), baseline.table_deterministic());
        assert_eq!(
            replica_engine::output::json(&merged, false),
            replica_engine::output::json(&baseline, false),
            "deterministic JSON must be byte-identical"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Any shard count (1 up to well past the job count) and any seed:
    /// the merged digest equals the unsharded one.
    #[test]
    fn any_split_merges_to_the_sequential_digest(
        shards in 1usize..15,
        seed in 0u64..1_000,
    ) {
        let campaign = campaign(seed);
        let plan = ShardPlan::new(campaign.clone(), shards).unwrap();
        let merged = shard_and_merge(&plan);
        let baseline = single_process(&campaign);
        prop_assert_eq!(merged.digest(), baseline.digest());
        prop_assert_eq!(merged.cell_checksum, baseline.cell_checksum);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// The fencing dimension of the contract: each shard's crowned
    /// report may come from **any** attempt generation, every
    /// superseded attempt lingers in the pool as a zombie, and the pool
    /// arrives in an **arbitrary completion order** — the fenced merge
    /// still reproduces the unsharded digest bit for bit.
    #[test]
    fn retried_reports_in_any_completion_order_merge_byte_identically(
        shards in 1usize..8,
        seed in 0u64..1_000,
        scramble in 0u64..u64::MAX,
    ) {
        let campaign = campaign(seed);
        let plan = ShardPlan::new(campaign.clone(), shards).unwrap();
        let obs = Obs::noop();
        let space = plan.campaign.space();

        // Draw each shard's winning generation from the scramble bits;
        // every earlier generation also completed (late) and sits in
        // the pool.
        let mut pool: Vec<ShardReport> = Vec::new();
        let mut winning: Vec<Option<usize>> = Vec::new();
        let mut bits = scramble;
        for shard in 0..plan.shards.len() {
            let crowned = (bits % 3) as usize;
            bits /= 3;
            for attempt in 0..=crowned {
                let report = run_shard_attempt(&plan, shard, attempt, &space, &obs, None)
                    .unwrap()
                    .expect("no cancellation requested");
                assert_eq!(report.attempt, attempt);
                pool.push(report);
            }
            winning.push(Some(crowned));
        }

        // Arbitrary completion order: a seeded Fisher–Yates over the
        // whole pool, zombies and winners interleaved.
        let mut state = scramble.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
        for i in (1..pool.len()).rev() {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            let j = (state % (i as u64 + 1)) as usize;
            pool.swap(i, j);
        }

        let merged = merge_reports_fenced(&plan, &pool, &winning).unwrap();
        let baseline = single_process(&campaign);
        prop_assert_eq!(merged.digest(), baseline.digest());
        prop_assert_eq!(merged.cell_checksum, baseline.cell_checksum);
    }
}

/// The real thing: spawn one OS process per shard (the `fleetd` binary
/// built for this test run), merge their file-borne reports, and compare
/// against the in-process single run.
#[test]
fn subprocess_workers_merge_byte_identically() {
    let exe = std::path::PathBuf::from(env!("CARGO_BIN_EXE_fleetd"));
    let campaign = campaign(0xBEEF);
    let plan = ShardPlan::new(campaign.clone(), 3).unwrap();
    let workers = replica_fleetd::Workers::Processes {
        exe,
        work_dir: None,
    };
    let merged = replica_fleetd::coordinator::run_plan(&plan, &workers).unwrap();
    let baseline = single_process(&campaign);
    assert_eq!(merged.digest(), baseline.digest());
    let proof = replica_fleetd::coordinator::prove_against_single_process(&plan, &merged).unwrap();
    assert!(proof.contains("merged == single-process"), "{proof}");
}
