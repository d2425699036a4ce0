//! Three-mode coverage. The paper's motivation says the mode count `M` is
//! "typically 2 or 3, depending upon the number of allowed voltages"; all
//! headline experiments use `M = 2`, so this suite makes sure nothing in
//! the DP machinery silently assumes two modes: state packing, merging,
//! root scans, pruning and reconstruction are all exercised at `M = 3`
//! against the exhaustive oracle and against each other.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use replica_core::{dp_power, dp_power_pruned, exhaustive, greedy_power, SolveArena};
use replica_model::{CostModel, Instance, ModeSet, PowerModel, PreExisting, Solution};
use replica_tree::{NodeId, Tree, TreeBuilder};

fn random_small_tree(rng: &mut StdRng, n: usize, max_requests: u64) -> Tree {
    let mut b = TreeBuilder::new();
    let mut nodes = vec![b.root()];
    for _ in 1..n {
        let parent = nodes[rng.random_range(0..nodes.len())];
        nodes.push(b.add_child(parent));
    }
    for &node in &nodes {
        if rng.random_bool(0.7) {
            b.add_client(node, rng.random_range(1..=max_requests));
        }
    }
    b.build().unwrap()
}

fn three_mode_instance(rng: &mut StdRng, n: usize, pre_count: usize) -> Instance {
    let tree = random_small_tree(rng, n, 9);
    let mut nodes: Vec<NodeId> = tree.internal_nodes().collect();
    for i in (1..nodes.len()).rev() {
        nodes.swap(i, rng.random_range(0..=i));
    }
    nodes.truncate(pre_count);
    let pre: PreExisting = nodes
        .into_iter()
        .map(|nd| (nd, rng.random_range(0..3)))
        .collect();
    Instance::builder(tree)
        .modes(ModeSet::new(vec![3, 6, 9]).unwrap())
        .pre_existing(pre)
        .cost(CostModel::uniform(3, 0.2, 0.05, 0.01))
        .power(PowerModel::new(2.7, 3.0))
        .build()
        .unwrap()
}

#[test]
fn full_dp_matches_oracle_with_three_modes() {
    let mut rng = StdRng::seed_from_u64(333);
    let mut compared = 0;
    for case in 0..12 {
        // (M+1)^N = 4^N: keep N ≤ 6 for the oracle.
        let n = rng.random_range(2..=6);
        let inst = three_mode_instance(&mut rng, n, 2);
        let dp = match dp_power::PowerDp::run(&inst) {
            Ok(dp) => dp,
            Err(_) => {
                assert!(exhaustive::enumerate(&inst).is_empty(), "case {case}");
                continue;
            }
        };
        for bound in [2.0f64, 4.0, 6.0, 10.0, f64::INFINITY] {
            let d = dp.best_within(bound).map(|c| c.power);
            let o = exhaustive::min_power_bounded(&inst, bound)
                .ok()
                .map(|c| c.power);
            match (d, o) {
                (Some(d), Some(o)) => {
                    assert!(
                        (d - o).abs() < 1e-6,
                        "case {case} bound {bound}: {d} vs {o}"
                    );
                    compared += 1;
                }
                (None, None) => {}
                other => panic!("case {case} bound {bound}: {other:?}"),
            }
        }
    }
    assert!(compared >= 20, "got only {compared} comparable bounds");
}

#[test]
fn pruned_dp_matches_full_dp_with_three_modes_at_scale() {
    let mut rng = StdRng::seed_from_u64(334);
    for case in 0..6 {
        let inst = three_mode_instance(&mut rng, 20, 3);
        let full = dp_power::PowerDp::run(&inst).unwrap();
        let pruned = dp_power_pruned::PrunedPowerDp::run(&inst).unwrap();
        for bound in [8.0f64, 15.0, 25.0, f64::INFINITY] {
            let f = full.best_within(bound).map(|c| c.power);
            let p = pruned.best_within(bound).map(|c| c.power);
            match (f, p) {
                (Some(f), Some(p)) => {
                    assert!(
                        (f - p).abs() < 1e-6,
                        "case {case} bound {bound}: {f} vs {p}"
                    )
                }
                (None, None) => {}
                other => panic!("case {case} bound {bound}: {other:?}"),
            }
        }
    }
}

#[test]
fn reconstruction_valid_with_three_modes() {
    let mut rng = StdRng::seed_from_u64(335);
    let inst = three_mode_instance(&mut rng, 18, 4);
    let dp = dp_power::PowerDp::run(&inst).unwrap();
    for candidate in dp.candidates().iter().take(40) {
        let rec = dp.reconstruct(candidate).unwrap();
        let sol = Solution::evaluate(&inst, &rec.placement).unwrap();
        assert!((sol.cost - candidate.cost).abs() < 1e-9);
        assert!((sol.power - candidate.power).abs() < 1e-6);
    }
}

#[test]
fn greedy_sweep_covers_intermediate_modes() {
    let mut rng = StdRng::seed_from_u64(336);
    let inst = three_mode_instance(&mut rng, 25, 0);
    let points = greedy_power::paper_sweep(&inst, &mut SolveArena::default());
    // The sweep spans W₁ = 3 … W₃ = 9; trial capacities below the largest
    // client bundle are rightly skipped as infeasible.
    let max_bundle = inst
        .tree()
        .internal_nodes()
        .map(|n| inst.tree().client_load(n))
        .max()
        .unwrap();
    for w in 3..=9u64 {
        let present = points.iter().any(|p| p.trial_capacity == w);
        assert_eq!(
            present,
            w >= max_bundle,
            "trial W = {w}, max bundle {max_bundle}"
        );
    }
    assert!(points.iter().any(|p| p.trial_capacity == 9));
    // And the exact DP dominates the whole sweep.
    let dp = dp_power::PowerDp::run(&inst).unwrap();
    let best = dp.best_within(f64::INFINITY).unwrap();
    for p in &points {
        assert!(best.power <= p.power + 1e-6);
    }
}

#[test]
fn mode_count_mismatch_is_rejected_at_build() {
    let mut b = TreeBuilder::new();
    b.add_client(b.root(), 2);
    let err = Instance::builder(b.build().unwrap())
        .modes(ModeSet::new(vec![3, 6, 9]).unwrap())
        .cost(CostModel::uniform(2, 0.1, 0.01, 0.001)) // dimensioned for M = 2
        .build();
    assert!(err.is_err());
}
