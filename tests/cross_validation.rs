//! Cross-crate validation on realistically sized instances: three
//! independent replica-count minimizers must agree, the exact DP must
//! dominate every baseline and heuristic, and all of them must produce
//! placements the model crate accepts.

use power_replica::prelude::*;
use rand::{rngs::StdRng, SeedableRng};
use replica_core::heuristics::{annealing, local_search, power_greedy};

fn paper_instance(seed: u64, nodes: usize, pre_count: usize) -> Instance {
    let mut rng = StdRng::seed_from_u64(seed);
    let tree = random_tree(&GeneratorConfig::paper_power(nodes), &mut rng);
    let pre = random_pre_existing(&tree, pre_count, &mut rng);
    let modes = ModeSet::new(vec![5, 10]).unwrap();
    let power = PowerModel::paper_experiment3(&modes);
    Instance::builder(tree)
        .modes(modes)
        .pre_existing(PreExisting::at_mode(pre, 1))
        .cost(CostModel::uniform(2, 0.1, 0.01, 0.001))
        .power(power)
        .build()
        .unwrap()
}

#[test]
fn three_count_minimizers_agree_across_shapes_and_capacities() {
    let mut rng = StdRng::seed_from_u64(11);
    for i in 0..30 {
        let cfg = match i % 3 {
            0 => GeneratorConfig::paper_fat(70),
            1 => GeneratorConfig::paper_high(70),
            _ => GeneratorConfig {
                internal_nodes: 70,
                children_range: (1, 12),
                client_probability: 0.8,
                requests_range: (1, 8),
            },
        };
        let tree = random_tree(&cfg, &mut rng);
        for w in [10u64, 13, 17] {
            let gr = greedy_min_replicas(&tree, w);
            let dp1 = solve_min_count(&tree, w);
            let inst = Instance::min_cost(tree.clone(), w, [], 0.1, 0.01).unwrap();
            let dp2 = solve_min_cost(&inst);
            match (gr, dp1, dp2) {
                (Ok(gr), Ok(dp1), Ok(dp2)) => {
                    assert_eq!(gr.servers, dp1.servers, "tree {i}, W = {w}");
                    assert_eq!(gr.servers, dp2.servers, "tree {i}, W = {w}");
                }
                (Err(_), Err(_), Err(_)) => {}
                other => panic!("tree {i}, W = {w}: feasibility disagreement {other:?}"),
            }
        }
    }
}

#[test]
fn exact_dp_dominates_every_baseline_and_heuristic() {
    for seed in 0..8 {
        let inst = paper_instance(seed, 35, 4);
        let dp = PowerDp::run(&inst).unwrap();
        for bound in [20.0f64, 30.0, 40.0, f64::INFINITY] {
            let exact = dp.best_within(bound).map(|c| c.power);

            // GR baseline.
            if let Ok(gr) = greedy_power::solve(&inst, bound, &mut SolveArena::default()) {
                let exact = exact.expect("GR feasible ⇒ exact DP feasible");
                assert!(
                    exact <= gr.power + 1e-6,
                    "seed {seed} bound {bound}: DP {exact} > GR {}",
                    gr.power
                );
            }

            // Constructive heuristic.
            if let Ok(h) = power_greedy::solve(&inst, bound) {
                let exact = exact.expect("heuristic feasible ⇒ exact DP feasible");
                assert!(
                    exact <= h.power + 1e-6,
                    "seed {seed} bound {bound}: DP {exact} > power-greedy {}",
                    h.power
                );

                // Hill climbing and annealing can only improve on the seed
                // and never beat the exact optimum.
                let ls = local_search::solve(
                    &inst,
                    &h.placement,
                    bound,
                    local_search::LocalSearchOptions::default(),
                )
                .unwrap();
                assert!(ls.power <= h.power + 1e-9);
                assert!(exact <= ls.power + 1e-6);

                let sa = annealing::solve(
                    &inst,
                    &h.placement,
                    bound,
                    annealing::AnnealingOptions {
                        iterations: 2_000,
                        ..Default::default()
                    },
                )
                .unwrap();
                assert!(sa.power <= h.power + 1e-9);
                assert!(exact <= sa.power + 1e-6);
            }
        }
    }
}

#[test]
fn reconstructed_solutions_reevaluate_exactly() {
    for seed in 100..106 {
        let inst = paper_instance(seed, 30, 3);
        let dp = PowerDp::run(&inst).unwrap();
        for candidate in dp.candidates().iter().take(50) {
            let rec = dp.reconstruct(candidate).unwrap();
            let sol = Solution::evaluate(&inst, &rec.placement).unwrap();
            assert!(
                (sol.cost - candidate.cost).abs() < 1e-9,
                "seed {seed}: cost mismatch {} vs {}",
                sol.cost,
                candidate.cost
            );
            assert!(
                (sol.power - candidate.power).abs() < 1e-6,
                "seed {seed}: power mismatch {} vs {}",
                sol.power,
                candidate.power
            );
            assert_eq!(sol.counts.total_servers(), candidate.servers);
        }
    }
}

#[test]
fn mincost_dp_reuse_dominates_oblivious_greedy_at_scale() {
    let mut rng = StdRng::seed_from_u64(55);
    let mut dp_total = 0u64;
    let mut gr_total = 0u64;
    for _ in 0..10 {
        let tree = random_tree(&GeneratorConfig::paper_fat(100), &mut rng);
        let pre = random_pre_existing(&tree, 30, &mut rng);
        let gr = greedy_min_replicas(&tree, 10).unwrap();
        gr_total += pre.iter().filter(|&&p| gr.placement.has_server(p)).count() as u64;
        let inst = Instance::min_cost(tree, 10, pre, 0.1, 0.01).unwrap();
        let dp = solve_min_cost(&inst).unwrap();
        assert_eq!(dp.servers, gr.servers);
        dp_total += dp.reused;
    }
    assert!(
        dp_total > gr_total,
        "over 10 paper-sized trees the DP must reuse strictly more ({dp_total} vs {gr_total})"
    );
}
