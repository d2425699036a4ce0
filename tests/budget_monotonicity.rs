//! Structural properties of the bi-criteria optimization, checked with
//! proptest on random instances: budget monotonicity, Pareto-front
//! consistency, and boundary behavior.

use power_replica::prelude::*;
use proptest::prelude::*;
use rand::{rngs::StdRng, SeedableRng};

fn instance(seed: u64, nodes: usize, pre_count: usize, w1: u64, w2: u64) -> Instance {
    let mut rng = StdRng::seed_from_u64(seed);
    let cfg = GeneratorConfig {
        internal_nodes: nodes,
        children_range: (2, 5),
        client_probability: 0.7,
        requests_range: (1, w1.max(2)),
    };
    let tree = random_tree(&cfg, &mut rng);
    let pre = random_pre_existing(&tree, pre_count, &mut rng);
    let modes = ModeSet::new(vec![w1, w2]).unwrap();
    Instance::builder(tree)
        .modes(modes)
        .pre_existing(PreExisting::at_mode(pre, 1))
        .cost(CostModel::uniform(2, 0.1, 0.01, 0.001))
        .power(PowerModel::new(2.0, 3.0))
        .build()
        .unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn optimal_power_is_non_increasing_in_the_budget(
        seed in 0u64..1000,
        nodes in 5usize..25,
        pre in 0usize..5,
    ) {
        let inst = instance(seed, nodes, pre, 4, 9);
        let Ok(dp) = PowerDp::run(&inst) else { return Ok(()) };
        let mut last = f64::INFINITY;
        let mut seen_any = false;
        for bound in [2.0, 4.0, 8.0, 12.0, 20.0, 40.0, f64::INFINITY] {
            if let Some(c) = dp.best_within(bound) {
                prop_assert!(c.power <= last + 1e-9,
                    "budget {bound}: power {} regressed above {}", c.power, last);
                prop_assert!(c.cost <= bound + 1e-9);
                last = c.power;
                seen_any = true;
            } else {
                prop_assert!(!seen_any,
                    "once a budget is feasible, every larger budget must be");
            }
        }
        prop_assert!(seen_any, "the infinite budget is always feasible here");
    }

    #[test]
    fn pareto_front_points_are_achievable_and_minimal(
        seed in 0u64..1000,
        nodes in 5usize..20,
    ) {
        let inst = instance(seed, nodes, 2, 5, 10);
        let Ok(dp) = PowerDp::run(&inst) else { return Ok(()) };
        let front = dp.pareto_front();
        prop_assert!(!front.is_empty());
        for w in front.windows(2) {
            prop_assert!(w[0].0 < w[1].0, "front costs must strictly increase");
            prop_assert!(w[0].1 > w[1].1, "front powers must strictly decrease");
        }
        // Each front point is achievable at its own cost: the budget filter
        // returns it, or an epsilon-cost twin that is at least as good (the
        // filter is COST_EPSILON-tolerant, so two front points whose costs
        // differ by less than the tolerance can shadow each other).
        for &(cost, power) in &front {
            let best = dp.best_within(cost).expect("front point must be feasible");
            prop_assert!(best.power <= power + 1e-9,
                "front point (cost {cost}, power {power}) unreachable: got {}", best.power);
        }
    }

    #[test]
    fn min_power_equals_infinite_budget(
        seed in 0u64..1000,
        nodes in 4usize..15,
    ) {
        let inst = instance(seed, nodes, 1, 4, 9);
        let unbounded = solve_min_power(&inst);
        let via_bound = solve_min_power_bounded_cost(&inst, f64::INFINITY);
        match (unbounded, via_bound) {
            (Ok(a), Ok(b)) => prop_assert!((a.power - b.power).abs() < 1e-9),
            (Err(_), Err(_)) => {}
            other => prop_assert!(false, "disagreement: {other:?}"),
        }
    }

    #[test]
    fn greedy_capacity_sweep_is_within_its_own_budget(
        seed in 0u64..1000,
        nodes in 5usize..25,
        bound in 5.0f64..60.0,
    ) {
        let inst = instance(seed, nodes, 2, 5, 10);
        if let Ok(point) = greedy_power::solve(&inst, bound, &mut SolveArena::default()) {
            prop_assert!(point.cost <= bound + 1e-9);
            // And the solution must be model-valid.
            let sol = Solution::evaluate(&inst, &point.placement).unwrap();
            prop_assert!((sol.power - point.power).abs() < 1e-9);
        }
    }
}

#[test]
fn zero_budget_is_always_infeasible_on_nonempty_workloads() {
    let inst = instance(9, 10, 0, 4, 9);
    assert!(inst.tree().total_requests() > 0);
    assert!(solve_min_power_bounded_cost(&inst, 0.0).is_err());
}

#[test]
fn budget_exactly_at_optimum_cost_is_feasible() {
    let inst = instance(10, 12, 2, 4, 9);
    let dp = PowerDp::run(&inst).unwrap();
    let unbounded = dp.best_within(f64::INFINITY).unwrap();
    let again = dp.best_within(unbounded.cost).unwrap();
    assert!(again.power <= unbounded.power + 1e-9);
}
