//! Exact bi-criteria optimization at datacenter scale.
//!
//! The paper stops its with-pre-existing power experiments at 70 nodes
//! (an hour of 2010-era compute). This example pushes the same exact
//! optimizer three orders of magnitude further through the flat
//! post-order layout (`replica_tree::layout`) and the per-thread solve
//! arena:
//!
//! * a **100 000-node** CDN-style tree is laid out flat in milliseconds,
//!   and every solver below iterates that layout — no pointer chasing;
//! * the linear paths (`greedy`, `greedy_power`) solve the 10⁵-node
//!   instance in milliseconds;
//! * the dominance-pruned exact DP (`dp_power`, see ARCHITECTURE.md)
//!   solves it unbounded in well under a second under an
//!   energy-proportional power model (α = 1);
//! * under the paper's superlinear Experiment-3 model (α = 3) the exact
//!   cost/power frontier that budgets need grows with subtree size, so
//!   the full Pareto front is computed on a 10 000-node instance — still
//!   140× the paper's ceiling — and the certified lower bounds frame both
//!   answers;
//! * with no budget only the power-optimal plan is needed: the DP keeps
//!   (flow, power) fronts, and the α = 3 exact solve reaches 10⁵ nodes in
//!   tens of milliseconds.
//!
//! ```text
//! cargo run --release --example datacenter_scale
//! ```

use power_replica::prelude::*;
use rand::{rngs::StdRng, SeedableRng};
use replica_core::{bounds, dp_power_pruned::PrunedPowerDp, greedy, greedy_power, SolveArena};
use replica_tree::FlatTree;
use std::time::Instant;

/// Fat CDN-style tree: every node is an edge PoP with 1–5 request units.
fn fat_tree(nodes: usize, rng: &mut StdRng) -> Tree {
    let config = GeneratorConfig {
        internal_nodes: nodes,
        children_range: (6, 9),
        client_probability: 1.0,
        requests_range: (1, 5),
    };
    random_tree(&config, rng)
}

/// 10% of the fleet already runs replicas (yesterday's configuration).
fn instance_with(tree: Tree, power: PowerModel, rng: &mut StdRng) -> Instance {
    let pre = random_pre_existing(&tree, tree.internal_count() / 10, rng);
    let modes = ModeSet::new(vec![5, 10]).unwrap();
    Instance::builder(tree)
        .modes(modes)
        .pre_existing(PreExisting::at_mode(pre, 1))
        .cost(CostModel::uniform(2, 0.1, 0.01, 0.001))
        .power(power)
        .build()
        .expect("valid instance")
}

fn main() {
    let mut rng = StdRng::seed_from_u64(100_000);
    let modes = ModeSet::new(vec![5, 10]).unwrap();

    // ---- The 10⁵-node workload, laid out flat. --------------------------
    let tree = fat_tree(100_000, &mut rng);
    println!("=== workload ===\n{}\n", TreeStats::compute(&tree));

    let start = Instant::now();
    let flat = FlatTree::new(&tree);
    println!(
        "flat post-order layout of {} nodes: {:.1?} ({} positions, total demand {})\n",
        tree.internal_count(),
        start.elapsed(),
        flat.len(),
        flat.subtree_load(flat.root_position()),
    );

    let instance = instance_with(tree, PowerModel::new(10.0, 1.0), &mut rng);
    let mut arena = SolveArena::new();

    // Certified bounds come first: they are O(N) and frame the answer.
    let lb_servers = bounds::min_servers(instance.tree(), instance.max_capacity());
    let lb_power = bounds::min_power(&instance);
    let lb_cost = bounds::min_cost(&instance);
    println!("certified lower bounds: ≥ {lb_servers} servers, power ≥ {lb_power:.0}, cost ≥ {lb_cost:.1}\n");

    // The linear solvers barely notice 10⁵ nodes.
    arena.flat.rebuild(instance.tree());
    let start = Instant::now();
    let gr =
        greedy::greedy_min_replicas_flat(&arena.flat, instance.max_capacity(), &mut arena.greedy)
            .expect("feasible");
    println!(
        "greedy (min replicas):        {:>10.1?}  {} servers (lower bound {})",
        start.elapsed(),
        gr.servers,
        lb_servers
    );

    let start = Instant::now();
    let sweep = greedy_power::paper_sweep(&instance, &mut arena);
    let gp = greedy_power::best_within(&sweep, f64::INFINITY).expect("feasible");
    println!(
        "greedy_power (paper sweep):   {:>10.1?}  {} servers, cost {:.1}, power {:.0}",
        start.elapsed(),
        gp.servers,
        gp.cost,
        gp.power
    );

    // The exact DP at 10⁵ nodes, unbounded: energy-proportional regime,
    // (flow, power) frontiers, near-linear runtime.
    let start = Instant::now();
    let dp = PrunedPowerDp::run_for(&instance, f64::INFINITY, &mut arena.pruned).expect("feasible");
    let elapsed = start.elapsed();
    let best = *dp.best_within(f64::INFINITY).expect("unconstrained");
    let placement = dp.reconstruct(&best).expect("reconstructible");
    println!(
        "dp_power (exact, α=1):        {:>10.1?}  {} table entries, {} root candidates",
        elapsed,
        dp.table_entries(),
        dp.candidates().len()
    );
    dp.recycle(&mut arena.pruned);

    let solution = Solution::evaluate(&instance, &placement).expect("valid placement");
    assert!((solution.power - best.power).abs() < 1e-6);
    println!(
        "  → exact optimum: {} servers ({} reused), cost {:.1}, power {:.0} ({:.2}× the certified bound)\n",
        solution.counts.total_servers(),
        solution.counts.reused_total(),
        solution.cost,
        solution.power,
        solution.power / bounds::min_power(&instance)
    );

    // ---- The paper's superlinear regime, 140× its ceiling. --------------
    // Under α = 3 splitting load across more servers keeps buying power,
    // so the exact cost/power frontier grows with subtree size; 10⁴
    // nodes is where the every-budget front of "exact, with
    // pre-existing" lives now.
    let tree = fat_tree(10_000, &mut rng);
    let instance = instance_with(tree, PowerModel::paper_experiment3(&modes), &mut rng);
    let lb_power = bounds::min_power(&instance);

    let start = Instant::now();
    let dp = PrunedPowerDp::run_in(&instance, &mut arena.pruned).expect("feasible");
    let elapsed = start.elapsed();
    let front = dp.pareto_front();
    println!(
        "dp_power (exact, α=3) over {} nodes: {:.1?} ({} table entries, {} root candidates)\n",
        instance.tree().internal_count(),
        elapsed,
        dp.table_entries(),
        dp.candidates().len()
    );

    println!(
        "cost/power Pareto front ({} points, endpoints + knees):",
        front.len()
    );
    let show = |i: usize| {
        let (c, p) = front[i];
        println!(
            "  cost {c:9.2} → power {p:10.0}  ({}× the power bound)",
            (p / lb_power * 100.0).round() / 100.0
        );
    };
    show(0);
    for i in [front.len() / 4, front.len() / 2, 3 * front.len() / 4] {
        show(i.min(front.len() - 1));
    }
    show(front.len() - 1);

    // Reconstruct the power-optimal plan and verify it independently.
    let best = *dp.best_within(f64::INFINITY).expect("unconstrained");
    let placement = dp.reconstruct(&best).expect("reconstructible");
    dp.recycle(&mut arena.pruned);
    let solution = Solution::evaluate(&instance, &placement).expect("valid placement");
    assert!((solution.power - best.power).abs() < 1e-6);
    println!(
        "\npower-optimal plan: {} servers ({} reused), cost {:.2}, power {:.0}",
        solution.counts.total_servers(),
        solution.counts.reused_total(),
        solution.cost,
        solution.power
    );
    println!(
        "optimality certificate: power within {:.2}× of the lower bound\n",
        solution.power / lb_power
    );

    // ---- Unbounded α = 3 at 10⁵ nodes. -----------------------------------
    // Without a budget cost only breaks ties, so the tables keep (flow,
    // power) fronts of about W_M + 1 entries and the superlinear regime
    // is near-linear in the tree too.
    let tree = fat_tree(100_000, &mut rng);
    let instance = instance_with(tree, PowerModel::paper_experiment3(&modes), &mut rng);
    let start = Instant::now();
    let dp = PrunedPowerDp::run_for(&instance, f64::INFINITY, &mut arena.pruned).expect("feasible");
    let elapsed = start.elapsed();
    let best = *dp.best_within(f64::INFINITY).expect("unconstrained");
    let placement = dp.reconstruct(&best).expect("reconstructible");
    println!(
        "dp_power (exact, α=3, unbounded) over {} nodes: {:.1?} ({} table entries, {} root candidates)",
        instance.tree().internal_count(),
        elapsed,
        dp.table_entries(),
        dp.candidates().len()
    );
    dp.recycle(&mut arena.pruned);

    let solution = Solution::evaluate(&instance, &placement).expect("valid placement");
    assert!((solution.power - best.power).abs() < 1e-6);
    println!(
        "  → exact optimum: {} servers ({} reused), cost {:.1}, power {:.0} ({:.2}× the certified bound)",
        solution.counts.total_servers(),
        solution.counts.reused_total(),
        solution.cost,
        solution.power,
        solution.power / bounds::min_power(&instance)
    );
}
