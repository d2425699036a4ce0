//! Polynomial-time heuristics for `MinPower-BoundedCost` — the "future
//! work" of §6 of the paper.
//!
//! The paper closes by proposing *"polynomial time heuristics with a lower
//! complexity than the optimal solution … perform some local optimizations
//! to better load-balance the number of requests per replica, with the goal
//! of minimizing the power consumption"*. This module builds exactly that
//! family:
//!
//! * [`power_greedy`] — a constructive bottom-up pass that places replicas
//!   when their utilization would be high (a fill-threshold sweep on top of
//!   the feasibility-driven greedy);
//! * [`local_search`] — first-improvement hill climbing over
//!   add/remove/re-mode/relocate moves;
//! * [`annealing`] — seeded simulated annealing over the same move set.
//!
//! All heuristics respect a cost budget and are benchmarked against the
//! exact DP in `replica-bench` (quality gap) and on large trees (runtime).
//!
//! Scoring differs by family. A [`power_greedy`] pass tallies the servers
//! it places and scores the tallies through
//! [`SolutionCounts::cost_and_power`](replica_model::SolutionCounts::cost_and_power),
//! the scoring of [`Solution::evaluate_with_policy`], and builds a
//! placement only for a pass that beats the incumbent. A
//! [`local_search`] or [`annealing`] move changes an arbitrary placement,
//! so each candidate is evaluated in full (`score`).

pub mod annealing;
pub mod local_search;
pub mod power_greedy;

use replica_model::{le_tolerant, Instance, ModePolicy, Placement, Solution};

/// Outcome common to all heuristics.
#[derive(Clone, Debug)]
pub struct HeuristicResult {
    /// The placement found (modes assigned).
    pub placement: Placement,
    /// Eq. 4 cost.
    pub cost: f64,
    /// Eq. 3 power.
    pub power: f64,
    /// Server count.
    pub servers: u64,
}

/// Evaluates a placement against the instance and a budget (the move
/// scoring of [`local_search`] and [`annealing`]); `None` when the
/// placement is infeasible or over budget. Modes are lowered to the
/// load-fitting mode first (a heuristic never benefits from wasteful modes
/// under non-negative mode-change costs).
pub(crate) fn score(
    instance: &Instance,
    placement: &Placement,
    cost_bound: f64,
) -> Option<HeuristicResult> {
    let sol =
        Solution::evaluate_with_policy(instance, placement, ModePolicy::LowestFeasible).ok()?;
    if !le_tolerant(sol.cost, cost_bound) {
        return None;
    }
    Some(HeuristicResult {
        placement: sol.placement.clone(),
        cost: sol.cost,
        power: sol.power,
        servers: sol.counts.total_servers(),
    })
}

/// `(power, cost)` lexicographic comparison for heuristic improvement: is
/// a candidate scored `power` / `cost` better than `incumbent`?
pub(crate) fn better(power: f64, cost: f64, incumbent: &HeuristicResult) -> bool {
    power < incumbent.power - 1e-9
        || (power < incumbent.power + 1e-9 && cost < incumbent.cost - 1e-9)
}

#[cfg(test)]
mod tests {
    use super::*;
    use replica_model::{ModeSet, PowerModel};
    use replica_tree::TreeBuilder;

    #[test]
    fn score_filters_budget_and_infeasible() {
        let mut b = TreeBuilder::new();
        let r = b.root();
        b.add_client(r, 4);
        let inst = Instance::builder(b.build().unwrap())
            .modes(ModeSet::new(vec![5, 10]).unwrap())
            .power(PowerModel::new(1.0, 2.0))
            .build()
            .unwrap();
        let empty = Placement::empty(inst.tree());
        assert!(
            score(&inst, &empty, f64::INFINITY).is_none(),
            "client unserved"
        );
        let mut p = Placement::empty(inst.tree());
        p.insert(r, 1);
        let s = score(&inst, &p, f64::INFINITY).unwrap();
        // Lowered to mode 0 (load 4 ≤ 5): power 1 + 25.
        assert!((s.power - 26.0).abs() < 1e-9);
        assert!(score(&inst, &p, 0.5).is_none(), "over budget");
    }
}
