//! The power-adapted greedy baseline (`GR`) of Experiment 3 (§5.2).
//!
//! The paper compares its bi-criteria DP against the algorithm of \[19\]
//! "modified for power as explained above": `GR` knows nothing about power,
//! but it can be swept over the capacity value — *"we try all values
//! 5 ≤ W ≤ 10, and compute the corresponding cost and power consumption.
//! To be fair, when a server has 5 requests or less, we operate it under the
//! first mode `W₁`. Given a bound on the cost, we keep the solution that
//! minimizes the power consumption."*
//!
//! Concretely: for each trial capacity `W` run
//! [`greedy_min_replicas`](crate::greedy::greedy_min_replicas), re-mode
//! every placed server to the smallest mode that fits its actual load
//! ([`ModePolicy::LowestFeasible`]), evaluate Eq. 3/Eq. 4 against the real
//! instance (pre-existing servers are reused *incidentally* when the greedy
//! happens to choose them), and keep, per budget, the feasible sweep point
//! of minimal power.

use crate::arena::SolveArena;
use crate::greedy::greedy_min_replicas_flat;
use replica_model::{le_tolerant, Instance, ModePolicy, ModelError, Placement, Solution};

/// One sweep point of the `GR` baseline.
#[derive(Clone, Debug)]
pub struct SweepPoint {
    /// Trial capacity handed to the greedy.
    pub trial_capacity: u64,
    /// The placement (modes already lowered to the load-fitting mode).
    pub placement: Placement,
    /// Eq. 4 cost.
    pub cost: f64,
    /// Eq. 3 power.
    pub power: f64,
    /// Server count.
    pub servers: u64,
}

/// Runs the greedy for every trial capacity of the paper's sweep range —
/// every integer `W` from `W₁` to `W_M` — and evaluates each outcome.
/// Infeasible trial capacities (bundle larger than the trial `W`) are
/// skipped.
///
/// The flat layout is rebuilt **once** per instance in `arena` and every
/// trial capacity re-runs the allocation-free greedy kernel over it; with
/// a per-thread arena (the fleet hot path) the whole sweep allocates
/// nothing in steady state beyond the returned placements.
pub fn paper_sweep(instance: &Instance, arena: &mut SolveArena) -> Vec<SweepPoint> {
    let mut out = Vec::new();
    arena.flat.rebuild(instance.tree());
    for w in instance.modes().capacity(0)..=instance.max_capacity() {
        let Ok(greedy) = greedy_min_replicas_flat(&arena.flat, w, &mut arena.greedy) else {
            continue;
        };
        // Re-moding to the lowest feasible mode cannot fail here: every
        // load is ≤ w ≤ W_M.
        let sol =
            Solution::evaluate_with_policy(instance, &greedy.placement, ModePolicy::LowestFeasible)
                .expect("greedy placements with trial W ≤ W_M are feasible");
        out.push(SweepPoint {
            trial_capacity: w,
            placement: sol.placement.clone(),
            cost: sol.cost,
            power: sol.power,
            servers: sol.counts.total_servers(),
        });
    }
    out
}

/// Minimum-power sweep point with cost within `cost_bound`.
pub fn best_within(points: &[SweepPoint], cost_bound: f64) -> Option<&SweepPoint> {
    points
        .iter()
        .filter(|p| le_tolerant(p.cost, cost_bound))
        .min_by(|a, b| a.power.total_cmp(&b.power).then(a.cost.total_cmp(&b.cost)))
}

/// [`paper_sweep`] + [`best_within`] in one call.
pub fn solve(
    instance: &Instance,
    cost_bound: f64,
    arena: &mut SolveArena,
) -> Result<SweepPoint, ModelError> {
    let points = paper_sweep(instance, arena);
    best_within(&points, cost_bound).cloned().ok_or_else(|| {
        ModelError::Infeasible(format!(
            "greedy sweep finds nothing under cost {cost_bound}"
        ))
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use replica_model::{CostModel, ModeSet, PowerModel, PreExisting};
    use replica_tree::{generate, GeneratorConfig, TreeBuilder};

    fn sweep(instance: &Instance) -> Vec<SweepPoint> {
        paper_sweep(instance, &mut SolveArena::default())
    }

    fn paper_like_instance(seed: u64) -> Instance {
        use rand::{rngs::StdRng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(seed);
        let tree = generate::random_tree(&GeneratorConfig::paper_power(30), &mut rng);
        let pre = generate::random_pre_existing(&tree, 3, &mut rng);
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
    fn sweep_covers_capacities_and_modes_follow_load() {
        let inst = paper_like_instance(1);
        let points = sweep(&inst);
        assert!(!points.is_empty());
        for p in &points {
            assert!((5..=10).contains(&p.trial_capacity));
            // All modes must be load-determined: re-evaluating under
            // LowestFeasible must not change anything.
            let sol =
                Solution::evaluate_with_policy(&inst, &p.placement, ModePolicy::LowestFeasible)
                    .unwrap();
            assert_eq!(sol.placement, p.placement);
            assert!((sol.power - p.power).abs() < 1e-9);
        }
    }

    #[test]
    fn smaller_trial_capacity_means_more_servers() {
        let inst = paper_like_instance(2);
        let points = sweep(&inst);
        let at = |w: u64| {
            points
                .iter()
                .find(|p| p.trial_capacity == w)
                .map(|p| p.servers)
        };
        if let (Some(s5), Some(s10)) = (at(5), at(10)) {
            assert!(s5 >= s10, "W=5 needs at least as many servers as W=10");
        }
    }

    #[test]
    fn best_within_respects_bound() {
        let inst = paper_like_instance(3);
        let points = sweep(&inst);
        let unbounded = best_within(&points, f64::INFINITY).unwrap();
        for p in &points {
            assert!(unbounded.power <= p.power + 1e-9);
        }
        // A bound below every cost yields nothing.
        assert!(best_within(&points, 0.0).is_none());
    }

    #[test]
    fn infeasible_bound_is_an_error() {
        let inst = paper_like_instance(4);
        let mut arena = SolveArena::default();
        assert!(solve(&inst, 0.0, &mut arena).is_err());
        assert!(solve(&inst, f64::INFINITY, &mut arena).is_ok());
    }

    #[test]
    fn sweep_tries_exactly_the_first_to_the_largest_mode_capacity() {
        let mut b = TreeBuilder::new();
        b.add_client(b.root(), 3);
        let inst = Instance::builder(b.build().unwrap())
            .modes(ModeSet::new(vec![5, 7, 10]).unwrap())
            .build()
            .unwrap();
        let tried: Vec<u64> = sweep(&inst).iter().map(|p| p.trial_capacity).collect();
        assert_eq!(tried, (5..=10).collect::<Vec<_>>());
    }
}
