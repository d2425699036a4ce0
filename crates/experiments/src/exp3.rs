//! Experiment 3 (Figures 8–11): power minimization under a cost bound.
//!
//! §5.2: *"We randomly build 100 trees with 50 nodes each, and we select 5
//! nodes as pre-existing servers. Clients have between 1 and 5 requests …
//! The cost function is such that createᵢ = 0.1, deleteᵢ = 0.01 and
//! changedᵢᵢ' = 0.001. The power consumed by a server in mode i is
//! Pᵢ = W₁³/10 + Wᵢ³. In Figure 8, we plot the inverse of the power of a
//! solution, given a bound on the cost (the higher the better). If the
//! algorithm fails to find a solution for a tree, the value is 0, and we
//! average the inverse of the power over the 100 trees."*
//!
//! The DP needs a single run per tree: the cost bound only filters the root
//! scan, so every bound on the x-axis is answered from the same DP
//! candidates. Likewise, `GR`'s capacity sweep is computed once per tree.
//! Since the engine grew its amortized budget-sweep API, this experiment
//! dispatches through [`Registry::sweep`] like every other one: each tree
//! is one `sweep` call per solver, returning the full budget → (cost,
//! power) [`Frontier`] that every bound on the x-axis then samples. (It
//! formerly had to stay on the algorithms' deep APIs precisely because the
//! registry's per-solve interface would have re-run the DP per bound.)
//!
//! Variants: Figure 9 (no pre-existing servers), Figure 10 (high trees),
//! Figure 11 (expensive create/delete: createᵢ = deleteᵢ = 1,
//! changedᵢᵢ' = 0.1).

use crate::common::{mean, par_trees, tree_rng};
use crate::report::{fmt, Table};
use replica_engine::{Frontier, Registry, SolveOptions};
use replica_model::{CostModel, Instance, ModeSet, PowerModel, PreExisting};
use replica_tree::{generate, GeneratorConfig, TreeShape};
use serde::{Deserialize, Serialize};

/// Configuration of Experiment 3.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct Exp3Config {
    /// Number of random trees (paper: 100).
    pub trees: usize,
    /// Internal nodes per tree (paper: 50).
    pub nodes: usize,
    /// Pre-existing servers per tree (paper: 5; 0 for Figure 9).
    pub pre_existing: usize,
    /// Original mode of pre-existing servers (paper: unspecified; we
    /// default to the highest mode).
    pub pre_mode: usize,
    /// Tree shape (fat = Figures 8/9/11, high = Figure 10).
    pub shape: TreeShape,
    /// Mode capacities (paper: {5, 10}).
    pub modes: Vec<u64>,
    /// Probability of a client per internal node. The paper does not
    /// restate it for Experiment 3; Figure 8's x-axis (bounds 15–45,
    /// saturation ≈ 34 ⇒ ≈ 30 servers ⇒ ≈ 150 requests on 50 nodes) is only
    /// consistent with a client at *every* node, so the default is 1.0.
    pub client_probability: f64,
    /// Request volume range (paper: 1–5).
    pub request_range: (u64, u64),
    /// Eq. 4 creation cost (uniform across modes).
    pub create: f64,
    /// Eq. 4 deletion cost.
    pub delete: f64,
    /// Eq. 4 mode-change cost (all pairs, as in the paper's experiment).
    pub changed: f64,
    /// Cost bounds to sweep (the x-axis).
    pub bounds: Vec<f64>,
    /// Experiment seed.
    pub seed: u64,
}

impl Exp3Config {
    /// Figure 8 parameters.
    pub fn figure8() -> Self {
        Exp3Config {
            trees: 100,
            nodes: 50,
            pre_existing: 5,
            pre_mode: 1,
            shape: TreeShape::PaperFat,
            modes: vec![5, 10],
            client_probability: 1.0,
            request_range: (1, 5),
            create: 0.1,
            delete: 0.01,
            changed: 0.001,
            bounds: (15..=45).map(f64::from).collect(),
            seed: 0xF1608,
        }
    }

    /// Figure 9: no pre-existing replicas.
    pub fn figure9() -> Self {
        Exp3Config {
            pre_existing: 0,
            seed: 0xF1609,
            ..Self::figure8()
        }
    }

    /// Figure 10: high trees, lower bound range.
    pub fn figure10() -> Self {
        Exp3Config {
            shape: TreeShape::PaperHigh,
            bounds: (10..=35).map(f64::from).collect(),
            seed: 0xF1610,
            ..Self::figure8()
        }
    }

    /// Figure 11: expensive creations/deletions.
    pub fn figure11() -> Self {
        Exp3Config {
            create: 1.0,
            delete: 1.0,
            changed: 0.1,
            bounds: (30..=90).map(f64::from).collect(),
            seed: 0xF1611,
            ..Self::figure8()
        }
    }

    /// Builds the instance for tree index `i`.
    pub fn instance(&self, i: usize) -> Instance {
        let mut rng = tree_rng(self.seed, i);
        let mut gen = GeneratorConfig::paper_power(self.nodes).with_shape(self.shape);
        gen.requests_range = self.request_range;
        gen.client_probability = self.client_probability;
        let tree = generate::random_tree(&gen, &mut rng);
        let pre = generate::random_pre_existing(&tree, self.pre_existing, &mut rng);
        let modes = ModeSet::new(self.modes.clone()).expect("valid mode set");
        let m = modes.count();
        let power = PowerModel::paper_experiment3(&modes);
        Instance::builder(tree)
            .modes(modes)
            .pre_existing(PreExisting::at_mode(pre, self.pre_mode))
            .cost(CostModel::uniform(
                m,
                self.create,
                self.delete,
                self.changed,
            ))
            .power(power)
            .build()
            .expect("valid instance")
    }
}

/// One x-axis point of Figures 8–11.
#[derive(Clone, Copy, Debug, Serialize, Deserialize)]
pub struct Exp3Point {
    /// Cost bound.
    pub bound: f64,
    /// Mean of `1/power` over trees (0 when no solution) — DP.
    pub dp_inverse_power: f64,
    /// Mean of `1/power` over trees (0 when no solution) — GR.
    pub gr_inverse_power: f64,
    /// Trees where the DP found a solution within the bound.
    pub dp_solved: usize,
    /// Trees where GR found a solution within the bound.
    pub gr_solved: usize,
}

/// The registry solver whose frontier plays the paper's bi-criteria DP
/// (the default `dp_power` is the pruned exact DP — bit-equal optima).
pub const DP_SOLVER: &str = "dp_power";

/// The registry solver playing the capacity-swept `GR` baseline.
pub const GR_SOLVER: &str = "greedy_power";

/// Runs the sweep: one amortized [`Registry::sweep`] per (tree, solver),
/// then every bound samples the cached frontiers.
pub fn run(config: &Exp3Config) -> Vec<Exp3Point> {
    run_with_registry(config, &Registry::with_all())
}

/// [`run`] against a caller-supplied registry (e.g. with extra solvers
/// swapped in). Panics if the registry lacks [`DP_SOLVER`] or
/// [`GR_SOLVER`] — a configuration error, unlike per-tree infeasibility.
pub fn run_with_registry(config: &Exp3Config, registry: &Registry) -> Vec<Exp3Point> {
    for solver in [DP_SOLVER, GR_SOLVER] {
        assert!(
            registry.get(solver).is_some(),
            "exp3 registry is missing the {solver:?} solver"
        );
    }
    let options = SolveOptions::default();
    let per_tree: Vec<(Frontier, Frontier)> = par_trees(config.trees, |i| {
        let instance = config.instance(i);
        // An infeasible tree contributes an empty frontier: the paper
        // counts it as "value 0" at every bound.
        let frontier_of = |solver: &str| {
            registry
                .sweep(solver, &instance, &options, &config.bounds)
                .map(|outcome| outcome.frontier)
                .unwrap_or_default()
        };
        (frontier_of(DP_SOLVER), frontier_of(GR_SOLVER))
    });

    config
        .bounds
        .iter()
        .map(|&bound| {
            let dp: Vec<Option<f64>> = per_tree
                .iter()
                .map(|t| t.0.best_within(bound).map(|p| p.power))
                .collect();
            let gr: Vec<Option<f64>> = per_tree
                .iter()
                .map(|t| t.1.best_within(bound).map(|p| p.power))
                .collect();
            Exp3Point {
                bound,
                dp_inverse_power: mean(dp.iter().map(|p| p.map_or(0.0, |v| 1.0 / v))),
                gr_inverse_power: mean(gr.iter().map(|p| p.map_or(0.0, |v| 1.0 / v))),
                dp_solved: dp.iter().flatten().count(),
                gr_solved: gr.iter().flatten().count(),
            }
        })
        .collect()
}

/// Headline comparison: mean extra power GR burns relative to the DP over
/// the bounds where both solve everything (the paper quotes >30% on
/// Figure 8's 29–34 range).
pub fn mean_gr_excess(points: &[Exp3Point], lo: f64, hi: f64) -> f64 {
    let ratios: Vec<f64> = points
        .iter()
        .filter(|p| p.bound >= lo && p.bound <= hi && p.gr_inverse_power > 0.0)
        .map(|p| p.dp_inverse_power / p.gr_inverse_power - 1.0)
        .collect();
    mean(ratios)
}

/// Renders the sweep as a table.
pub fn table(points: &[Exp3Point], title: &str) -> Table {
    let mut t = Table::new(
        title,
        &[
            "cost_bound",
            "dp_inverse_power",
            "gr_inverse_power",
            "dp_solved",
            "gr_solved",
        ],
    );
    for p in points {
        t.push_row(vec![
            fmt(p.bound, 0),
            fmt(p.dp_inverse_power, 6),
            fmt(p.gr_inverse_power, 6),
            p.dp_solved.to_string(),
            p.gr_solved.to_string(),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick_config() -> Exp3Config {
        Exp3Config {
            trees: 5,
            nodes: 25,
            pre_existing: 3,
            bounds: vec![6.0, 8.0, 10.0, 14.0, 20.0],
            ..Exp3Config::figure8()
        }
    }

    #[test]
    fn dp_dominates_gr_at_every_bound() {
        let points = run(&quick_config());
        for p in &points {
            assert!(
                p.dp_inverse_power >= p.gr_inverse_power - 1e-12,
                "bound {}: DP {} must dominate GR {}",
                p.bound,
                p.dp_inverse_power,
                p.gr_inverse_power
            );
            assert!(
                p.dp_solved >= p.gr_solved,
                "optimal DP solves whenever GR does"
            );
        }
    }

    #[test]
    fn inverse_power_grows_with_budget() {
        let points = run(&quick_config());
        for w in points.windows(2) {
            assert!(
                w[1].dp_inverse_power >= w[0].dp_inverse_power - 1e-12,
                "larger budgets cannot hurt the optimum"
            );
        }
    }

    #[test]
    fn tight_budgets_fail_loose_budgets_succeed() {
        let mut cfg = quick_config();
        cfg.bounds = vec![0.5, 1000.0];
        let points = run(&cfg);
        assert_eq!(points[0].dp_solved, 0, "cost ≥ servers ≥ 1 > 0.5");
        assert_eq!(points[1].dp_solved, cfg.trees, "huge budgets always work");
        assert_eq!(points[1].gr_solved, cfg.trees);
    }

    #[test]
    fn figure9_has_no_preexisting() {
        let cfg = Exp3Config {
            trees: 2,
            nodes: 20,
            ..Exp3Config::figure9()
        };
        let inst = cfg.instance(0);
        assert!(inst.pre_existing().is_empty());
    }

    #[test]
    fn registry_dispatch_matches_the_deep_amortized_apis() {
        // The values this module produced before the engine grew its
        // budget-sweep API: one raw PowerDp run + one raw GR capacity
        // sweep per tree, filtered per bound.
        use replica_core::{dp_power, greedy_power, SolveArena};
        let cfg = quick_config();
        let points = run(&cfg);
        for (b, point) in cfg.bounds.iter().zip(&points) {
            let mut dp_inv = Vec::new();
            let mut gr_inv = Vec::new();
            for i in 0..cfg.trees {
                let instance = cfg.instance(i);
                let dp = dp_power::PowerDp::run(&instance)
                    .ok()
                    .and_then(|dp| dp.best_within(*b).map(|c| c.power));
                let sweep = greedy_power::paper_sweep(&instance, &mut SolveArena::default());
                let gr = greedy_power::best_within(&sweep, *b).map(|p| p.power);
                dp_inv.push(dp.map_or(0.0, |v| 1.0 / v));
                gr_inv.push(gr.map_or(0.0, |v| 1.0 / v));
            }
            assert!(
                (point.dp_inverse_power - mean(dp_inv)).abs() < 1e-12,
                "bound {b}: DP value drifted from the deep-API computation"
            );
            assert!(
                (point.gr_inverse_power - mean(gr_inv)).abs() < 1e-12,
                "bound {b}: GR value drifted from the deep-API computation"
            );
        }
    }

    #[test]
    fn deterministic_under_seed() {
        let a = run(&quick_config());
        let b = run(&quick_config());
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.dp_inverse_power, y.dp_inverse_power);
            assert_eq!(x.gr_inverse_power, y.gr_inverse_power);
        }
    }

    #[test]
    fn table_and_excess_render() {
        let points = run(&quick_config());
        let t = table(&points, "fig8-quick");
        assert_eq!(t.rows.len(), points.len());
        let excess = mean_gr_excess(&points, 6.0, 20.0);
        assert!(excess >= -1e-9, "the optimum can only dominate");
    }
}
