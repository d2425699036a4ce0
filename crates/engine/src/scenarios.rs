//! Named instance families: topology × demand-pattern generators beyond
//! the paper's own evaluation setup.
//!
//! A [`Scenario`] is a reproducible instance distribution: topology shape,
//! demand pattern, size and the paper's Experiment-3 mode/cost/power
//! parameters. `scenario.instance(seed, index)` is a pure function of its
//! arguments — byte-identical for a fixed seed — which is what lets a
//! [`ScenarioSpace`](crate::jobspace::ScenarioSpace) hand the
//! [`Fleet`](crate::fleet::Fleet) runner jobs lazily, by global index,
//! without ever materializing the campaign.
//!
//! ## Topology families
//!
//! | [`Topology`] | Shape | Paper relation |
//! |---|---|---|
//! | `Fat` | random, 6–9 children | §5.1 Experiments 1–2 and §5.2 Experiment 3 trees |
//! | `High` | random, 2–4 children | the "high trees" of Figures 6, 7 and 10 |
//! | `Binary` | random, exactly 2 children | limit of the high-tree family (maximum height for a branching tree) |
//! | `Caterpillar` | spine with one leaf-leg per spine node | §2.1 worst case for server chains: every request path shares the spine |
//! | `Star` | root with `N − 1` leaf children | §2.1 worst case for node degree: the root merge dominates |
//!
//! ## Demand patterns
//!
//! | [`Demand`] | Volumes | Paper relation |
//! |---|---|---|
//! | `Uniform` | i.i.d. uniform `1..=5` | the paper's client draws (§5.1 uses 1–6, §5.2 uses 1–5) |
//! | `Skewed` | power-law, mostly 1 with rare `W_M`-sized bursts | generalizes §5 beyond uniform volumes |
//! | `FlashCrowd` | baseline 1, one random subtree saturated at `W_M` | the localized burst that §6's update strategies must absorb |
//! | `Drifting` | gradient from 1 up to `W_M` across the client order | the drift regime of §6 (Experiment 2 re-draws volumes; drift is its adversarial cousin) |
//!
//! ## Churn families (via `replica-sim`)
//!
//! Three further patterns snapshot what a placement faces *after* the
//! dynamic evolutions of [`replica_sim::Evolution`] have run for a while
//! — the §6 setting where request volumes change between reconfiguration
//! steps. They are kept out of [`Demand::all`] (and
//! [`standard_families`]) so the paper-aligned 5 × 4 cross product stays
//! stable; [`churn_families`] / [`extended_families`] add them in.
//!
//! | [`Demand`] | Volumes | Sim relation |
//! |---|---|---|
//! | `WalkDrift` | uniform start, then [`WALK_DRIFT_ROUNDS`] rounds of ±1 random walk | cumulative [`replica_sim::Evolution::RandomWalk`] drift over rounds |
//! | `QuietChurn` | uniform re-draw with clients independently going quiet (volume 0) | one [`replica_sim::Evolution::Churn`] step — bursty on/off churn |
//! | `SubtreeMix` | each root subtree draws its own pattern (uniform / skewed / saturated) | heterogeneous per-subtree demand mixes |
//!
//! ## Fixed single instances
//!
//! [`paper_tree`], [`power_instance`], [`fat_power_instance`] and
//! [`fat_linear_power_instance`] draw one instance from a seed alone, for
//! workloads that solve one large tree rather than a family: the
//! `placed` daemon's `--alpha` recipes, the benchmarks and the scale
//! tests.

use crate::seeding;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use replica_model::{CostModel, Instance, ModeSet, PowerModel, PreExisting};
use replica_sim::Evolution;
use replica_tree::{generate, GeneratorConfig, NodeId, Tree};
use serde::{Deserialize, Serialize};

/// Random-walk rounds behind [`Demand::WalkDrift`].
pub const WALK_DRIFT_ROUNDS: usize = 10;

/// Probability of a client going quiet under [`Demand::QuietChurn`].
pub const QUIET_PROBABILITY: f64 = 0.25;

/// Tree-shape family of a scenario.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum Topology {
    /// Random tree with 6–9 children per node (the paper's default).
    Fat,
    /// Random tree with 2–4 children per node (the paper's "high trees").
    High,
    /// Random strictly binary tree.
    Binary,
    /// Deterministic caterpillar: a spine with one client leg per node.
    Caterpillar,
    /// Deterministic star: a root with `N − 1` client leaves.
    Star,
}

impl Topology {
    /// Short lowercase label used in scenario names.
    pub fn label(self) -> &'static str {
        match self {
            Topology::Fat => "fat",
            Topology::High => "high",
            Topology::Binary => "binary",
            Topology::Caterpillar => "caterpillar",
            Topology::Star => "star",
        }
    }

    /// All topology families.
    pub fn all() -> [Topology; 5] {
        [
            Topology::Fat,
            Topology::High,
            Topology::Binary,
            Topology::Caterpillar,
            Topology::Star,
        ]
    }

    /// Builds a tree of roughly `nodes` internal nodes (exactly `nodes`
    /// for the random families). Client volumes are placeholders until a
    /// [`Demand`] is applied.
    fn build(self, nodes: usize, rng: &mut StdRng) -> Tree {
        assert!(nodes >= 2, "scenarios need at least two internal nodes");
        let random = |children: (usize, usize), rng: &mut StdRng| {
            let config = GeneratorConfig {
                internal_nodes: nodes,
                children_range: children,
                // Every node carries a client so demand patterns are fully
                // expressive (the paper's Experiment 3 does the same).
                client_probability: 1.0,
                requests_range: (1, 1),
            };
            generate::random_tree(&config, rng)
        };
        match self {
            Topology::Fat => random((6, 9), rng),
            Topology::High => random((2, 4), rng),
            Topology::Binary => random((2, 2), rng),
            Topology::Caterpillar => generate::caterpillar(nodes / 2, 1),
            Topology::Star => generate::star(nodes - 1, 1),
        }
    }
}

/// Client-demand family of a scenario.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum Demand {
    /// I.i.d. uniform volumes in `1..=5` (the paper's setup).
    Uniform,
    /// Power-law volumes: mostly 1, occasionally up to `W_M`.
    Skewed,
    /// Volume 1 everywhere except one random subtree saturated at `W_M`.
    FlashCrowd,
    /// Volumes rise from 1 to `W_M` across the client order (spatial
    /// drift), with ±1 jitter.
    Drifting,
    /// Uniform start evolved through [`WALK_DRIFT_ROUNDS`] rounds of the
    /// sim's ±1 random walk — temporal drift accumulated over
    /// reconfiguration intervals.
    WalkDrift,
    /// Uniform re-draw with clients independently quiet (volume 0) with
    /// probability [`QUIET_PROBABILITY`] — the sim's bursty on/off churn.
    QuietChurn,
    /// Heterogeneous per-subtree mixes: each subtree under the root
    /// cycles through uniform / skewed / saturated demand.
    SubtreeMix,
}

impl Demand {
    /// Short lowercase label used in scenario names.
    pub fn label(self) -> &'static str {
        match self {
            Demand::Uniform => "uniform",
            Demand::Skewed => "skewed",
            Demand::FlashCrowd => "flashcrowd",
            Demand::Drifting => "drifting",
            Demand::WalkDrift => "walkdrift",
            Demand::QuietChurn => "quietchurn",
            Demand::SubtreeMix => "subtreemix",
        }
    }

    /// The paper-aligned demand patterns (the [`standard_families`]
    /// cross product).
    pub fn all() -> [Demand; 4] {
        [
            Demand::Uniform,
            Demand::Skewed,
            Demand::FlashCrowd,
            Demand::Drifting,
        ]
    }

    /// The churn patterns backed by `replica-sim` evolutions.
    pub fn churn() -> [Demand; 3] {
        [Demand::WalkDrift, Demand::QuietChurn, Demand::SubtreeMix]
    }

    /// Every demand pattern: paper-aligned plus churn.
    pub fn all_extended() -> [Demand; 7] {
        let [a, b, c, d] = Demand::all();
        let [e, f, g] = Demand::churn();
        [a, b, c, d, e, f, g]
    }

    /// Overwrites every client volume in `tree` according to the pattern.
    /// Volumes never exceed `w_max`, so one-client-per-node topologies
    /// stay feasible (§2's `client(j) ≤ W_M` criterion).
    fn apply(self, tree: &mut Tree, w_max: u64, rng: &mut StdRng) {
        let clients: Vec<_> = tree.client_ids().collect();
        let n = clients.len().max(1);
        match self {
            Demand::Uniform => {
                for c in clients {
                    tree.set_requests(c, rng.random_range(1..=5u64.min(w_max)));
                }
            }
            Demand::Skewed => {
                for c in clients {
                    let u: f64 = rng.random();
                    let v = ((w_max as f64) * u.powi(4)).round() as u64;
                    tree.set_requests(c, v.clamp(1, w_max));
                }
            }
            Demand::FlashCrowd => {
                for &c in &clients {
                    tree.set_requests(c, 1);
                }
                // Saturate the subtree under a random hot node.
                let hot_index = rng.random_range(0..tree.internal_count());
                let mut stack = vec![NodeId::from_index(hot_index)];
                while let Some(node) = stack.pop() {
                    for c in tree.clients_of(node).to_vec() {
                        tree.set_requests(c, w_max);
                    }
                    stack.extend_from_slice(tree.children(node));
                }
            }
            Demand::Drifting => {
                for (i, c) in clients.into_iter().enumerate() {
                    let base = 1 + (i as u64 * (w_max - 1)) / (n as u64 - 1).max(1);
                    let jitter = rng.random_range(0..=2u64);
                    let v = (base + jitter).saturating_sub(1);
                    tree.set_requests(c, v.clamp(1, w_max));
                }
            }
            Demand::WalkDrift => {
                Demand::Uniform.apply(tree, w_max, rng);
                Evolution::RandomWalk {
                    step: 1,
                    range: (1, w_max),
                }
                .apply_rounds(tree, WALK_DRIFT_ROUNDS, rng);
            }
            Demand::QuietChurn => {
                Evolution::Churn {
                    range: (1, 5u64.min(w_max)),
                    quiet_probability: QUIET_PROBABILITY,
                }
                .apply(tree, rng);
            }
            Demand::SubtreeMix => {
                // Clients attached directly to the root stay at baseline;
                // each root subtree cycles through one of three regimes.
                for c in tree.clients_of(tree.root()).to_vec() {
                    tree.set_requests(c, 1);
                }
                for (i, &top) in tree.children(tree.root()).to_vec().iter().enumerate() {
                    let mut stack = vec![top];
                    while let Some(node) = stack.pop() {
                        for c in tree.clients_of(node).to_vec() {
                            let v = match i % 3 {
                                0 => rng.random_range(1..=5u64.min(w_max)),
                                1 => {
                                    let u: f64 = rng.random();
                                    (((w_max as f64) * u.powi(4)).round() as u64).clamp(1, w_max)
                                }
                                _ => w_max,
                            };
                            tree.set_requests(c, v);
                        }
                        stack.extend_from_slice(tree.children(node));
                    }
                }
            }
        }
    }
}

/// A named, reproducible instance family.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
#[serde(deny_unknown_fields)]
pub struct Scenario {
    /// `"<topology>/<demand>/<nodes>n"`.
    pub name: String,
    /// Tree-shape family.
    pub topology: Topology,
    /// Demand pattern.
    pub demand: Demand,
    /// Internal-node target per tree.
    pub nodes: usize,
    /// Pre-existing servers per tree (placed at the top mode, like the
    /// paper's Experiment 3).
    pub pre_existing: usize,
    /// Mode capacities (paper: `{5, 10}`).
    pub modes: Vec<u64>,
    /// Eq. 4 creation cost (uniform across modes).
    pub create: f64,
    /// Eq. 4 deletion cost.
    pub delete: f64,
    /// Eq. 4 mode-change cost.
    pub changed: f64,
}

impl Scenario {
    /// A scenario with the paper's Experiment-3 parameters.
    pub fn new(topology: Topology, demand: Demand, nodes: usize) -> Self {
        Scenario {
            name: format!("{}/{}/{}n", topology.label(), demand.label(), nodes),
            topology,
            demand,
            nodes,
            pre_existing: nodes / 10,
            modes: vec![5, 10],
            create: 0.1,
            delete: 0.01,
            changed: 0.001,
        }
    }

    /// Builds instance `index` of the fleet seeded by `seed`. The RNG
    /// stream mixes in the scenario name, so instance `i` of different
    /// scenarios draws independently.
    pub fn instance(&self, seed: u64, index: usize) -> Instance {
        let mut rng = seeding::rng(seed ^ seeding::label_stream(&self.name), index as u64);
        let modes = ModeSet::new(self.modes.clone()).expect("scenario modes are valid");
        let w_max = modes.max_capacity();
        let mut tree = self.topology.build(self.nodes, &mut rng);
        self.demand.apply(&mut tree, w_max, &mut rng);
        let pre = generate::random_pre_existing(&tree, self.pre_existing, &mut rng);
        let top_mode = modes.count() - 1;
        let power = PowerModel::paper_experiment3(&modes);
        Instance::builder(tree)
            .pre_existing(PreExisting::at_mode(pre, top_mode))
            .cost(CostModel::uniform(
                modes.count(),
                self.create,
                self.delete,
                self.changed,
            ))
            .power(power)
            .modes(modes)
            .build()
            .expect("scenario instances are structurally valid")
    }

    /// Builds a whole seeded fleet.
    pub fn instances(&self, seed: u64, count: usize) -> Vec<Instance> {
        (0..count).map(|i| self.instance(seed, i)).collect()
    }
}

/// The paper-aligned topology × demand cross product at the given size
/// (20 scenarios).
pub fn standard_families(nodes: usize) -> Vec<Scenario> {
    let mut out = Vec::new();
    for topology in Topology::all() {
        for demand in Demand::all() {
            out.push(Scenario::new(topology, demand, nodes));
        }
    }
    out
}

/// The topology × churn-demand cross product at the given size (15
/// scenarios): the `replica-sim` evolutions as static instance families.
pub fn churn_families(nodes: usize) -> Vec<Scenario> {
    let mut out = Vec::new();
    for topology in Topology::all() {
        for demand in Demand::churn() {
            out.push(Scenario::new(topology, demand, nodes));
        }
    }
    out
}

/// Every family: [`standard_families`] plus [`churn_families`] (35
/// scenarios).
pub fn extended_families(nodes: usize) -> Vec<Scenario> {
    let mut out = standard_families(nodes);
    out.extend(churn_families(nodes));
    out
}

/// Deterministic paper-shaped tree.
pub fn paper_tree(seed: u64, nodes: usize) -> Tree {
    let mut rng = StdRng::seed_from_u64(seed);
    generate::random_tree(&GeneratorConfig::paper_fat(nodes), &mut rng)
}

/// Deterministic Experiment-3-style instance (modes {5, 10}, α = 3,
/// `P_static = W₁³/10`, uniform Fig-8 costs).
pub fn power_instance(seed: u64, nodes: usize, pre_count: usize) -> Instance {
    mode_pair_instance(
        seed,
        &GeneratorConfig::paper_power(nodes),
        pre_count,
        PowerModel::paper_experiment3,
    )
}

/// Deterministic Experiment-3-style instance on the *fat* paper tree —
/// the scaling workload of the solver benchmarks and the release-mode
/// scale guard in `replica-core`. `pre_count` servers are pre-existing
/// at mode 1; pass 0 for the greenfield regime.
pub fn fat_power_instance(seed: u64, nodes: usize, pre_count: usize) -> Instance {
    mode_pair_instance(
        seed,
        &GeneratorConfig::paper_fat(nodes),
        pre_count,
        PowerModel::paper_experiment3,
    )
}

/// The [`fat_power_instance`] workload under an **energy-proportional**
/// power model (α = 1, `P_static = 10`). Cost and power then rise
/// together with the server count, per-flow Pareto frontiers stay
/// compact, and the exact pruned DP is near-linear — the regime where
/// 10⁵-node exact solves are routine (see `docs/ARCHITECTURE.md`,
/// "Flat tree layout & solve arenas").
pub fn fat_linear_power_instance(seed: u64, nodes: usize, pre_count: usize) -> Instance {
    mode_pair_instance(seed, &GeneratorConfig::paper_fat(nodes), pre_count, |_| {
        PowerModel::new(10.0, 1.0)
    })
}

/// The body the three recipes above share: a tree of `shape` drawn from
/// `seed`, then `pre_count` servers pre-existing at mode 1 of the modes
/// {5, 10}, uniform Fig-8 costs and the power model `power` builds for
/// those modes.
fn mode_pair_instance(
    seed: u64,
    shape: &GeneratorConfig,
    pre_count: usize,
    power: impl FnOnce(&ModeSet) -> PowerModel,
) -> Instance {
    let mut rng = StdRng::seed_from_u64(seed);
    let tree = generate::random_tree(shape, &mut rng);
    let pre = generate::random_pre_existing(&tree, pre_count, &mut rng);
    let modes = ModeSet::new(vec![5, 10]).expect("modes {5, 10} are valid");
    Instance::builder(tree)
        .power(power(&modes))
        .modes(modes)
        .pre_existing(PreExisting::at_mode(pre, 1))
        .cost(CostModel::uniform(2, 0.1, 0.01, 0.001))
        .build()
        .expect("pre-existing internal nodes at mode 1 of two modes are valid")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cross_product_covers_all_families() {
        let families = standard_families(30);
        assert_eq!(families.len(), 20);
        let extended = extended_families(30);
        assert_eq!(extended.len(), 35, "20 standard + 15 churn");
        let mut names: Vec<_> = extended.iter().map(|s| s.name.clone()).collect();
        names.sort();
        names.dedup();
        assert_eq!(names.len(), 35, "scenario names must be unique");
    }

    #[test]
    fn instances_are_reproducible_and_feasible() {
        for scenario in extended_families(24) {
            let a = scenario.instance(7, 3);
            let b = scenario.instance(7, 3);
            assert_eq!(
                serde_json::to_string(a.tree()).unwrap(),
                serde_json::to_string(b.tree()).unwrap(),
                "{}: same seed must give the same tree",
                scenario.name
            );
            assert!(
                a.feasible(),
                "{}: scenario instances must be feasible",
                scenario.name
            );
            let c = scenario.instance(8, 3);
            assert_ne!(
                serde_json::to_string(a.tree()).unwrap(),
                serde_json::to_string(c.tree()).unwrap(),
                "{}: different seeds must differ",
                scenario.name
            );
        }
    }

    #[test]
    fn demand_patterns_shape_volumes() {
        let scenario = |demand| Scenario::new(Topology::Fat, demand, 60);

        // Flash crowd: at least one client saturated, most at baseline.
        let inst = scenario(Demand::FlashCrowd).instance(3, 0);
        let tree = inst.tree();
        let volumes: Vec<u64> = tree.client_ids().map(|c| tree.requests(c)).collect();
        assert!(volumes.contains(&10), "a hot client at W_M");
        assert!(
            volumes.iter().filter(|&&v| v == 1).count() * 2 > volumes.len(),
            "baseline clients dominate"
        );

        // Skewed: median must sit low, max above the uniform ceiling.
        let inst = scenario(Demand::Skewed).instance(3, 0);
        let tree = inst.tree();
        let mut volumes: Vec<u64> = tree.client_ids().map(|c| tree.requests(c)).collect();
        volumes.sort_unstable();
        assert!(volumes[volumes.len() / 2] <= 2, "skewed median is small");

        // Drifting: later clients ask for more on average.
        let inst = scenario(Demand::Drifting).instance(3, 0);
        let tree = inst.tree();
        let volumes: Vec<u64> = tree.client_ids().map(|c| tree.requests(c)).collect();
        let half = volumes.len() / 2;
        let early: u64 = volumes[..half].iter().sum();
        let late: u64 = volumes[half..].iter().sum();
        assert!(late > early, "drift must rise across the client order");
    }

    #[test]
    fn churn_patterns_shape_volumes() {
        let scenario = |demand| Scenario::new(Topology::Fat, demand, 60);

        // Quiet churn: some clients off, the rest in the active range.
        let inst = scenario(Demand::QuietChurn).instance(3, 0);
        let tree = inst.tree();
        let volumes: Vec<u64> = tree.client_ids().map(|c| tree.requests(c)).collect();
        let quiet = volumes.iter().filter(|&&v| v == 0).count();
        assert!(quiet > 0, "p = 0.25 should silence someone");
        assert!(quiet * 2 < volumes.len(), "most clients stay active");
        assert!(volumes.iter().all(|&v| v <= 5), "active range is 1..=5");

        // Walk drift: everything in range, and the walk actually moved
        // the profile away from a plain uniform draw.
        let walked = scenario(Demand::WalkDrift).instance(3, 0);
        let wtree = walked.tree();
        let wvol: Vec<u64> = wtree.client_ids().map(|c| wtree.requests(c)).collect();
        let w_max = walked.max_capacity();
        assert!(wvol.iter().all(|&v| (1..=w_max).contains(&v)));
        assert!(
            wvol.iter().any(|&v| v > 5),
            "ten ±1 rounds push some client past the uniform ceiling"
        );

        // Subtree mix: the saturated subtrees give the instance both
        // baseline and W_M volumes.
        let mixed = scenario(Demand::SubtreeMix).instance(3, 0);
        let mtree = mixed.tree();
        let mvol: Vec<u64> = mtree.client_ids().map(|c| mtree.requests(c)).collect();
        assert!(mvol.contains(&mixed.max_capacity()), "a saturated subtree");
        assert!(mvol.iter().any(|&v| v < mixed.max_capacity()), "a mild one");
    }

    #[test]
    fn churn_instances_are_solvable_by_the_exact_dp() {
        use crate::registry::Registry;
        use crate::solver::SolveOptions;
        let registry = Registry::with_all();
        for scenario in churn_families(14) {
            let instance = scenario.instance(5, 0);
            let outcome = registry
                .solve("dp_power", &instance, &SolveOptions::default())
                .unwrap_or_else(|e| panic!("{}: {e}", scenario.name));
            assert!(outcome.power > 0.0, "{}", scenario.name);
        }
    }

    #[test]
    fn deterministic_topologies_have_expected_shape() {
        let cat = Scenario::new(Topology::Caterpillar, Demand::Uniform, 40).instance(1, 0);
        assert_eq!(cat.tree().internal_count(), 40);
        let star = Scenario::new(Topology::Star, Demand::Uniform, 40).instance(1, 0);
        assert_eq!(star.tree().children(star.tree().root()).len(), 39);
    }
}
