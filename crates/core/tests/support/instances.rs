//! The instance strategy shared by the exact-DP batteries
//! (`flat_solver_equivalence`, `incremental_equivalence`,
//! `min_power_front`), included with `#[path]`.
//!
//! It reaches the regimes the system runs in, not only the paper's:
//!
//! * α ∈ {1, 2, 2.5, 3} with static power from U[0, 50), or the paper's
//!   Experiment 3 model about 30 % of the time. Powers that are not dyadic
//!   make power sums round;
//! * in about half the cases, random per-mode create, delete and changed
//!   costs, with delete up to 2.5 so reused-server weights
//!   (`1 + changed − delete`) go negative; otherwise Fig. 8's uniform
//!   costs;
//! * in a third of the cases, capacities and client volumes × 500, so
//!   W_M = 5000 is above the merge kernel's flow-bucketing ceiling.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use replica_model::{CostModel, Instance, ModeSet, PowerModel, PreExisting};
use replica_tree::{generate, GeneratorConfig};

/// Capacity and volume multiplier of the scaled cases.
const SCALE: u64 = 500;

/// A random power instance: paper-style tree, one/two/three modes, random
/// pre-existing replicas at a random original mode, and random power,
/// cost and scale regimes (see the module docs). `max_nodes` caps the
/// tree size. Parameters stay raw draws, so a failing case's numbers name
/// its regime.
pub fn arbitrary_instance(max_nodes: usize) -> impl Strategy<Value = Instance> {
    (
        2usize..max_nodes,
        0usize..3,
        0usize..3,
        0u64..10_000,
        0usize..10,
        0usize..2,
        0usize..3,
    )
        .prop_map(
            |(nodes, mode_choice, pre_choice, seed, power_choice, cost_choice, scale_choice)| {
                let mut rng = StdRng::seed_from_u64(seed);
                let mut tree =
                    generate::random_tree(&GeneratorConfig::paper_power(nodes), &mut rng);
                let scale = if scale_choice == 0 { SCALE } else { 1 };
                let capacities = [vec![10u64], vec![5, 10], vec![4, 7, 10]][mode_choice]
                    .iter()
                    .map(|w| w * scale)
                    .collect();
                let modes = ModeSet::new(capacities).unwrap();
                let pre_count = [0, 1, nodes / 3][pre_choice].min(nodes);
                let pre = generate::random_pre_existing(&tree, pre_count, &mut rng);
                let orig_mode = seed as usize % modes.count();
                for client in tree.client_ids().collect::<Vec<_>>() {
                    let volume = tree.client(client).requests;
                    tree.set_requests(client, volume * scale);
                }
                // The model draws use their own stream, so a seed's tree
                // and pre-existing set do not depend on them.
                let mut draw = StdRng::seed_from_u64(seed ^ 0x5eed_cafe);
                let power = if power_choice < 3 {
                    PowerModel::paper_experiment3(&modes)
                } else {
                    let alpha = [1.0, 2.0, 2.5, 3.0][draw.random_range(0..4usize)];
                    PowerModel::new(draw.random_range(0.0..50.0), alpha)
                };
                let m = modes.count();
                let cost = if cost_choice == 0 {
                    CostModel::uniform(m, 0.1, 0.01, 0.001)
                } else {
                    CostModel {
                        create: (0..m).map(|_| draw.random_range(0.0..1.0)).collect(),
                        delete: (0..m).map(|_| draw.random_range(0.0..2.5)).collect(),
                        changed: (0..m)
                            .map(|_| (0..m).map(|_| draw.random_range(0.0..0.5)).collect())
                            .collect(),
                    }
                };
                Instance::builder(tree)
                    .modes(modes)
                    .pre_existing(PreExisting::at_mode(pre, orig_mode))
                    .cost(cost)
                    .power(power)
                    .build()
                    .unwrap()
            },
        )
}
