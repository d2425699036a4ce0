//! Complete problem instances.
//!
//! An [`Instance`] bundles a distribution tree with the mode set, the
//! pre-existing server set, the cost model and the power model — everything
//! §2 of the paper introduces. All optimization algorithms in `replica-core`
//! take an `&Instance`; the dynamic simulation in `replica-sim` evolves one
//! over time.

use crate::cost::CostModel;
use crate::error::ModelError;
use crate::modes::{ModeIdx, ModeSet};
use crate::power::PowerModel;
use crate::preexisting::PreExisting;
use replica_tree::{NodeId, Tree};
use serde::{Deserialize, Serialize, Value};

/// A full problem statement. Construct with [`Instance::builder`].
///
/// Besides its five parts, an instance keeps a dense per-node index of the
/// pre-existing set, sized to the tree
/// ([`Instance::pre_existing_mode`]), so that solvers look a node up by
/// position instead of searching the set. The index is derived data: it is
/// rebuilt whenever the set changes and never serialized. The JSON form
/// holds the five parts only, and decoding it goes through
/// [`InstanceBuilder::build`], so a decoded instance is validated like a
/// built one.
#[derive(Clone, Debug, Deserialize)]
#[serde(try_from = "RawInstance")]
pub struct Instance {
    tree: Tree,
    modes: ModeSet,
    pre_existing: PreExisting,
    cost: CostModel,
    power: PowerModel,
    /// `pre_mode[j]` = original mode of node `j`'s pre-existing server.
    pre_mode: Vec<Option<u8>>,
}

/// The wire form of an [`Instance`] as decoded: its five parts, in the
/// field order `Serialize for Instance` writes.
#[derive(Deserialize)]
struct RawInstance {
    tree: Tree,
    modes: ModeSet,
    pre_existing: PreExisting,
    cost: CostModel,
    power: PowerModel,
}

impl Serialize for Instance {
    fn serialize(&self) -> Value {
        Value::Object(vec![
            ("tree".into(), self.tree.serialize()),
            ("modes".into(), self.modes.serialize()),
            ("pre_existing".into(), self.pre_existing.serialize()),
            ("cost".into(), self.cost.serialize()),
            ("power".into(), self.power.serialize()),
        ])
    }
}

impl TryFrom<RawInstance> for Instance {
    type Error = ModelError;

    fn try_from(raw: RawInstance) -> Result<Self, ModelError> {
        Instance::builder(raw.tree)
            .modes(raw.modes)
            .pre_existing(raw.pre_existing)
            .cost(raw.cost)
            .power(raw.power)
            .build()
    }
}

impl Instance {
    /// Starts a builder around `tree`.
    pub fn builder(tree: Tree) -> InstanceBuilder {
        InstanceBuilder {
            tree,
            modes: None,
            pre_existing: PreExisting::none(),
            cost: None,
            power: PowerModel::new(0.0, 2.0),
        }
    }

    /// Shorthand for the classical single-mode `MinCost` setting:
    /// capacity `W`, scalar `create`/`delete`, pre-existing servers at the
    /// (only) mode 0.
    pub fn min_cost<I: IntoIterator<Item = NodeId>>(
        tree: Tree,
        capacity: u64,
        pre_existing: I,
        create: f64,
        delete: f64,
    ) -> Result<Self, ModelError> {
        Instance::builder(tree)
            .modes(ModeSet::single(capacity)?)
            .pre_existing(PreExisting::at_mode(pre_existing, 0))
            .cost(CostModel::simple(create, delete))
            .build()
    }

    /// The distribution tree.
    #[inline]
    pub fn tree(&self) -> &Tree {
        &self.tree
    }

    /// Mutable access to the tree — only request volumes can change
    /// (topology is frozen by `replica-tree`), which is what the dynamic
    /// update strategies need.
    #[inline]
    pub fn tree_mut(&mut self) -> &mut Tree {
        &mut self.tree
    }

    /// The mode set.
    #[inline]
    pub fn modes(&self) -> &ModeSet {
        &self.modes
    }

    /// The pre-existing server set `E`.
    #[inline]
    pub fn pre_existing(&self) -> &PreExisting {
        &self.pre_existing
    }

    /// Original mode of `node` if it holds a pre-existing server — the
    /// same answer as `self.pre_existing().mode_of(node)`, read from the
    /// instance's per-node index.
    ///
    /// # Panics
    /// Panics if `node` is not a node of the instance's tree.
    #[inline]
    pub fn pre_existing_mode(&self, node: NodeId) -> Option<ModeIdx> {
        self.pre_mode[node.index()].map(ModeIdx::from)
    }

    /// Replaces the pre-existing set (used by the dynamic simulation, where
    /// step `t`'s solution becomes step `t+1`'s pre-existing servers), and
    /// rebuilds the per-node index.
    pub fn set_pre_existing(&mut self, pre: PreExisting) -> Result<(), ModelError> {
        pre.validate(&self.tree, &self.modes)?;
        self.pre_mode = pre.mode_index(self.tree.internal_count());
        self.pre_existing = pre;
        Ok(())
    }

    /// The cost model.
    #[inline]
    pub fn cost(&self) -> &CostModel {
        &self.cost
    }

    /// The power model.
    #[inline]
    pub fn power(&self) -> &PowerModel {
        &self.power
    }

    /// Number of modes `M`.
    #[inline]
    pub fn mode_count(&self) -> usize {
        self.modes.count()
    }

    /// Highest capacity `W_M` (= the `W` of single-mode problems).
    #[inline]
    pub fn max_capacity(&self) -> u64 {
        self.modes.max_capacity()
    }

    /// Whether *any* feasible placement exists.
    ///
    /// Under the closest policy the requests of the clients attached to one
    /// node are inseparable: whichever server handles one handles all.
    /// Hence the instance is feasible iff `client(j) ≤ W_M` for every node
    /// `j` — in which case placing a replica everywhere is feasible.
    pub fn feasible(&self) -> bool {
        self.tree
            .internal_nodes()
            .all(|j| self.tree.client_load(j) <= self.modes.max_capacity())
    }
}

/// Builder for [`Instance`]; see [`Instance::builder`].
#[derive(Clone, Debug)]
pub struct InstanceBuilder {
    tree: Tree,
    modes: Option<ModeSet>,
    pre_existing: PreExisting,
    cost: Option<CostModel>,
    power: PowerModel,
}

impl InstanceBuilder {
    /// Sets the mode set.
    pub fn modes(mut self, modes: ModeSet) -> Self {
        self.modes = Some(modes);
        self
    }

    /// Single-mode shorthand: capacity `W`.
    pub fn capacity(mut self, w: u64) -> Self {
        self.modes = Some(ModeSet::single(w).expect("capacity must be positive"));
        self
    }

    /// Sets the pre-existing server set.
    pub fn pre_existing(mut self, pre: PreExisting) -> Self {
        self.pre_existing = pre;
        self
    }

    /// Sets the cost model (default: all reconfiguration free, cost = `R`).
    pub fn cost(mut self, cost: CostModel) -> Self {
        self.cost = Some(cost);
        self
    }

    /// Sets the power model (default: `P_static = 0`, `α = 2`).
    pub fn power(mut self, power: PowerModel) -> Self {
        self.power = power;
        self
    }

    /// Validates all parts and assembles the instance.
    pub fn build(self) -> Result<Instance, ModelError> {
        let modes = self
            .modes
            .ok_or_else(|| ModelError::InvalidModes("mode set (or capacity) required".into()))?;
        let cost = self.cost.unwrap_or_else(|| CostModel::free(modes.count()));
        cost.validate(&modes)?;
        self.power.validate()?;
        self.pre_existing.validate(&self.tree, &modes)?;
        Ok(Instance {
            pre_mode: self.pre_existing.mode_index(self.tree.internal_count()),
            tree: self.tree,
            modes,
            pre_existing: self.pre_existing,
            cost,
            power: self.power,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use replica_tree::TreeBuilder;

    fn tree(client_loads: &[u64]) -> Tree {
        let mut b = TreeBuilder::new();
        let r = b.root();
        for &load in client_loads {
            let n = b.add_child(r);
            if load > 0 {
                b.add_client(n, load);
            }
        }
        b.build().unwrap()
    }

    #[test]
    fn builder_defaults() {
        let inst = Instance::builder(tree(&[3, 4]))
            .capacity(10)
            .build()
            .unwrap();
        assert_eq!(inst.mode_count(), 1);
        assert_eq!(inst.max_capacity(), 10);
        assert!(inst.pre_existing().is_empty());
        assert_eq!(inst.cost().create[0], 0.0);
        assert!(inst.feasible());
    }

    #[test]
    fn requires_modes() {
        let err = Instance::builder(tree(&[1])).build().unwrap_err();
        assert!(matches!(err, ModelError::InvalidModes(_)));
    }

    #[test]
    fn min_cost_shorthand() {
        let t = tree(&[3, 4]);
        let pre = vec![NodeId::from_index(1)];
        let inst = Instance::min_cost(t, 10, pre, 0.1, 0.01).unwrap();
        assert_eq!(inst.pre_existing().count(), 1);
        assert_eq!(inst.pre_existing().mode_of(NodeId::from_index(1)), Some(0));
        assert!((inst.cost().create[0] - 0.1).abs() < 1e-12);
    }

    #[test]
    fn feasibility_is_client_bundle_bound() {
        // One node with an 11-request client: infeasible at W = 10.
        let inst = Instance::builder(tree(&[11])).capacity(10).build().unwrap();
        assert!(!inst.feasible());
        let inst = Instance::builder(tree(&[10, 10, 10]))
            .capacity(10)
            .build()
            .unwrap();
        assert!(inst.feasible());
    }

    #[test]
    fn cross_validation_on_build() {
        let bad_cost = Instance::builder(tree(&[1]))
            .modes(ModeSet::new(vec![5, 10]).unwrap())
            .cost(CostModel::simple(0.1, 0.1))
            .build();
        assert!(bad_cost.is_err());

        let bad_pre = Instance::builder(tree(&[1]))
            .capacity(5)
            .pre_existing(PreExisting::at_mode([NodeId::from_index(7)], 0))
            .build();
        assert!(bad_pre.is_err());

        let bad_power = Instance::builder(tree(&[1]))
            .capacity(5)
            .power(PowerModel::new(-2.0, 2.0))
            .build();
        assert!(bad_power.is_err());
    }

    #[test]
    fn set_pre_existing_validates() {
        let mut inst = Instance::builder(tree(&[2, 3]))
            .capacity(10)
            .build()
            .unwrap();
        assert!(inst
            .set_pre_existing(PreExisting::at_mode([NodeId::from_index(1)], 0))
            .is_ok());
        assert_eq!(inst.pre_existing().count(), 1);
        assert!(inst
            .set_pre_existing(PreExisting::at_mode([NodeId::from_index(9)], 0))
            .is_err());
    }

    #[test]
    fn serde_round_trip() {
        let inst =
            Instance::min_cost(tree(&[3, 4]), 10, vec![NodeId::from_index(2)], 0.1, 0.01).unwrap();
        let json = serde_json::to_string(&inst).unwrap();
        let back: Instance = serde_json::from_str(&json).unwrap();
        assert_eq!(back.max_capacity(), 10);
        assert_eq!(back.pre_existing().count(), 1);
        assert_eq!(back.tree().total_requests(), inst.tree().total_requests());
    }
}
