//! The `Instance` wire form: pinned bytes, validation on decode, and the
//! per-node pre-existing index an instance derives from its set.

use replica_model::{CostModel, Instance, ModeSet, Placement, PowerModel, PreExisting};
use replica_tree::{NodeId, Tree, TreeBuilder};

/// The JSON of [`sample`]. Field order, the node-list tree dump and the
/// `[node, mode]` pair list of the pre-existing set are the wire format;
/// the per-node index is derived data and never appears.
const GOLDEN: &str = concat!(
    r#"{"tree":{"nodes":[{"parent":null,"children":[1,2],"clients":[2]},"#,
    r#"{"parent":0,"children":[],"clients":[0]},{"parent":0,"children":[3],"clients":[]},"#,
    r#"{"parent":2,"children":[],"clients":[1]}],"clients":[{"attach":1,"requests":3},"#,
    r#"{"attach":3,"requests":4},{"attach":0,"requests":2}]},"modes":[5,10],"#,
    r#""pre_existing":{"entries":[[1,1],[3,0]]},"cost":{"create":[0.1,0.1],"#,
    r#""delete":[0.01,0.01],"changed":[[0.001,0.001],[0.001,0.001]]},"#,
    r#""power":{"static_power":10.0,"alpha":2.0}}"#
);

/// Root with children a and b, c under b; clients a:3, c:4, root:2; two
/// modes; pre-existing servers at a (mode 1) and c (mode 0).
fn sample() -> Instance {
    let mut b = TreeBuilder::new();
    let root = b.root();
    let a = b.add_child(root);
    let bb = b.add_child(root);
    let c = b.add_child(bb);
    b.add_client(a, 3);
    b.add_client(c, 4);
    b.add_client(root, 2);
    Instance::builder(b.build().unwrap())
        .modes(ModeSet::new(vec![5, 10]).unwrap())
        .pre_existing(PreExisting::from_map(
            [(a, 1), (c, 0)].into_iter().collect(),
        ))
        .cost(CostModel::uniform(2, 0.1, 0.01, 0.001))
        .power(PowerModel::new(10.0, 2.0))
        .build()
        .unwrap()
}

fn assert_index_matches_set(instance: &Instance) {
    for node in instance.tree().internal_nodes() {
        assert_eq!(
            instance.pre_existing_mode(node),
            instance.pre_existing().mode_of(node),
            "index entry of {node}"
        );
    }
}

#[test]
fn instance_json_bytes_are_pinned() {
    let instance = sample();
    assert_eq!(serde_json::to_string(&instance).unwrap(), GOLDEN);
    let back: Instance = serde_json::from_str(GOLDEN).unwrap();
    assert_eq!(serde_json::to_string(&back).unwrap(), GOLDEN);
    assert_index_matches_set(&back);
    assert_eq!(back.pre_existing_mode(NodeId::from_index(1)), Some(1));
    assert_eq!(back.pre_existing_mode(NodeId::from_index(3)), Some(0));
    assert_eq!(back.pre_existing_mode(NodeId::from_index(0)), None);
}

#[test]
fn a_pre_existing_node_outside_the_tree_is_rejected() {
    for node in ["4", "9", "4000000000"] {
        let input = GOLDEN.replace("[[1,1],[3,0]]", &format!("[[1,1],[{node},0]]"));
        assert_ne!(input, GOLDEN);
        let err = serde_json::from_str::<Instance>(&input).unwrap_err();
        assert!(
            err.to_string().contains("outside the tree"),
            "node {node}: {err}"
        );
    }
}

#[test]
fn decoding_validates_like_building() {
    // An original mode past the mode set.
    let input = GOLDEN.replace("[[1,1],[3,0]]", "[[1,2],[3,0]]");
    assert!(serde_json::from_str::<Instance>(&input).is_err());
    // A cost model sized for another mode count.
    let input = GOLDEN.replace(r#""modes":[5,10]"#, r#""modes":[5,10,20]"#);
    assert!(serde_json::from_str::<Instance>(&input).is_err());
    // A negative static power.
    let input = GOLDEN.replace(r#""static_power":10.0"#, r#""static_power":-1.0"#);
    assert!(serde_json::from_str::<Instance>(&input).is_err());
}

#[test]
fn modes_up_to_the_placement_limit_round_trip_through_the_index() {
    let tree = |n: usize| -> Tree {
        let mut b = TreeBuilder::new();
        for _ in 1..n {
            b.add_child(b.root());
        }
        b.build_with_clients_everywhere(1)
    };
    let modes = ModeSet::new((1..=300).collect()).unwrap();
    let top = Placement::MAX_MODE;
    let pre = PreExisting::from_map(
        [(1, 0), (2, 1), (3, top - 1), (4, top)]
            .into_iter()
            .map(|(n, m)| (NodeId::from_index(n), m))
            .collect(),
    );
    let mut instance = Instance::builder(tree(6))
        .modes(modes.clone())
        .pre_existing(pre)
        .build()
        .unwrap();
    assert_index_matches_set(&instance);
    assert_eq!(instance.pre_existing_mode(NodeId::from_index(4)), Some(top));
    let back: Instance = serde_json::from_str(&serde_json::to_string(&instance).unwrap()).unwrap();
    assert_index_matches_set(&back);
    assert_eq!(back.pre_existing_mode(NodeId::from_index(4)), Some(top));

    // One past the limit is rejected, at build and on replacement.
    let past = PreExisting::at_mode([NodeId::from_index(5)], top + 1);
    assert!(Instance::builder(tree(6))
        .modes(modes)
        .pre_existing(past.clone())
        .build()
        .is_err());
    assert!(instance.set_pre_existing(past).is_err());
    assert_eq!(instance.pre_existing_mode(NodeId::from_index(5)), None);

    // Replacing the set rebuilds the index.
    instance
        .set_pre_existing(PreExisting::at_mode([NodeId::from_index(5)], 7))
        .unwrap();
    assert_index_matches_set(&instance);
    assert_eq!(instance.pre_existing_mode(NodeId::from_index(4)), None);
    assert_eq!(instance.pre_existing_mode(NodeId::from_index(5)), Some(7));
}
