//! Corrupted tree JSON: every defect ends in the typed [`TreeError`] that
//! structural validation names for it, and no input panics the decoder.
//!
//! Each case edits the wire form of one small valid tree:
//!
//! ```text
//!   n0 ── n1 ── n3      clients: c0 (5) at n3, c1 (2) at n2, c2 (1) at n0
//!    └─── n2
//! ```

use replica_tree::{NodeId, Tree, TreeError};

/// `{"parent", "children", "clients"}` per node, then the client records.
fn json(nodes: &[(&str, &str, &str)], clients: &str) -> String {
    let nodes: Vec<String> = nodes
        .iter()
        .map(|(p, c, k)| format!(r#"{{"parent":{p},"children":[{c}],"clients":[{k}]}}"#))
        .collect();
    format!(r#"{{"nodes":[{}],"clients":[{clients}]}}"#, nodes.join(","))
}

const CLIENTS: &str =
    r#"{"attach":3,"requests":5},{"attach":2,"requests":2},{"attach":0,"requests":1}"#;

fn valid() -> String {
    json(
        &[
            ("null", "1,2", "2"),
            ("0", "3", ""),
            ("0", "", "1"),
            ("1", "", "0"),
        ],
        CLIENTS,
    )
}

fn rejects(input: &str, expected: TreeError) {
    match serde_json::from_str::<Tree>(input) {
        Ok(_) => panic!("accepted corrupt tree {input}"),
        Err(e) => assert_eq!(e.to_string(), expected.to_string(), "input {input}"),
    }
}

fn n(i: usize) -> NodeId {
    NodeId::from_index(i)
}

#[test]
fn the_sample_is_valid_and_round_trips() {
    let tree: Tree = serde_json::from_str(&valid()).unwrap();
    assert_eq!(tree.internal_count(), 4);
    assert_eq!(tree.total_requests(), 8);
    assert_eq!(serde_json::to_string(&tree).unwrap(), valid());
}

#[test]
fn dangling_indices() {
    // A child past the node list.
    rejects(
        &json(
            &[
                ("null", "1,2", "2"),
                ("0", "3", ""),
                ("0", "9", "1"),
                ("1", "", "0"),
            ],
            CLIENTS,
        ),
        TreeError::DanglingHandle("child of n2".into()),
    );
    // A parent past the node list (and not listed as a child anywhere).
    rejects(
        &json(
            &[
                ("null", "1,2", "2"),
                ("0", "", ""),
                ("0", "", "1"),
                ("4000000000", "", "0"),
            ],
            CLIENTS,
        ),
        TreeError::DanglingHandle("parent of n3".into()),
    );
    // A client listed past the client records.
    rejects(
        &json(
            &[
                ("null", "1,2", "2"),
                ("0", "3", ""),
                ("0", "", "1,8"),
                ("1", "", "0"),
            ],
            CLIENTS,
        ),
        TreeError::DanglingHandle("client of n2".into()),
    );
    // A client attached past the node list (and listed nowhere).
    rejects(
        &json(
            &[
                ("null", "1,2", "2"),
                ("0", "3", ""),
                ("0", "", "1"),
                ("1", "", ""),
            ],
            r#"{"attach":9,"requests":5},{"attach":2,"requests":2},{"attach":0,"requests":1}"#,
        ),
        TreeError::DanglingHandle("attach of client 0".into()),
    );
}

#[test]
fn broken_links() {
    rejects(
        &json(
            &[
                ("2", "1,2", "2"),
                ("0", "3", ""),
                ("0", "", "1"),
                ("1", "", "0"),
            ],
            CLIENTS,
        ),
        TreeError::RootHasParent,
    );
    rejects(
        &json(
            &[
                ("null", "1,2", "2"),
                ("0", "3", ""),
                ("0", "", "1"),
                ("2", "", "0"),
            ],
            CLIENTS,
        ),
        TreeError::LinkMismatch {
            parent: n(1),
            child: n(3),
        },
    );
    rejects(
        &json(
            &[
                ("null", "1,2", "2"),
                ("0", "", ""),
                ("0", "", "1"),
                ("null", "", "0"),
            ],
            CLIENTS,
        ),
        TreeError::OrphanNode(n(3)),
    );
    rejects(
        &json(
            &[
                ("null", "1,2", "2"),
                ("0", "3", "0"),
                ("0", "", "1"),
                ("1", "", "0"),
            ],
            CLIENTS,
        ),
        TreeError::ClientLinkMismatch("client c0 listed under n1 but attached to n3".into()),
    );
}

#[test]
fn a_child_listed_twice_is_not_a_tree() {
    rejects(
        &json(
            &[
                ("null", "1,2,1", "2"),
                ("0", "3", ""),
                ("0", "", "1"),
                ("1", "", "0"),
            ],
            CLIENTS,
        ),
        TreeError::NotATree(n(1)),
    );
}

#[test]
fn a_cycle_off_the_root_is_not_a_tree() {
    // n1 and n3 point at each other; only n2 hangs from the root.
    rejects(
        &json(
            &[
                ("null", "2", "2"),
                ("3", "3", ""),
                ("0", "", "1"),
                ("1", "1", "0"),
            ],
            CLIENTS,
        ),
        TreeError::NotATree(n(1)),
    );
}

#[test]
fn an_empty_node_list_is_empty() {
    rejects(r#"{"nodes":[],"clients":[]}"#, TreeError::Empty);
}

#[test]
fn demand_past_u64_max_overflows() {
    rejects(
        &json(
            &[
                ("null", "1,2", "2"),
                ("0", "3", ""),
                ("0", "", "1"),
                ("1", "", "0"),
            ],
            r#"{"attach":3,"requests":18446744073709551615},{"attach":2,"requests":1},{"attach":0,"requests":1}"#,
        ),
        TreeError::DemandOverflow,
    );
}

/// Every digit of the sample, replaced by every other digit and by a huge
/// index: each input decodes or is rejected, never panics, and whatever
/// decodes lists every node but the root as a child exactly once.
#[test]
fn digit_mutations_never_panic() {
    let sample = valid();
    for (at, byte) in sample.bytes().enumerate() {
        if !byte.is_ascii_digit() {
            continue;
        }
        let replacements = [
            "0",
            "1",
            "2",
            "3",
            "4",
            "5",
            "6",
            "7",
            "8",
            "9",
            "4294967295",
        ];
        for r in replacements {
            let input = format!("{}{r}{}", &sample[..at], &sample[at + 1..]);
            if let Ok(tree) = serde_json::from_str::<Tree>(&input) {
                let mut seen = vec![false; tree.internal_count()];
                for node in tree.internal_nodes() {
                    for &c in tree.children(node) {
                        assert!(!std::mem::replace(&mut seen[c.index()], true));
                    }
                }
                assert_eq!(
                    seen.iter().filter(|&&s| s).count() + 1,
                    tree.internal_count()
                );
            }
        }
    }
}
