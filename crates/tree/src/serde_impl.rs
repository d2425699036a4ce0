//! Validated serde support for [`Tree`].
//!
//! The wire form is the per-node list dump
//! `{"nodes":[{"parent","children","clients"}…],"clients":[…]}`: `Tree`
//! serializes through that mirror by hand, since it stores its topology
//! packed. Deserialization reads the mirror, packs its lists without
//! dereferencing any handle, and then runs the full
//! [structural validation](crate::validate) on the packed form: corrupt or
//! adversarial inputs end in a typed [`TreeError`](crate::TreeError)
//! instead of a panic or a tree that would break the algorithms'
//! invariants downstream.

use crate::arena::{Client, NodeData, Tree};
use serde::{Deserialize, Deserializer, Serialize, Value};

#[derive(Serialize, Deserialize)]
struct RawTree {
    nodes: Vec<NodeData>,
    clients: Vec<Client>,
}

impl Serialize for Tree {
    fn serialize(&self) -> Value {
        RawTree {
            nodes: self.wire_nodes().collect(),
            clients: self.clients.clone(),
        }
        .serialize()
    }
}

impl<'de> Deserialize<'de> for Tree {
    fn deserialize<D>(deserializer: D) -> Result<Self, D::Error>
    where
        D: Deserializer<'de>,
    {
        let raw = RawTree::deserialize(deserializer)?;
        Tree::pack_wire(raw.nodes, raw.clients)
            .and_then(Tree::finish)
            .map_err(serde::de::Error::custom)
    }
}

#[cfg(test)]
mod tests {
    use crate::{Tree, TreeBuilder};

    fn sample() -> Tree {
        let mut b = TreeBuilder::new();
        let r = b.root();
        let a = b.add_child(r);
        b.add_child(a);
        b.add_client(a, 3);
        b.add_client(r, 1);
        b.build().unwrap()
    }

    #[test]
    fn json_round_trip() {
        let t = sample();
        let json = serde_json::to_string(&t).unwrap();
        let back: Tree = serde_json::from_str(&json).unwrap();
        assert_eq!(serde_json::to_string(&back).unwrap(), json);
        assert_eq!(back.internal_count(), t.internal_count());
        assert_eq!(back.total_requests(), t.total_requests());
    }

    #[test]
    fn rejects_corrupt_parent_links() {
        let t = sample();
        let json = serde_json::to_string(&t).unwrap();
        // Point node 1's parent at itself: a cycle the validator must catch.
        let broken = json.replacen("\"parent\":0", "\"parent\":1", 1);
        assert_ne!(json, broken, "test must actually corrupt the payload");
        let result: Result<Tree, _> = serde_json::from_str(&broken);
        assert!(result.is_err(), "corrupt tree must not deserialize");
    }

    #[test]
    fn rejects_empty_arena() {
        let result: Result<Tree, _> = serde_json::from_str(r#"{"nodes":[],"clients":[]}"#);
        assert!(result.is_err());
    }
}
