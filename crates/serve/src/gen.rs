//! Built-in load-generator presets for `placed --generate`.
//!
//! Three named demand shapes, each a seeded deterministic stream over
//! the instance's clients:
//!
//! * **walk-drift** — every client on a small-step random walk
//!   ([`Evolution::RandomWalk`], step 2, volumes 0–9): the friendly
//!   regime, single-client deltas scattered across the tree, each
//!   dirtying one root path;
//! * **quiet-churn** — bursty on/off demand ([`Evolution::Churn`],
//!   volumes 1–9, 40 % quiet probability): larger per-event volume jumps,
//!   the adversarial case for lazy update strategies;
//! * **subtree-mix** — locality bursts: each epoch focuses one random
//!   subtree and resamples clients *inside it* (with a 20 % global
//!   walk-drift background), so consecutive deltas share most of their
//!   root path — the regime where incremental recompute shines, and the
//!   shape `BENCH_serve.json` measures.
//!
//! A `(preset, seed, rate)` triple replays an identical stream against
//! an identical starting tree; the CI smoke job leans on this.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use replica_sim::{DeltaIter, DemandDelta, Evolution};
use replica_tree::{ClientId, FlatTree, Tree};

/// A named generator preset.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Preset {
    /// Small-amplitude random walk across all clients.
    WalkDrift,
    /// Bursty on/off churn across all clients.
    QuietChurn,
    /// Subtree-local resample bursts over a drifting background.
    SubtreeMix,
}

impl Preset {
    /// Every preset, in documentation order.
    pub const ALL: [Preset; 3] = [Preset::WalkDrift, Preset::QuietChurn, Preset::SubtreeMix];

    /// The CLI label.
    pub fn label(self) -> &'static str {
        match self {
            Preset::WalkDrift => "walk-drift",
            Preset::QuietChurn => "quiet-churn",
            Preset::SubtreeMix => "subtree-mix",
        }
    }

    /// Parses a CLI label.
    pub fn parse(name: &str) -> Option<Preset> {
        Preset::ALL.into_iter().find(|p| p.label() == name)
    }
}

/// Volume clamp shared by every preset.
const VOLUME_RANGE: (u64, u64) = (0, 9);

/// A seeded delta stream in one of the [`Preset`] shapes.
pub struct Generator {
    inner: Inner,
}

enum Inner {
    Evolved(DeltaIter),
    Subtree(Box<SubtreeMix>),
}

impl Generator {
    /// Builds the preset's stream. `tree` fixes the topology the
    /// subtree-mix preset indexes (topology is frozen while serving);
    /// `rate` is events per epoch — subtree-mix re-focuses every `rate`
    /// events.
    pub fn new(preset: Preset, tree: &Tree, seed: u64, rate: u64) -> Generator {
        let inner = match preset {
            Preset::WalkDrift => Inner::Evolved(DeltaIter::new(
                Evolution::RandomWalk {
                    step: 2,
                    range: VOLUME_RANGE,
                },
                seed,
                rate,
            )),
            Preset::QuietChurn => Inner::Evolved(DeltaIter::new(
                Evolution::Churn {
                    range: (1, VOLUME_RANGE.1),
                    quiet_probability: 0.4,
                },
                seed,
                rate,
            )),
            Preset::SubtreeMix => Inner::Subtree(Box::new(SubtreeMix::new(tree, seed, rate))),
        };
        Generator { inner }
    }

    /// Draws the next event against the tree's current volumes without
    /// applying it (the server applies it through its dirty tracking).
    /// `None` iff the tree has no clients.
    pub fn next_delta(&mut self, tree: &Tree) -> Option<DemandDelta> {
        match &mut self.inner {
            Inner::Evolved(iter) => iter.next_delta(tree),
            Inner::Subtree(mix) => mix.next_delta(tree),
        }
    }
}

/// The subtree-mix engine: clients indexed by their attach node's
/// post-order position, so "the clients under subtree(p)" is one
/// contiguous slice.
struct SubtreeMix {
    rng: StdRng,
    rate: u64,
    /// `(attach position, client)`, sorted by position.
    clients_by_pos: Vec<(usize, ClientId)>,
    flat: FlatTree,
    /// Index range into `clients_by_pos` for the current focus subtree.
    focus: std::ops::Range<usize>,
    /// Events left before the next re-focus.
    left_in_burst: u64,
}

impl SubtreeMix {
    fn new(tree: &Tree, seed: u64, rate: u64) -> SubtreeMix {
        let flat = FlatTree::new(tree);
        let mut clients_by_pos: Vec<(usize, ClientId)> = tree
            .client_ids()
            .map(|c| (flat.position_of(tree.client(c).attach), c))
            .collect();
        clients_by_pos.sort_unstable();
        SubtreeMix {
            rng: StdRng::seed_from_u64(seed),
            rate: rate.max(1),
            focus: 0..clients_by_pos.len(),
            clients_by_pos,
            flat,
            left_in_burst: 0,
        }
    }

    /// Picks a fresh focus subtree that actually contains clients.
    fn refocus(&mut self) {
        for _ in 0..8 {
            let p = self.rng.random_range(0..self.flat.len());
            let subtree = self.flat.subtree_range(p);
            let lo = self
                .clients_by_pos
                .partition_point(|&(pos, _)| pos < subtree.start);
            let hi = self
                .clients_by_pos
                .partition_point(|&(pos, _)| pos < subtree.end);
            if lo < hi {
                self.focus = lo..hi;
                return;
            }
        }
        // Degenerate layouts (all clients on one node): burst globally.
        self.focus = 0..self.clients_by_pos.len();
    }

    fn next_delta(&mut self, tree: &Tree) -> Option<DemandDelta> {
        if self.clients_by_pos.is_empty() {
            return None;
        }
        if self.left_in_burst == 0 {
            self.refocus();
            self.left_in_burst = self.rate;
        }
        self.left_in_burst -= 1;
        let (lo, hi) = VOLUME_RANGE;
        if self.rng.random_bool(0.2) {
            // Background drift: any client takes a ±2 walk step.
            let idx = self.rng.random_range(0..self.clients_by_pos.len());
            let client = self.clients_by_pos[idx].1;
            let cur = tree.requests(client) as i128;
            let step = self.rng.random_range(0..=4u64) as i128 - 2;
            let volume = (cur + step).clamp(lo as i128, hi as i128) as u64;
            Some(DemandDelta { client, volume })
        } else {
            // Focused burst: resample a client inside the focus subtree.
            let idx = self.rng.random_range(self.focus.start..self.focus.end);
            let client = self.clients_by_pos[idx].1;
            let volume = self.rng.random_range(lo..=hi);
            Some(DemandDelta { client, volume })
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use replica_engine::scenarios::paper_tree;

    fn stream(preset: Preset, seed: u64, events: usize) -> Vec<DemandDelta> {
        let mut tree = paper_tree(3, 30);
        let mut generator = Generator::new(preset, &tree, seed, 8);
        let mut out = Vec::new();
        for _ in 0..events {
            let delta = generator.next_delta(&tree).unwrap();
            tree.set_requests(delta.client, delta.volume);
            out.push(delta);
        }
        out
    }

    #[test]
    fn presets_replay_deterministically() {
        for preset in Preset::ALL {
            assert_eq!(
                stream(preset, 42, 64),
                stream(preset, 42, 64),
                "{} must replay",
                preset.label()
            );
            assert_ne!(
                stream(preset, 42, 64),
                stream(preset, 43, 64),
                "{} must depend on the seed",
                preset.label()
            );
        }
    }

    #[test]
    fn labels_round_trip() {
        for preset in Preset::ALL {
            assert_eq!(Preset::parse(preset.label()), Some(preset));
        }
        assert_eq!(Preset::parse("walkdrift"), None);
    }

    #[test]
    fn subtree_mix_bursts_share_subtrees() {
        let tree = paper_tree(3, 60);
        let flat = FlatTree::new(&tree);
        let mut generator = Generator::new(Preset::SubtreeMix, &tree, 7, 16);
        // Count events whose attach node lies inside a proper subtree
        // (not the whole tree): with per-epoch focus, bursts concentrate.
        let mut positions = Vec::new();
        for _ in 0..16 {
            let delta = generator.next_delta(&tree).unwrap();
            positions.push(flat.position_of(tree.client(delta.client).attach));
        }
        // At least two events of the first burst hit the same attach
        // position's subtree window — statistically guaranteed for a
        // focused burst of 16 with ≤ 20% background, and deterministic
        // here because the stream is seeded.
        let distinct: std::collections::BTreeSet<_> = positions.iter().collect();
        assert!(
            distinct.len() < positions.len(),
            "focused bursts must revisit attach nodes: {positions:?}"
        );
    }

    #[test]
    fn volumes_stay_in_range() {
        for preset in Preset::ALL {
            for delta in stream(preset, 9, 200) {
                assert!(delta.volume <= VOLUME_RANGE.1, "{}", preset.label());
            }
        }
    }
}
