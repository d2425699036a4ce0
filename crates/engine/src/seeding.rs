//! Deterministic per-instance seed derivation.
//!
//! Everything the engine randomizes flows from one fleet seed through
//! [`mix`]: instance `i` of a fleet draws from `rng(seed, i)`, and a
//! solver's per-instance randomness (annealing) is seeded with
//! `mix(seed, i)`. The mixing is a SplitMix64 finalizer, so consecutive
//! indices produce decorrelated streams and results are independent of
//! thread scheduling — the property the determinism suite pins down.
//!
//! The index handed to [`mix`] is always a **global, stable** one — the
//! job's position in the [`JobSpace`](crate::jobspace::JobSpace) for
//! solver seeds, the within-scenario instance index (plus the
//! [`label_stream`]-hashed scenario name) for instance generation —
//! never an enumeration order. That is what lets a lazy job space, an
//! eager job list and any contiguous shard split of either produce
//! bit-identical cells: who generates or solves a job, and when, cannot
//! influence its seed.

use rand::rngs::StdRng;
use rand::SeedableRng;

/// Mixes an experiment seed with a stream index into an independent seed.
pub fn mix(seed: u64, stream: u64) -> u64 {
    let mut z = seed.wrapping_add(0x9E37_79B9_7F4A_7C15u64.wrapping_mul(stream.wrapping_add(1)));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The RNG for stream `stream` of experiment `seed`.
pub fn rng(seed: u64, stream: u64) -> StdRng {
    StdRng::seed_from_u64(mix(seed, stream))
}

/// A stable 64-bit label hash (FNV-1a), for deriving independent seed
/// streams per named scenario: without it, instance `i` of every scenario
/// in a fleet would share one RNG stream and cross-scenario aggregates
/// would be built on correlated draws.
pub fn label_stream(label: &str) -> u64 {
    fnv1a(FNV_OFFSET, label.as_bytes())
}

/// The FNV-1a offset basis: the hash of no bytes.
pub const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// Extends the FNV-1a hash `hash` by `bytes` — the workspace's one
/// stable 64-bit hash, behind scenario seed streams, campaign
/// fingerprints, fleet cell checksums and `replica-fleetd`'s shard
/// report checksums.
pub fn fnv1a(mut hash: u64, bytes: &[u8]) -> u64 {
    for &byte in bytes {
        hash = (hash ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::Rng;

    #[test]
    fn streams_are_deterministic_and_distinct() {
        let a: u64 = rng(7, 0).random();
        let b: u64 = rng(7, 0).random();
        let c: u64 = rng(7, 1).random();
        let d: u64 = rng(8, 0).random();
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_ne!(a, d);
    }

    #[test]
    fn mixing_spreads_consecutive_indices() {
        let xs: Vec<u64> = (0..64).map(|i| mix(42, i)).collect();
        let mut sorted = xs.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), 64, "collision among 64 consecutive streams");
    }
}
