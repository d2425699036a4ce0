//! Bit-packed state vectors for the power-aware dynamic program (§4.3).
//!
//! A DP state at node `j` is the vector
//! `(n₁ … n_M, e₁₁ … e_MM)` — new servers per mode plus reused pre-existing
//! servers per (original mode → operated mode) pair, within `subtree_j`.
//! The state is packed into a `u128` key with fixed-width fields:
//! `M` fields of `n_bits` (enough for the total new-server slot count) then
//! `M²` fields of `e_bits` (enough for the pre-existing count).
//!
//! Because every field is wide enough for the *global* total and the states
//! being combined always count *disjoint* node sets, plain integer addition
//! of two keys adds fields pointwise with no carry-over — merging two
//! subtree states is a single `u128` add. This is what makes the
//! `O(N^{2M²+2M+1})` DP practical.

use replica_model::{ModeIdx, ModelError};

/// A packed state vector (see the [module docs](self)).
pub type StateKey = u128;

/// Field layout for packing/unpacking [`StateKey`]s.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct StateCodec {
    /// Number of modes `M`.
    pub modes: usize,
    /// Bits per `nᵢ` field.
    n_bits: u32,
    /// Bits per `eᵢᵢ'` field (0 when no server pre-exists).
    e_bits: u32,
}

/// An unpacked state vector, for inspection and cost/power evaluation.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct StateVec {
    /// `n[i]` = new servers operated at mode `i`.
    pub new_by_mode: Vec<u64>,
    /// `e[i][i']` = pre-existing servers re-moded `i → i'`.
    pub reused: Vec<Vec<u64>>,
}

impl StateVec {
    /// Total servers in the state.
    pub fn total_servers(&self) -> u64 {
        self.new_by_mode.iter().sum::<u64>() + self.reused.iter().flatten().sum::<u64>()
    }
}

fn bits_for(max_value: u64) -> u32 {
    64 - max_value.leading_zeros()
}

impl StateCodec {
    /// Builds a codec for `modes` modes, at most `max_new` new servers and
    /// `max_pre` pre-existing servers in the whole tree.
    ///
    /// Fails when the layout exceeds 128 bits — that is the practical
    /// boundary of the algorithm anyway (the paper runs `M = 2`; `M = 3`
    /// fits for any tree up to ~2³⁰ nodes, `M = 4` for small trees).
    pub fn new(modes: usize, max_new: u64, max_pre: u64) -> Result<Self, ModelError> {
        assert!(modes >= 1, "at least one mode");
        let n_bits = bits_for(max_new).max(1);
        let e_bits = bits_for(max_pre); // 0 bits when max_pre = 0
        let total = modes as u32 * n_bits + (modes * modes) as u32 * e_bits;
        if total > 128 {
            return Err(ModelError::InvalidModes(format!(
                "state needs {total} bits (> 128): {modes} modes, {max_new} new slots, \
                 {max_pre} pre-existing — reduce the mode count or the tree size"
            )));
        }
        Ok(StateCodec {
            modes,
            n_bits,
            e_bits,
        })
    }

    /// The all-zero state.
    #[inline]
    pub fn zero(&self) -> StateKey {
        0
    }

    #[inline]
    fn n_shift(&self, mode: ModeIdx) -> u32 {
        debug_assert!(mode < self.modes);
        mode as u32 * self.n_bits
    }

    #[inline]
    fn e_shift(&self, from: ModeIdx, to: ModeIdx) -> u32 {
        debug_assert!(from < self.modes && to < self.modes);
        debug_assert!(self.e_bits > 0, "no e-fields without pre-existing servers");
        self.modes as u32 * self.n_bits + (from * self.modes + to) as u32 * self.e_bits
    }

    /// Adds one *new* server operated at `mode`.
    #[inline]
    pub fn bump_new(&self, key: StateKey, mode: ModeIdx) -> StateKey {
        key + (1u128 << self.n_shift(mode))
    }

    /// Adds one *reused* pre-existing server re-moded `from → to`.
    #[inline]
    pub fn bump_reused(&self, key: StateKey, from: ModeIdx, to: ModeIdx) -> StateKey {
        key + (1u128 << self.e_shift(from, to))
    }

    /// Combines the states of two disjoint subtrees (plain add; see module
    /// docs for why no carry can occur).
    #[inline]
    pub fn combine(&self, a: StateKey, b: StateKey) -> StateKey {
        a + b
    }

    /// Unpacks a key.
    pub fn decode(&self, key: StateKey) -> StateVec {
        let n_mask = (1u128 << self.n_bits) - 1;
        let mut new_by_mode = vec![0u64; self.modes];
        for (i, slot) in new_by_mode.iter_mut().enumerate() {
            *slot = ((key >> self.n_shift(i)) & n_mask) as u64;
        }
        let mut reused = vec![vec![0u64; self.modes]; self.modes];
        if self.e_bits > 0 {
            let e_mask = (1u128 << self.e_bits) - 1;
            for (i, row) in reused.iter_mut().enumerate() {
                for (ip, slot) in row.iter_mut().enumerate() {
                    *slot = ((key >> self.e_shift(i, ip)) & e_mask) as u64;
                }
            }
        }
        StateVec {
            new_by_mode,
            reused,
        }
    }

    /// Packs a vector (inverse of [`StateCodec::decode`]).
    pub fn encode(&self, state: &StateVec) -> StateKey {
        let mut key = 0u128;
        for (i, &n) in state.new_by_mode.iter().enumerate() {
            key |= (n as u128) << self.n_shift(i);
        }
        if self.e_bits > 0 {
            for (i, row) in state.reused.iter().enumerate() {
                for (ip, &e) in row.iter().enumerate() {
                    key |= (e as u128) << self.e_shift(i, ip);
                }
            }
        }
        key
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bits_for_boundaries() {
        assert_eq!(bits_for(0), 0);
        assert_eq!(bits_for(1), 1);
        assert_eq!(bits_for(2), 2);
        assert_eq!(bits_for(3), 2);
        assert_eq!(bits_for(255), 8);
        assert_eq!(bits_for(256), 9);
    }

    #[test]
    fn round_trip_with_pre_existing() {
        let codec = StateCodec::new(2, 45, 5).unwrap();
        let state = StateVec {
            new_by_mode: vec![3, 45],
            reused: vec![vec![1, 0], vec![2, 2]],
        };
        let key = codec.encode(&state);
        assert_eq!(codec.decode(key), state);
        assert_eq!(state.total_servers(), 53);
    }

    #[test]
    fn round_trip_without_pre_existing() {
        let codec = StateCodec::new(3, 300, 0).unwrap();
        let state = StateVec {
            new_by_mode: vec![300, 0, 17],
            reused: vec![vec![0; 3]; 3],
        };
        let key = codec.encode(&state);
        assert_eq!(codec.decode(key), state);
    }

    #[test]
    fn bump_and_combine() {
        let codec = StateCodec::new(2, 10, 4).unwrap();
        let mut a = codec.zero();
        a = codec.bump_new(a, 0);
        a = codec.bump_new(a, 0);
        a = codec.bump_reused(a, 1, 0);
        let mut b = codec.zero();
        b = codec.bump_new(b, 1);
        b = codec.bump_reused(b, 1, 0);
        let c = codec.combine(a, b);
        let v = codec.decode(c);
        assert_eq!(v.new_by_mode, vec![2, 1]);
        assert_eq!(v.reused, vec![vec![0, 0], vec![2, 0]]);
    }

    #[test]
    fn no_cross_field_carry_at_capacity() {
        // Two disjoint halves that together exactly hit every field maximum.
        let codec = StateCodec::new(2, 7, 3).unwrap();
        let half = StateVec {
            new_by_mode: vec![3, 4],
            reused: vec![vec![1, 2], vec![0, 1]],
        };
        let rest = StateVec {
            new_by_mode: vec![4, 3],
            reused: vec![vec![2, 1], vec![3, 2]],
        };
        let combined = codec.combine(codec.encode(&half), codec.encode(&rest));
        let v = codec.decode(combined);
        assert_eq!(v.new_by_mode, vec![7, 7]);
        assert_eq!(v.reused, vec![vec![3, 3], vec![3, 3]]);
    }

    #[test]
    fn rejects_oversized_layouts() {
        // M = 4 with huge totals: 4·n_bits + 16·e_bits > 128.
        assert!(StateCodec::new(4, u64::MAX >> 1, u64::MAX >> 1).is_err());
        // Paper-scale layouts always fit.
        assert!(StateCodec::new(2, 1 << 20, 1 << 10).is_ok());
        assert!(StateCodec::new(3, 1 << 10, 1 << 8).is_ok());
    }
}
