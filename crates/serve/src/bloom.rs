//! Blocked bloom filter: the optional approximate-membership front for
//! the hot `serve.query.membership` path.
//!
//! Layout: one 512-bit block (a cache line) per 32 keys, so every probe
//! touches exactly one cache line. Each key sets `PROBES` bits inside
//! its block, derived from one seeded multiply-xorshift mix of the
//! address — a handful of multiplies instead of a byte-at-a-time hash,
//! with zero dependencies and the same output on every platform. With
//! 16 bits budgeted per key and 6 probes the false-positive rate lands
//! around 1% (the blocked layout costs roughly 1.5× the unblocked rate
//! in exchange for the single-cache-line probe);
//! `crates/serve/tests/compressed_equivalence.rs` pins an upper bound.
//!
//! A bloom front can only say "definitely absent" or "ask the exact
//! tier": false negatives are impossible by construction, so enabling
//! it (the `V6_BLOOM` env toggle, or
//! [`crate::snapshot::SnapshotBuilder::with_bloom`]) never changes a
//! query answer — only how much work an absent-address miss costs.

/// Bits budgeted per key (filter sizing).
const BITS_PER_KEY: usize = 16;

/// Words per block: 8 × 64 = 512 bits, one cache line.
const BLOCK_WORDS: usize = 8;

/// Bits set per key inside its block.
const PROBES: usize = 6;

/// Seeded 128→64 mixer: one 64×64→128 multiply folds the two address
/// halves together, then a xorshift-multiply finalizer spreads every
/// input bit over the result. Both operands are xored with dense
/// constants so small seeds and small IIDs still multiply as
/// random-looking values; folding `lo ^ hi` back in keeps keys apart
/// even when an operand happens to be zero.
fn mix(bits: u128, seed: u64) -> u64 {
    let lo = bits as u64;
    let hi = (bits >> 64) as u64;
    let a = lo ^ seed ^ 0xa076_1d64_78bd_642f;
    let b = hi ^ seed.rotate_left(32) ^ 0x9e37_79b9_7f4a_7c15;
    let p = u128::from(a) * u128::from(b);
    finalize((p as u64) ^ ((p >> 64) as u64) ^ lo ^ hi)
}

/// The MurmurHash3 64-bit finalizer: a bijective xorshift-multiply mix.
fn finalize(mut h: u64) -> u64 {
    h ^= h >> 33;
    h = h.wrapping_mul(0xff51_afd7_ed55_8ccd);
    h ^= h >> 33;
    h = h.wrapping_mul(0xc4ce_b9fe_1a85_ec53);
    h ^ (h >> 33)
}

/// A blocked bloom filter over address bits.
#[derive(Debug, Clone)]
pub struct BlockedBloom {
    blocks: Vec<[u64; BLOCK_WORDS]>,
    seed: u64,
}

impl BlockedBloom {
    /// Builds a filter sized for the given keys (seeded; two filters
    /// built from the same keys and seed are identical).
    pub fn build(seed: u64, keys: impl Iterator<Item = u128>, count: usize) -> BlockedBloom {
        let block_count = (count * BITS_PER_KEY).div_ceil(BLOCK_WORDS * 64).max(1);
        let mut bloom = BlockedBloom {
            blocks: vec![[0u64; BLOCK_WORDS]; block_count],
            seed,
        };
        for bits in keys {
            let (block, positions) = bloom.probe(bits);
            for p in positions {
                bloom.blocks[block][p >> 6] |= 1u64 << (p & 63);
            }
        }
        bloom
    }

    /// The block index and the [`PROBES`] bit positions for a key.
    fn probe(&self, bits: u128) -> (usize, [usize; PROBES]) {
        // h2 is a bijective remix of h1: keys sharing a block (equal
        // h1 modulo the block count) still get independent positions.
        let h1 = mix(bits, self.seed);
        let h2 = finalize(h1 ^ 0x9e37_79b9_7f4a_7c15);
        let block = (h1 % self.blocks.len() as u64) as usize;
        let mut positions = [0usize; PROBES];
        for (i, p) in positions.iter_mut().enumerate() {
            // 9 bits address 512 positions; h2 carries 54 > 9 × PROBES.
            *p = ((h2 >> (9 * i)) & 511) as usize;
        }
        (block, positions)
    }

    /// `false` means the key is definitely absent; `true` means the
    /// exact tier must be consulted.
    pub fn may_contain(&self, bits: u128) -> bool {
        let (block, positions) = self.probe(bits);
        let b = &self.blocks[block];
        positions
            .iter()
            .all(|&p| b[p >> 6] & (1u64 << (p & 63)) != 0)
    }

    /// Clears one of `bits`' probe bits, so the filter now reports that
    /// key absent: the false negative an integrity check must catch.
    #[cfg(test)]
    pub(crate) fn clear_probe_bit(&mut self, bits: u128) {
        let (block, positions) = self.probe(bits);
        let p = positions[0];
        self.blocks[block][p >> 6] &= !(1u64 << (p & 63));
    }

    /// Heap bytes the filter occupies.
    pub fn heap_bytes(&self) -> usize {
        self.blocks.len() * BLOCK_WORDS * 8
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn keys(n: usize, seed: u64) -> Vec<u128> {
        let mut h = seed | 1;
        (0..n)
            .map(|_| {
                h = h.wrapping_mul(0x9e37_79b9_7f4a_7c15).rotate_left(29) ^ 0x5eed;
                (0x2001u128 << 112) | u128::from(h)
            })
            .collect()
    }

    #[test]
    fn no_false_negatives() {
        let ks = keys(10_000, 3);
        let bloom = BlockedBloom::build(42, ks.iter().copied(), ks.len());
        assert!(ks.iter().all(|&k| bloom.may_contain(k)));
    }

    #[test]
    fn false_positive_rate_is_bounded() {
        let ks = keys(50_000, 3);
        let bloom = BlockedBloom::build(42, ks.iter().copied(), ks.len());
        let probes = keys(100_000, 999); // disjoint seed: effectively all absent
        let fp = probes.iter().filter(|&&p| bloom.may_contain(p)).count();
        let rate = fp as f64 / probes.len() as f64;
        assert!(rate < 0.02, "false-positive rate {rate} exceeds 2%");
    }

    #[test]
    fn empty_filter_rejects_everything() {
        let bloom = BlockedBloom::build(7, std::iter::empty(), 0);
        assert!(!bloom.may_contain(123));
        assert!(bloom.heap_bytes() >= 64);
    }
}
