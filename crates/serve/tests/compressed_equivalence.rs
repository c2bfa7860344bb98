//! Equivalence proofs for the compressed tiered store.
//!
//! The compressed-run representation (and the optional bloom front) is
//! a pure representation change: every query a snapshot answers must be
//! byte-identical to what a plain sorted `Vec<(u128, u32)>` oracle
//! answers, and the content checksum must equal the oracle's fold. The
//! generators skew addresses into a handful of shared /48s so runs
//! actually compress (many low-64 suffixes per high-64 key) while still
//! exercising the sparse tail.

use std::collections::BTreeMap;
use std::net::Ipv6Addr;

use proptest::prelude::*;

use v6addr::Prefix;
use v6serve::query::lookup_in;
use v6serve::{BlockedBloom, Membership, SnapshotBuilder};

const SHARD_COUNTS: [usize; 3] = [1, 4, 16];

/// Strategy: addresses concentrated in 32 /48s with a couple of subnet
/// planes each, so most pairs share their high-64 key.
fn clustered_bits() -> impl Strategy<Value = u128> {
    (0u128..32, 0u128..4, 0u128..512).prop_map(|(net48, subnet, iid)| {
        (0x2001_0db8u128 << 96) | (net48 << 80) | (subnet << 64) | iid
    })
}

/// The sorted-vec oracle: earliest week per distinct address.
fn oracle(entries: &[(u128, u32)]) -> BTreeMap<u128, u32> {
    let mut m = BTreeMap::new();
    for &(bits, week) in entries {
        m.entry(bits)
            .and_modify(|w: &mut u32| *w = (*w).min(week))
            .or_insert(week);
    }
    m
}

/// The snapshot's order-independent content checksum, recomputed from
/// first principles over the oracle (mirrors `fold_addr`).
fn oracle_checksum(oracle: &BTreeMap<u128, u32>) -> u64 {
    oracle.iter().fold(0u64, |acc, (&bits, &week)| {
        let mixed = (bits as u64)
            ^ ((bits >> 64) as u64).rotate_left(17)
            ^ u64::from(week).wrapping_mul(0x9e37_79b9_7f4a_7c15);
        acc.wrapping_add(mixed.wrapping_mul(0xbf58_476d_1ce4_e5b9) | 1)
    })
}

fn build(entries: &[(u128, u32)], shards: usize, bloom: bool) -> v6serve::Snapshot {
    let mut b = SnapshotBuilder::new("equiv", shards).with_bloom(bloom);
    for &(bits, week) in entries {
        b.add_bits(bits, week);
    }
    b.build()
}

proptest! {
    /// Every query the compressed snapshot answers equals the oracle,
    /// for every shard count, with and without the bloom front — and
    /// the checksum equals the oracle fold in all configurations.
    #[test]
    fn compressed_store_matches_sorted_vec_oracle(
        entries in proptest::collection::vec((clustered_bits(), 0u32..8), 1..300),
        probes in proptest::collection::vec(clustered_bits(), 0..64),
        since in 0u64..10,
    ) {
        let oracle = oracle(&entries);
        let expect_checksum = oracle_checksum(&oracle);
        for &shards in &SHARD_COUNTS {
            for bloom in [false, true] {
                let snap = build(&entries, shards, bloom);
                prop_assert!(snap.verify_integrity());
                prop_assert_eq!(snap.has_bloom(), bloom);
                prop_assert_eq!(snap.len(), oracle.len() as u64);
                prop_assert_eq!(snap.content_checksum(), expect_checksum);

                for (&bits, &week) in &oracle {
                    let a = Ipv6Addr::from(bits);
                    prop_assert!(snap.membership(a).is_present());
                    prop_assert_eq!(lookup_in(&snap, a, None).first_week, Some(week));
                }
                for &bits in &probes {
                    let a = Ipv6Addr::from(bits);
                    prop_assert_eq!(
                        snap.membership(a).is_present(),
                        oracle.contains_key(&bits)
                    );
                    prop_assert_eq!(
                        lookup_in(&snap, a, None).first_week,
                        oracle.get(&bits).copied()
                    );
                    let p48 = Prefix::of(a, 48);
                    let mask = Prefix::mask(48);
                    let net = bits & mask;
                    prop_assert_eq!(
                        snap.count_within(&p48),
                        oracle.keys().filter(|&&k| k & mask == net).count() as u64
                    );
                }
                // A covering short prefix counts everything.
                let all = Prefix::new(Ipv6Addr::from(0x2001_0db8u128 << 96), 32);
                prop_assert_eq!(snap.count_within(&all), oracle.len() as u64);
                prop_assert_eq!(
                    snap.new_since(since),
                    oracle.values().filter(|&&w| u64::from(w) > since).count() as u64
                );
            }
        }
    }

    /// The bloom front never flips an answer: outcomes carry bloom
    /// accounting but `is_present` matches the exact tier, and a
    /// present address is never `BloomFiltered` (no false negatives).
    #[test]
    fn bloom_front_never_changes_answers(
        entries in proptest::collection::vec((clustered_bits(), 0u32..8), 1..200),
        probes in proptest::collection::vec(clustered_bits(), 1..64),
    ) {
        let plain = build(&entries, 4, false);
        let fronted = build(&entries, 4, true);
        prop_assert_eq!(plain.content_checksum(), fronted.content_checksum());
        for &bits in &probes {
            let a = Ipv6Addr::from(bits);
            let exact = plain.membership(a);
            let bloomy = fronted.membership(a);
            prop_assert_eq!(exact.is_present(), bloomy.is_present());
            if exact.is_present() {
                prop_assert!(
                    !matches!(bloomy, Membership::BloomFiltered),
                    "bloom front false-negatived a present address"
                );
            }
            match exact {
                Membership::Present { rank, .. } => {
                    prop_assert_eq!(bloomy, Membership::Present { rank, bloom_checked: true });
                }
                // Empty shards build no bloom front, so an absent probe
                // may come back unchecked (`bloom_checked: false`).
                _ => prop_assert!(matches!(
                    bloomy,
                    Membership::BloomFiltered | Membership::Absent { .. }
                )),
            }
        }
    }
}

/// The blocked bloom's observed false-positive rate stays within an
/// order of magnitude of the theoretical bound for 16 bits/key with 6
/// probes (~0.1%); blocked layouts trade a little precision for
/// single-cache-line probes, so the gate is a conservative 2%.
#[test]
fn bloom_false_positive_rate_is_bounded() {
    const KEYS: u64 = 100_000;
    const PROBES: u64 = 100_000;
    // Keys on the even plane, probes on the odd plane: disjoint by
    // construction, so every `may_contain` hit is a false positive.
    let member = |i: u64| (0x2001_0db8u128 << 96) | (u128::from(i) << 1);
    let absent = |i: u64| (0x2001_0db8u128 << 96) | (u128::from(i) << 1) | 1;
    let bloom = BlockedBloom::build(0xf00d, (0..KEYS).map(member), KEYS as usize);
    for i in 0..KEYS {
        assert!(bloom.may_contain(member(i)), "false negative at key {i}");
    }
    let false_positives = (0..PROBES)
        .filter(|&i| bloom.may_contain(absent(i)))
        .count();
    let rate = false_positives as f64 / PROBES as f64;
    assert!(
        rate < 0.02,
        "false-positive rate {rate:.4} exceeds the 2% bound ({false_positives}/{PROBES})"
    );
}
