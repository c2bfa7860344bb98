//! The shard-parallel build and verify path, checked at a size far above
//! the `v6par` work cutoff.
//!
//! Every other serve test builds snapshots small enough that the pool's
//! cost model keeps the per-shard work inline. Here 2^18 submissions over
//! 8 shards — duplicates included, each re-submitted under a different
//! week — go through `SnapshotBuilder` with the bloom front on, and every
//! answer is compared against a sorted-map oracle. ci.sh runs this suite
//! at `V6_THREADS=1` and `V6_THREADS=4`, so both the inline and the
//! parallel schedule must produce the oracle's answers.

use std::collections::BTreeMap;
use std::net::Ipv6Addr;

use v6addr::Prefix;
use v6serve::{Snapshot, SnapshotBuilder};

const SHARDS: usize = 8;
const SUBMISSIONS: usize = 1 << 18;
const WEEKS: u32 = 20;

/// Seeded `(bits, week)` submissions: 1 024 /48s under 16 /32s, 16 /64s
/// each, 32 IIDs per /64 — 2^19 possible addresses, so roughly one
/// submission in five repeats an address under another week.
fn submissions(seed: u64) -> Vec<(u128, u32)> {
    let mut h = seed;
    (0..SUBMISSIONS)
        .map(|_| {
            h = h.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = h;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^= z >> 31;
            let slash32 = u128::from(z & 0xf);
            let net48 = u128::from((z >> 4) & 0x3f);
            let net64 = u128::from((z >> 10) & 0xf);
            let iid = u128::from((z >> 14) & 0x1f) * 0x1_0001 + 1;
            let bits =
                (0x2001_0db0u128 << 96) | (slash32 << 96) | (net48 << 80) | (net64 << 64) | iid;
            (bits, ((z >> 32) % u64::from(WEEKS)) as u32)
        })
        .collect()
}

/// The sorted-map oracle: earliest week per distinct address.
fn oracle(entries: &[(u128, u32)]) -> BTreeMap<u128, u32> {
    let mut m = BTreeMap::new();
    for &(bits, week) in entries {
        m.entry(bits)
            .and_modify(|w: &mut u32| *w = (*w).min(week))
            .or_insert(week);
    }
    m
}

fn build(entries: impl Iterator<Item = (u128, u32)>) -> (Snapshot, u64) {
    let mut b = SnapshotBuilder::new("parallel", SHARDS).with_bloom(true);
    for (bits, week) in entries {
        b.add_bits(bits, week);
    }
    b.add_alias(Prefix::from_bits(0x2001_0db0u128 << 96, 32), 3);
    b.add_alias(
        Prefix::from_bits((0x2001_0db1u128 << 96) | (5u128 << 80), 48),
        1,
    );
    b.build_counting()
}

fn oracle_count(oracle: &BTreeMap<u128, u32>, prefix: &Prefix) -> u64 {
    oracle
        .range(prefix.bits()..=u128::from(prefix.last()))
        .count() as u64
}

#[test]
fn large_build_matches_sorted_oracle() {
    let entries = submissions(7);
    let oracle = oracle(&entries);
    let (snap, duplicates) = build(entries.iter().copied());

    assert!(snap.has_bloom());
    assert!(snap.verify_integrity());
    // With more than one worker, the sort, the shard build and the
    // verify all crossed the pool's work cutoff.
    if v6par::threads() > 1 {
        for site in ["serve.build", "serve.shard_build", "serve.shard_verify"] {
            let parallel = v6obs::counter(&format!("par.cutoff.{site}.parallel")).get();
            assert!(parallel > 0, "{site} never ran on the pool");
        }
    }
    assert!(snap.shards().iter().all(|s| !s.is_empty()));
    assert_eq!(snap.len(), oracle.len() as u64);
    assert_eq!(duplicates, (entries.len() - oracle.len()) as u64);
    assert!(duplicates > (SUBMISSIONS / 10) as u64, "too few duplicates");
    let checksum = oracle.iter().fold(0u64, |acc, (&bits, &week)| {
        v6stream::fold_content(acc, bits, week)
    });
    assert_eq!(snap.content_checksum(), checksum);
    assert_eq!(snap.week(), u64::from(*oracle.values().max().unwrap()));

    for (&bits, &week) in &oracle {
        let a = Ipv6Addr::from(bits);
        assert!(snap.membership(a).is_present(), "{a} missing");
        assert_eq!(snap.first_week(a), Some(week), "{a} first week");
    }
    // IIDs off the submission lattice are never present.
    for &(bits, _) in entries.iter().step_by(7) {
        let a = Ipv6Addr::from(bits + 1);
        assert!(!oracle.contains_key(&(bits + 1)));
        assert!(!snap.membership(a).is_present(), "{a} reported present");
        assert!(!snap.contains(a));
    }

    let mut prefixes = Vec::new();
    for &(bits, _) in entries.iter().step_by(4099) {
        prefixes.push(Prefix::from_bits(bits, 48));
        prefixes.push(Prefix::from_bits(bits, 32));
    }
    for p in &prefixes {
        assert_eq!(snap.count_within(p), oracle_count(&oracle, p), "{p}");
    }
    for since in 0..=u64::from(WEEKS) {
        let expect = oracle.values().filter(|&&w| u64::from(w) > since).count() as u64;
        assert_eq!(snap.new_since(since), expect, "new_since({since})");
    }
}

#[test]
fn rebuilds_are_identical_whatever_the_submission_order() {
    let entries = submissions(2022);
    let (a, dup_a) = build(entries.iter().copied());
    let (b, dup_b) = build(entries.iter().rev().copied());
    assert_eq!(dup_a, dup_b);
    assert_eq!(a.content_checksum(), b.content_checksum());
    // Debug renders every column: the compressed run, the first-week
    // column, the bloom blocks, the aggregates and the alias tries.
    for (sa, sb) in a.shards().iter().zip(b.shards()) {
        assert_eq!(format!("{sa:?}"), format!("{sb:?}"));
    }
}
