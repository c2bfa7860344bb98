//! Durable publication: the bridge between [`HitlistStore`] and the
//! [`v6store`] write-ahead epoch log.
//!
//! A persistent store publishes write-ahead: the epoch's delta frame is
//! appended and fsynced to the log *before* the snapshot becomes
//! visible to readers, so every epoch a reader has ever observed is
//! recoverable after a crash. [`HitlistStore::recover`] inverts the
//! mapping — it replays checkpoint + log back into an
//! [`v6store::EpochState`] and rebuilds the sharded [`Snapshot`] from
//! it, verifying that the rebuilt content checksum matches the one the
//! log recorded at publish time.
//!
//! The store directory defaults can be overridden with the
//! `V6_DATA_DIR` environment variable via
//! [`v6store::data_dir_from_env`]; see the README "Durability" section
//! and DESIGN.md §11 for the on-disk format.

use v6addr::{shard48, Prefix};
use v6store::{AliasEntry, EpochState};

use crate::snapshot::{bloom_default, Snapshot};

#[allow(unused_imports)] // doc links
use crate::store::HitlistStore;

/// Flattens a snapshot into the globally sorted entry and alias lists
/// an [`v6store::EpochView`] wants.
///
/// Shards partition by the *low* bits of each /48, so per-shard order
/// does not concatenate into global order — this re-sorts (with the
/// radix kernel: the entries are exactly its `(bits, week)` key shape).
/// Entries stream straight out of each shard's compressed run — no raw
/// per-shard `Vec<u128>` is ever materialized. Aliases shorter than /48
/// are replicated into every shard at build time and are deduplicated
/// back to one registration here.
///
/// Public because the cluster layer ([`v6cluster`]) uses the same
/// flattening to seed replication mirrors and compute epoch deltas.
///
/// [`v6cluster`]: ../../v6cluster/index.html
pub fn flatten_snapshot(snap: &Snapshot) -> (Vec<(u128, u32)>, Vec<AliasEntry>) {
    let mut entries = Vec::with_capacity(snap.len() as usize);
    let mut aliases = Vec::new();
    for shard in snap.shards() {
        entries.extend(shard.iter_bits().zip(shard.first_week.iter().copied()));
        for (prefix, &week) in shard.aliases.iter() {
            aliases.push(AliasEntry {
                bits: prefix.bits(),
                len: prefix.len(),
                week,
            });
        }
    }
    // Addresses are globally unique, so keying by (bits, week) sorts by
    // bits while staying exact-equivalent to the old comparison sort.
    v6par::radix_sort_by_key(&mut entries, |&(bits, week)| (bits, u64::from(week)));
    aliases.sort_unstable_by_key(|a| (a.bits, a.len));
    aliases.dedup_by_key(|a| (a.bits, a.len));
    (entries, aliases)
}

/// Rebuilds the sharded snapshot a recovered epoch state describes.
///
/// The content checksum is recomputed from the entries; the caller
/// compares it against the checksum the log recorded at publish time
/// to detect any divergence between the persisted delta chain and the
/// serving data structures.
///
/// Public because cluster followers rebuild their serving snapshot
/// from a replicated [`EpochState`] mirror through exactly this path.
pub fn snapshot_from_state(state: &EpochState) -> Snapshot {
    let shard_count = 1usize << state.shard_bits;
    let mut shard_data: Vec<Vec<(u128, u32)>> = vec![Vec::new(); shard_count];
    for &(bits, week) in &state.entries {
        shard_data[shard48(bits, state.shard_bits)].push((bits, week));
    }
    let aliases: Vec<(Prefix, u32)> = state
        .aliases
        .iter()
        .map(|a| (Prefix::from_bits(a.bits, a.len), a.week))
        .collect();
    // Recovery rebuilds directly into the compressed tier; the bloom
    // front follows the `V6_BLOOM` toggle like any fresh build.
    let mut snap = Snapshot::from_sorted_parts(
        &state.name,
        state.shard_bits,
        &shard_data,
        &aliases,
        bloom_default(),
    );
    snap.epoch = state.epoch;
    snap.week = state.week;
    snap.missing_shards = state.missing_shards.clone();
    snap
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::snapshot::SnapshotBuilder;
    use std::net::Ipv6Addr;

    fn addr(s: &str) -> Ipv6Addr {
        s.parse().unwrap()
    }

    #[test]
    fn flatten_and_rebuild_round_trip() {
        let mut b = SnapshotBuilder::new("svc", 8);
        for i in 0..100u32 {
            b.add_address(addr(&format!("2001:db8:{:x}::{:x}", i % 13, i + 1)), i % 4);
        }
        b.add_alias("2001:db8:1::/48".parse().unwrap(), 1);
        b.add_alias("2001:db8::/32".parse().unwrap(), 0); // < /48: replicated
        let snap = b.build();

        let (entries, aliases) = flatten_snapshot(&snap);
        assert_eq!(entries.len() as u64, snap.len());
        assert!(entries.windows(2).all(|w| w[0].0 < w[1].0));
        assert_eq!(aliases.len(), 2, "sub-/48 replication deduplicated");

        let state = EpochState {
            name: "svc".into(),
            shard_bits: 3,
            epoch: 7,
            week: snap.week(),
            content_checksum: snap.content_checksum(),
            missing_shards: vec![],
            entries,
            aliases,
        };
        let rebuilt = snapshot_from_state(&state);
        assert_eq!(rebuilt.epoch(), 7);
        assert!(rebuilt.verify_integrity());
        assert_eq!(rebuilt.content_checksum(), snap.content_checksum());
        assert_eq!(rebuilt.len(), snap.len());
        for a in ["2001:db8:1::5", "2001:db8:ff::5"] {
            assert!(crate::query::lookup_in(&rebuilt, addr(a), None)
                .alias
                .is_some());
        }
    }
}
