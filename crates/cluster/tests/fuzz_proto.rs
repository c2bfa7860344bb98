//! Codec fuzz battery for the replication protocol.
//!
//! [`ReplMsg::decode`] reads bytes a peer sent, so it gets the same
//! hardening contract as the front-door codec (`v6wire`'s
//! `tests/fuzz_codec.rs`):
//!
//! * **Round-trip identity** — every variant encodes and decodes back to
//!   itself for arbitrary field values, including every `ReadResp`
//!   flag combination.
//! * **No panics** — arbitrary bytes, valid encodings truncated at every
//!   offset and single-bit flips decode to `None` or to a message `m`
//!   that is itself stable: `decode(encode(m)) == Some(m)`.
//! * **Strict framing** — reserved `ReadResp` flag bits and list counts
//!   larger than the bytes behind them are rejected.

use proptest::prelude::*;
use v6cluster::ReplMsg;
use v6store::{AliasEntry, DeltaRecord, EpochState};

/// Asserts the no-panic contract for one decode attempt.
fn decodes_stably(bytes: &[u8]) {
    if let Some(m) = ReplMsg::decode(bytes) {
        assert_eq!(ReplMsg::decode(&m.encode()), Some(m.clone()), "{m:?}");
    }
}

fn aliases(raw: &[(u128, u8, u32)]) -> Vec<AliasEntry> {
    raw.iter()
        .map(|&(bits, len, week)| AliasEntry { bits, len, week })
        .collect()
}

/// Every message shape built from one draw of field values.
#[allow(clippy::too_many_arguments)]
fn all_shapes(
    partition: u32,
    epoch: u64,
    week: u64,
    checksum: u64,
    shards: Vec<u32>,
    removed: Vec<u128>,
    entries: Vec<(u128, u32)>,
    alias_raw: Vec<(u128, u8, u32)>,
    name: String,
    first_week: u32,
) -> Vec<ReplMsg> {
    let delta = DeltaRecord {
        epoch,
        week,
        content_checksum: checksum,
        missing_shards: shards.clone(),
        removed: removed.clone(),
        added: entries.clone(),
        removed_aliases: alias_raw.iter().map(|&(b, l, _)| (b, l)).collect(),
        added_aliases: aliases(&alias_raw),
    };
    let state = EpochState {
        name,
        shard_bits: partition % 16,
        epoch,
        week,
        content_checksum: checksum,
        missing_shards: shards,
        entries,
        aliases: aliases(&alias_raw),
    };
    let mut msgs = vec![
        ReplMsg::DeltaPush {
            partition,
            prev_epoch: epoch.wrapping_sub(1),
            delta: delta.clone(),
        },
        ReplMsg::DeltaAck {
            partition,
            epoch,
            checksum,
        },
        ReplMsg::CatchUpReq {
            partition,
            have_epoch: epoch,
        },
        ReplMsg::CatchUpResp {
            partition,
            base: None,
            deltas: vec![(epoch, delta.clone()), (week, delta)],
        },
        ReplMsg::CatchUpResp {
            partition,
            base: Some(state),
            deltas: Vec::new(),
        },
        ReplMsg::Read {
            req_id: checksum,
            bits: removed.first().copied().unwrap_or(u128::from(epoch)),
        },
    ];
    for flags in 0u8..8 {
        msgs.push(ReplMsg::ReadResp {
            req_id: checksum,
            epoch,
            present: flags & 1 != 0,
            shard_missing: flags & 2 != 0,
            first_week: (flags & 4 != 0).then_some(first_week),
        });
    }
    msgs
}

fn name_strategy() -> impl Strategy<Value = String> {
    prop::collection::vec(any::<char>(), 0..24).prop_map(|c| c.into_iter().collect())
}

proptest! {
    #[test]
    fn every_variant_round_trips(
        partition in any::<u32>(),
        epoch in any::<u64>(),
        week in any::<u64>(),
        checksum in any::<u64>(),
        shards in prop::collection::vec(any::<u32>(), 0..6),
        removed in prop::collection::vec(any::<u128>(), 0..6),
        entries in prop::collection::vec((any::<u128>(), any::<u32>()), 0..8),
        alias_raw in prop::collection::vec((any::<u128>(), any::<u8>(), any::<u32>()), 0..4),
        name in name_strategy(),
        first_week in any::<u32>(),
    ) {
        let msgs = all_shapes(
            partition, epoch, week, checksum, shards, removed, entries, alias_raw, name,
            first_week,
        );
        for msg in msgs {
            prop_assert_eq!(ReplMsg::decode(&msg.encode()), Some(msg.clone()));
        }
    }

    #[test]
    fn arbitrary_bytes_never_panic(
        bytes in prop::collection::vec(any::<u8>(), 0..512),
        tag in 0x41u8..=0x46,
    ) {
        decodes_stably(&bytes);
        // Behind a known tag the decoder gets past the first byte.
        let mut tagged = vec![tag];
        tagged.extend_from_slice(&bytes);
        decodes_stably(&tagged);
    }

    #[test]
    fn truncations_and_bit_flips_never_panic(
        partition in any::<u32>(),
        epoch in any::<u64>(),
        checksum in any::<u64>(),
        shards in prop::collection::vec(any::<u32>(), 0..3),
        entries in prop::collection::vec((any::<u128>(), any::<u32>()), 0..3),
        alias_raw in prop::collection::vec((any::<u128>(), any::<u8>(), any::<u32>()), 0..2),
        name in name_strategy(),
        flip in any::<usize>(),
    ) {
        let removed = entries.iter().map(|e| e.0).collect();
        let msgs = all_shapes(
            partition, epoch, epoch / 3, checksum, shards, removed, entries, alias_raw, name,
            checksum as u32,
        );
        for msg in msgs {
            let bytes = msg.encode();
            // A strict prefix of a valid encoding is never a message:
            // every field is read in full and the payload must be
            // consumed exactly.
            for cut in 0..bytes.len() {
                prop_assert_eq!(ReplMsg::decode(&bytes[..cut]), None);
            }
            let mut flipped = bytes.clone();
            let bit = flip % (bytes.len() * 8);
            flipped[bit / 8] ^= 1 << (bit % 8);
            decodes_stably(&flipped);
        }
    }

    #[test]
    fn reserved_read_resp_flags_are_rejected(
        req_id in any::<u64>(),
        epoch in any::<u64>(),
        flags in 0u8..8,
        reserved in 3u32..8,
        week in any::<u32>(),
    ) {
        let msg = ReplMsg::ReadResp {
            req_id,
            epoch,
            present: flags & 1 != 0,
            shard_missing: flags & 2 != 0,
            first_week: (flags & 4 != 0).then_some(week),
        };
        let mut bytes = msg.encode();
        // tag(1) | req_id(8) | epoch(8) | flags(1) | week(4)
        const FLAGS_AT: usize = 17;
        prop_assert_eq!(bytes[FLAGS_AT], flags);
        bytes[FLAGS_AT] |= 1 << reserved;
        prop_assert_eq!(ReplMsg::decode(&bytes), None);
    }

    #[test]
    fn catch_up_count_beyond_its_bytes_is_rejected(
        partition in any::<u32>(),
        count in 2u32..=u32::MAX,
    ) {
        let delta = DeltaRecord {
            epoch: 2,
            week: 1,
            content_checksum: 7,
            missing_shards: vec![1],
            removed: vec![3],
            added: vec![(5, 1)],
            removed_aliases: Vec::new(),
            added_aliases: Vec::new(),
        };
        let mut bytes = ReplMsg::CatchUpResp {
            partition,
            base: None,
            deltas: vec![(1, delta)],
        }
        .encode();
        // tag(1) | partition(4) | base flag(1) | count(4) | deltas…
        const COUNT_AT: usize = 6;
        prop_assert_eq!(&bytes[COUNT_AT..COUNT_AT + 4], &1u32.to_le_bytes()[..]);
        bytes[COUNT_AT..COUNT_AT + 4].copy_from_slice(&count.to_le_bytes());
        prop_assert_eq!(ReplMsg::decode(&bytes), None);
    }
}
