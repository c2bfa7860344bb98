//! Immutable, sharded snapshots of one hitlist publication epoch.
//!
//! A [`Snapshot`] is the unit of publication: once built it is never
//! mutated, so any number of reader threads can query it without
//! synchronization while the ingestion pipeline assembles the next epoch.
//!
//! Addresses are partitioned into `2^shard_bits` [`Shard`]s keyed by the
//! *low* bits of each address's /48 prefix ([`v6addr::shard48`]): the high
//! bits would skew badly (announced space concentrates under `2000::/3`),
//! and keeping whole /48s shard-local makes per-/48 density aggregates a
//! single-shard operation.
//!
//! Each shard stores its addresses as a [`CompressedRun`] — a
//! prefix-compressed sorted run that factors out the shared high-64 bits
//! real hitlists cluster under ("Clusters in the Expanse", IMC 2018) —
//! with a parallel first-published-week vector, an optional blocked
//! bloom front ([`crate::bloom::BlockedBloom`], the `V6_BLOOM` toggle)
//! for cheap "definitely absent" answers, plus a radix trie of aliased
//! prefixes for longest-prefix alias answers.
//!
//! Building and verifying are per-shard work. [`SnapshotBuilder`]
//! scatters each address into its shard's pending run as it is added;
//! `build` then sorts and deduplicates every run, builds every [`Shard`]
//! (run, week column, bloom, aggregates), and [`Snapshot::verify_integrity`]
//! checks every shard — each step fanned out over the `v6par` pool, one
//! shard per item. A shard's content is a function of its input alone
//! and the per-shard checksums and totals are combined in shard order,
//! so the snapshot is identical at any `V6_THREADS`.

use std::net::Ipv6Addr;

use v6addr::{shard48, Prefix, PrefixMap};

use crate::bloom::BlockedBloom;

/// A prefix-compressed sorted run of address bits.
///
/// The sorted `u128` addresses are factored into a sorted array of
/// *distinct* high-64 `keys`, each pointing (via `offsets`) at a dense
/// sorted block of low-64 `lows`. The address at global rank `i` is
/// `(keys[k] as u128) << 64 | lows[i]` where `k` is the block containing
/// `i`. Because hitlist addresses cluster under long shared /48–/64
/// prefixes, many addresses share one key, cutting the 16 bytes/address
/// of a raw `Vec<u128>` to 8 bytes plus an amortized per-key overhead.
///
/// Membership is a two-level binary search: first over `keys`, then
/// inside one dense `lows` block — better cache locality than one wide
/// search over 16-byte elements. Ranks returned by the search methods
/// index the *global* run (and any parallel vector such as a shard's
/// first-week column) exactly as indices into the old sorted vector did.
#[derive(Debug, Clone)]
pub struct CompressedRun {
    /// Distinct high-64 address bits, strictly ascending.
    keys: Vec<u64>,
    /// `keys.len() + 1` block boundaries into `lows`; `offsets[k]..offsets[k+1]`
    /// is key `k`'s block. `u32` caps one run at ~4.3B addresses, which the
    /// sharding keeps comfortably out of reach even at paper scale.
    offsets: Vec<u32>,
    /// Low-64 address bits, strictly ascending within each block.
    lows: Vec<u64>,
}

// Not derived: an empty run still needs the leading `0` offset sentinel
// (`offsets.len() == keys.len() + 1` always holds).
impl Default for CompressedRun {
    fn default() -> Self {
        CompressedRun {
            keys: Vec::new(),
            offsets: vec![0],
            lows: Vec::new(),
        }
    }
}

impl CompressedRun {
    /// Builds from strictly-ascending address bits.
    pub fn from_sorted(bits: impl Iterator<Item = u128>) -> CompressedRun {
        let mut run = CompressedRun::default();
        for b in bits {
            run.push(b);
        }
        run
    }

    /// Appends one address; must be strictly greater than the last.
    pub(crate) fn push(&mut self, bits: u128) {
        let hi = (bits >> 64) as u64;
        let lo = bits as u64;
        debug_assert!(
            self.lows.is_empty() || self.get(self.lows.len() - 1) < bits,
            "CompressedRun::push requires strictly ascending input"
        );
        if self.keys.last() != Some(&hi) {
            self.keys.push(hi);
            self.offsets.push(self.lows.len() as u32);
        }
        self.lows.push(lo);
        assert!(
            self.lows.len() <= u32::MAX as usize,
            "CompressedRun exceeds u32 offset capacity"
        );
        *self.offsets.last_mut().expect("offsets never empty") = self.lows.len() as u32;
    }

    /// Number of addresses in the run.
    pub fn len(&self) -> usize {
        self.lows.len()
    }

    /// True when the run holds no addresses.
    pub fn is_empty(&self) -> bool {
        self.lows.is_empty()
    }

    /// Number of distinct high-64 keys (compression granularity).
    pub fn key_count(&self) -> usize {
        self.keys.len()
    }

    /// The address at global rank `i` (ascending order).
    ///
    /// # Panics
    /// Panics when `i >= len()`.
    pub fn get(&self, i: usize) -> u128 {
        let lo = self.lows[i];
        let k = self
            .offsets
            .partition_point(|&o| o as usize <= i)
            .saturating_sub(1);
        (u128::from(self.keys[k]) << 64) | u128::from(lo)
    }

    /// Iterates all addresses in ascending order.
    pub fn iter(&self) -> impl Iterator<Item = u128> + '_ {
        self.keys.iter().enumerate().flat_map(move |(k, &hi)| {
            let block = &self.lows[self.offsets[k] as usize..self.offsets[k + 1] as usize];
            block
                .iter()
                .map(move |&lo| (u128::from(hi) << 64) | u128::from(lo))
        })
    }

    /// Global rank of `bits` when present: two-level binary search.
    pub fn rank(&self, bits: u128) -> Option<usize> {
        let hi = (bits >> 64) as u64;
        let lo = bits as u64;
        let k = self.keys.binary_search(&hi).ok()?;
        let base = self.offsets[k] as usize;
        let block = &self.lows[base..self.offsets[k + 1] as usize];
        block.binary_search(&lo).ok().map(|i| base + i)
    }

    /// Number of addresses strictly below `bits` (global partition point).
    pub fn rank_lower(&self, bits: u128) -> usize {
        self.rank_bound(bits, false)
    }

    /// Number of addresses at or below `bits`.
    pub fn rank_upper(&self, bits: u128) -> usize {
        self.rank_bound(bits, true)
    }

    fn rank_bound(&self, bits: u128, inclusive: bool) -> usize {
        let hi = (bits >> 64) as u64;
        let lo = bits as u64;
        match self.keys.binary_search(&hi) {
            Ok(k) => {
                let base = self.offsets[k] as usize;
                let block = &self.lows[base..self.offsets[k + 1] as usize];
                let within = if inclusive {
                    block.partition_point(|&l| l <= lo)
                } else {
                    block.partition_point(|&l| l < lo)
                };
                base + within
            }
            // All blocks for keys < hi lie entirely below `bits`.
            Err(k) => self.offsets[k] as usize,
        }
    }

    /// Heap bytes of the compressed representation.
    pub fn heap_bytes(&self) -> usize {
        self.keys.len() * 8 + self.offsets.len() * 4 + self.lows.len() * 8
    }

    /// Structural invariants: strictly ascending keys, monotone offsets
    /// bracketing `lows`, strictly ascending lows within each block.
    fn check_invariants(&self) -> bool {
        if self.offsets.len() != self.keys.len() + 1
            || self.offsets.first() != Some(&0)
            || self.offsets.last().copied() != Some(self.lows.len() as u32)
        {
            return false;
        }
        if !self.keys.windows(2).all(|w| w[0] < w[1]) {
            return false;
        }
        // Offsets strictly increase (no empty blocks), lows strictly
        // increase inside each block.
        self.offsets.windows(2).all(|w| {
            w[0] < w[1]
                && self.lows[w[0] as usize..w[1] as usize]
                    .windows(2)
                    .all(|l| l[0] < l[1])
        })
    }
}

/// What a bloom-fronted membership probe observed — enough for the
/// query layer to answer *and* account `serve.bloom.*` traffic without
/// re-deriving anything.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Membership {
    /// The bloom front answered "definitely absent"; the exact tier was
    /// never consulted (`serve.bloom.hit`).
    BloomFiltered,
    /// The exact tier confirmed the address, at the given global rank in
    /// its shard. `bloom_checked` is true when a bloom front passed the
    /// probe through first (`serve.bloom.miss`).
    Present {
        /// Global rank inside the shard's run (indexes `first_week`).
        rank: usize,
        /// True when a bloom front was consulted before the exact tier.
        bloom_checked: bool,
    },
    /// The exact tier did not find the address. `bloom_checked` true
    /// means the bloom front let an absent address through — a false
    /// positive (`serve.bloom.false_positive`).
    Absent {
        /// True when a bloom front was consulted before the exact tier.
        bloom_checked: bool,
    },
}

impl Membership {
    /// Whether the probed address is in the hitlist.
    pub fn is_present(&self) -> bool {
        matches!(self, Membership::Present { .. })
    }
}

/// One partition of a snapshot: the addresses whose /48 low bits select it.
#[derive(Debug, Clone, Default)]
pub struct Shard {
    /// Prefix-compressed sorted, deduplicated address bits.
    pub(crate) run: CompressedRun,
    /// Parallel to the run's global ranks: study week each address was
    /// first published.
    pub(crate) first_week: Vec<u32>,
    /// Optional approximate-membership front over the run.
    pub(crate) bloom: Option<BlockedBloom>,
    /// Aliased prefixes relevant to this shard (week registered as value).
    pub(crate) aliases: PrefixMap<u32>,
    /// `(network bits, count)` per distinct /48, ascending.
    pub(crate) agg48: Vec<(u128, u32)>,
    /// `(week, newly published count)` pairs, ascending by week.
    pub(crate) week_counts: Vec<(u32, u64)>,
}

impl Shard {
    /// Number of addresses in this shard.
    pub fn len(&self) -> usize {
        self.run.len()
    }

    /// True when the shard holds no addresses.
    pub fn is_empty(&self) -> bool {
        self.run.is_empty()
    }

    /// The compressed address run.
    pub fn run(&self) -> &CompressedRun {
        &self.run
    }

    /// Iterates the sorted address bits.
    pub fn iter_bits(&self) -> impl Iterator<Item = u128> + '_ {
        self.run.iter()
    }

    /// The address bits at global rank `i` (ascending order).
    pub fn get_bits(&self, i: usize) -> u128 {
        self.run.get(i)
    }

    /// Bloom-fronted membership probe: consults the approximate front
    /// first when one was built, then the exact tier only if needed.
    pub fn membership_bits(&self, bits: u128) -> Membership {
        let bloom_checked = match &self.bloom {
            Some(bloom) => {
                if !bloom.may_contain(bits) {
                    return Membership::BloomFiltered;
                }
                true
            }
            None => false,
        };
        match self.run.rank(bits) {
            Some(rank) => Membership::Present {
                rank,
                bloom_checked,
            },
            None => Membership::Absent { bloom_checked },
        }
    }

    /// First-published week at a global rank (as returned by
    /// [`Membership::Present`] or [`CompressedRun::rank`]).
    ///
    /// # Panics
    /// Panics when `rank >= len()`.
    pub fn first_week_at(&self, rank: usize) -> u32 {
        self.first_week[rank]
    }

    /// Longest aliased prefix covering `addr`, if any.
    pub fn longest_alias(&self, addr: Ipv6Addr) -> Option<Prefix> {
        self.aliases.longest_match(addr).map(|(p, _)| p)
    }

    /// Heap bytes of the address columns as stored (compressed run +
    /// first-week column + bloom front if built).
    pub fn stored_bytes(&self) -> usize {
        self.run.heap_bytes()
            + self.first_week.len() * 4
            + self.bloom.as_ref().map_or(0, |b| b.heap_bytes())
    }

    /// Heap bytes the old raw representation would need for the same
    /// content: a `Vec<u128>` plus the `Vec<u32>` week column.
    pub fn raw_bytes(&self) -> usize {
        self.run.len() * (16 + 4)
    }

    /// Builds shard `index` from its entries sorted by bits and
    /// deduplicated; returns it with its content checksum.
    fn from_sorted(index: usize, data: &[(u128, u32)], bloom: bool) -> (Shard, u64) {
        debug_assert!(data.windows(2).all(|w| w[0].0 < w[1].0));
        let mut shard = Shard {
            first_week: Vec::with_capacity(data.len()),
            ..Shard::default()
        };
        shard.run.lows.reserve_exact(data.len());
        let mut checksum = 0u64;
        for &(b, w) in data {
            shard.run.push(b);
            shard.first_week.push(w);
            checksum = fold_addr(checksum, b, w);
        }
        if bloom && !data.is_empty() {
            shard.bloom = Some(BlockedBloom::build(
                bloom_seed(index),
                data.iter().map(|&(b, _)| b),
                data.len(),
            ));
        }
        shard.rebuild_aggregates();
        (shard, checksum)
    }

    /// Checks shard `index` of a snapshot with `shard_bits`: run and
    /// aggregate invariants, every address's shard placement, no bloom
    /// false negative. Returns the recomputed content checksum, or
    /// `None` on the first violation.
    fn verify(&self, index: usize, shard_bits: u32) -> Option<u64> {
        if !self.run.check_invariants() || self.run.len() != self.first_week.len() {
            return None;
        }
        let agg_total: u64 = self.agg48.iter().map(|&(_, n)| u64::from(n)).sum();
        let week_total: u64 = self.week_counts.iter().map(|&(_, n)| n).sum();
        if agg_total != self.run.len() as u64 || week_total != agg_total {
            return None;
        }
        let mut checksum = 0u64;
        for (b, &w) in self.run.iter().zip(&self.first_week) {
            if shard48(b, shard_bits) != index {
                return None;
            }
            // A bloom front must never produce a false negative.
            if self
                .bloom
                .as_ref()
                .is_some_and(|bloom| !bloom.may_contain(b))
            {
                return None;
            }
            checksum = fold_addr(checksum, b, w);
        }
        Some(checksum)
    }

    fn rebuild_aggregates(&mut self) {
        let mask48 = Prefix::mask(48);
        self.agg48.clear();
        for a in self.run.iter() {
            let net = a & mask48;
            match self.agg48.last_mut() {
                Some((last, n)) if *last == net => *n += 1,
                _ => self.agg48.push((net, 1)),
            }
        }
        let mut weeks: Vec<u32> = self.first_week.clone();
        weeks.sort_unstable();
        self.week_counts.clear();
        for w in weeks {
            match self.week_counts.last_mut() {
                Some((last, n)) if *last == w => *n += 1,
                _ => self.week_counts.push((w, 1)),
            }
        }
    }
}

/// Health of a published epoch, as surfaced to readers.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ServeStatus {
    /// Every shard reflects all ingested updates.
    Ok,
    /// Some shards are quarantined: their content is the last good
    /// merge, not the latest updates. Readers still get answers — they
    /// are just possibly stale for addresses in these shards.
    Degraded {
        /// Shard indices whose latest updates are held in quarantine.
        missing_shards: Vec<u32>,
    },
}

/// An immutable view of one publication epoch.
#[derive(Debug, Clone)]
pub struct Snapshot {
    pub(crate) name: String,
    pub(crate) epoch: u64,
    pub(crate) week: u64,
    pub(crate) shard_bits: u32,
    pub(crate) shards: Vec<Shard>,
    pub(crate) total: u64,
    pub(crate) checksum: u64,
    /// Sorted indices of shards serving stale (pre-quarantine) content.
    pub(crate) missing_shards: Vec<u32>,
}

/// Order-independent content checksum over `(bits, week)` pairs.
///
/// The canonical definition lives in [`v6stream::fold_content`] — the
/// streaming analytics layer maintains this exact sum incrementally
/// (`± content_term` per delta entry) and uses it to verify each
/// [`v6store::DeltaRecord`] against its corpus mirror. Changing the
/// fold changes the wire/disk-visible `content_checksum` everywhere.
#[inline]
fn fold_addr(acc: u64, bits: u128, week: u32) -> u64 {
    v6stream::fold_content(acc, bits, week)
}

/// The `v6par` cost hint for one item per shard when `total` entries
/// spread over `shards` shards at `ns_per_entry` each.
fn per_shard_cost(total: usize, shards: usize, ns_per_entry: u64) -> v6par::Cost {
    v6par::Cost::per_item_ns(ns_per_entry * (total / shards.max(1)).max(1) as u64)
}

/// Sorts every per-shard run by `(bits, week)` and drops repeated bits,
/// keeping the first entry of each — the earliest week. Runs are
/// independent, so large inputs fan out over the `v6par` pool (cutoff
/// decisions count under `label`). Returns the entries dropped.
pub(crate) fn sort_dedup_shards(runs: &mut [Vec<(u128, u32)>], label: &'static str) -> u64 {
    let before: usize = runs.iter().map(Vec::len).sum();
    let cost = per_shard_cost(before, runs.len(), 100).labeled(label);
    v6par::par_for_each_mut(v6par::threads(), runs, cost, |_, run| {
        v6par::radix_sort_by_key(run, |&(b, w)| (b, u64::from(w)));
        run.dedup_by_key(|&mut (b, _)| b);
    });
    (before - runs.iter().map(Vec::len).sum::<usize>()) as u64
}

/// Whether snapshots should build a bloom front by default: the
/// `V6_BLOOM` environment toggle (`1`/`true` enable). Builders can
/// override explicitly so tests never race on the environment.
pub(crate) fn bloom_default() -> bool {
    matches!(
        std::env::var("V6_BLOOM").as_deref(),
        Ok("1") | Ok("true") | Ok("TRUE")
    )
}

/// Per-shard bloom seed: fixed base mixed with the shard index so equal
/// content always builds an identical filter.
fn bloom_seed(shard_index: usize) -> u64 {
    0x06b1_00f1_17e5_5eed_u64 ^ ((shard_index as u64) << 32)
}

impl Snapshot {
    /// An empty snapshot (epoch 0) with `shard_count` shards.
    ///
    /// # Panics
    /// Panics unless `shard_count` is a power of two.
    pub fn empty(name: impl Into<String>, shard_count: usize) -> Self {
        assert!(
            shard_count.is_power_of_two(),
            "shard count must be a power of two, got {shard_count}"
        );
        let shard_bits = shard_count.trailing_zeros();
        Snapshot {
            name: name.into(),
            epoch: 0,
            week: 0,
            shard_bits,
            shards: vec![Shard::default(); shard_count],
            total: 0,
            checksum: 0,
            missing_shards: Vec::new(),
        }
    }

    /// Builds from per-shard `(bits, week)` vectors that are already
    /// sorted by bits and deduplicated, plus `(prefix, week)` alias
    /// registrations. This is the O(n) path the ingestion merger uses;
    /// each shard is built independently on the `v6par` pool, its
    /// compressed run assembled directly from the sorted stream, never
    /// materializing a raw `Vec<u128>`. `bloom` controls whether each
    /// shard gets an approximate-membership front.
    pub(crate) fn from_sorted_parts(
        name: impl Into<String>,
        shard_bits: u32,
        shard_data: &[Vec<(u128, u32)>],
        aliases: &[(Prefix, u32)],
        bloom: bool,
    ) -> Self {
        assert_eq!(shard_data.len(), 1usize << shard_bits);
        let cost = per_shard_cost(shard_data.iter().map(Vec::len).sum(), shard_data.len(), 60)
            .labeled("serve.shard_build");
        let built = v6par::par_map_cost(v6par::threads(), shard_data, cost, |i, data| {
            Shard::from_sorted(i, data, bloom)
        });
        let (shards, checksums): (Vec<Shard>, Vec<u64>) = built.into_iter().unzip();
        let mut snap = Snapshot::empty(name, shards.len());
        snap.shards = shards;
        snap.total = snap.shards.iter().map(|s| s.len() as u64).sum();
        snap.week = snap
            .shards
            .iter()
            .filter_map(|s| s.week_counts.last())
            .map(|&(w, _)| u64::from(w))
            .max()
            .unwrap_or(0);
        // The checksum fold is a wrapping sum, so per-shard sums combine
        // exactly.
        snap.checksum = checksums.into_iter().fold(0, u64::wrapping_add);
        for &(prefix, week) in aliases {
            match prefix.shard48(shard_bits) {
                Some(i) => {
                    snap.shards[i].aliases.insert(prefix, week);
                }
                None => {
                    for shard in &mut snap.shards {
                        shard.aliases.insert(prefix, week);
                    }
                }
            }
        }
        snap
    }

    /// Service name this snapshot was published under.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Publication sequence number (0 = never published).
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Latest study week included.
    pub fn week(&self) -> u64 {
        self.week
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Total addresses across all shards.
    pub fn len(&self) -> u64 {
        self.total
    }

    /// True when no addresses are published.
    pub fn is_empty(&self) -> bool {
        self.total == 0
    }

    /// The order-independent content checksum over `(bits, week)` pairs.
    ///
    /// Two snapshots with the same addresses and first-seen weeks have
    /// the same checksum regardless of how they were assembled — the
    /// equality the chaos suite uses to prove quarantine recovery
    /// restored the full content. The checksum is a function of content
    /// only: compressed and raw representations of the same set fold to
    /// the same value.
    pub fn content_checksum(&self) -> u64 {
        self.checksum
    }

    /// This epoch's health: `Ok`, or `Degraded` listing stale shards.
    pub fn status(&self) -> ServeStatus {
        if self.missing_shards.is_empty() {
            ServeStatus::Ok
        } else {
            ServeStatus::Degraded {
                missing_shards: self.missing_shards.clone(),
            }
        }
    }

    /// True when any shard is serving stale (quarantined) content.
    pub fn is_degraded(&self) -> bool {
        !self.missing_shards.is_empty()
    }

    /// Sorted indices of shards serving stale content.
    pub fn missing_shards(&self) -> &[u32] {
        &self.missing_shards
    }

    /// True when `addr` falls in a shard serving stale content.
    pub fn shard_missing(&self, addr: Ipv6Addr) -> bool {
        let i = shard48(u128::from(addr), self.shard_bits) as u32;
        self.missing_shards.binary_search(&i).is_ok()
    }

    /// The shards, in index order.
    pub fn shards(&self) -> &[Shard] {
        &self.shards
    }

    /// The shard an address belongs to.
    pub fn shard_for(&self, addr: Ipv6Addr) -> &Shard {
        &self.shards[shard48(u128::from(addr), self.shard_bits)]
    }

    /// Bloom-fronted membership probe (see [`Membership`]): exact
    /// answers, whose variants also carry what the approximate front
    /// observed.
    pub fn membership(&self, addr: Ipv6Addr) -> Membership {
        self.shard_for(addr).membership_bits(u128::from(addr))
    }

    /// True when any shard carries a bloom front.
    pub fn has_bloom(&self) -> bool {
        self.shards.iter().any(|s| s.bloom.is_some())
    }

    /// Heap bytes of the address columns as stored across all shards
    /// (compressed runs + week columns + bloom fronts).
    pub fn stored_bytes(&self) -> u64 {
        self.shards.iter().map(|s| s.stored_bytes() as u64).sum()
    }

    /// Heap bytes the raw (uncompressed) representation would need.
    pub fn raw_bytes(&self) -> u64 {
        self.shards.iter().map(|s| s.raw_bytes() as u64).sum()
    }

    /// Number of published addresses inside `prefix`.
    ///
    /// Prefixes of length >= 48 resolve within one shard; shorter ones
    /// sum the per-/48 aggregates across shards.
    pub fn count_within(&self, prefix: &Prefix) -> u64 {
        if prefix.len() >= 48 {
            let shard = &self.shards[prefix
                .shard48(self.shard_bits)
                .expect("len >= 48 is shard-local")];
            let lo = prefix.bits();
            let hi = u128::from(prefix.last());
            (shard.run.rank_upper(hi) - shard.run.rank_lower(lo)) as u64
        } else {
            let lo = prefix.bits();
            let hi = u128::from(prefix.last());
            self.shards
                .iter()
                .map(|s| {
                    let start = s.agg48.partition_point(|&(net, _)| net < lo);
                    let end = s.agg48.partition_point(|&(net, _)| net <= hi);
                    s.agg48[start..end]
                        .iter()
                        .map(|&(_, n)| u64::from(n))
                        .sum::<u64>()
                })
                .sum()
        }
    }

    /// Number of addresses first published *after* study week `week` —
    /// the "what's new since the release I already hold" diff query.
    pub fn new_since(&self, week: u64) -> u64 {
        self.shards
            .iter()
            .map(|s| {
                let start = s
                    .week_counts
                    .partition_point(|&(w, _)| u64::from(w) <= week);
                s.week_counts[start..].iter().map(|&(_, n)| n).sum::<u64>()
            })
            .sum()
    }

    /// Recomputes every structural invariant and the content checksum.
    ///
    /// The store calls this before publishing; the load harness calls it
    /// on snapshots observed mid-run to prove concurrent publication
    /// never exposed a torn view.
    pub fn verify_integrity(&self) -> bool {
        if self.shards.len() != 1usize << self.shard_bits {
            return false;
        }
        if self.missing_shards.windows(2).any(|w| w[0] >= w[1])
            || self
                .missing_shards
                .iter()
                .any(|&i| i as usize >= self.shards.len())
        {
            return false;
        }
        let total: usize = self.shards.iter().map(Shard::len).sum();
        let cost = per_shard_cost(total, self.shards.len(), 30).labeled("serve.shard_verify");
        let checksums = v6par::par_map_cost(v6par::threads(), &self.shards, cost, |i, shard| {
            shard.verify(i, self.shard_bits)
        });
        let checksum = checksums
            .into_iter()
            .try_fold(0u64, |acc, c| Some(acc.wrapping_add(c?)));
        checksum == Some(self.checksum) && total as u64 == self.total
    }
}

/// Accumulates addresses and aliases, then builds a [`Snapshot`].
///
/// Accepts unsorted input with duplicates; duplicates keep their earliest
/// week (re-publishing an address in a later weekly release must not move
/// its first-seen week).
pub struct SnapshotBuilder {
    name: String,
    shard_bits: u32,
    /// Unsorted `(bits, week)` submissions, scattered by shard.
    pending: Vec<Vec<(u128, u32)>>,
    aliases: Vec<(Prefix, u32)>,
    bloom: Option<bool>,
    quarantined: Vec<u32>,
}

impl SnapshotBuilder {
    /// A builder for `shard_count` (power of two) shards.
    pub fn new(name: impl Into<String>, shard_count: usize) -> Self {
        assert!(
            shard_count.is_power_of_two(),
            "shard count must be a power of two, got {shard_count}"
        );
        SnapshotBuilder {
            name: name.into(),
            shard_bits: shard_count.trailing_zeros(),
            pending: vec![Vec::new(); shard_count],
            aliases: Vec::new(),
            bloom: None,
            quarantined: Vec::new(),
        }
    }

    /// Marks shards as quarantined in the built snapshot, yielding a
    /// `Degraded` status exactly as the ingest quarantine path does.
    /// Tests (and the wire front door's degraded-labeling suite) use
    /// this to build degraded epochs without staging an ingest failure.
    ///
    /// # Panics
    /// Panics if a shard index is out of range or the list is not
    /// strictly increasing.
    pub fn with_quarantined(mut self, shards: Vec<u32>) -> Self {
        let count = 1u32 << self.shard_bits;
        assert!(
            shards.windows(2).all(|w| w[0] < w[1]),
            "quarantined shard list must be strictly increasing"
        );
        assert!(
            shards.iter().all(|&s| s < count),
            "quarantined shard index out of range (shard count {count})"
        );
        self.quarantined = shards;
        self
    }

    /// Overrides the bloom-front decision for this build. Without an
    /// override the `V6_BLOOM` environment toggle decides (read once at
    /// build time); tests pin behavior here instead of mutating the
    /// environment.
    pub fn with_bloom(mut self, bloom: bool) -> Self {
        self.bloom = Some(bloom);
        self
    }

    /// Adds one address, first published in `week`.
    pub fn add_address(&mut self, addr: Ipv6Addr, week: u32) {
        self.add_bits(u128::from(addr), week);
    }

    /// Adds raw address bits, first published in `week`.
    pub fn add_bits(&mut self, bits: u128, week: u32) {
        self.pending[shard48(bits, self.shard_bits)].push((bits, week));
    }

    /// Adds a whole weekly release.
    pub fn add_week(&mut self, week: u32, addresses: &[Ipv6Addr]) {
        for &a in addresses {
            self.add_address(a, week);
        }
    }

    /// Registers an aliased prefix (seen from `week` on).
    pub fn add_alias(&mut self, prefix: Prefix, week: u32) {
        self.aliases.push((prefix, week));
    }

    /// Re-adds everything from an existing snapshot (incremental rebuild).
    pub fn merge_snapshot(&mut self, snap: &Snapshot) {
        for shard in &snap.shards {
            for (b, &w) in shard.iter_bits().zip(&shard.first_week) {
                self.add_bits(b, w);
            }
            for (prefix, &week) in shard.aliases.iter() {
                self.aliases.push((prefix, week));
            }
        }
    }

    /// Builds the snapshot (epoch 0 until published through a store).
    pub fn build(self) -> Snapshot {
        self.build_counting().0
    }

    /// Builds the snapshot, also returning how many duplicate address
    /// submissions were coalesced.
    pub fn build_counting(mut self) -> (Snapshot, u64) {
        let duplicates = sort_dedup_shards(&mut self.pending, "serve.build");
        self.aliases
            .sort_unstable_by_key(|&(p, w)| (p.bits(), p.len(), w));
        self.aliases.dedup_by_key(|&mut (p, _)| p);
        let mut snap = Snapshot::from_sorted_parts(
            self.name,
            self.shard_bits,
            &self.pending,
            &self.aliases,
            self.bloom.unwrap_or_else(bloom_default),
        );
        snap.missing_shards = self.quarantined;
        (snap, duplicates)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn addr(s: &str) -> Ipv6Addr {
        s.parse().unwrap()
    }

    fn pfx(s: &str) -> Prefix {
        s.parse().unwrap()
    }

    fn sample() -> Snapshot {
        let mut b = SnapshotBuilder::new("test", 4);
        b.add_week(
            0,
            &[
                addr("2001:db8:1::1"),
                addr("2001:db8:1::2"),
                addr("2001:db8:2::1"),
            ],
        );
        b.add_week(2, &[addr("2001:db8:3::1"), addr("2001:db8:1::1")]);
        b.add_alias(pfx("2001:db8:2::/48"), 0);
        b.build()
    }

    #[test]
    fn membership_and_first_week() {
        let s = sample();
        assert_eq!(s.len(), 4);
        let week = |a: &str| crate::query::lookup_in(&s, addr(a), None).first_week;
        assert!(s.membership(addr("2001:db8:1::1")).is_present());
        assert!(!s.membership(addr("2001:db8:9::1")).is_present());
        // Duplicate re-publication in week 2 keeps the week-0 first-seen.
        assert_eq!(week("2001:db8:1::1"), Some(0));
        assert_eq!(week("2001:db8:3::1"), Some(2));
        assert_eq!(week("2001:db8:9::1"), None);
        assert_eq!(s.week(), 2);
    }

    #[test]
    fn compressed_run_round_trips_and_ranks() {
        let bits: Vec<u128> = vec![
            (1u128 << 64) | 5,
            (1u128 << 64) | 9,
            (2u128 << 64),
            (2u128 << 64) | u128::from(u64::MAX),
            (7u128 << 64) | 3,
        ];
        let run = CompressedRun::from_sorted(bits.iter().copied());
        assert_eq!(run.len(), 5);
        assert_eq!(run.key_count(), 3);
        assert_eq!(run.iter().collect::<Vec<_>>(), bits);
        for (i, &b) in bits.iter().enumerate() {
            assert_eq!(run.get(i), b);
            assert_eq!(run.rank(b), Some(i));
            assert_eq!(run.rank_lower(b), i);
            assert_eq!(run.rank_upper(b), i + 1);
        }
        assert_eq!(run.rank((1u128 << 64) | 6), None);
        assert_eq!(run.rank_lower(1u128 << 64), 0);
        assert_eq!(run.rank_lower(3u128 << 64), 4);
        assert_eq!(run.rank_upper(u128::MAX), 5);
        // 5 lows × 8 + 3 keys × 8 + 4 offsets × 4 = 80: even this barely
        // clustered run (1.7 addrs/key) matches 5 × 16 raw; real
        // clustering wins outright (see stored_bytes_beat_raw_* below).
        assert_eq!(run.heap_bytes(), bits.len() * 16);
    }

    #[test]
    fn bloom_front_preserves_answers_and_accounts_probes() {
        let mut b = SnapshotBuilder::new("test", 4).with_bloom(true);
        for i in 0..500u32 {
            b.add_address(addr(&format!("2001:db8:{:x}::{:x}", i % 7, i)), i % 3);
        }
        let s = b.build();
        assert!(s.has_bloom());
        assert!(s.verify_integrity());
        // Present addresses are found at their first-week rank.
        let probe = addr("2001:db8:1::1");
        assert!(matches!(
            s.membership(probe),
            Membership::Present {
                bloom_checked: true,
                ..
            }
        ));
        // Absent probes are either bloom-filtered or confirmed absent —
        // never reported present.
        for i in 1000..1200u32 {
            let a = addr(&format!("2001:db8:{:x}::dead:{:x}", i % 7, i));
            assert!(!s.membership(a).is_present());
            assert!(s.shard_for(a).run().rank(u128::from(a)).is_none());
        }
        // Same content without the front: identical checksum and answers.
        let mut b2 = SnapshotBuilder::new("test", 4).with_bloom(false);
        for i in 0..500u32 {
            b2.add_address(addr(&format!("2001:db8:{:x}::{:x}", i % 7, i)), i % 3);
        }
        let s2 = b2.build();
        assert!(!s2.has_bloom());
        assert_eq!(s.content_checksum(), s2.content_checksum());
        assert_eq!(
            s2.membership(probe),
            Membership::Present {
                rank: match s2.shard_for(probe).run().rank(u128::from(probe)) {
                    Some(r) => r,
                    None => unreachable!(),
                },
                bloom_checked: false,
            }
        );
    }

    #[test]
    fn alias_lookup_is_longest_match() {
        let mut b = SnapshotBuilder::new("test", 4);
        b.add_address(addr("2001:db8:2::1"), 0);
        b.add_alias(pfx("2001:db8::/32"), 0);
        b.add_alias(pfx("2001:db8:2::/48"), 1);
        let s = b.build();
        let alias = |a: &str| s.shard_for(addr(a)).longest_alias(addr(a));
        assert_eq!(alias("2001:db8:2::1"), Some(pfx("2001:db8:2::/48")));
        assert_eq!(alias("2001:db8:7::1"), Some(pfx("2001:db8::/32")));
        assert!(alias("2001:db8:ffff::1").is_some());
        assert!(alias("2001:db9::1").is_none());
    }

    #[test]
    fn counts_and_diffs() {
        let s = sample();
        assert_eq!(s.count_within(&pfx("2001:db8:1::/48")), 2);
        assert_eq!(s.count_within(&pfx("2001:db8::/32")), 4);
        assert_eq!(s.count_within(&pfx("2001:db8:1::/64")), 2);
        assert_eq!(s.count_within(&pfx("2001:db9::/32")), 0);
        assert_eq!(s.new_since(0), 1); // only 2001:db8:3::1 is newer
        assert_eq!(s.new_since(2), 0);
    }

    #[test]
    fn integrity_detects_corruption() {
        let s = sample();
        assert!(s.verify_integrity());
        let mut broken = s.clone();
        let shard = broken.shards.iter_mut().find(|sh| !sh.is_empty()).unwrap();
        shard.first_week[0] ^= 1;
        assert!(!broken.verify_integrity());

        let mut broken = s;
        broken.total += 1;
        assert!(!broken.verify_integrity());
    }

    /// Corrupts only the last shard of a snapshot large enough that
    /// `verify_integrity` checks its shards on the `v6par` pool: each
    /// corruption must still fail verification and be refused by
    /// `HitlistStore::publish`.
    #[test]
    fn parallel_verify_catches_corruption_in_the_last_shard() {
        use crate::store::{HitlistStore, PublishError};

        let mut b = SnapshotBuilder::new("large", 8).with_bloom(true);
        let mut h = 1u64;
        for _ in 0..1 << 18 {
            h = h.wrapping_mul(0x9e37_79b9_7f4a_7c15).rotate_left(29) ^ 0x5eed;
            let net48 = u128::from(h & 0x3ff);
            b.add_bits(
                (0x2001_0db8u128 << 96) | (net48 << 80) | u128::from(h >> 20),
                (h % 13) as u32,
            );
        }
        let snap = b.build();
        assert!(snap.verify_integrity());
        let last = snap.shards.len() - 1;
        // The recomputed checksum of a shard's content, to keep a
        // corruption from being caught by the checksum alone.
        let content = |s: &Snapshot| {
            s.shards.iter().fold(0u64, |acc, shard| {
                shard
                    .iter_bits()
                    .zip(&shard.first_week)
                    .fold(acc, |acc, (b, &w)| fold_addr(acc, b, w))
            })
        };

        // An address moved into the wrong shard: bump the last /48 key
        // of the last shard to the next /48, which belongs to shard 0.
        // The shard's bloom front is dropped (legal on its own) so only
        // the placement check can catch the moved addresses.
        let mut wrong_shard = snap.clone();
        let shard = &mut wrong_shard.shards[last];
        *shard.run.keys.last_mut().unwrap() += 1 << 16;
        shard.bloom = None;
        wrong_shard.checksum = content(&wrong_shard);

        // A cleared bloom bit: the last address now reads as absent.
        let mut bloom_hole = snap.clone();
        let shard = &mut bloom_hole.shards[last];
        let victim = shard.get_bits(shard.len() - 1);
        shard.bloom.as_mut().unwrap().clear_probe_bit(victim);
        assert!(!bloom_hole.shards[last]
            .bloom
            .as_ref()
            .unwrap()
            .may_contain(victim));

        // A drifted week on the last address.
        let mut drifted = snap.clone();
        *drifted.shards[last].first_week.last_mut().unwrap() += 1;

        let store = HitlistStore::new("large", 8);
        for broken in [wrong_shard, bloom_hole, drifted] {
            assert!(!broken.verify_integrity());
            assert_eq!(
                store.publish(broken).unwrap_err(),
                PublishError::IntegrityFailure
            );
        }
        assert!(store.publish(snap).is_ok());
    }

    #[test]
    fn stored_bytes_beat_raw_on_clustered_content() {
        let mut b = SnapshotBuilder::new("test", 4).with_bloom(false);
        // 32 /64s × 512 structured IIDs: the clustering real hitlists show.
        for net in 0..32u32 {
            for iid in 0..512u32 {
                b.add_address(addr(&format!("2001:db8:{net:x}::{iid:x}")), 0);
            }
        }
        let s = b.build();
        assert_eq!(s.len(), 32 * 512);
        let ratio = s.stored_bytes() as f64 / s.raw_bytes() as f64;
        assert!(ratio < 0.7, "compression ratio {ratio} not under 0.7");
    }

    #[test]
    fn shard_counts_agree() {
        for shard_count in [1usize, 4, 16] {
            let mut b = SnapshotBuilder::new("test", shard_count);
            for i in 0..200u32 {
                b.add_address(addr(&format!("2001:db8:{:x}::{:x}", i % 23, i)), i % 5);
            }
            let s = b.build();
            assert_eq!(s.shard_count(), shard_count);
            assert_eq!(s.len(), 200);
            assert!(s.verify_integrity());
            let per_shard: u64 = s.shards().iter().map(|sh| sh.len() as u64).sum();
            assert_eq!(per_shard, 200);
        }
    }
}
