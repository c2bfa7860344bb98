//! The typed query API.
//!
//! The `*_in` functions are the only code that turns a held
//! [`Snapshot`] (or [`StreamAnalytics`]) into an answer; the
//! [`QueryEngine`], the `v6wire` front door and `v6cluster` replica
//! reads all call them. Given a [`ServeMetrics`], a call counts in
//! `serve.query.<kind>` and `serve.bloom.*`; given `None`, it records
//! nothing.
//!
//! A [`QueryEngine`] call answers from one clone of the current
//! snapshot `Arc`, so it stays consistent while a new epoch is being
//! published; a batch resolves every address against one epoch.

use std::net::Ipv6Addr;
use std::sync::Arc;
use std::time::Instant;

use v6addr::Prefix;

use crate::metrics::{QueryKind, ServeMetrics};
use crate::snapshot::{Membership, ServeStatus, Shard, Snapshot};
use crate::store::HitlistStore;
use crate::stream::StreamAnalytics;

/// The full answer for a single address.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LookupAnswer {
    /// Is the address in the published hitlist?
    pub present: bool,
    /// Week first published, when present.
    pub first_week: Option<u32>,
    /// Longest registered aliased prefix covering the address, if any.
    pub alias: Option<Prefix>,
    /// Epoch of the snapshot that answered.
    pub epoch: u64,
    /// True when the address's shard is quarantined in this epoch: the
    /// answer reflects the last good merge, not the latest updates.
    pub degraded: bool,
}

/// The answer for a batched lookup, resolved against one epoch.
#[derive(Debug, Clone)]
pub struct BatchAnswer {
    /// Epoch of the snapshot that answered every address in the batch.
    pub epoch: u64,
    /// Health of the answering epoch (`Degraded` lists stale shards).
    pub status: ServeStatus,
    /// Per-address answers, in input order.
    pub answers: Vec<LookupAnswer>,
    /// How many were present.
    pub present: u64,
    /// How many fell under an aliased prefix.
    pub aliased: u64,
}

/// One answer row of [`QueryEngine::moved_between`]: a device seen in
/// one network before the window that surfaced in another inside it.
pub type MovedAnswer = v6stream::Move;

/// Records into `metrics` when given; `None` records nothing.
fn note(metrics: Option<&ServeMetrics>, record: impl FnOnce(&ServeMetrics)) {
    if let Some(m) = metrics {
        record(m);
    }
}

/// One membership probe through `shard`'s bloom front (`serve.bloom.*`).
fn probe(shard: &Shard, addr: Ipv6Addr, metrics: Option<&ServeMetrics>) -> Membership {
    let outcome = shard.membership_bits(u128::from(addr));
    note(metrics, |m| m.record_bloom(outcome));
    outcome
}

/// First-published week of `addr` (`None` = absent) from one probe, not
/// a membership search plus a week search. Counts only in `serve.bloom.*`.
pub fn first_week_in(
    snap: &Snapshot,
    addr: Ipv6Addr,
    metrics: Option<&ServeMetrics>,
) -> Option<u32> {
    let shard = snap.shard_for(addr);
    match probe(shard, addr, metrics) {
        Membership::Present { rank, .. } => Some(shard.first_week_at(rank)),
        _ => None,
    }
}

/// The single-address answer; callers count it as a lookup or a batch.
fn answer(snap: &Snapshot, addr: Ipv6Addr, metrics: Option<&ServeMetrics>) -> LookupAnswer {
    let first_week = first_week_in(snap, addr, metrics);
    LookupAnswer {
        present: first_week.is_some(),
        first_week,
        alias: snap.shard_for(addr).longest_alias(addr),
        epoch: snap.epoch(),
        degraded: snap.shard_missing(addr),
    }
}

/// Exact membership through the bloom front (`V6_BLOOM`), if built.
/// Counts in `serve.query.membership`.
pub fn membership_in(snap: &Snapshot, addr: Ipv6Addr, metrics: Option<&ServeMetrics>) -> bool {
    note(metrics, |m| m.record_query(QueryKind::Membership));
    probe(snap.shard_for(addr), addr, metrics).is_present()
}

/// Alias-filtered membership: present *and* not under an aliased
/// prefix — the set scanners should actually target (§2.2). Counts in
/// `serve.query.membership`.
pub fn unaliased_in(snap: &Snapshot, addr: Ipv6Addr, metrics: Option<&ServeMetrics>) -> bool {
    note(metrics, |m| m.record_query(QueryKind::Membership));
    let shard = snap.shard_for(addr);
    probe(shard, addr, metrics).is_present() && shard.longest_alias(addr).is_none()
}

/// Full lookup: membership, first-published week, alias cover and the
/// degraded label, from one probe. Counts in `serve.query.lookups`.
pub fn lookup_in(snap: &Snapshot, addr: Ipv6Addr, metrics: Option<&ServeMetrics>) -> LookupAnswer {
    note(metrics, |m| m.record_query(QueryKind::Lookup));
    answer(snap, addr, metrics)
}

/// Resolves a whole batch against `snap`. Counts in
/// `serve.query.{batches,batch_addresses}`.
pub fn batch_in<I>(snap: &Snapshot, addrs: I, metrics: Option<&ServeMetrics>) -> BatchAnswer
where
    I: IntoIterator<Item = Ipv6Addr>,
    I::IntoIter: ExactSizeIterator,
{
    let addrs = addrs.into_iter();
    note(metrics, |m| m.record_batch(addrs.len() as u64));
    let mut present = 0u64;
    let mut aliased = 0u64;
    let answers: Vec<LookupAnswer> = addrs
        .map(|a| {
            let ans = answer(snap, a, metrics);
            present += u64::from(ans.present);
            aliased += u64::from(ans.alias.is_some());
            ans
        })
        .collect();
    BatchAnswer {
        epoch: snap.epoch(),
        status: snap.status(),
        answers,
        present,
        aliased,
    }
}

/// Published addresses inside `prefix`. Counts in `serve.query.density`.
pub fn count_within_in(snap: &Snapshot, prefix: &Prefix, metrics: Option<&ServeMetrics>) -> u64 {
    note(metrics, |m| m.record_query(QueryKind::Density));
    snap.count_within(prefix)
}

/// Addresses first published after week `week`. Counts in `serve.query.diffs`.
pub fn new_since_in(snap: &Snapshot, week: u64, metrics: Option<&ServeMetrics>) -> u64 {
    note(metrics, |m| m.record_query(QueryKind::Diff));
    snap.new_since(week)
}

/// Devices that moved /64 during `(w0, w1]` (see
/// [`QueryEngine::moved_between`]). Counts in `serve.query.windows`.
pub fn moved_between_in(
    analytics: &StreamAnalytics,
    w0: u32,
    w1: u32,
    metrics: Option<&ServeMetrics>,
) -> Vec<MovedAnswer> {
    note(metrics, |m| m.record_query(QueryKind::Window));
    analytics.moved_between(w0, w1)
}

/// Entropy-distribution shift of AS `as_index` across `w0` (see
/// [`QueryEngine::entropy_shift`]). Counts in `serve.query.windows`.
pub fn entropy_shift_in(
    analytics: &StreamAnalytics,
    as_index: u16,
    w0: u32,
    w1: u32,
    metrics: Option<&ServeMetrics>,
) -> Option<u32> {
    note(metrics, |m| m.record_query(QueryKind::Window));
    analytics.entropy_shift(as_index, w0, w1)
}

/// A cheaply cloneable handle answering queries from a [`HitlistStore`].
#[derive(Clone)]
pub struct QueryEngine {
    store: Arc<HitlistStore>,
    /// Streaming operators answering the windowed query family;
    /// `None` until attached with [`QueryEngine::with_analytics`].
    analytics: Option<Arc<StreamAnalytics>>,
}

impl QueryEngine {
    /// An engine over `store`.
    pub fn new(store: Arc<HitlistStore>) -> Self {
        QueryEngine {
            store,
            analytics: None,
        }
    }

    /// Attaches streaming analytics, enabling the windowed query
    /// family ([`QueryEngine::moved_between`],
    /// [`QueryEngine::entropy_shift`]).
    pub fn with_analytics(mut self, analytics: Arc<StreamAnalytics>) -> Self {
        self.analytics = Some(analytics);
        self
    }

    /// The attached streaming analytics, if any.
    pub fn analytics(&self) -> Option<&Arc<StreamAnalytics>> {
        self.analytics.as_ref()
    }

    /// The underlying store.
    pub fn store(&self) -> &Arc<HitlistStore> {
        &self.store
    }

    /// Runs `f` on the current snapshot, timing it into
    /// `serve.query.latency.*`.
    fn timed<T>(
        &self,
        kind: QueryKind,
        f: impl FnOnce(&Snapshot, Option<&ServeMetrics>) -> T,
    ) -> T {
        let started = Instant::now();
        let metrics = self.store.metrics();
        let out = f(&self.store.snapshot(), Some(metrics));
        metrics.record_query_latency(kind, started.elapsed());
        out
    }

    /// Health of the current epoch (`Degraded` lists quarantined shards).
    pub fn status(&self) -> ServeStatus {
        self.store.snapshot().status()
    }

    /// Exact membership (see [`membership_in`]).
    pub fn contains(&self, addr: Ipv6Addr) -> bool {
        self.timed(QueryKind::Membership, |s, m| membership_in(s, addr, m))
    }

    /// Alias-filtered membership (see [`unaliased_in`]).
    pub fn contains_unaliased(&self, addr: Ipv6Addr) -> bool {
        self.timed(QueryKind::Membership, |s, m| unaliased_in(s, addr, m))
    }

    /// Full lookup: membership, first-published week, and alias cover.
    pub fn lookup(&self, addr: Ipv6Addr) -> LookupAnswer {
        self.timed(QueryKind::Lookup, |s, m| lookup_in(s, addr, m))
    }

    /// Published addresses inside `prefix` (per-/48 density and coarser).
    pub fn count_within(&self, prefix: &Prefix) -> u64 {
        self.timed(QueryKind::Density, |s, m| count_within_in(s, prefix, m))
    }

    /// Addresses first published after study week `week` — the
    /// snapshot-answered member of the "diffs" query family.
    pub fn new_since(&self, week: u64) -> u64 {
        self.timed(QueryKind::Diff, |s, m| new_since_in(s, week, m))
    }

    /// EUI-64 devices that inhabited some /64 at or before week `w0`
    /// and first surfaced in a *different* /64 during `(w0, w1]` — a
    /// windowed generalization of [`QueryEngine::new_since`] that only
    /// the streaming operators can answer. `None` without attached
    /// analytics.
    pub fn moved_between(&self, w0: u32, w1: u32) -> Option<Vec<MovedAnswer>> {
        let analytics = self.analytics.as_ref()?;
        Some(self.timed(QueryKind::Window, |_, m| {
            moved_between_in(analytics, w0, w1, m)
        }))
    }

    /// Entropy-distribution shift (total-variation, per-mille) of AS
    /// `as_index` between the corpus as of week `w0` and the additions
    /// of `(w0, w1]`. Outer `None` without attached analytics; inner
    /// `None` when either window side holds no attributed addresses.
    pub fn entropy_shift(&self, as_index: u16, w0: u32, w1: u32) -> Option<Option<u32>> {
        let analytics = self.analytics.as_ref()?;
        Some(self.timed(QueryKind::Window, |_, m| {
            entropy_shift_in(analytics, as_index, w0, w1, m)
        }))
    }

    /// Resolves a whole batch against a single epoch. Latency is sampled
    /// once per batch, not per address.
    pub fn batch_lookup(&self, addrs: &[Ipv6Addr]) -> BatchAnswer {
        self.timed(QueryKind::Batch, |s, m| {
            batch_in(s, addrs.iter().copied(), m)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::snapshot::SnapshotBuilder;

    fn addr(s: &str) -> Ipv6Addr {
        s.parse().unwrap()
    }

    fn engine() -> QueryEngine {
        let store = HitlistStore::new("svc", 4);
        let mut b = SnapshotBuilder::new("svc", 4);
        b.add_week(0, &[addr("2001:db8:1::1"), addr("2001:db8:2::1")]);
        b.add_week(3, &[addr("2001:db8:3::1")]);
        b.add_alias("2001:db8:2::/48".parse().unwrap(), 0);
        store.publish(b.build()).unwrap();
        QueryEngine::new(Arc::new(store))
    }

    #[test]
    fn typed_queries_answer() {
        let q = engine();
        assert!(q.contains(addr("2001:db8:1::1")));
        assert!(q.contains(addr("2001:db8:2::1")));
        assert!(!q.contains_unaliased(addr("2001:db8:2::1")));
        assert!(q.contains_unaliased(addr("2001:db8:1::1")));

        let ans = q.lookup(addr("2001:db8:3::1"));
        assert!(ans.present);
        assert_eq!(ans.first_week, Some(3));
        assert_eq!(ans.alias, None);
        assert_eq!(ans.epoch, 1);

        assert_eq!(q.count_within(&"2001:db8::/32".parse().unwrap()), 3);
        assert_eq!(q.new_since(0), 1);
        assert_eq!(q.new_since(3), 0);
    }

    #[test]
    fn batch_is_single_epoch_and_counts() {
        let q = engine();
        let batch = q.batch_lookup(&[
            addr("2001:db8:1::1"),
            addr("2001:db8:2::1"),
            addr("2001:db8:9::9"),
        ]);
        assert_eq!(batch.epoch, 1);
        assert_eq!(batch.answers.len(), 3);
        assert_eq!(batch.present, 2);
        assert_eq!(batch.aliased, 1);
        assert!(!batch.answers[2].present);

        let snap = q.store().metrics().registry().snapshot();
        assert_eq!(snap.counter("serve.query.batches"), Some(1));
        assert_eq!(snap.counter("serve.query.batch_addresses"), Some(3));
    }

    #[test]
    fn bloom_front_accounts_membership_traffic() {
        let store = HitlistStore::new("svc", 4);
        let mut b = SnapshotBuilder::new("svc", 4).with_bloom(true);
        for i in 0..300u32 {
            b.add_address(addr(&format!("2001:db8:{:x}::{:x}", i % 5, i)), 0);
        }
        store.publish(b.build()).unwrap();
        let q = QueryEngine::new(Arc::new(store));

        // Present probes pass the bloom and hit the exact tier.
        assert!(q.contains(addr("2001:db8:1::1")));
        // Absent probes are either filtered (hit) or false positives;
        // answers are never wrong either way.
        for i in 0..200u32 {
            assert!(!q.contains(addr(&format!("2001:db8:{:x}::beef:{:x}", i % 5, i))));
        }
        let snap = q.store().metrics().registry().snapshot();
        let hit = snap.counter("serve.bloom.hit").unwrap();
        let miss = snap.counter("serve.bloom.miss").unwrap();
        let fp = snap.counter("serve.bloom.false_positive").unwrap();
        assert_eq!(miss, 1, "the one present probe passes through");
        assert_eq!(hit + fp, 200, "every absent probe is hit or false positive");
        assert!(hit > fp, "the front should filter most absent probes");
    }

    #[test]
    fn new_since_edges() {
        // Fresh store, nothing published: the empty epoch-0 snapshot
        // has nothing newer than any week, including week 0.
        let empty = QueryEngine::new(Arc::new(HitlistStore::new("svc", 4)));
        assert_eq!(empty.new_since(0), 0);

        // A published but empty epoch answers the same way.
        let store = HitlistStore::new("svc", 4);
        store
            .publish(SnapshotBuilder::new("svc", 4).build())
            .unwrap();
        let q = QueryEngine::new(Arc::new(store));
        assert_eq!(q.new_since(0), 0);
        assert_eq!(q.new_since(u64::from(u32::MAX)), 0);

        // Week 0 counts strictly-later first sightings, week numbers
        // beyond every epoch count nothing, and everything is new
        // relative to "before week 0" semantics only via lookups.
        let q = engine(); // weeks {0, 0, 3}
        assert_eq!(q.new_since(0), 1, "only the week-3 entry is after week 0");
        assert_eq!(q.new_since(2), 1);
        assert_eq!(q.new_since(3), 0, "boundary week is not 'after' itself");
        assert_eq!(q.new_since(u64::from(u32::MAX)), 0);

        let snap = q.store().metrics().registry().snapshot();
        assert_eq!(snap.counter("serve.query.diffs"), Some(4));
        let text = q.store().metrics().render_text();
        assert!(text.contains("serve.query.latency.diffs_count 4\n"));
    }

    #[test]
    fn new_since_answers_on_degraded_snapshots() {
        let store = HitlistStore::new("svc", 4);
        let mut b = SnapshotBuilder::new("svc", 4);
        b.add_week(0, &[addr("2001:db8:1::1"), addr("2001:db8:2::1")]);
        b.add_week(5, &[addr("2001:db8:3::1")]);
        let b = b.with_quarantined(vec![0, 2]);
        store.publish(b.build()).unwrap();
        let q = QueryEngine::new(Arc::new(store));

        // The diff still answers from the stale-but-consistent corpus…
        assert_eq!(q.new_since(0), 1);
        assert_eq!(q.new_since(5), 0);
        // …and the degraded label propagates alongside, never silently.
        match q.status() {
            ServeStatus::Degraded { missing_shards } => {
                assert_eq!(missing_shards, vec![0, 2]);
            }
            other => panic!("expected degraded status, got {other:?}"),
        }
        let batch = q.batch_lookup(&[addr("2001:db8:1::1")]);
        assert!(matches!(batch.status, ServeStatus::Degraded { .. }));
    }

    fn eui_addr(prefix32: u128, subnet: u64, mac: u64) -> u128 {
        let iid = v6addr::Iid::from_mac(v6addr::Mac::from_u64(mac));
        (prefix32 << 96) | (u128::from(subnet) << 64) | u128::from(iid.as_u64())
    }

    #[test]
    fn windowed_queries_require_analytics() {
        let q = engine();
        assert!(q.moved_between(0, 4).is_none());
        assert!(q.entropy_shift(1, 0, 4).is_none());
        let snap = q.store().metrics().registry().snapshot();
        assert_eq!(snap.counter("serve.query.windows"), Some(0));
    }

    #[test]
    fn windowed_queries_answer_from_attached_analytics() {
        use v6stream::{country_code, AsTag, PrefixAsTable};
        let resolver: v6stream::SharedResolver = Arc::new(PrefixAsTable::new(vec![(
            0x2001_0db8u128 << 96,
            32,
            AsTag {
                index: 1,
                country: country_code(*b"DE"),
            },
        )]));

        let store = Arc::new(HitlistStore::new("svc", 4));
        let mut b = SnapshotBuilder::new("svc", 4);
        // One EUI-64 device seen in subnet 1 at week 1, then surfacing
        // in subnet 2 at week 5 — a move inside the (2, 6] window.
        let mac = 0x0050_56ab_cdef;
        b.add_bits(eui_addr(0x2001_0db8, 1, mac), 1);
        b.add_bits(eui_addr(0x2001_0db8, 2, mac), 5);
        // Opaque ballast so the entropy profile has both window sides.
        for i in 0..8u128 {
            b.add_bits(
                (0x2001_0db8u128 << 96) | (3 << 64) | (0x9e37_79b9 * (i + 1)),
                1,
            );
            b.add_bits(
                (0x2001_0db8u128 << 96) | (4 << 64) | u128::from(4u32 + i as u32),
                5,
            );
        }
        store.publish(b.build()).unwrap();

        let analytics = crate::stream::analytics_for(&store, resolver);
        let q = QueryEngine::new(Arc::clone(&store)).with_analytics(analytics);

        let moves = q.moved_between(2, 6).expect("analytics attached");
        assert_eq!(moves.len(), 1);
        assert_eq!(moves[0].mac, mac);
        assert_eq!(moves[0].week, 5);
        assert_ne!(moves[0].from_net, moves[0].to_net);
        // Outside the window the same device never moved.
        assert!(q.moved_between(5, 9).unwrap().is_empty());

        let shift = q.entropy_shift(1, 2, 6).expect("analytics attached");
        assert!(shift.is_some(), "both window sides are populated");
        assert_eq!(q.entropy_shift(7, 2, 6), Some(None), "unknown AS is empty");

        let snap = store.metrics().registry().snapshot();
        assert_eq!(snap.counter("serve.query.windows"), Some(4));
        let text = store.metrics().render_text();
        assert!(text.contains("serve.query.latency.window_count 4\n"));
    }

    #[test]
    fn no_bloom_front_means_no_bloom_traffic() {
        let store = HitlistStore::new("svc", 4);
        let mut b = SnapshotBuilder::new("svc", 4).with_bloom(false);
        b.add_week(0, &[addr("2001:db8:1::1")]);
        store.publish(b.build()).unwrap();
        let q = QueryEngine::new(Arc::new(store));
        assert!(q.contains(addr("2001:db8:1::1")));
        assert!(!q.contains(addr("2001:db8:2::1")));
        let snap = q.store().metrics().registry().snapshot();
        assert_eq!(snap.counter("serve.bloom.hit"), Some(0));
        assert_eq!(snap.counter("serve.bloom.miss"), Some(0));
        assert_eq!(snap.counter("serve.bloom.false_positive"), Some(0));
    }
}
