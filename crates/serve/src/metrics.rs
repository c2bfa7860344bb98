//! Registry-backed metrics for the serving path.
//!
//! [`ServeMetrics`] used to be a bag of bespoke relaxed atomics; it is
//! now a thin facade over a per-store [`v6obs::Registry`] — counters for
//! every query/publish/ingest event plus latency histograms per query
//! type, for ingestion batches, and per publish stage
//! (`serve.publish.{validate,persist,swap}_latency`). Each store owns
//! its own registry (not the process-global one) so independent stores
//! in one process never share counters; fetch it with
//! [`ServeMetrics::registry`] for the deterministic text exposition or
//! a JSON snapshot.
//!
//! The approximate-membership front reports its traffic as
//! `serve.bloom.{hit,miss,false_positive}`: a *hit* filtered an absent
//! address without touching the exact tier, a *miss* passed a present
//! address through, and a *false positive* passed an absent address
//! through (the cost the filter's error rate buys). Store memory is
//! exported as `serve.store.bytes.{raw,compressed}` gauges — what the
//! published snapshot's address columns would cost raw versus what the
//! compressed tier actually holds.
//!
//! Recording is still relaxed-atomic cheap: handles are resolved once at
//! construction, and the registry mutex is only taken for exposition.
//! Counter values are data-derived and thread-count invariant; the
//! latency histograms are timing observations and are not.

use std::sync::Arc;
use std::time::Duration;

use v6obs::{Counter, Gauge, Histogram, Registry};

/// Which query type a call counts and times as.
#[derive(Debug, Clone, Copy)]
pub(crate) enum QueryKind {
    /// `contains` / `contains_unaliased`.
    Membership,
    /// Full single-address lookups.
    Lookup,
    /// Density / count-within queries.
    Density,
    /// The "diffs" query family (`new_since`): what changed relative
    /// to a release week. Counts under `serve.query.diffs`, latency
    /// under `serve.query.latency.diffs`.
    Diff,
    /// Windowed streaming-analytics queries (`moved_between`,
    /// `entropy_shift`): answered from the incremental operator state,
    /// not the snapshot.
    Window,
    /// Batched lookups (one sample per batch).
    Batch,
}

/// Metrics shared by a store, its query engines, and its ingestors,
/// recorded into a store-private [`Registry`].
#[derive(Debug)]
pub struct ServeMetrics {
    registry: Arc<Registry>,
    queries: [Counter; 6],
    batch_addresses: Counter,
    publishes: Counter,
    degraded_publishes: Counter,
    ingested_addresses: Counter,
    bloom_hit: Counter,
    bloom_miss: Counter,
    bloom_false_positive: Counter,
    store_bytes_raw: Gauge,
    store_bytes_compressed: Gauge,
    query_latency: [Histogram; 6],
    ingest_batch_latency: Histogram,
    ingest_normalize_latency: Histogram,
    publish_validate_latency: Histogram,
    publish_persist_latency: Histogram,
    publish_swap_latency: Histogram,
}

impl Default for ServeMetrics {
    fn default() -> Self {
        let registry = Arc::new(Registry::new());
        ServeMetrics {
            queries: [
                registry.counter("serve.query.membership"),
                registry.counter("serve.query.lookups"),
                registry.counter("serve.query.density"),
                registry.counter("serve.query.diffs"),
                registry.counter("serve.query.windows"),
                registry.counter("serve.query.batches"),
            ],
            batch_addresses: registry.counter("serve.query.batch_addresses"),
            publishes: registry.counter("serve.publish.epochs"),
            degraded_publishes: registry.counter("serve.publish.degraded"),
            ingested_addresses: registry.counter("serve.ingest.addresses"),
            bloom_hit: registry.counter("serve.bloom.hit"),
            bloom_miss: registry.counter("serve.bloom.miss"),
            bloom_false_positive: registry.counter("serve.bloom.false_positive"),
            store_bytes_raw: registry.gauge("serve.store.bytes.raw"),
            store_bytes_compressed: registry.gauge("serve.store.bytes.compressed"),
            query_latency: [
                registry.histogram("serve.query.latency.membership"),
                registry.histogram("serve.query.latency.lookup"),
                registry.histogram("serve.query.latency.density"),
                registry.histogram("serve.query.latency.diffs"),
                registry.histogram("serve.query.latency.window"),
                registry.histogram("serve.query.latency.batch"),
            ],
            ingest_batch_latency: registry.histogram("serve.ingest.batch_latency"),
            ingest_normalize_latency: registry.histogram("serve.ingest.normalize_latency"),
            publish_validate_latency: registry.histogram("serve.publish.validate_latency"),
            publish_persist_latency: registry.histogram("serve.publish.persist_latency"),
            publish_swap_latency: registry.histogram("serve.publish.swap_latency"),
            registry,
        }
    }
}

impl ServeMetrics {
    pub(crate) fn record_query(&self, kind: QueryKind) {
        self.queries[kind as usize].inc();
    }

    pub(crate) fn record_batch(&self, addresses: u64) {
        self.record_query(QueryKind::Batch);
        self.batch_addresses.add(addresses);
    }

    pub(crate) fn record_publish(&self) {
        self.publishes.inc();
    }

    pub(crate) fn record_degraded_publish(&self) {
        self.degraded_publishes.inc();
    }

    pub(crate) fn record_ingested(&self, addresses: u64) {
        self.ingested_addresses.add(addresses);
    }

    /// Accounts one bloom-fronted membership probe by what the front
    /// observed (see [`crate::snapshot::Membership`]).
    pub(crate) fn record_bloom(&self, outcome: crate::snapshot::Membership) {
        use crate::snapshot::Membership;
        match outcome {
            Membership::BloomFiltered => self.bloom_hit.inc(),
            Membership::Present {
                bloom_checked: true,
                ..
            } => self.bloom_miss.inc(),
            Membership::Absent {
                bloom_checked: true,
            } => self.bloom_false_positive.inc(),
            // No bloom front consulted: nothing to account.
            Membership::Present { .. } | Membership::Absent { .. } => {}
        }
    }

    /// Publishes the current snapshot's memory footprint: what the raw
    /// representation would cost vs what the compressed tier holds.
    pub(crate) fn set_store_bytes(&self, raw: u64, compressed: u64) {
        self.store_bytes_raw.set(raw.min(i64::MAX as u64) as i64);
        self.store_bytes_compressed
            .set(compressed.min(i64::MAX as u64) as i64);
    }

    pub(crate) fn record_query_latency(&self, kind: QueryKind, elapsed: Duration) {
        self.query_latency[kind as usize].record_duration(elapsed);
    }

    pub(crate) fn record_ingest_batch_latency(&self, elapsed: Duration) {
        self.ingest_batch_latency.record_duration(elapsed);
    }

    pub(crate) fn record_normalize_latency(&self, elapsed: Duration) {
        self.ingest_normalize_latency.record_duration(elapsed);
    }

    /// Records one successful publish's stage times, so a slow publish
    /// can be attributed to validation, the write-ahead append (zero on
    /// an in-memory store) or the pointer swap.
    pub(crate) fn record_publish_stages(
        &self,
        validate: Duration,
        persist: Duration,
        swap: Duration,
    ) {
        self.publish_validate_latency.record_duration(validate);
        self.publish_persist_latency.record_duration(persist);
        self.publish_swap_latency.record_duration(swap);
    }

    /// The store-private registry behind these metrics: counters named
    /// `serve.query.*` / `serve.publish.*` / `serve.ingest.*` /
    /// `serve.bloom.*`, the `serve.store.bytes.*` gauges, plus the
    /// per-query-type, ingest and publish-stage latency histograms.
    pub fn registry(&self) -> &Arc<Registry> {
        &self.registry
    }

    /// Deterministic text exposition of the store's registry
    /// ([`Registry::render_text`]).
    pub fn render_text(&self) -> String {
        self.registry.render_text()
    }

    /// Queries served so far (batched addresses counted individually).
    pub fn queries_total(&self) -> u64 {
        let batches = self.queries[QueryKind::Batch as usize].get();
        self.queries.iter().map(Counter::get).sum::<u64>() - batches + self.batch_addresses.get()
    }

    /// Epochs published so far.
    pub fn publishes(&self) -> u64 {
        self.publishes.get()
    }

    /// Degraded epochs published so far.
    pub fn degraded_publishes(&self) -> u64 {
        self.degraded_publishes.get()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::snapshot::Membership;

    #[test]
    fn counters_accumulate() {
        let m = ServeMetrics::default();
        m.record_query(QueryKind::Membership);
        m.record_query(QueryKind::Lookup);
        m.record_batch(16);
        m.record_publish();
        let snap = m.registry().snapshot();
        assert_eq!(snap.counter("serve.query.membership"), Some(1));
        assert_eq!(snap.counter("serve.query.batch_addresses"), Some(16));
        assert_eq!(m.queries_total(), 18);
        assert_eq!(m.publishes(), 1);
    }

    #[test]
    fn bloom_outcomes_map_to_counters() {
        let m = ServeMetrics::default();
        m.record_bloom(Membership::BloomFiltered);
        m.record_bloom(Membership::Present {
            rank: 0,
            bloom_checked: true,
        });
        m.record_bloom(Membership::Absent {
            bloom_checked: true,
        });
        // Probes without a bloom front leave all three untouched.
        m.record_bloom(Membership::Present {
            rank: 1,
            bloom_checked: false,
        });
        m.record_bloom(Membership::Absent {
            bloom_checked: false,
        });
        let snap = m.registry().snapshot();
        assert_eq!(snap.counter("serve.bloom.hit"), Some(1));
        assert_eq!(snap.counter("serve.bloom.miss"), Some(1));
        assert_eq!(snap.counter("serve.bloom.false_positive"), Some(1));
    }

    #[test]
    fn store_bytes_gauges_track_latest_publish() {
        let m = ServeMetrics::default();
        m.set_store_bytes(2000, 1200);
        m.set_store_bytes(4000, 2400);
        let text = m.render_text();
        assert!(text.contains("serve.store.bytes.raw 4000\n"));
        assert!(text.contains("serve.store.bytes.compressed 2400\n"));
    }

    #[test]
    fn registry_exposition_matches_counters() {
        let m = ServeMetrics::default();
        m.record_query(QueryKind::Membership);
        m.record_ingested(100);
        m.record_query_latency(QueryKind::Membership, Duration::from_micros(3));
        let snap = m.registry().snapshot();
        assert_eq!(snap.counter("serve.query.membership"), Some(1));
        assert_eq!(snap.counter("serve.ingest.addresses"), Some(100));
        let text = m.render_text();
        assert!(text.contains("serve.query.membership 1\n"));
        assert!(text.contains("serve.query.latency.membership_count 1\n"));
        // Two stores never share a registry.
        let other = ServeMetrics::default();
        assert_eq!(
            other
                .registry()
                .snapshot()
                .counter("serve.query.membership"),
            Some(0)
        );
    }
}
