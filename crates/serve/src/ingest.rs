//! Concurrent ingestion: publications in, snapshot epochs out.
//!
//! Updates flow through two bounded crossbeam channels:
//!
//! ```text
//! submit() ──▶ [updates] ──▶ shard workers ──▶ [batches] ──▶ merger ──▶ store.publish()
//! ```
//!
//! Shard workers normalize each [`PublicationUpdate`] into per-shard
//! sorted `(bits, week)` runs off the serving threads; the single merger
//! thread owns the accumulated state, merges each run in O(n), and
//! publishes a fresh epoch per update. Bounded channels give natural
//! backpressure: when ingestion falls behind, `submit` blocks the
//! producer instead of growing queues without limit — readers are never
//! involved, they keep serving the last published epoch.
//!
//! # Fault tolerance
//!
//! The pipeline is wired for deterministic fault injection through
//! [`v6chaos::Chaos`] ([`Ingestor::spawn_chaos`]); production use
//! ([`Ingestor::spawn`]) injects nothing. Fault sites and their
//! handling:
//!
//! * `serve.worker.update.<seq>` — a shard worker normalizing the
//!   `seq`-th accepted update. Injected errors are retried up to the
//!   chaos retry budget; exhaustion or an injected panic (worker death)
//!   records the update as *lost* — accounted in [`IngestReport`],
//!   never silently dropped. [`IngestHandle::submit`] detects dead
//!   workers and returns [`IngestError`] instead of blocking forever.
//! * `serve.merger.update.<seq>` — the merger consult before folding
//!   that update; only `Stall` faults are honored (back-pressure).
//! * `serve.shard.<i>` — merging shard `i`'s accumulated runs. A
//!   failing consult *quarantines* the shard: its runs are parked, the
//!   epoch is published anyway with the shard's last good content and a
//!   `Degraded { missing_shards }` status. Later consults (or the final
//!   flush in [`IngestHandle::finish`]) drain the quarantine; only a
//!   permanent script leaves the shard quarantined, and then the report
//!   says exactly which shards lost data.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crossbeam::channel::{bounded, Receiver, Sender, TrySendError};

use v6addr::{shard48, Prefix};
use v6chaos::{Chaos, Fault, LossReport, NoChaos};
use v6hitlist::{HitlistService, NtpCorpus};
use v6scan::CampaignResult;

use crate::snapshot::{bloom_default, sort_dedup_shards, Snapshot};
use crate::store::HitlistStore;

const WEEK_SECS: u64 = 7 * 86_400;

/// One unit of publication input.
#[derive(Debug, Clone)]
pub enum PublicationUpdate {
    /// A full service publication stream (all weekly snapshots at once).
    Service(HitlistService),
    /// One incremental weekly release.
    Week {
        /// Study week of the release.
        week: u64,
        /// Addresses published this week.
        addresses: Vec<std::net::Ipv6Addr>,
    },
    /// Passive observations as `(address bits, seconds since study start)`.
    Passive {
        /// The raw observations.
        observations: Vec<(u128, u32)>,
    },
    /// Aliased-prefix registrations, effective from `week`.
    Aliases {
        /// Week the aliases were detected.
        week: u64,
        /// The aliased prefixes.
        prefixes: Vec<Prefix>,
    },
}

impl PublicationUpdate {
    /// Wraps an active campaign's results as a service publication.
    pub fn from_campaign(name: impl Into<String>, campaign: &CampaignResult) -> Self {
        PublicationUpdate::Service(HitlistService::from_campaign(name, campaign))
    }

    /// Wraps a passive NTP corpus.
    pub fn from_corpus(corpus: &NtpCorpus) -> Self {
        PublicationUpdate::Passive {
            observations: corpus.observations.iter().map(|o| (o.addr, o.t)).collect(),
        }
    }

    /// Addresses carried (before dedup), for stats and backpressure sizing.
    pub fn address_count(&self) -> u64 {
        match self {
            PublicationUpdate::Service(s) => s
                .snapshots
                .iter()
                .map(|w| w.new_responsive.len() as u64)
                .sum(),
            PublicationUpdate::Week { addresses, .. } => addresses.len() as u64,
            PublicationUpdate::Passive { observations } => observations.len() as u64,
            PublicationUpdate::Aliases { .. } => 0,
        }
    }
}

/// A normalized update: per-shard sorted `(bits, week)` runs + aliases.
struct ShardBatch {
    per_shard: Vec<Vec<(u128, u32)>>,
    aliases: Vec<(Prefix, u32)>,
    raw_addresses: u64,
}

fn normalize(update: PublicationUpdate, shard_bits: u32) -> ShardBatch {
    let shard_count = 1usize << shard_bits;
    let mut per_shard: Vec<Vec<(u128, u32)>> = vec![Vec::new(); shard_count];
    let mut aliases: Vec<(Prefix, u32)> = Vec::new();
    let raw_addresses = update.address_count();
    let push = |bits: u128, week: u32, shards: &mut Vec<Vec<(u128, u32)>>| {
        shards[shard48(bits, shard_bits)].push((bits, week));
    };
    match update {
        PublicationUpdate::Service(service) => {
            for snap in &service.snapshots {
                for &a in &snap.new_responsive {
                    push(u128::from(a), snap.week as u32, &mut per_shard);
                }
            }
            let first_week = service
                .snapshots
                .first()
                .map(|s| s.week as u32)
                .unwrap_or(0);
            aliases.extend(service.aliased.iter().map(|&p| (p, first_week)));
        }
        PublicationUpdate::Week { week, addresses } => {
            for &a in &addresses {
                push(u128::from(a), week as u32, &mut per_shard);
            }
        }
        PublicationUpdate::Passive { observations } => {
            for &(bits, t) in &observations {
                push(bits, (u64::from(t) / WEEK_SECS) as u32, &mut per_shard);
            }
        }
        PublicationUpdate::Aliases { week, prefixes } => {
            aliases.extend(prefixes.iter().map(|&p| (p, week as u32)));
        }
    }
    // Dedup keeps the earliest week within this update; the typical
    // small update stays inline on this worker thread.
    sort_dedup_shards(&mut per_shard, "serve.normalize");
    ShardBatch {
        per_shard,
        aliases,
        raw_addresses,
    }
}

/// Merges a sorted run into sorted accumulated state, keeping the
/// earliest week for duplicate addresses. Returns duplicates coalesced.
fn merge_run(acc: &mut Vec<(u128, u32)>, run: Vec<(u128, u32)>) -> u64 {
    if run.is_empty() {
        return 0;
    }
    if acc.is_empty() {
        *acc = run;
        return 0;
    }
    let mut out = Vec::with_capacity(acc.len() + run.len());
    let mut duplicates = 0u64;
    let (mut i, mut j) = (0usize, 0usize);
    while i < acc.len() && j < run.len() {
        let (ab, aw) = acc[i];
        let (rb, rw) = run[j];
        match ab.cmp(&rb) {
            std::cmp::Ordering::Less => {
                out.push((ab, aw));
                i += 1;
            }
            std::cmp::Ordering::Greater => {
                out.push((rb, rw));
                j += 1;
            }
            std::cmp::Ordering::Equal => {
                out.push((ab, aw.min(rw)));
                duplicates += 1;
                i += 1;
                j += 1;
            }
        }
    }
    out.extend_from_slice(&acc[i..]);
    out.extend_from_slice(&run[j..]);
    *acc = out;
    duplicates
}

/// What an ingestion run accomplished.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IngestStats {
    /// Updates processed by the merger.
    pub updates: u64,
    /// Raw addresses submitted (before any dedup).
    pub raw_addresses: u64,
    /// Unique addresses in the final snapshot.
    pub unique_addresses: u64,
    /// Duplicates coalesced across updates (weekly re-publications).
    pub duplicates: u64,
    /// Epochs published.
    pub epochs_published: u64,
    /// Epochs published with at least one quarantined shard.
    pub degraded_epochs: u64,
}

/// Why [`IngestHandle::submit`] rejected an update. The caller still
/// owns the update — a rejected submission is never counted as lost.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum IngestError {
    /// Every shard worker has died; nothing will drain the queue.
    WorkersDead,
    /// The pipeline's channels are closed (already finishing).
    Closed,
}

impl std::fmt::Display for IngestError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            IngestError::WorkersDead => write!(f, "all shard workers have died"),
            IngestError::Closed => write!(f, "ingest pipeline is closed"),
        }
    }
}

impl std::error::Error for IngestError {}

/// The full accounting of an ingestion run: stats plus exactly which
/// updates and shards (if any) lost data.
#[derive(Debug, Clone)]
pub struct IngestReport {
    /// Counters for the processed stream.
    pub stats: IngestStats,
    /// `(seq, reason)` for every accepted update that was lost (worker
    /// death or exhausted retries), ascending by seq.
    pub lost_updates: Vec<(u64, String)>,
    /// Shards still quarantined at the end: their parked runs never
    /// merged. Empty unless a permanent fault was injected.
    pub quarantined_shards: Vec<u32>,
}

impl IngestReport {
    /// True when every accepted update reached the final snapshot.
    pub fn is_complete(&self) -> bool {
        self.lost_updates.is_empty() && self.quarantined_shards.is_empty()
    }

    /// The loss report in the workspace-wide `LOST <unit> (<reason>)`
    /// site vocabulary.
    pub fn loss(&self) -> LossReport {
        let mut loss = LossReport::new();
        for (seq, reason) in &self.lost_updates {
            loss.record(format!("serve.worker.update.{seq}"), reason.clone());
        }
        for &i in &self.quarantined_shards {
            loss.record(
                format!("serve.shard.{i}"),
                "permanently quarantined; parked runs never merged",
            );
        }
        loss
    }
}

/// Liveness and loss bookkeeping shared by the handle and the workers.
struct Health {
    live_workers: AtomicUsize,
    lost: Mutex<Vec<(u64, String)>>,
}

impl Health {
    fn record_lost(&self, seq: u64, reason: impl Into<String>) {
        self.lost
            .lock()
            .expect("loss log poisoned")
            .push((seq, reason.into()));
    }
}

/// Configuration for the ingestion pipeline.
#[derive(Debug, Clone, Copy)]
pub struct Ingestor {
    /// Shard-normalization worker threads.
    pub workers: usize,
    /// Capacity of each bounded channel (backpressure threshold).
    pub queue_capacity: usize,
}

impl Default for Ingestor {
    fn default() -> Self {
        Ingestor {
            workers: 2,
            queue_capacity: 8,
        }
    }
}

impl Ingestor {
    /// Starts the pipeline against `store` with no fault injection.
    pub fn spawn(self, store: Arc<HitlistStore>) -> IngestHandle {
        self.spawn_chaos(store, Arc::new(NoChaos))
    }

    /// Starts the pipeline with a chaos source consulted at every fault
    /// site (see the module docs for the site vocabulary).
    pub fn spawn_chaos(self, store: Arc<HitlistStore>, chaos: Arc<dyn Chaos>) -> IngestHandle {
        assert!(self.workers >= 1, "need at least one worker");
        let shard_bits = store.snapshot().shard_count().trailing_zeros();
        let (update_tx, update_rx) = bounded::<(u64, PublicationUpdate)>(self.queue_capacity);
        let (batch_tx, batch_rx) = bounded::<(u64, ShardBatch)>(self.queue_capacity);
        let health = Arc::new(Health {
            live_workers: AtomicUsize::new(self.workers),
            lost: Mutex::new(Vec::new()),
        });

        let workers: Vec<JoinHandle<()>> = (0..self.workers)
            .map(|_| {
                let rx = update_rx.clone();
                let tx = batch_tx.clone();
                let chaos = Arc::clone(&chaos);
                let health = Arc::clone(&health);
                let store = Arc::clone(&store);
                std::thread::spawn(move || {
                    worker_loop(rx, tx, shard_bits, chaos.as_ref(), &health, &store);
                    health.live_workers.fetch_sub(1, Ordering::AcqRel);
                })
            })
            .collect();
        // Drop the originals so the batch channel closes when the last
        // worker exits, which in turn ends the merger loop.
        drop(update_rx);
        drop(batch_tx);

        let merger = {
            let chaos = Arc::clone(&chaos);
            std::thread::spawn(move || merge_loop(store, shard_bits, batch_rx, chaos.as_ref()))
        };

        IngestHandle {
            tx: Some(update_tx),
            next_seq: AtomicU64::new(0),
            health,
            workers,
            merger: Some(merger),
        }
    }
}

/// Normalizes updates, honoring the `serve.worker.update.<seq>` fault
/// site. Returns when the intake closes or an injected panic kills the
/// worker.
fn worker_loop(
    rx: Receiver<(u64, PublicationUpdate)>,
    tx: Sender<(u64, ShardBatch)>,
    shard_bits: u32,
    chaos: &dyn Chaos,
    health: &Health,
    store: &HitlistStore,
) {
    for (seq, update) in rx.iter() {
        let site = format!("serve.worker.update.{seq}");
        let mut attempt = 0u32;
        // Consult through `Chaos::decide` (not the raw script) so every
        // injected fault shows up in the `chaos.decisions.*` counters.
        let survived = loop {
            match chaos.decide(&site, attempt) {
                Fault::None => break true,
                Fault::Stall(d) => {
                    std::thread::sleep(d);
                    break true;
                }
                Fault::Error => {
                    if attempt >= chaos.retry_budget() {
                        health.record_lost(
                            seq,
                            format!("update dropped after {} attempts", attempt + 1),
                        );
                        break false;
                    }
                    attempt += 1;
                }
                Fault::Panic => {
                    // Worker death: the in-flight update is lost and this
                    // thread exits, exactly like a real crashed worker.
                    health.record_lost(seq, "shard worker crashed mid-batch");
                    return;
                }
            }
        };
        if !survived {
            continue;
        }
        let _span = v6obs::span("serve.normalize");
        let started = Instant::now();
        let batch = normalize(update, shard_bits);
        store.metrics().record_normalize_latency(started.elapsed());
        if tx.send((seq, batch)).is_err() {
            return; // merger gone; nothing to do but exit
        }
    }
}

/// The merger outcome: stats plus shards still quarantined at the end.
struct MergeOutcome {
    stats: IngestStats,
    quarantined: Vec<u32>,
}

fn merge_loop(
    store: Arc<HitlistStore>,
    shard_bits: u32,
    batches: Receiver<(u64, ShardBatch)>,
    chaos: &dyn Chaos,
) -> MergeOutcome {
    let name = store.snapshot().name().to_string();
    let shard_count = 1usize << shard_bits;
    let mut acc: Vec<Vec<(u128, u32)>> = vec![Vec::new(); shard_count];
    let mut aliases: Vec<(Prefix, u32)> = Vec::new();
    // Quarantine state: parked runs, consult counts, permanence marks.
    let mut pending: Vec<VecDeque<Vec<(u128, u32)>>> = vec![VecDeque::new(); shard_count];
    let mut attempts: Vec<u32> = vec![0; shard_count];
    let mut poisoned: Vec<bool> = vec![false; shard_count];
    let mut stats = IngestStats::default();
    let shard_site = |i: usize| format!("serve.shard.{i}");

    let drain = |i: usize,
                 pending: &mut Vec<VecDeque<Vec<(u128, u32)>>>,
                 attempts: &mut Vec<u32>,
                 poisoned: &mut Vec<bool>,
                 acc: &mut Vec<Vec<(u128, u32)>>,
                 stats: &mut IngestStats| {
        if pending[i].is_empty() || poisoned[i] {
            return;
        }
        let site = shard_site(i);
        if chaos.fails(&site, attempts[i]) {
            attempts[i] += 1;
            if chaos.is_permanent(&site) {
                poisoned[i] = true;
            }
            return;
        }
        attempts[i] += 1;
        while let Some(run) = pending[i].pop_front() {
            stats.duplicates += merge_run(&mut acc[i], run);
        }
    };

    for (seq, batch) in batches.iter() {
        let _span = v6obs::span("serve.merge");
        let batch_started = Instant::now();
        stats.updates += 1;
        stats.raw_addresses += batch.raw_addresses;
        store.metrics().record_ingested(batch.raw_addresses);
        // Merger back-pressure site: only stalls are meaningful here.
        if let Fault::Stall(d) = chaos.decide(&format!("serve.merger.update.{seq}"), 0) {
            std::thread::sleep(d);
        }
        for (i, run) in batch.per_shard.into_iter().enumerate() {
            if !run.is_empty() {
                pending[i].push_back(run);
            }
            drain(
                i,
                &mut pending,
                &mut attempts,
                &mut poisoned,
                &mut acc,
                &mut stats,
            );
        }
        for (prefix, week) in batch.aliases {
            match aliases.iter_mut().find(|(p, _)| *p == prefix) {
                Some((_, w)) => *w = (*w).min(week),
                None => aliases.push((prefix, week)),
            }
        }
        let missing: Vec<u32> = (0..shard_count)
            .filter(|&i| !pending[i].is_empty())
            .map(|i| i as u32)
            .collect();
        let mut snapshot =
            Snapshot::from_sorted_parts(name.clone(), shard_bits, &acc, &aliases, bloom_default());
        snapshot.missing_shards = missing;
        let degraded = snapshot.is_degraded();
        stats.unique_addresses = snapshot.len();
        if store.publish(snapshot).is_ok() {
            stats.epochs_published += 1;
            stats.degraded_epochs += u64::from(degraded);
        }
        store
            .metrics()
            .record_ingest_batch_latency(batch_started.elapsed());
    }

    // Final flush: retry each quarantined shard until its transient
    // script clears (attempt counts only grow) or it proves permanent.
    let mut recovered = false;
    for i in 0..shard_count {
        while !pending[i].is_empty() && !poisoned[i] {
            let before = pending[i].len();
            drain(
                i,
                &mut pending,
                &mut attempts,
                &mut poisoned,
                &mut acc,
                &mut stats,
            );
            recovered |= pending[i].len() < before;
        }
    }
    let quarantined: Vec<u32> = (0..shard_count)
        .filter(|&i| !pending[i].is_empty())
        .map(|i| i as u32)
        .collect();
    if recovered {
        let mut snapshot =
            Snapshot::from_sorted_parts(name.clone(), shard_bits, &acc, &aliases, bloom_default());
        snapshot.missing_shards = quarantined.clone();
        let degraded = snapshot.is_degraded();
        stats.unique_addresses = snapshot.len();
        if store.publish(snapshot).is_ok() {
            stats.epochs_published += 1;
            stats.degraded_epochs += u64::from(degraded);
        }
    }
    MergeOutcome { stats, quarantined }
}

/// A running ingestion pipeline.
pub struct IngestHandle {
    tx: Option<Sender<(u64, PublicationUpdate)>>,
    next_seq: AtomicU64,
    health: Arc<Health>,
    workers: Vec<JoinHandle<()>>,
    merger: Option<JoinHandle<MergeOutcome>>,
}

impl IngestHandle {
    /// Submits one update, blocking (with periodic liveness checks)
    /// while the pipeline is backlogged.
    ///
    /// Returns an error — instead of blocking forever — when every
    /// shard worker has died or the pipeline is closed. A rejected
    /// update still belongs to the caller and is not counted as lost.
    ///
    /// # Panics
    /// Panics if called after `finish` (a use-after-close wiring bug).
    pub fn submit(&self, update: PublicationUpdate) -> Result<(), IngestError> {
        let tx = self.tx.as_ref().expect("pipeline already finished");
        let seq = self.next_seq.fetch_add(1, Ordering::Relaxed);
        let mut msg = (seq, update);
        loop {
            if self.health.live_workers.load(Ordering::Acquire) == 0 {
                return Err(IngestError::WorkersDead);
            }
            match tx.try_send(msg) {
                Ok(()) => return Ok(()),
                Err(TrySendError::Disconnected(_)) => return Err(IngestError::Closed),
                Err(TrySendError::Full(back)) => {
                    msg = back;
                    std::thread::sleep(Duration::from_micros(200));
                }
            }
        }
    }

    /// Shard workers still alive (0 after a total worker die-off, and
    /// after a normal `finish` drain).
    pub fn workers_alive(&self) -> usize {
        self.health.live_workers.load(Ordering::Acquire)
    }

    /// Closes the intake, drains in-flight updates, and returns stats.
    pub fn finish(self) -> IngestStats {
        self.finish_report().stats
    }

    /// Closes the intake, drains in-flight updates, and returns the
    /// full accounting, including lost updates and quarantined shards.
    pub fn finish_report(mut self) -> IngestReport {
        self.tx.take(); // close the update channel
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
        let outcome = self
            .merger
            .take()
            .expect("finish called twice")
            .join()
            .expect("merger thread panicked");
        let mut lost = self.health.lost.lock().expect("loss log poisoned").clone();
        lost.sort_by_key(|&(seq, _)| seq);
        let report = IngestReport {
            stats: outcome.stats,
            lost_updates: lost,
            quarantined_shards: outcome.quarantined,
        };
        // Definitive loss accounting for this run: `chaos.lost_units` is
        // bumped exactly once per lost unit, here (not per retry, so the
        // counter reconciles against `report.loss().len()`).
        v6obs::counter("chaos.lost_units").add(report.loss().len() as u64);
        report
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::Ipv6Addr;
    use v6chaos::{ScriptedChaos, SiteScript};

    fn addr(s: &str) -> Ipv6Addr {
        s.parse().unwrap()
    }

    #[test]
    fn weekly_updates_accumulate_and_dedup() {
        let store = Arc::new(HitlistStore::new("svc", 4));
        let handle = Ingestor::default().spawn(store.clone());
        handle
            .submit(PublicationUpdate::Week {
                week: 0,
                addresses: vec![addr("2001:db8:1::1"), addr("2001:db8:2::1")],
            })
            .unwrap();
        handle
            .submit(PublicationUpdate::Week {
                week: 1,
                addresses: vec![addr("2001:db8:1::1"), addr("2001:db8:3::1")],
            })
            .unwrap();
        handle
            .submit(PublicationUpdate::Aliases {
                week: 1,
                prefixes: vec!["2001:db8:3::/48".parse().unwrap()],
            })
            .unwrap();
        let stats = handle.finish();

        assert_eq!(stats.updates, 3);
        assert_eq!(stats.raw_addresses, 4);
        assert_eq!(stats.unique_addresses, 3);
        assert_eq!(stats.duplicates, 1);
        assert_eq!(stats.epochs_published, 3);
        assert_eq!(stats.degraded_epochs, 0);

        let snap = store.snapshot();
        assert_eq!(snap.epoch(), 3);
        // Re-published address keeps its first week.
        assert_eq!(snap.first_week(addr("2001:db8:1::1")), Some(0));
        assert_eq!(snap.first_week(addr("2001:db8:3::1")), Some(1));
        assert!(snap.is_aliased(addr("2001:db8:3::42")));
        assert!(snap.verify_integrity());
        assert!(!snap.is_degraded());
    }

    #[test]
    fn passive_observations_map_to_weeks() {
        let store = Arc::new(HitlistStore::new("svc", 1));
        let handle = Ingestor {
            workers: 1,
            queue_capacity: 2,
        }
        .spawn(store.clone());
        let bits = u128::from(addr("2001:db8::1"));
        handle
            .submit(PublicationUpdate::Passive {
                observations: vec![(bits, 0), (bits, 8 * 86_400)],
            })
            .unwrap();
        let stats = handle.finish();
        assert_eq!(stats.unique_addresses, 1);
        // Both observations are week 0 / week 1; earliest wins.
        assert_eq!(store.snapshot().first_week(addr("2001:db8::1")), Some(0));
    }

    #[test]
    fn merge_run_keeps_earliest_week() {
        let mut acc = vec![(1u128, 5u32), (3, 1)];
        let dup = merge_run(&mut acc, vec![(1, 2), (2, 9), (3, 4)]);
        assert_eq!(dup, 2);
        assert_eq!(acc, vec![(1, 2), (2, 9), (3, 1)]);
    }

    #[test]
    fn transient_worker_errors_retry_and_lose_nothing() {
        let store = Arc::new(HitlistStore::new("svc", 2));
        let chaos = ScriptedChaos::new()
            .with("serve.worker.update.0", SiteScript::transient(2))
            .with("serve.worker.update.1", SiteScript::transient(1));
        let handle = Ingestor {
            workers: 1,
            queue_capacity: 4,
        }
        .spawn_chaos(store.clone(), Arc::new(chaos));
        for week in 0..3u64 {
            handle
                .submit(PublicationUpdate::Week {
                    week,
                    addresses: vec![addr(&format!("2001:db8:{week}::1"))],
                })
                .unwrap();
        }
        let report = handle.finish_report();
        assert!(report.is_complete(), "{:?}", report);
        assert!(report.loss().is_empty());
        assert_eq!(report.stats.updates, 3);
        assert_eq!(store.snapshot().len(), 3);
    }

    #[test]
    fn submit_errors_when_all_workers_die() {
        let store = Arc::new(HitlistStore::new("svc", 2));
        let chaos =
            ScriptedChaos::new().with("serve.worker.update.0", SiteScript::permanent_panic());
        let handle = Ingestor {
            workers: 1,
            queue_capacity: 1,
        }
        .spawn_chaos(store.clone(), Arc::new(chaos));
        handle
            .submit(PublicationUpdate::Week {
                week: 0,
                addresses: vec![addr("2001:db8::1")],
            })
            .unwrap();
        // The sole worker dies on update 0; without the liveness check
        // this next submit would block forever once the queue filled.
        while handle.workers_alive() > 0 {
            std::thread::sleep(Duration::from_millis(1));
        }
        let mut refused = false;
        for week in 1..4u64 {
            if handle
                .submit(PublicationUpdate::Week {
                    week,
                    addresses: vec![addr("2001:db8::2")],
                })
                .is_err()
            {
                refused = true;
                break;
            }
        }
        assert!(refused, "dead pipeline kept accepting updates");
        let report = handle.finish_report();
        assert_eq!(report.lost_updates.len(), 1);
        assert_eq!(report.lost_updates[0].0, 0);
        assert!(report.loss().contains("serve.worker.update.0"));
    }
}
