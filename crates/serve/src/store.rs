//! Epoch-swapped snapshot publication.
//!
//! The store holds the current [`Snapshot`] behind `RwLock<Arc<Snapshot>>`.
//! Readers take the read lock just long enough to clone the `Arc` — a
//! few nanoseconds — and then query their snapshot without any lock at
//! all. Publishing validates the new snapshot *outside* the lock, then
//! takes the write lock only to compare epochs and swap one pointer, so
//! a publication never blocks readers for longer than that swap.
//!
//! The alternative — a mutex around a mutable store — would stall every
//! reader for the full duration of a weekly merge (millions of
//! addresses); the ablation in DESIGN.md quantifies the difference.
//!
//! # Durability
//!
//! A store opened with [`HitlistStore::persistent`] additionally writes
//! each epoch through a [`v6store::EpochLog`] *before* the pointer swap
//! (write-ahead: durable-before-visible), and can be rebuilt from its
//! directory with [`HitlistStore::recover`]. A store built with
//! [`HitlistStore::new`] keeps the previous in-memory-only behavior.

use std::io;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use parking_lot::{Mutex, RwLock};
use v6chaos::{Chaos, NoChaos};
use v6store::{EpochLog, EpochView, RecoverError, RecoveryReport, StoreConfig};

use crate::metrics::ServeMetrics;
use crate::persist::{flatten_snapshot, snapshot_from_state};
use crate::snapshot::Snapshot;

/// Why a publication was rejected.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PublishError {
    /// The snapshot failed [`Snapshot::verify_integrity`].
    IntegrityFailure,
    /// The snapshot's shard count differs from the store's.
    ShardMismatch {
        /// Shards the store serves.
        expected: usize,
        /// Shards the snapshot has.
        got: usize,
    },
    /// The write-ahead log append failed: the epoch is *not* durable and
    /// was not made visible to readers. The store stays on its previous
    /// epoch and remains usable; the failed epoch number is burned.
    Persistence(String),
}

impl std::fmt::Display for PublishError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PublishError::IntegrityFailure => write!(f, "snapshot failed integrity verification"),
            PublishError::ShardMismatch { expected, got } => {
                write!(f, "snapshot has {got} shards, store serves {expected}")
            }
            PublishError::Persistence(e) => write!(f, "write-ahead log append failed: {e}"),
        }
    }
}

impl std::error::Error for PublishError {}

/// What a successful publication did and what it cost.
#[derive(Debug, Clone, Copy)]
pub struct PublishReceipt {
    /// The epoch assigned to the published snapshot.
    pub epoch: u64,
    /// Addresses in the published snapshot.
    pub addresses: u64,
    /// Time spent validating outside the lock.
    pub validate: Duration,
    /// Time the write lock was actually held (the pointer swap).
    pub swap: Duration,
    /// Time spent making the epoch durable (zero for in-memory stores).
    pub persist: Duration,
}

/// The concurrently readable hitlist store.
#[derive(Debug)]
pub struct HitlistStore {
    current: RwLock<Arc<Snapshot>>,
    next_epoch: AtomicU64,
    shard_count: usize,
    metrics: Arc<ServeMetrics>,
    /// Write-ahead epoch log; `None` for in-memory stores. The mutex
    /// covers epoch allocation + append so the on-disk epoch sequence
    /// is strictly monotonic even with concurrent publishers.
    log: Option<Mutex<EpochLog>>,
}

impl HitlistStore {
    /// An empty in-memory store serving `shard_count` (power of two)
    /// shards. State does not survive a restart; see
    /// [`HitlistStore::persistent`].
    pub fn new(name: impl Into<String>, shard_count: usize) -> Self {
        HitlistStore {
            current: RwLock::new(Arc::new(Snapshot::empty(name, shard_count))),
            next_epoch: AtomicU64::new(1),
            shard_count,
            metrics: Arc::new(ServeMetrics::default()),
            log: None,
        }
    }

    /// An empty *durable* store: every published epoch is appended and
    /// fsynced to the write-ahead log in `cfg.dir` before it becomes
    /// visible, and [`HitlistStore::recover`] can rebuild the store
    /// from that directory after a crash. Any previous store files in
    /// the directory are wiped.
    pub fn persistent(
        name: impl Into<String>,
        shard_count: usize,
        cfg: StoreConfig,
    ) -> io::Result<Self> {
        Self::persistent_with(name, shard_count, cfg, Arc::new(NoChaos))
    }

    /// [`HitlistStore::persistent`] with fault injection on the write
    /// path (`store.append.*`, `store.bitrot.*`, `store.checkpoint.*`).
    pub fn persistent_with(
        name: impl Into<String>,
        shard_count: usize,
        cfg: StoreConfig,
        chaos: Arc<dyn Chaos>,
    ) -> io::Result<Self> {
        let name = name.into();
        assert!(
            shard_count.is_power_of_two(),
            "shard count must be a power of two, got {shard_count}"
        );
        let metrics = Arc::new(ServeMetrics::default());
        let log = EpochLog::create_with(
            cfg,
            &name,
            shard_count.trailing_zeros(),
            metrics.registry(),
            chaos,
        )?;
        Ok(HitlistStore {
            current: RwLock::new(Arc::new(Snapshot::empty(name, shard_count))),
            next_epoch: AtomicU64::new(1),
            shard_count,
            metrics,
            log: Some(Mutex::new(log)),
        })
    }

    /// Rebuilds a durable store from its directory: loads the newest
    /// parseable checkpoint, replays the log tail (truncating a torn
    /// tail, quarantining bit-rotted frames), verifies the rebuilt
    /// content checksum against the one recorded at publish time, and
    /// reopens the log for further publication.
    pub fn recover(cfg: StoreConfig) -> Result<(Self, RecoveryReport), RecoverError> {
        Self::recover_with(cfg, Arc::new(NoChaos))
    }

    /// [`HitlistStore::recover`] with fault injection on the reopened
    /// write path.
    pub fn recover_with(
        cfg: StoreConfig,
        chaos: Arc<dyn Chaos>,
    ) -> Result<(Self, RecoveryReport), RecoverError> {
        let metrics = Arc::new(ServeMetrics::default());
        let rec = v6store::recover_with(&cfg.dir, None, metrics.registry())?;
        let snapshot = snapshot_from_state(&rec.state);
        if snapshot.content_checksum() != rec.state.content_checksum {
            return Err(RecoverError::Io(io::Error::other(format!(
                "recovered epoch {} rebuilds to checksum {:#x}, log recorded {:#x}",
                rec.state.epoch,
                snapshot.content_checksum(),
                rec.state.content_checksum
            ))));
        }
        let shard_count = 1usize << rec.state.shard_bits;
        let next = rec.state.epoch + 1;
        let log = EpochLog::resume(cfg, rec.state, &rec.report, metrics.registry(), chaos)
            .map_err(RecoverError::Io)?;
        Ok((
            HitlistStore {
                current: RwLock::new(Arc::new(snapshot)),
                next_epoch: AtomicU64::new(next),
                shard_count,
                metrics,
                log: Some(Mutex::new(log)),
            },
            rec.report,
        ))
    }

    /// True when this store writes epochs through a write-ahead log.
    pub fn is_persistent(&self) -> bool {
        self.log.is_some()
    }

    /// The shared metrics counters.
    pub fn metrics(&self) -> &Arc<ServeMetrics> {
        &self.metrics
    }

    /// The current snapshot. Readers hold no lock after this returns.
    pub fn snapshot(&self) -> Arc<Snapshot> {
        self.current.read().clone()
    }

    /// The current publication epoch (0 until the first publish).
    pub fn epoch(&self) -> u64 {
        self.snapshot().epoch()
    }

    /// Validates and publishes a snapshot, assigning it the next epoch.
    ///
    /// Integrity verification runs before taking any lock; the write lock
    /// is held only for an epoch comparison and an `Arc` swap. Concurrent
    /// publishers are safe: epochs are allocated atomically and a stale
    /// publisher can never roll back a newer epoch.
    ///
    /// On a persistent store the epoch is appended and fsynced to the
    /// write-ahead log *before* the swap. A failed append returns
    /// [`PublishError::Persistence`] and leaves the store serving its
    /// previous epoch — readers can never observe an epoch that would
    /// not survive a crash.
    pub fn publish(&self, snapshot: Snapshot) -> Result<PublishReceipt, PublishError> {
        self.publish_impl(snapshot, None)
    }

    /// [`HitlistStore::publish`] under a caller-chosen epoch number,
    /// for replicas that must stay on an externally coordinated epoch
    /// sequence (a cluster assigns epochs globally; a node that was
    /// down for epochs 5–7 publishes epoch 8 next, and its write-ahead
    /// log records the same gap every peer's does).
    ///
    /// The epoch must exceed everything this store has published —
    /// gaps are fine, rollback is not. On a persistent store a
    /// non-monotonic epoch fails the write-ahead append and returns
    /// [`PublishError::Persistence`]; on an in-memory store the swap is
    /// skipped and readers keep the newer epoch.
    pub fn publish_as(
        &self,
        snapshot: Snapshot,
        epoch: u64,
    ) -> Result<PublishReceipt, PublishError> {
        self.publish_impl(snapshot, Some(epoch))
    }

    fn publish_impl(
        &self,
        mut snapshot: Snapshot,
        explicit: Option<u64>,
    ) -> Result<PublishReceipt, PublishError> {
        if snapshot.shard_count() != self.shard_count {
            return Err(PublishError::ShardMismatch {
                expected: self.shard_count,
                got: snapshot.shard_count(),
            });
        }
        let t0 = Instant::now();
        if !snapshot.verify_integrity() {
            return Err(PublishError::IntegrityFailure);
        }
        let validate = t0.elapsed();

        // An explicit epoch reserves itself in the allocator so later
        // auto-assigned epochs continue past it; auto allocation keeps
        // the fetch_add fast path.
        let allocate = |explicit: Option<u64>| match explicit {
            None => self.next_epoch.fetch_add(1, Ordering::Relaxed),
            Some(e) => {
                self.next_epoch.fetch_max(e + 1, Ordering::Relaxed);
                e
            }
        };

        let mut persist = Duration::ZERO;
        let epoch = match &self.log {
            None => allocate(explicit),
            Some(log) => {
                // Epoch allocation and append happen under the log mutex
                // so the on-disk sequence is strictly monotonic.
                let tp = Instant::now();
                let mut log = log.lock();
                let epoch = allocate(explicit);
                let (entries, aliases) = flatten_snapshot(&snapshot);
                log.append(EpochView {
                    epoch,
                    week: snapshot.week(),
                    content_checksum: snapshot.content_checksum(),
                    missing_shards: snapshot.missing_shards(),
                    entries: &entries,
                    aliases: &aliases,
                })
                .map_err(|e| PublishError::Persistence(e.to_string()))?;
                persist = tp.elapsed();
                epoch
            }
        };
        snapshot.epoch = epoch;
        let addresses = snapshot.len();
        let degraded = snapshot.is_degraded();
        let arc = Arc::new(snapshot);

        let t1 = Instant::now();
        {
            let mut current = self.current.write();
            if current.epoch() < epoch {
                *current = arc;
            }
        }
        let swap = t1.elapsed();
        self.metrics.record_publish();
        {
            // Export the published epoch's memory footprint: raw is what
            // the old Vec<u128>+Vec<u32> columns would cost, compressed
            // is what the tiered representation actually holds.
            let current = self.current.read();
            self.metrics
                .set_store_bytes(current.raw_bytes(), current.stored_bytes());
        }
        if degraded {
            self.metrics.record_degraded_publish();
        }
        self.metrics.record_publish_stages(validate, persist, swap);
        Ok(PublishReceipt {
            epoch,
            addresses,
            validate,
            swap,
            persist,
        })
    }
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
    fn publish_swaps_epochs() {
        let store = HitlistStore::new("svc", 4);
        assert_eq!(store.epoch(), 0);
        assert!(store.snapshot().is_empty());

        let mut b = SnapshotBuilder::new("svc", 4);
        b.add_address(addr("2001:db8::1"), 0);
        let receipt = store.publish(b.build()).unwrap();
        assert_eq!(receipt.epoch, 1);
        assert_eq!(receipt.addresses, 1);
        assert_eq!(store.epoch(), 1);
        assert!(store.snapshot().contains(addr("2001:db8::1")));
        assert_eq!(store.metrics().publishes(), 1);
        // The receipt's stage times also land in the store registry.
        let text = store.metrics().render_text();
        for stage in ["validate", "persist", "swap"] {
            assert!(text.contains(&format!("serve.publish.{stage}_latency_count 1\n")));
        }
    }

    #[test]
    fn old_readers_keep_their_snapshot() {
        let store = HitlistStore::new("svc", 1);
        let mut b = SnapshotBuilder::new("svc", 1);
        b.add_address(addr("2001:db8::1"), 0);
        store.publish(b.build()).unwrap();

        let held = store.snapshot();
        let mut b = SnapshotBuilder::new("svc", 1);
        b.add_address(addr("2001:db8::2"), 1);
        store.publish(b.build()).unwrap();

        // The old epoch stays fully usable after the swap.
        assert_eq!(held.epoch(), 1);
        assert!(held.contains(addr("2001:db8::1")));
        assert!(!held.contains(addr("2001:db8::2")));
        assert!(store.snapshot().contains(addr("2001:db8::2")));
    }

    #[test]
    fn publish_as_keeps_an_external_epoch_sequence() {
        let store = HitlistStore::new("svc", 2);
        let mut b = SnapshotBuilder::new("svc", 2);
        b.add_address(addr("2001:db8::1"), 0);
        let receipt = store.publish_as(b.build(), 5).unwrap();
        assert_eq!(receipt.epoch, 5);
        assert_eq!(store.epoch(), 5);

        // Auto allocation continues past the reserved epoch.
        let mut b = SnapshotBuilder::new("svc", 2);
        b.add_address(addr("2001:db8::2"), 1);
        assert_eq!(store.publish(b.build()).unwrap().epoch, 6);

        // A stale explicit epoch can never roll visible state back.
        let mut b = SnapshotBuilder::new("svc", 2);
        b.add_address(addr("2001:db8::3"), 2);
        store.publish_as(b.build(), 3).unwrap();
        assert_eq!(store.epoch(), 6);
        assert!(!store.snapshot().contains(addr("2001:db8::3")));
    }

    #[test]
    fn rejects_wrong_shard_count_and_corruption() {
        let store = HitlistStore::new("svc", 4);
        let b = SnapshotBuilder::new("svc", 2);
        assert!(matches!(
            store.publish(b.build()),
            Err(PublishError::ShardMismatch {
                expected: 4,
                got: 2
            })
        ));

        let mut b = SnapshotBuilder::new("svc", 4);
        b.add_address(addr("2001:db8::1"), 0);
        let mut snap = b.build();
        snap.total += 1; // corrupt
        assert!(matches!(
            store.publish(snap),
            Err(PublishError::IntegrityFailure)
        ));
    }
}
