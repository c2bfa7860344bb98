//! One simulated cluster node: its partition replicas, the
//! replication state machine, and the serving half of the read path.
//!
//! A node owns one [`v6serve::HitlistStore`] (backed by a `v6store`
//! epoch log on disk) per partition it replicates, plus an in-memory
//! **mirror** — the full [`EpochState`] its store currently serves —
//! and a short history of the [`DeltaRecord`]s that built it. The
//! mirror is what deltas diff against and apply to; the history is
//! what catch-up replays to a lagging peer.
//!
//! The state machine (DESIGN.md §14 has the timeline diagrams):
//!
//! * **Leading** ([`Node::lead_publish`]): build the next epoch, make
//!   it durable locally (`publish_as`, write-ahead under the
//!   cluster-assigned epoch number), then push the delta to the
//!   followers. Durability strictly precedes the push, so a leader
//!   crash can lose an epoch but never advertise one it doesn't hold.
//! * **Following** (`DeltaPush`): a delta that extends the mirror
//!   exactly (`prev_epoch` matches) is verified — the rebuilt
//!   snapshot's content checksum must equal the one the delta
//!   carries — published durably, then acked. A stale delta is
//!   dropped; a gapped one triggers a `CatchUpReq`.
//! * **Catching up** (`CatchUpReq`/`CatchUpResp`): the peer replays
//!   its retained delta chain when it still reaches back to the
//!   requester's epoch, and otherwise bootstraps with its full
//!   mirror. A node that just restarted has an empty history, so its
//!   first catch-up always serves the bootstrap path.
//! * **Serving reads** (`Read`): answer from the local snapshot with
//!   the epoch and the shard-quarantine bit, so the coordinator can
//!   label anything that isn't provably fresh.
//!
//! Every message leaves as exactly one [`v6wire::frame`] frame in one
//! transport chunk. The fabric ([`crate::net`]) loses whole chunks,
//! never bytes, so a loss costs a message — the [`FrameDecoder`] on
//! the receiving side stays frame-aligned and catch-up heals the gap.

use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::io;
use std::net::Ipv6Addr;
use std::path::PathBuf;
use std::sync::Arc;

use v6obs::{Counter, MetricsSnapshot, Registry};
use v6serve::persist::{flatten_snapshot, snapshot_from_state};
use v6serve::{query, HitlistStore, PublishError, RecoverError, Snapshot, StoreConfig};
use v6store::format::AliasEntry;
use v6store::replica::{self, DeltaRecord};
use v6store::{EpochState, EpochView};
use v6stream::{Offer, SharedResolver, StreamDriver};
use v6wire::frame::{frame, FrameDecoder};
use v6wire::transport::Transport;

use crate::net::Link;
use crate::proto::ReplMsg;
use crate::ring::partition_of;

/// The store name every replica of partition `pid` publishes under.
///
/// Node-independent on purpose: two replicas of one partition hold
/// byte-identical epoch states, names included, so their content
/// checksums are directly comparable.
pub fn partition_name(pid: u32) -> String {
    format!("p{pid}")
}

/// Construction knobs shared by [`Node::create`] and [`Node::restart`].
#[derive(Debug, Clone)]
pub struct NodeOpts {
    /// Scratch root; partition `p` of node `n` persists under
    /// `<data_root>/<n>/p<p>`.
    pub data_root: PathBuf,
    /// Shards per partition store (power of two).
    pub shard_count: usize,
    /// Total partitions in the cluster — read routing needs it to map
    /// a probed address to the partition it serves.
    pub partitions: u32,
    /// Delta records each replica retains for catch-up replay; a
    /// requester further behind than this gets a full-state bootstrap.
    pub history_cap: usize,
}

impl NodeOpts {
    fn store_cfg(&self, node: &str, pid: u32) -> StoreConfig {
        let dir = self.data_root.join(node).join(partition_name(pid));
        // fsync off: the simulation's durability story is exercised by
        // the injected crash/recover cycle, not by surviving real
        // power loss mid-test.
        StoreConfig::new(dir).with_fsync(false)
    }
}

/// One partition's replica on this node: the durable store, the
/// in-memory mirror the replication protocol diffs against, and the
/// retained delta chain.
struct PartitionReplica {
    store: HitlistStore,
    mirror: EpochState,
    /// `(prev_epoch, delta)` pairs, contiguous by construction —
    /// each delta was applied when the mirror sat at its `prev_epoch`.
    history: VecDeque<(u64, DeltaRecord)>,
    /// Incremental streaming analytics riding the replication stream,
    /// when [`Node::enable_streaming`] turned them on. Every verified
    /// delta is fed through; a detected gap resyncs from the mirror
    /// (the node holds the full corpus locally, so reconciliation
    /// never goes over the wire).
    stream: Option<StreamDriver>,
}

impl PartitionReplica {
    /// Applies a delta that extends the mirror exactly: verify the
    /// rebuilt snapshot's checksum, publish durably, then adopt.
    /// Returns the `(epoch, checksum)` reached, or `None` when the
    /// delta was rejected (counted by the caller).
    fn apply_verified(
        &mut self,
        prev_epoch: u64,
        delta: DeltaRecord,
        history_cap: usize,
    ) -> Option<(u64, u64)> {
        debug_assert_eq!(prev_epoch, self.mirror.epoch);
        let mut next = self.mirror.clone();
        replica::apply(&mut next, &delta);
        let snap = snapshot_from_state(&next);
        if snap.content_checksum() != next.content_checksum {
            return None;
        }
        self.store.publish_as(snap, delta.epoch).ok()?;
        let reached = (next.epoch, next.content_checksum);
        self.mirror = next;
        self.stream_feed(&delta);
        self.history.push_back((prev_epoch, delta));
        while self.history.len() > history_cap {
            self.history.pop_front();
        }
        Some(reached)
    }

    /// Feeds one verified delta to the streaming operators; a detected
    /// gap (or a driver already lagging) heals by resyncing from the
    /// mirror this node just adopted.
    fn stream_feed(&mut self, delta: &DeltaRecord) {
        let Some(driver) = self.stream.as_mut() else {
            return;
        };
        match driver.feed(delta) {
            Offer::Gap | Offer::Lagging => self.stream_resync(),
            Offer::Applied(_) | Offer::Duplicate | Offer::Dropped => {}
        }
    }

    /// Rebuilds the streaming operators from the mirror — the local,
    /// no-wire reconciliation path (bootstrap adoption, replay gaps).
    fn stream_resync(&mut self) {
        if let Some(driver) = self.stream.as_mut() {
            driver.resync(self.mirror.epoch, self.mirror.week, &self.mirror.entries);
        }
    }
}

/// Per-node replication/read counters (registered in the node's own
/// [`Registry`]; the cluster merges them under a `<node>.` prefix).
struct NodeCounters {
    deltas_pushed: Counter,
    deltas_applied: Counter,
    dup_pushes: Counter,
    gap_pushes: Counter,
    acks: Counter,
    catchup_reqs: Counter,
    catchup_chains: Counter,
    catchup_bootstraps: Counter,
    catchup_applied: Counter,
    reads_served: Counter,
    rejected: Counter,
    bad_frames: Counter,
    bad_payloads: Counter,
}

impl NodeCounters {
    fn new(registry: &Registry) -> NodeCounters {
        NodeCounters {
            deltas_pushed: registry.counter("cluster.repl.deltas_pushed"),
            deltas_applied: registry.counter("cluster.repl.deltas_applied"),
            dup_pushes: registry.counter("cluster.repl.dup_pushes"),
            gap_pushes: registry.counter("cluster.repl.gap_pushes"),
            acks: registry.counter("cluster.repl.acks"),
            catchup_reqs: registry.counter("cluster.repl.catchup_reqs"),
            catchup_chains: registry.counter("cluster.repl.catchup_chains"),
            catchup_bootstraps: registry.counter("cluster.repl.catchup_bootstraps"),
            catchup_applied: registry.counter("cluster.repl.catchup_applied"),
            reads_served: registry.counter("cluster.read.served"),
            rejected: registry.counter("cluster.repl.rejected"),
            bad_frames: registry.counter("cluster.repl.bad_frames"),
            bad_payloads: registry.counter("cluster.repl.bad_payloads"),
        }
    }
}

struct Peer {
    link: Link,
    decoder: FrameDecoder,
}

/// One simulated node: named, with its own metrics registry, hosting
/// a set of partition replicas and talking to peers over fabric links.
pub struct Node {
    name: String,
    opts: NodeOpts,
    registry: Registry,
    counters: NodeCounters,
    replicas: BTreeMap<u32, PartitionReplica>,
    peers: BTreeMap<String, Peer>,
    /// Ack evidence: `(partition, epoch)` → nodes that durably hold it.
    acks: BTreeMap<(u32, u64), BTreeSet<String>>,
}

impl Node {
    /// Creates a fresh node hosting `pids`, wiping any previous store
    /// state under its data directories.
    pub fn create(name: impl Into<String>, pids: &[u32], opts: NodeOpts) -> io::Result<Node> {
        let name = name.into();
        let registry = Registry::new();
        let counters = NodeCounters::new(&registry);
        let mut replicas = BTreeMap::new();
        for &pid in pids {
            let store = HitlistStore::persistent(
                partition_name(pid),
                opts.shard_count,
                opts.store_cfg(&name, pid),
            )?;
            replicas.insert(
                pid,
                PartitionReplica {
                    store,
                    mirror: empty_mirror(pid, opts.shard_count),
                    history: VecDeque::new(),
                    stream: None,
                },
            );
        }
        Ok(Node {
            name,
            opts,
            registry,
            counters,
            replicas,
            peers: BTreeMap::new(),
            acks: BTreeMap::new(),
        })
    }

    /// Restarts a node after a crash: every partition store goes
    /// through [`HitlistStore::recover`] and the mirror is rebuilt by
    /// flattening the recovered snapshot. The delta history does not
    /// survive (it was process memory), so this node's first catch-up
    /// request is answered with a full-state bootstrap — exactly the
    /// degraded-history path the protocol is designed around.
    pub fn restart(
        name: impl Into<String>,
        pids: &[u32],
        opts: NodeOpts,
    ) -> Result<Node, RecoverError> {
        let name = name.into();
        let registry = Registry::new();
        let counters = NodeCounters::new(&registry);
        let mut replicas = BTreeMap::new();
        for &pid in pids {
            let (store, _report) = HitlistStore::recover(opts.store_cfg(&name, pid))?;
            let snap = store.snapshot();
            let (entries, aliases) = flatten_snapshot(&snap);
            let mirror = EpochState {
                name: partition_name(pid),
                shard_bits: shard_bits(opts.shard_count),
                epoch: snap.epoch(),
                week: snap.week(),
                content_checksum: snap.content_checksum(),
                missing_shards: snap.missing_shards().to_vec(),
                entries,
                aliases,
            };
            replicas.insert(
                pid,
                PartitionReplica {
                    store,
                    mirror,
                    history: VecDeque::new(),
                    stream: None,
                },
            );
        }
        Ok(Node {
            name,
            opts,
            registry,
            counters,
            replicas,
            peers: BTreeMap::new(),
            acks: BTreeMap::new(),
        })
    }

    /// This node's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Attaches (or replaces) the fabric link toward `peer`.
    pub fn connect(&mut self, peer: impl Into<String>, link: Link) {
        self.peers.insert(
            peer.into(),
            Peer {
                link,
                decoder: FrameDecoder::new(),
            },
        );
    }

    /// True when this node replicates partition `pid`.
    pub fn hosts(&self, pid: u32) -> bool {
        self.replicas.contains_key(&pid)
    }

    /// Turns on incremental streaming analytics for every hosted
    /// partition, bootstrapped from the current mirrors. From here on
    /// each verified replicated delta updates the operators in O(Δ);
    /// replay gaps heal by a local mirror resync. Idempotent per call
    /// (re-enabling resyncs from scratch).
    pub fn enable_streaming(&mut self, resolver: SharedResolver) {
        for replica in self.replicas.values_mut() {
            let mut driver = StreamDriver::new(Arc::clone(&resolver));
            driver.resync(
                replica.mirror.epoch,
                replica.mirror.week,
                &replica.mirror.entries,
            );
            replica.stream = Some(driver);
        }
    }

    /// The epoch the streaming operators of `pid` reflect, when
    /// streaming is enabled there.
    pub fn stream_epoch(&self, pid: u32) -> Option<u64> {
        Some(self.replicas.get(&pid)?.stream.as_ref()?.epoch())
    }

    /// `(operator name, checksum)` for `pid`'s streaming operators —
    /// the cross-replica convergence witness: equal corpus, equal
    /// checksums, regardless of the delta/gap/bootstrap path each
    /// replica took.
    pub fn stream_checksums(&self, pid: u32) -> Option<[(&'static str, u64); 4]> {
        Some(
            self.replicas
                .get(&pid)?
                .stream
                .as_ref()?
                .analytics()
                .checksums(),
        )
    }

    /// The streaming corpus checksum of `pid` (comparable against
    /// [`Node::epoch_checksum`]).
    pub fn stream_content_checksum(&self, pid: u32) -> Option<u64> {
        Some(self.replicas.get(&pid)?.stream.as_ref()?.content_checksum())
    }

    /// The `(epoch, content_checksum)` this node's store currently
    /// serves for `pid`, when hosted.
    pub fn epoch_checksum(&self, pid: u32) -> Option<(u64, u64)> {
        let r = self.replicas.get(&pid)?;
        let snap = r.store.snapshot();
        Some((snap.epoch(), snap.content_checksum()))
    }

    /// The serving snapshot for `pid`, when hosted.
    pub fn snapshot(&self, pid: u32) -> Option<Arc<Snapshot>> {
        self.replicas.get(&pid).map(|r| r.store.snapshot())
    }

    /// Nodes known (via self-publish or [`ReplMsg::DeltaAck`]) to
    /// durably hold `(pid, epoch)`.
    pub fn ack_count(&self, pid: u32, epoch: u64) -> usize {
        self.acks.get(&(pid, epoch)).map_or(0, BTreeSet::len)
    }

    /// This node's metrics.
    pub fn metrics(&self) -> MetricsSnapshot {
        self.registry.snapshot()
    }

    /// Publishes the next epoch of `pid` as its leader.
    ///
    /// `entries` must be sorted ascending by bits and deduplicated;
    /// `aliases` sorted by `(bits, len)` — the cluster driver
    /// guarantees both. The epoch is made durable locally first, then
    /// the delta is pushed to `followers`. Returns the content
    /// checksum of the published epoch.
    #[allow(clippy::too_many_arguments)] // the full epoch description
    pub fn lead_publish(
        &mut self,
        pid: u32,
        epoch: u64,
        week: u64,
        entries: Vec<(u128, u32)>,
        aliases: Vec<AliasEntry>,
        followers: &[String],
        now_us: u64,
    ) -> Result<u64, PublishError> {
        let (msg, checksum) = {
            let replica = self
                .replicas
                .get_mut(&pid)
                .expect("leader must host the partition it publishes");
            let prev_epoch = replica.mirror.epoch;
            let mut next = EpochState {
                name: replica.mirror.name.clone(),
                shard_bits: replica.mirror.shard_bits,
                epoch,
                week,
                content_checksum: 0,
                missing_shards: Vec::new(),
                entries,
                aliases,
            };
            let snap = snapshot_from_state(&next);
            next.content_checksum = snap.content_checksum();
            let delta = replica::delta_between(
                &replica.mirror,
                &EpochView {
                    epoch,
                    week,
                    content_checksum: next.content_checksum,
                    missing_shards: &next.missing_shards,
                    entries: &next.entries,
                    aliases: &next.aliases,
                },
            );
            // Durable before visible, visible before pushed: a crash
            // here loses an epoch, never advertises a phantom one.
            replica.store.publish_as(snap, epoch)?;
            let checksum = next.content_checksum;
            replica.mirror = next;
            replica.stream_feed(&delta);
            replica.history.push_back((prev_epoch, delta.clone()));
            while replica.history.len() > self.opts.history_cap {
                replica.history.pop_front();
            }
            (
                ReplMsg::DeltaPush {
                    partition: pid,
                    prev_epoch,
                    delta,
                },
                checksum,
            )
        };
        self.acks
            .entry((pid, epoch))
            .or_default()
            .insert(self.name.clone());
        for follower in followers {
            self.counters.deltas_pushed.inc();
            self.send(follower, &msg, now_us);
        }
        Ok(checksum)
    }

    /// Asks `peer` for everything after this node's current epoch of
    /// `pid` — the anti-entropy probe the cluster driver fires while
    /// converging.
    pub fn request_catchup(&mut self, pid: u32, peer: &str, now_us: u64) {
        let Some(replica) = self.replicas.get(&pid) else {
            return;
        };
        let have_epoch = replica.mirror.epoch;
        self.counters.catchup_reqs.inc();
        self.send(
            peer,
            &ReplMsg::CatchUpReq {
                partition: pid,
                have_epoch,
            },
            now_us,
        );
    }

    /// Drains every peer link once and handles each decoded message.
    /// The caller-driven clock makes one `pump` per node per round.
    pub fn pump(&mut self, now_us: u64) {
        let peers: Vec<String> = self.peers.keys().cloned().collect();
        for peer in peers {
            for msg in self.drain(&peer, now_us) {
                self.handle(&peer, msg, now_us);
            }
        }
    }

    fn drain(&mut self, peer: &str, now_us: u64) -> Vec<ReplMsg> {
        let Some(p) = self.peers.get_mut(peer) else {
            return Vec::new();
        };
        let Ok(bytes) = p.link.recv(now_us) else {
            // This node is crashed; the driver reaps it shortly.
            return Vec::new();
        };
        let payloads = match p.decoder.feed(&bytes) {
            Ok(payloads) => payloads,
            Err(_) => {
                // Unreachable on this fabric (chunks are lost whole,
                // never corrupted), but a poisoned decoder must reset
                // or the peer is deaf forever.
                self.counters.bad_frames.inc();
                p.decoder = FrameDecoder::new();
                return Vec::new();
            }
        };
        let mut out = Vec::with_capacity(payloads.len());
        for payload in payloads {
            match ReplMsg::decode(&payload) {
                Some(msg) => out.push(msg),
                None => self.counters.bad_payloads.inc(),
            }
        }
        out
    }

    fn handle(&mut self, peer: &str, msg: ReplMsg, now_us: u64) {
        match msg {
            ReplMsg::DeltaPush {
                partition,
                prev_epoch,
                delta,
            } => self.on_delta_push(peer, partition, prev_epoch, delta, now_us),
            ReplMsg::DeltaAck {
                partition,
                epoch,
                checksum: _,
            } => {
                self.counters.acks.inc();
                self.acks
                    .entry((partition, epoch))
                    .or_default()
                    .insert(peer.to_string());
            }
            ReplMsg::CatchUpReq {
                partition,
                have_epoch,
            } => self.on_catchup_req(peer, partition, have_epoch, now_us),
            ReplMsg::CatchUpResp {
                partition,
                base,
                deltas,
            } => self.on_catchup_resp(peer, partition, base, deltas, now_us),
            ReplMsg::Read { req_id, bits } => self.on_read(peer, req_id, bits, now_us),
            // Nodes never originate reads; only the coordinator
            // (outside any node) consumes responses.
            ReplMsg::ReadResp { .. } => {}
        }
    }

    fn on_delta_push(
        &mut self,
        peer: &str,
        pid: u32,
        prev_epoch: u64,
        delta: DeltaRecord,
        now_us: u64,
    ) {
        let Some(replica) = self.replicas.get_mut(&pid) else {
            return;
        };
        if delta.epoch <= replica.mirror.epoch {
            self.counters.dup_pushes.inc();
            return;
        }
        if prev_epoch != replica.mirror.epoch {
            // A gap: we missed at least one push. Ask the sender for
            // the chain instead of applying out of order.
            self.counters.gap_pushes.inc();
            self.request_catchup(pid, peer, now_us);
            return;
        }
        match replica.apply_verified(prev_epoch, delta, self.opts.history_cap) {
            Some((epoch, checksum)) => {
                self.counters.deltas_applied.inc();
                self.acks
                    .entry((pid, epoch))
                    .or_default()
                    .insert(self.name.clone());
                self.send(
                    peer,
                    &ReplMsg::DeltaAck {
                        partition: pid,
                        epoch,
                        checksum,
                    },
                    now_us,
                );
            }
            None => self.counters.rejected.inc(),
        }
    }

    fn on_catchup_req(&mut self, peer: &str, pid: u32, have_epoch: u64, now_us: u64) {
        let Some(replica) = self.replicas.get(&pid) else {
            return;
        };
        if replica.mirror.epoch <= have_epoch {
            // Nothing to offer; the requester is at or ahead of us.
            return;
        }
        // The history is contiguous, so a chain exists iff some
        // retained delta starts exactly at the requester's epoch.
        let resp = match replica
            .history
            .iter()
            .position(|&(prev, _)| prev == have_epoch)
        {
            Some(i) => {
                self.counters.catchup_chains.inc();
                ReplMsg::CatchUpResp {
                    partition: pid,
                    base: None,
                    deltas: replica.history.iter().skip(i).cloned().collect(),
                }
            }
            None => {
                self.counters.catchup_bootstraps.inc();
                ReplMsg::CatchUpResp {
                    partition: pid,
                    base: Some(replica.mirror.clone()),
                    deltas: Vec::new(),
                }
            }
        };
        self.send(peer, &resp, now_us);
    }

    fn on_catchup_resp(
        &mut self,
        peer: &str,
        pid: u32,
        base: Option<EpochState>,
        deltas: Vec<(u64, DeltaRecord)>,
        now_us: u64,
    ) {
        let Some(replica) = self.replicas.get_mut(&pid) else {
            return;
        };
        let mut reached = None;
        if let Some(state) = base {
            // Full-state bootstrap: adopt only if it moves us forward
            // and its content matches its checksum.
            if state.epoch > replica.mirror.epoch {
                let snap = snapshot_from_state(&state);
                if snap.content_checksum() == state.content_checksum
                    && replica.store.publish_as(snap, state.epoch).is_ok()
                {
                    reached = Some((state.epoch, state.content_checksum));
                    replica.mirror = state;
                    // The chain that built the old mirror is now
                    // meaningless; future catch-ups we serve bootstrap.
                    replica.history.clear();
                    // The operators jumped epochs wholesale: rebuild
                    // them from the adopted corpus.
                    replica.stream_resync();
                } else {
                    self.counters.rejected.inc();
                }
            }
        }
        for (prev, delta) in deltas {
            if delta.epoch <= replica.mirror.epoch {
                continue; // already have it (e.g. raced with a push)
            }
            if prev != replica.mirror.epoch {
                break; // chain no longer lines up; a later round retries
            }
            match replica.apply_verified(prev, delta, self.opts.history_cap) {
                Some(r) => reached = Some(r),
                None => {
                    self.counters.rejected.inc();
                    break;
                }
            }
        }
        if let Some((epoch, checksum)) = reached {
            self.counters.catchup_applied.inc();
            self.acks
                .entry((pid, epoch))
                .or_default()
                .insert(self.name.clone());
            self.send(
                peer,
                &ReplMsg::DeltaAck {
                    partition: pid,
                    epoch,
                    checksum,
                },
                now_us,
            );
        }
    }

    fn on_read(&mut self, peer: &str, req_id: u64, bits: u128, now_us: u64) {
        let pid = partition_of(bits, self.opts.partitions);
        let resp = match self.replicas.get(&pid) {
            None => ReplMsg::ReadResp {
                // Not hosting: epoch 0 tells the coordinator this
                // answer carries no information.
                req_id,
                epoch: 0,
                present: false,
                first_week: None,
                shard_missing: false,
            },
            Some(replica) => {
                // The read protocol carries no alias cover, so the
                // replica skips `lookup_in`'s alias walk and answers
                // from the shared single probe alone.
                let snap = replica.store.snapshot();
                let addr = Ipv6Addr::from(bits);
                let first_week = query::first_week_in(&snap, addr, None);
                ReplMsg::ReadResp {
                    req_id,
                    epoch: snap.epoch(),
                    present: first_week.is_some(),
                    first_week,
                    shard_missing: snap.shard_missing(addr),
                }
            }
        };
        self.counters.reads_served.inc();
        self.send(peer, &resp, now_us);
    }

    /// Frames and sends one message toward `peer`. Exactly one frame
    /// per chunk (see the module docs); send errors mean this node is
    /// crashed and are ignored — the driver reaps it.
    fn send(&mut self, peer: &str, msg: &ReplMsg, now_us: u64) {
        if let Some(p) = self.peers.get_mut(peer) {
            let _ = p.link.send(&frame(&msg.encode()), now_us);
        }
    }
}

fn shard_bits(shard_count: usize) -> u32 {
    assert!(
        shard_count.is_power_of_two(),
        "shard count must be a power of two"
    );
    shard_count.trailing_zeros()
}

fn empty_mirror(pid: u32, shard_count: usize) -> EpochState {
    EpochState {
        name: partition_name(pid),
        shard_bits: shard_bits(shard_count),
        ..EpochState::default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::net::ClusterNet;
    use v6chaos::NoChaos;

    fn scratch(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("v6cluster-node-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn opts(root: &std::path::Path) -> NodeOpts {
        NodeOpts {
            data_root: root.to_path_buf(),
            shard_count: 4,
            partitions: 4,
            history_cap: 4,
        }
    }

    fn wire(net: &ClusterNet, a: &mut Node, b: &mut Node) {
        a.connect(
            b.name().to_string(),
            net.link(a.name().to_string(), b.name().to_string()),
        );
        b.connect(
            a.name().to_string(),
            net.link(b.name().to_string(), a.name().to_string()),
        );
    }

    #[test]
    fn push_apply_ack_round_trip() {
        let root = scratch("push");
        let registry = Registry::new();
        let net = ClusterNet::new(Arc::new(NoChaos), &registry);
        let mut leader = Node::create("n0", &[1], opts(&root)).unwrap();
        let mut follower = Node::create("n1", &[1], opts(&root)).unwrap();
        wire(&net, &mut leader, &mut follower);

        let checksum = leader
            .lead_publish(1, 1, 0, vec![(10, 0), (20, 0)], vec![], &["n1".into()], 0)
            .unwrap();
        follower.pump(1_000);
        leader.pump(2_000);

        assert_eq!(follower.epoch_checksum(1), Some((1, checksum)));
        assert_eq!(leader.ack_count(1, 1), 2, "self + follower ack");
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn gap_triggers_catchup_chain_replay() {
        let root = scratch("gap");
        let registry = Registry::new();
        let net = ClusterNet::new(Arc::new(NoChaos), &registry);
        let mut leader = Node::create("n0", &[0], opts(&root)).unwrap();
        let mut follower = Node::create("n1", &[0], opts(&root)).unwrap();
        wire(&net, &mut leader, &mut follower);

        // Epoch 1 never reaches the follower (no pump before the next
        // publish drains the lane into the decoder in order — simulate
        // loss by publishing twice, then dropping the first chunk).
        let drop_link = net.link("n1", "n0");
        leader
            .lead_publish(0, 1, 0, vec![(1, 0)], vec![], &["n1".into()], 0)
            .unwrap();
        {
            // Steal epoch 1's chunk off the lane before the follower
            // sees it.
            let mut l = drop_link;
            let _ = v6wire::transport::Transport::recv(&mut l, 0);
        }
        leader
            .lead_publish(0, 2, 1, vec![(1, 0), (2, 1)], vec![], &["n1".into()], 0)
            .unwrap();

        follower.pump(1_000); // sees epoch 2 push, detects the gap, asks
        leader.pump(2_000); // serves the chain
        follower.pump(3_000); // replays epochs 1..=2
        leader.pump(4_000); // collects the ack

        assert_eq!(
            follower.epoch_checksum(0).map(|(e, _)| e),
            Some(2),
            "follower caught up through the chain"
        );
        assert_eq!(
            leader.epoch_checksum(0),
            follower.epoch_checksum(0),
            "byte-identical content checksums"
        );
        assert_eq!(leader.ack_count(0, 2), 2);
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn restart_rebuilds_mirror_and_bootstraps_forward() {
        let root = scratch("restart");
        let registry = Registry::new();
        let net = ClusterNet::new(Arc::new(NoChaos), &registry);
        let mut leader = Node::create("n0", &[2], opts(&root)).unwrap();
        let mut follower = Node::create("n1", &[2], opts(&root)).unwrap();
        wire(&net, &mut leader, &mut follower);

        leader
            .lead_publish(2, 1, 0, vec![(5, 0)], vec![], &["n1".into()], 0)
            .unwrap();
        follower.pump(1_000);
        assert_eq!(follower.epoch_checksum(2).map(|(e, _)| e), Some(1));

        // Kill the follower (drop it), advance the leader while it is
        // down, then restart it from disk.
        drop(follower);
        leader
            .lead_publish(2, 2, 1, vec![(5, 0), (6, 1)], vec![], &[], 0)
            .unwrap();

        let mut follower = Node::restart("n1", &[2], opts(&root)).unwrap();
        wire(&net, &mut leader, &mut follower);
        assert_eq!(
            follower.epoch_checksum(2).map(|(e, _)| e),
            Some(1),
            "recovery restored the pre-crash epoch"
        );

        follower.request_catchup(2, "n0", 10_000);
        leader.pump(11_000); // empty requester history upstream is
                             // irrelevant; the leader still has its
                             // chain and replays epoch 2
        follower.pump(12_000);
        assert_eq!(leader.epoch_checksum(2), follower.epoch_checksum(2));
        assert_eq!(follower.epoch_checksum(2).map(|(e, _)| e), Some(2));
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn reads_answer_with_epoch_and_quarantine_bit() {
        let root = scratch("read");
        let registry = Registry::new();
        let net = ClusterNet::new(Arc::new(NoChaos), &registry);
        let mut node = Node::create("n0", &[0, 1, 2, 3], opts(&root)).unwrap();
        node.connect(crate::net::CLIENT, net.link("n0", crate::net::CLIENT));
        let mut client = net.link(crate::net::CLIENT, "n0");

        let bits: u128 = 0x2001_0db8 << 96 | 0x1;
        let pid = partition_of(bits, 4);
        node.lead_publish(pid, 1, 3, vec![(bits, 3)], vec![], &[], 0)
            .unwrap();

        client
            .send(&frame(&ReplMsg::Read { req_id: 9, bits }.encode()), 0)
            .unwrap();
        node.pump(1_000);
        let bytes = client.recv(2_000).unwrap();
        let mut dec = FrameDecoder::new();
        let payloads = dec.feed(&bytes).unwrap();
        assert_eq!(payloads.len(), 1);
        assert_eq!(
            ReplMsg::decode(&payloads[0]),
            Some(ReplMsg::ReadResp {
                req_id: 9,
                epoch: 1,
                present: true,
                first_week: Some(3),
                shard_missing: false,
            })
        );
        let _ = std::fs::remove_dir_all(&root);
    }
}
