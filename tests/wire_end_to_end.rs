//! Cross-crate integration: collect a hitlist from the simulator,
//! publish it into the serving store, and query it through the v6wire
//! front door — including over a faulty transport, where the client
//! reconnects and retries until the wire answers match direct snapshot
//! answers byte for byte.
//!
//! Because the front door, the in-process engine and cluster replica
//! reads share one answer path, "wire equals `serve_request`" cannot
//! catch a wrong answer on its own: the parity test checks all of them
//! against a `BTreeMap` oracle built from the inputs.

use std::collections::BTreeMap;
use std::net::Ipv6Addr;
use std::sync::Arc;
use std::time::Duration;

use ipv6_hitlists::addr::Prefix;
use ipv6_hitlists::chaos::{ScriptedChaos, SiteScript};
use ipv6_hitlists::cluster::{partition_of, Cluster, ClusterConfig, PublishOutcome, ReadStatus};
use ipv6_hitlists::hitlist::collect::active::collect_hitlist;
use ipv6_hitlists::hitlist::HitlistService;
use ipv6_hitlists::netsim::rng::hash64;
use ipv6_hitlists::netsim::{World, WorldConfig};
use ipv6_hitlists::obs::MetricsSnapshot;
use ipv6_hitlists::scan::HitlistCampaignConfig;
use ipv6_hitlists::serve::{
    sample_present, HitlistStore, Ingestor, LookupAnswer, PublicationUpdate, QueryEngine,
    SnapshotBuilder,
};
use ipv6_hitlists::store::AliasEntry;
use ipv6_hitlists::wire::proto::{Request, Response, WireLookup};
use ipv6_hitlists::wire::{
    duplex, serve_request, AdmissionConfig, ChaosTransport, PipeTransport, ServerConn, WireClient,
    WireServer,
};

/// Collects a small campaign and publishes it through the ingestion
/// pipeline, returning the store the front door will serve from.
fn published_store() -> Arc<HitlistStore> {
    let world = World::build(WorldConfig::tiny(), 909);
    let hl = collect_hitlist(
        &world,
        0,
        &HitlistCampaignConfig {
            weeks: 2,
            ..Default::default()
        },
    );
    let service = HitlistService::from_campaign("wire-e2e", &hl.campaign);
    assert!(service.total_responsive() > 0, "campaign found nothing");
    let store = Arc::new(HitlistStore::new("wire-e2e", 4));
    let ingest = Ingestor::default().spawn(store.clone());
    for snap in &service.snapshots {
        ingest
            .submit(PublicationUpdate::Week {
                week: snap.week,
                addresses: snap.new_responsive.clone(),
            })
            .expect("ingest pipeline alive");
    }
    ingest
        .submit(PublicationUpdate::Aliases {
            week: 0,
            prefixes: service.aliased.clone(),
        })
        .expect("ingest pipeline alive");
    ingest.finish();
    store
}

#[test]
fn wire_answers_match_direct_queries() {
    let store = published_store();
    let snap = store.snapshot();
    let engine = QueryEngine::new(store.clone());
    let server = WireServer::new(engine, AdmissionConfig::default(), 0);

    let present: Vec<u128> = sample_present(&snap, 64);
    assert!(!present.is_empty());

    let mut conn = server.open_connection(1);
    let (client_end, mut server_end) = duplex();
    let mut client = WireClient::connect(client_end, 0).expect("connect");

    // Pipeline one of each query shape, plus a batch over the sample.
    let mut requests = vec![
        Request::Status,
        Request::NewSince { week: 1 },
        Request::Batch {
            addrs: present.clone(),
        },
    ];
    for &a in present.iter().take(8) {
        requests.push(Request::Lookup { addr: a });
        requests.push(Request::Membership { addr: a });
    }
    for req in &requests {
        client.send(req, 0).expect("send");
    }
    conn.pump(&mut server_end, 0).expect("pump");
    let responses = client.poll(0).expect("poll");
    assert_eq!(responses.len(), requests.len());

    // Every wire answer equals the pure dispatch against the same
    // snapshot: the transport, framing, and admission layers are
    // answer-transparent for an admitted steady client.
    for ((_, got), req) in responses.iter().zip(&requests) {
        assert_eq!(got, &serve_request(&snap, req.clone()), "for {req:?}");
    }
    match &responses[2].1 {
        Response::Batch {
            answers,
            present: n,
            ..
        } => {
            assert_eq!(answers.len(), present.len());
            assert_eq!(*n, present.len() as u64, "sampled addresses all present");
        }
        other => panic!("unexpected {other:?}"),
    }
}

#[test]
fn chaos_corruption_and_loss_survive_reconnect_and_retry() {
    let store = published_store();
    let snap = store.snapshot();
    let engine = QueryEngine::new(store);
    let server = WireServer::new(engine, AdmissionConfig::default(), 0);

    let probe = sample_present(&snap, 1)[0];
    let want = serve_request(&snap, Request::Lookup { addr: probe });

    // Each attempt sends two pings then the lookup, so the lookup is
    // the transport's chunk 3 (preamble = 0). Attempt 0: the lookup
    // frame is corrupted in transit — the flip lands in the payload,
    // the server's checksum catches it, and the connection closes.
    // Attempt 1: the lookup frame is lost. Attempt 2: clean. Sites are
    // sequence-numbered per transport, so each attempt's fate is
    // scripted exactly.
    let chaos = ScriptedChaos::new()
        .with("wire.c2s0.3", SiteScript::permanent_panic())
        .with("wire.c2s1.3", SiteScript::permanent());

    let mut answer = None;
    let mut attempts = 0u32;
    while answer.is_none() && attempts < 5 {
        let (client_end, mut server_end) = duplex();
        let faulty = ChaosTransport::new(client_end, chaos.clone(), format!("c2s{attempts}"));
        let mut conn = server.open_connection(100 + u64::from(attempts));
        let mut client = WireClient::connect(faulty, 0).expect("connect");
        client.send(&Request::Ping, 0).expect("send");
        client.send(&Request::Ping, 0).expect("send");
        let lookup_id = client
            .send(&Request::Lookup { addr: probe }, 0)
            .expect("send");
        // Bounded pump/poll rounds; a lost request never answers and a
        // corrupted one closes the connection — both end in a retry.
        'rounds: for round in 0..4u64 {
            let now = round * 1_000;
            if conn.pump(&mut server_end, now).is_err() {
                break;
            }
            match client.poll(now) {
                Ok(responses) => {
                    for (id, resp) in responses {
                        if id == lookup_id {
                            answer = Some(resp);
                            break 'rounds;
                        }
                    }
                }
                Err(_) => break, // protocol violation or closed: reconnect
            }
        }
        attempts += 1;
    }

    assert_eq!(attempts, 3, "corruption, loss, then a clean attempt");
    assert_eq!(answer.expect("retry converged"), want);
    // The corrupted attempt is visible as a protocol error; nothing was
    // silently mis-served.
    let metrics = server.metrics().registry().snapshot();
    assert_eq!(metrics.counter("wire.conn.protocol_errors"), Some(1));
}

#[test]
fn stalled_requests_answer_late_but_correct() {
    let store = published_store();
    let snap = store.snapshot();
    let engine = QueryEngine::new(store);
    let server = WireServer::new(engine, AdmissionConfig::default(), 0);

    let probe = sample_present(&snap, 1)[0];
    let want = serve_request(&snap, Request::Lookup { addr: probe });

    // The request frame stalls 5 ms in transit (slow peer): invisible
    // to the server until release, answered correctly afterwards.
    let chaos = ScriptedChaos::new().with(
        "wire.slow.1",
        SiteScript::ok().with_stall(Duration::from_millis(5)),
    );
    let (client_end, mut server_end) = duplex();
    let mut conn = server.open_connection(7);
    let mut client =
        WireClient::connect(ChaosTransport::new(client_end, chaos, "slow"), 0).expect("connect");
    client
        .send(&Request::Lookup { addr: probe }, 0)
        .expect("send");

    conn.pump(&mut server_end, 1_000).expect("pump");
    assert!(client.poll(1_000).expect("poll").is_empty(), "not due yet");

    // Past the stall deadline the client's recv releases the chunk.
    assert!(client.poll(6_000).expect("poll").is_empty());
    conn.pump(&mut server_end, 6_000).expect("pump");
    let responses = client.poll(6_000).expect("poll");
    assert_eq!(responses.len(), 1);
    assert_eq!(responses[0].1, want);
}

const SHARDS: usize = 4;
/// The shard published as quarantined (stale, labeled degraded).
const QUARANTINED: u32 = 2;

/// The parity corpus: `(bits, week)` submissions — some addresses twice
/// under different weeks — and aliased prefixes: a nested /48 ⊃ /56 ⊃
/// /64 chain, a /40 spanning several shards, and a /48 in the
/// quarantined shard.
fn parity_inputs() -> (Vec<(u128, u32)>, Vec<Prefix>) {
    // /64 networks spread over all four shards (shard = low two bits of
    // the third hextet), two of them in the quarantined shard.
    let nets: [u64; 9] = [
        0x2001_0db8_0000_0001,
        0x2001_0db8_0001_0001,
        0x2001_0db8_0002_0001,
        0x2001_0db8_0006_0001,
        0x2001_0db8_0003_0001,
        0x2001_0db8_0005_0001,
        0x2001_0db8_0005_ff00,
        0x2001_0db8_0005_ff10,
        0x2001_0db8_0102_0007,
    ];
    let mut entries = Vec::new();
    for (n, &net) in nets.iter().enumerate() {
        for i in 0..24u64 {
            let h = hash64((n as u64) << 32 | i, b"parity-present");
            let bits = (u128::from(net) << 64) | u128::from(h);
            entries.push((bits, (h % 7) as u32));
            if i % 5 == 0 {
                // A re-submission under another week: the earliest wins.
                entries.push((bits, (h >> 8) as u32 % 7));
            }
        }
    }
    let aliases = [
        "2001:db8:100::/40",
        "2001:db8:5::/48",
        "2001:db8:5:ff00::/56",
        "2001:db8:5:ff00::/64",
        "2001:db8:6::/48",
    ]
    .iter()
    .map(|p| p.parse().unwrap())
    .collect();
    (entries, aliases)
}

/// The expected answer for one address, derived from the inputs alone.
fn oracle_answer(weeks: &BTreeMap<u128, u32>, aliases: &[Prefix], bits: u128) -> WireLookup {
    let addr = Ipv6Addr::from(bits);
    WireLookup {
        present: weeks.contains_key(&bits),
        first_week: weeks.get(&bits).copied(),
        alias: aliases
            .iter()
            .filter(|p| p.contains(addr))
            .max_by_key(|p| p.len())
            .copied(),
        degraded: (bits >> 80) as u32 & (SHARDS as u32 - 1) == QUARANTINED,
    }
}

/// Present, absent (in populated and empty networks), aliased and
/// quarantined probes.
fn parity_probes(entries: &[(u128, u32)]) -> Vec<u128> {
    let mut probes: Vec<u128> = entries.iter().step_by(3).map(|&(b, _)| b).collect();
    for (i, &(bits, _)) in entries.iter().enumerate().step_by(4) {
        // Same /64, another interface identifier.
        probes.push(bits ^ u128::from(hash64(i as u64, b"parity-absent") | 1));
    }
    for s in [
        "2001:db8:5:ff00::dead",
        "2001:db8:1ff:1::1",
        "2001:db8:6:77::1",
        "2001:db8:2:0:1::1",
        "2001:db8:9::1",
        "2001:db9::1",
    ] {
        probes.push(u128::from(s.parse::<Ipv6Addr>().unwrap()));
    }
    probes
}

fn assert_lookup_matches(got: &WireLookup, want: &WireLookup, what: &str, bits: u128) {
    assert_eq!(got, want, "{what} for {}", Ipv6Addr::from(bits));
}

/// The engine's answer in the oracle's shape (its epoch is checked
/// separately).
fn engine_view(a: &LookupAnswer) -> WireLookup {
    WireLookup {
        present: a.present,
        first_week: a.first_week,
        alias: a.alias,
        degraded: a.degraded,
    }
}

#[test]
fn every_read_path_matches_an_independent_oracle() {
    let (entries, aliases) = parity_inputs();
    let mut weeks: BTreeMap<u128, u32> = BTreeMap::new();
    for &(bits, week) in &entries {
        weeks
            .entry(bits)
            .and_modify(|w| *w = (*w).min(week))
            .or_insert(week);
    }
    let probes = parity_probes(&entries);
    let want: Vec<WireLookup> = probes
        .iter()
        .map(|&b| oracle_answer(&weeks, &aliases, b))
        .collect();
    // The probe set covers every category it claims to.
    assert!(want
        .iter()
        .any(|w| w.present && w.alias.is_some() && !w.degraded));
    assert!(want.iter().any(|w| w.present && w.degraded));
    assert!(want.iter().any(|w| !w.present && w.alias.is_some()));
    assert!(want.iter().any(|w| !w.present && w.degraded));
    assert!(want
        .iter()
        .any(|w| !w.present && w.alias.is_none() && !w.degraded));
    let aliased_lens: Vec<u8> = want
        .iter()
        .filter_map(|w| w.alias.map(|p| p.len()))
        .collect();
    for len in [40, 48, 56, 64] {
        assert!(
            aliased_lens.contains(&len),
            "no probe answered by the /{len}"
        );
    }

    let mut b = SnapshotBuilder::new("parity", SHARDS)
        .with_bloom(true)
        .with_quarantined(vec![QUARANTINED]);
    for &(bits, week) in &entries {
        b.add_bits(bits, week);
    }
    for &p in &aliases {
        b.add_alias(p, 0);
    }
    let store = Arc::new(HitlistStore::new("parity", SHARDS));
    store.publish(b.build()).expect("publish");
    let snap = store.snapshot();
    let engine = QueryEngine::new(store.clone());

    // In-process engine, single and batched.
    for (&bits, want) in probes.iter().zip(&want) {
        let addr = Ipv6Addr::from(bits);
        let got = engine.lookup(addr);
        assert_eq!(got.epoch, 1);
        assert_lookup_matches(&engine_view(&got), want, "engine lookup", bits);
        assert_eq!(engine.contains(addr), want.present);
        assert_eq!(
            engine.contains_unaliased(addr),
            want.present && want.alias.is_none()
        );
    }
    let addrs: Vec<Ipv6Addr> = probes.iter().map(|&b| Ipv6Addr::from(b)).collect();
    let batch = engine.batch_lookup(&addrs);
    assert_eq!(batch.epoch, 1);
    for ((&bits, got), want) in probes.iter().zip(&batch.answers).zip(&want) {
        assert_lookup_matches(&engine_view(got), want, "engine batch", bits);
    }

    // The front door over a byte pipe, and the uncounted reference.
    let generous = AdmissionConfig {
        client_burst: 100_000,
        global_burst: 100_000,
        ..AdmissionConfig::default()
    };
    let server = WireServer::new(engine, generous, 0);
    let mut conn = server.open_connection(1);
    let (client_end, mut server_end) = duplex();
    let mut client = WireClient::connect(client_end, 0).expect("connect");
    let mut requests = vec![Request::Batch {
        addrs: probes.clone(),
    }];
    for &addr in &probes {
        requests.push(Request::Lookup { addr });
        requests.push(Request::Membership { addr });
        requests.push(Request::MembershipUnaliased { addr });
    }
    for req in &requests {
        client.send(req, 0).expect("send");
    }
    conn.pump(&mut server_end, 0).expect("pump");
    let responses = client.poll(0).expect("poll");
    assert_eq!(responses.len(), requests.len());
    for (got, req) in responses.iter().map(|(_, r)| r).zip(&requests) {
        for (path, resp) in [
            ("wire", got),
            ("serve_request", &serve_request(&snap, req.clone())),
        ] {
            match (req, resp) {
                (
                    Request::Batch { .. },
                    Response::Batch {
                        epoch,
                        missing_shards,
                        answers,
                        present,
                        aliased,
                    },
                ) => {
                    assert_eq!(*epoch, 1);
                    assert_eq!(missing_shards, &[QUARANTINED]);
                    assert_eq!(answers, &want, "{path} batch");
                    assert_eq!(*present, want.iter().filter(|w| w.present).count() as u64);
                    assert_eq!(
                        *aliased,
                        want.iter().filter(|w| w.alias.is_some()).count() as u64
                    );
                }
                (Request::Lookup { addr }, Response::Lookup { epoch, answer }) => {
                    assert_eq!(*epoch, 1);
                    let want = oracle_answer(&weeks, &aliases, *addr);
                    assert_lookup_matches(answer, &want, path, *addr);
                }
                (Request::Membership { addr }, Response::Bool { value }) => {
                    assert_eq!(*value, weeks.contains_key(addr), "{path} membership");
                }
                (Request::MembershipUnaliased { addr }, Response::Bool { value }) => {
                    let want = oracle_answer(&weeks, &aliases, *addr);
                    assert_eq!(
                        *value,
                        want.present && want.alias.is_none(),
                        "{path} unaliased"
                    );
                }
                other => panic!("{path}: unexpected pair {other:?}"),
            }
        }
    }

    // Hedged reads on a 3-node cluster holding the same content, one
    // partition store per /48 hash bucket.
    let mut cluster = Cluster::new(ClusterConfig::new(3, 3, 0x9a)).expect("scratch dirs");
    let partitions = cluster.config().partitions;
    let mut committed = BTreeMap::new();
    for pid in 0..partitions {
        let part: Vec<(u128, u32)> = weeks
            .iter()
            .filter(|&(&bits, _)| partition_of(bits, partitions) == pid)
            .map(|(&bits, &week)| (bits, week))
            .collect();
        let part_aliases = aliases
            .iter()
            .map(|p| AliasEntry {
                bits: p.bits(),
                len: p.len(),
                week: 0,
            })
            .collect();
        match cluster.publish(pid, 6, part, part_aliases) {
            PublishOutcome::Committed { epoch, .. } => committed.insert(pid, epoch),
            other => panic!("p{pid} publish {other:?}"),
        };
    }
    for _ in 0..3 {
        cluster.pump_round();
    }
    for &bits in &probes {
        let out = cluster.read(bits);
        let pid = partition_of(bits, partitions);
        assert_eq!(out.status, ReadStatus::Fresh, "{}", Ipv6Addr::from(bits));
        assert_eq!(out.epoch, committed[&pid], "cluster epoch");
        assert_eq!(out.present, weeks.contains_key(&bits), "cluster present");
        assert_eq!(
            out.first_week,
            weeks.get(&bits).copied(),
            "cluster first week"
        );
    }
}

/// The store's `serve.query.*` / `serve.bloom.*` counter deltas.
fn serve_deltas(now: &MetricsSnapshot, before: &MetricsSnapshot) -> Vec<(String, u64)> {
    now.counter_deltas(before)
        .into_iter()
        .filter(|(name, _)| name.starts_with("serve.query.") || name.starts_with("serve.bloom."))
        .collect()
}

/// One client connection over a byte pipe.
struct Peer {
    client: WireClient<PipeTransport>,
    conn: ServerConn,
    server_end: PipeTransport,
}

impl Peer {
    fn open(server: &Arc<WireServer>, client_id: u64) -> Peer {
        let (client_end, server_end) = duplex();
        Peer {
            client: WireClient::connect(client_end, 0).expect("connect"),
            conn: server.open_connection(client_id),
            server_end,
        }
    }

    /// Sends `requests` at time 0 and returns the responses in order.
    fn exchange(&mut self, requests: &[Request]) -> Vec<Response> {
        for req in requests {
            self.client.send(req, 0).expect("send");
        }
        self.conn.pump(&mut self.server_end, 0).expect("pump");
        let responses = self.client.poll(0).expect("poll");
        assert_eq!(responses.len(), requests.len());
        responses.into_iter().map(|(_, r)| r).collect()
    }
}

#[test]
fn admitted_wire_requests_count_in_serve_query_metrics() {
    let at = |i: u128| (0x2001_0db8u128 << 96) | (i % 4) << 80 | i;
    let store = Arc::new(HitlistStore::new("counted", SHARDS));
    let mut b = SnapshotBuilder::new("counted", SHARDS).with_bloom(true);
    for i in 1..=200u128 {
        b.add_bits(at(i), 0);
    }
    store.publish(b.build()).expect("publish");

    // The admitted requests exhaust both the client's and the global
    // bucket, so the next frame from this client is throttled and the
    // first from another client is shed.
    let (lookups, batches, batch_addrs, membership) = (5u64, 3u64, 3 * 7u64, 4u64);
    let admitted = lookups + batches + membership;
    let cfg = AdmissionConfig {
        client_rate_per_sec: 1,
        client_burst: admitted,
        global_rate_per_sec: 1,
        global_burst: admitted,
        ..AdmissionConfig::default()
    };
    let server = WireServer::new(QueryEngine::new(store.clone()), cfg, 0);
    let registry = store.metrics().registry();
    let before = registry.snapshot();

    let mut requests = Vec::new();
    for i in 0..lookups as u128 {
        requests.push(Request::Lookup { addr: at(i * 3) });
    }
    for j in 0..batches as u128 {
        requests.push(Request::Batch {
            addrs: (0..7).map(|i| at(j * 50 + i * 5)).collect(),
        });
    }
    for i in 0..membership as u128 {
        requests.push(Request::Membership { addr: at(i + 1000) });
    }
    let mut steady = Peer::open(&server, 1);
    for resp in steady.exchange(&requests) {
        assert!(
            !matches!(resp, Response::Throttled { .. } | Response::Shed { .. }),
            "{resp:?}"
        );
    }

    let after = registry.snapshot();
    let deltas = serve_deltas(&after, &before);
    let count = |name: &str| {
        deltas
            .iter()
            .find(|(n, _)| n == name)
            .map_or(0, |(_, v)| *v)
    };
    assert_eq!(count("serve.query.lookups"), lookups);
    assert_eq!(count("serve.query.batches"), batches);
    assert_eq!(count("serve.query.batch_addresses"), batch_addrs);
    assert_eq!(count("serve.query.membership"), membership);
    let bloom = [
        "serve.bloom.hit",
        "serve.bloom.miss",
        "serve.bloom.false_positive",
    ];
    for (name, _) in &deltas {
        assert!(
            name.starts_with("serve.query.lookups")
                || name.starts_with("serve.query.batch")
                || name == "serve.query.membership"
                || bloom.contains(&name.as_str()),
            "unexpected counter {name} moved"
        );
    }
    // With the bloom front on, every probe lands in exactly one outcome.
    let probes: u64 = bloom.iter().map(|n| count(n)).sum();
    assert_eq!(probes, lookups + batch_addrs + membership);
    // The wire path keeps its own timer: no serve-side latency sample.
    for (name, h) in &after.histograms {
        if name.starts_with("serve.query.latency.") {
            assert_eq!(h.count, 0, "{name} was timed on the wire path");
        }
    }

    // Refused frames answer nothing, so they count nothing.
    let throttled = steady.exchange(&[Request::Lookup { addr: at(1) }]);
    assert!(
        matches!(throttled[0], Response::Throttled { .. }),
        "{:?}",
        throttled[0]
    );
    let shed = Peer::open(&server, 2).exchange(&[Request::Batch {
        addrs: vec![at(2); 4],
    }]);
    assert!(matches!(shed[0], Response::Shed { .. }), "{:?}", shed[0]);
    assert_eq!(serve_deltas(&registry.snapshot(), &after), Vec::new());
}
