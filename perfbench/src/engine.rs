//! The `read-engine` workload and the closed-loop client it shares with
//! `pipeline`: seeded `loadgen::RequestStream`s sent straight into a
//! `QueryEngine`, every answer checked.

use std::sync::Arc;
use std::time::Instant;

use v6netsim::rng::hash64;
use v6serve::{
    sample_present, GenRequest, HitlistStore, LoadSpec, QueryEngine, RequestStream, SnapshotBuilder,
};

use crate::corpus;
use crate::hist::Hist;
use crate::report::{median, ratio, Delta, Report};
use crate::trace::{self, Span, Tracer};
use crate::{Args, CLIENTS};

const SHARDS: usize = 8;

/// One span in this many requests is kept in the trace.
const SAMPLE_EVERY: u64 = 64;

/// Span names of the `QueryEngine` calls, in `QueryMix` order; each
/// kind's median latency is reported as `<span>_ns`.
const KINDS: [&str; 6] = [
    "serve.membership",
    "serve.unaliased",
    "serve.lookup",
    "serve.density",
    "serve.new_since",
    "serve.batch",
];

/// A corpus published into a fresh in-memory store.
pub struct Served {
    pub store: Arc<HitlistStore>,
    /// `SnapshotBuilder::build` alone.
    pub build_s: f64,
    /// Build plus `HitlistStore::publish`: until readers see the epoch.
    pub visible_s: f64,
    /// Everything from drawing the corpus to the publish.
    pub setup_s: f64,
}

/// The serve layer's publish path, with the bloom front on: `fill`
/// adds the addresses and aliases, then the snapshot is built and
/// published. Returns what `fill` returned beside the store.
pub fn publish<T>(name: &str, fill: impl FnOnce(&mut SnapshotBuilder) -> T) -> (Served, T) {
    let t0 = Instant::now();
    let mut b = SnapshotBuilder::new(name, SHARDS).with_bloom(true);
    let filled = fill(&mut b);
    let store = Arc::new(HitlistStore::new(name, SHARDS));
    let tb = Instant::now();
    let snap = b.build();
    let build_s = tb.elapsed().as_secs_f64();
    store
        .publish(snap)
        .expect("publishing into a fresh in-memory store");
    let served = Served {
        store,
        build_s,
        visible_s: tb.elapsed().as_secs_f64(),
        setup_s: t0.elapsed().as_secs_f64(),
    };
    (served, filled)
}

pub enum Budget {
    /// Whole seconds, each a slice of its own.
    Seconds(u64),
    /// A fixed number of requests per client, in one slice.
    Requests(u64),
}

/// What the closed-loop clients saw.
pub struct Clients {
    /// Latency of each `QueryEngine` call, in ns, by query kind.
    pub kinds: Vec<Hist>,
    pub slices: Vec<Slice>,
    pub requests: u64,
    pub failed: u64,
    pub spans: Vec<Span>,
}

/// Runs `CLIENTS` closed-loop client threads, each following its own
/// seeded request stream, until the budget is spent.
pub fn run_clients(
    engine: &QueryEngine,
    present: &[u128],
    new_since: &[u64],
    seed: u64,
    budget: &Budget,
    tracing: bool,
) -> Clients {
    let spec = LoadSpec {
        seed,
        ..Default::default()
    };
    let max_week = engine.store().snapshot().week();
    let origin = Instant::now();
    let results: Vec<Clients> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|t| {
                let stream = RequestStream::new(&spec, present, max_week, t);
                let tracer = Tracer::new(tracing, origin, t as u64 + 1);
                s.spawn(move || client(engine, stream, new_since, budget, tracer))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let elapsed_s = origin.elapsed().as_secs_f64();
    let mut out = Clients {
        kinds: (0..KINDS.len()).map(|_| Hist::default()).collect(),
        slices: Vec::new(),
        requests: 0,
        failed: 0,
        spans: Vec::new(),
    };
    for r in results {
        for (a, b) in out.kinds.iter_mut().zip(&r.kinds) {
            a.merge(b);
        }
        merge_slices(&mut out.slices, r.slices);
        out.requests += r.requests;
        out.failed += r.failed;
        out.spans.extend(r.spans);
    }
    if let Budget::Requests(_) = budget {
        out.slices[0].secs = elapsed_s;
    }
    out
}

fn client(
    engine: &QueryEngine,
    mut stream: RequestStream<'_>,
    new_since: &[u64],
    budget: &Budget,
    mut tracer: Tracer,
) -> Clients {
    let mut kinds: Vec<Hist> = (0..KINDS.len()).map(|_| Hist::default()).collect();
    let (mut n, mut failed) = (0u64, 0u64);
    let origin = Instant::now();
    let mut slices = vec![Slice::new(1.0)];
    tracer.alternate(0);
    loop {
        let done = match *budget {
            Budget::Seconds(secs) if n % 64 == 0 => {
                let at = origin.elapsed().as_secs();
                while (slices.len() as u64) <= at.min(secs - 1) {
                    tracer.alternate(slices.len() as u64);
                    slices.push(Slice::new(1.0));
                }
                at >= secs
            }
            Budget::Seconds(_) => false,
            Budget::Requests(k) => n >= k,
        };
        if done {
            break;
        }
        let t0 = (tracer.on() && n % SAMPLE_EVERY == 0).then(Instant::now);
        let req = stream.next_request();
        let start;
        let (kind, ok) = match req {
            GenRequest::Membership { addr, from_present } => {
                start = Instant::now();
                let found = engine.contains(addr);
                (0, found || !from_present)
            }
            GenRequest::MembershipUnaliased { addr } => {
                start = Instant::now();
                std::hint::black_box(engine.contains_unaliased(addr));
                (1, true)
            }
            GenRequest::Lookup { addr, from_present } => {
                start = Instant::now();
                let ans = engine.lookup(addr);
                (
                    2,
                    ans.present == ans.first_week.is_some() && (ans.present || !from_present),
                )
            }
            GenRequest::Density {
                prefix,
                from_present,
            } => {
                start = Instant::now();
                let count = engine.count_within(&prefix);
                (3, count > 0 || !from_present)
            }
            GenRequest::NewSince { week } => {
                start = Instant::now();
                let count = engine.new_since(week);
                (
                    4,
                    new_since.get(week as usize).copied().unwrap_or(0) == count,
                )
            }
            GenRequest::Batch {
                addrs,
                expect_present,
            } => {
                start = Instant::now();
                let ans = engine.batch_lookup(&addrs);
                (
                    5,
                    ans.answers.len() == addrs.len() && ans.present >= expect_present,
                )
            }
        };
        let end = Instant::now();
        let ns = (end - start).as_nanos() as u64;
        kinds[kind].record(ns);
        slices.last_mut().expect("one slice at least").record(ns);
        failed += u64::from(!ok);
        if let Some(t0) = t0 {
            let root = tracer.span("bench.request", t0, Instant::now(), 0, n);
            tracer.span(KINDS[kind], start, end, root, n);
        }
        n += 1;
    }
    Clients {
        kinds,
        slices,
        requests: n,
        failed,
        spans: std::mem::take(&mut tracer.spans),
    }
}

/// One slice of a timed region: the reads answered in it and their
/// latencies in ns.
pub struct Slice {
    pub secs: f64,
    pub reads: u64,
    pub latency: Hist,
}

impl Slice {
    pub fn new(secs: f64) -> Slice {
        Slice {
            secs,
            reads: 0,
            latency: Hist::default(),
        }
    }

    pub fn record(&mut self, ns: u64) {
        self.reads += 1;
        self.latency.record(ns);
    }
}

/// Adds each thread's slice `i` into slice `i` of `into`.
pub fn merge_slices(into: &mut Vec<Slice>, from: Vec<Slice>) {
    for (i, s) in from.into_iter().enumerate() {
        match into.get_mut(i) {
            Some(t) => {
                t.reads += s.reads;
                t.latency.merge(&s.latency);
            }
            None => into.push(s),
        }
    }
}

/// End-to-end read metrics: throughput and latency percentiles of each
/// slice, and their medians over the slices, so interference from
/// outside the process during one slice moves one value, not the result.
pub fn read_metrics(rep: &mut Report, slices: &[Slice]) {
    let per = |f: &dyn Fn(&Slice) -> f64| median(&slices.iter().map(f).collect::<Vec<_>>());
    rep.set("reads_per_s", per(&|s| s.reads as f64 / s.secs));
    rep.set("read_p50_us", per(&|s| s.latency.quantile(0.5) / 1e3));
    rep.set("read_p99_us", per(&|s| s.latency.quantile(0.99) / 1e3));
    let fewest = slices.iter().map(|s| s.latency.count()).min().unwrap_or(0);
    let beyond = slices
        .iter()
        .map(|s| s.latency.beyond(0.99))
        .min()
        .unwrap_or(0);
    rep.record(
        "read_percentiles",
        format!("{{\"slices\":{},\"fewest_samples_per_slice\":{fewest},\"fewest_beyond_p99\":{beyond}}}", slices.len()),
    );
    let rates: Vec<String> = slices
        .iter()
        .map(|s| format!("{:.0}", s.reads as f64 / s.secs))
        .collect();
    rep.record("slice_reads_per_s", format!("[{}]", rates.join(",")));
}

/// The `serve.*` layer metrics of a traced client run.
pub fn serve_layer(
    rep: &mut Report,
    clients: &Clients,
    delta: &Delta,
    store: &HitlistStore,
    build_s: f64,
) {
    for (hist, span) in clients.kinds.iter().zip(KINDS) {
        rep.set(format!("{span}_ns"), hist.quantile(0.5));
    }
    let rejected = delta.counter("serve.bloom.hit") as f64;
    let absent_probes = rejected + delta.counter("serve.bloom.false_positive") as f64;
    rep.set("serve.bloom_reject_share", ratio(rejected, absent_probes));
    let snap = store.metrics().registry().snapshot();
    let compressed = snap
        .gauges
        .iter()
        .find(|(n, _)| n == "serve.store.bytes.compressed")
        .map_or(0, |&(_, v)| v);
    let addrs = store.snapshot().len() as f64;
    rep.set("serve.bytes_per_addr", ratio(compressed as f64, addrs));
    rep.set("serve.build_s", build_s);
}

/// Addresses in the read-engine snapshot.
const ADDRESSES: u64 = 1 << 23;

/// Setups per untraced run; `setup_s` is their median.
const SETUPS: usize = 3;

/// Requests in one timed run behind `wall_s`, split over the clients.
pub const WALL_REQUESTS: u64 = 1 << 20;
/// Runs of `WALL_REQUESTS` per process; `wall_s` is their median.
pub const WALL_RUNS: u64 = 3;

/// The request seed of the `r`-th `wall_s` run.
pub fn wall_seed(seed: u64, r: u64) -> u64 {
    hash64(seed, b"perfbench-wall").wrapping_add(r)
}

pub fn read_engine(args: &Args, rep: &mut Report) {
    rep.record("bloom", "\"on\"");
    rep.record("fsync", "\"none: in-memory store\"");
    let (mut setups, mut visible) = (Vec::new(), Vec::new());
    let mut served = None;
    for _ in 0..if args.trace { 1 } else { SETUPS } {
        drop(served.take());
        let s = publish("read-engine", |b| corpus::served(args.seed, ADDRESSES, b));
        setups.push(s.0.setup_s);
        visible.push(s.0.visible_s * 1e3);
        served = Some(s);
    }
    let (served, summary) = served.expect("at least one setup");
    rep.record("addresses", summary.addresses);
    rep.record("alias_prefixes", summary.aliases);
    rep.record("setups", setups.len());
    let engine = QueryEngine::new(Arc::clone(&served.store));
    let snap = served.store.snapshot();
    let present = sample_present(&snap, 65_536);
    let table = corpus::new_since_table(&summary.per_week);
    let registry = served.store.metrics().registry();

    if !args.trace {
        let out = run_clients(
            &engine,
            &present,
            &table,
            args.seed,
            &Budget::Seconds(args.seconds),
            false,
        );
        rep.ops(out.requests, out.failed);
        read_metrics(rep, &out.slices);
        let walls: Vec<f64> = (0..WALL_RUNS)
            .map(|r| {
                let budget = Budget::Requests(WALL_REQUESTS / CLIENTS as u64);
                let seed = wall_seed(args.seed, r);
                let out = run_clients(&engine, &present, &table, seed, &budget, false);
                rep.ops(out.requests, out.failed);
                out.slices[0].secs
            })
            .collect();
        rep.set("wall_s", median(&walls));
        rep.record(
            "wall_s_unit_of_work",
            format!("\"{WALL_REQUESTS} requests, median of {WALL_RUNS} runs\""),
        );
        rep.set("setup_s", median(&setups));
        rep.visible(&visible);
    } else {
        let before = registry.snapshot();
        let budget = Budget::Seconds(args.seconds);
        let out = run_clients(&engine, &present, &table, args.seed, &budget, true);
        let delta = Delta::between(&before, &registry.snapshot());
        rep.ops(out.requests, out.failed);
        serve_layer(rep, &out, &delta, &served.store, served.build_s);
        let rates: Vec<f64> = out.slices.iter().map(|s| s.reads as f64 / s.secs).collect();
        trace::finish(rep, args, &out.spans, trace::overhead(&rates));
    }
    rep.check(snap.verify_integrity(), || {
        "snapshot integrity failed".into()
    });
}
